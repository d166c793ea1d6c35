//! Paper-shape tier: the ordering and shape claims of McLaughlin & Bader
//! (IPDPS Workshops 2014), checked on the model clock at every commit.
//!
//! The paper's results are orderings and distribution shapes, so each is
//! only worth something while it is re-checked as the code changes. Each
//! test below keeps the direction and bound of the claim the
//! `crates/bench` harness of the same figure prints at full default
//! scale for EXPERIMENTS.md, at a reduced scale that fits the debug
//! profile. Every `Config` is a literal with the harnesses' seed, never
//! `Config::from_env`, so no environment variable can rescale this tier,
//! and every GPU run is pinned to the simulator, the only backend with a
//! model clock. Each test prints every measured value next to its bound
//! (`cargo test --test paper_shape -- --nocapture`) and fails listing
//! every claim that did not hold.

use dynbc::gpusim::CacheConfig;
use dynbc::graph::suite::{entry_by_short, TABLE_I};
use dynbc::graph::{gen, SlackCsr};
use dynbc::prelude::*;
use dynbc::telemetry::TOUCHED_FRACTION;
use dynbc_bench::{build_setup, run_cpu, run_cpu_with, run_gpu, run_gpu_with, stream, Config};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The harnesses' master seed (IPDPS 2014's week).
const SEED: u64 = 20140519;

/// A literal harness config at `scale` with `sources` BC sources and
/// `insertions` removed-then-reinserted edges.
fn config(scale: f64, sources: usize, insertions: usize) -> Config {
    Config {
        scale,
        sources,
        insertions,
        seed: SEED,
    }
}

/// Collects every claim's outcome, prints it with its margin, and fails
/// once at the end naming each claim that did not hold.
#[derive(Default)]
struct Claims(Vec<String>);

impl Claims {
    fn check(&mut self, holds: bool, claim: String) {
        println!("{} {claim}", if holds { "PASS" } else { "FAIL" });
        if !holds {
            self.0.push(claim);
        }
    }

    fn assert_all(self, figure: &str) {
        assert!(
            self.0.is_empty(),
            "{figure} shape did not reproduce:\n  {}",
            self.0.join("\n  ")
        );
    }
}

/// Median by rounded rank, as `fig4_touched` quantiles its scatter.
fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * 0.5).round() as usize]
}

/// Figure 1: exact static BC reaches its plateau at one block per SM —
/// the speedup at `B = #SMs` is at least 90% of the best over the sweep,
/// on every graph and both devices.
#[test]
fn fig1_one_block_per_sm_reaches_the_plateau() {
    let cfg = config(0.005, usize::MAX, 0);
    let blocks = [1usize, 2, 4, 7, 8, 14, 16, 21, 28, 42, 56];
    let mut claims = Claims::default();
    for device in [DeviceConfig::gtx560(), DeviceConfig::tesla_c2075()] {
        for short in ["caida", "pref", "small"] {
            let el = entry_by_short(short).unwrap().generate(cfg.scale, cfg.seed);
            let csr = Csr::from_edge_list(&el);
            let sources: Vec<VertexId> = (0..csr.vertex_count() as VertexId).collect();
            let times: Vec<f64> = blocks
                .iter()
                .map(|&b| static_bc_gpu(device, &csr, &sources, Parallelism::Node, b).seconds)
                .collect();
            let speedups: Vec<f64> = times.iter().map(|t| times[0] / t).collect();
            let at_sms = speedups[blocks.iter().position(|&b| b == device.num_sms).unwrap()];
            let best = speedups.iter().copied().fold(0.0, f64::max);
            claims.check(
                at_sms >= 0.9 * best,
                format!(
                    "fig1 {} {short} (n={}): speedup at B={} is {at_sms:.3} >= 0.9 x best {best:.3}",
                    device.name,
                    csr.vertex_count(),
                    device.num_sms
                ),
            );
        }
    }
    claims.assert_all("Figure 1");
}

/// Figure 2: Case 2 is most of the work-requiring scenarios and Case 1
/// (no work) is a substantial share of all of them.
#[test]
fn fig2_case2_dominates_the_work_cases() {
    let cfg = config(0.1, 8, 8);
    let mut total = CaseCounts::default();
    for entry in &TABLE_I {
        for r in &run_cpu(&build_setup(entry, &cfg)).per_insertion {
            total.add(&r.cases);
        }
    }
    let case2_of_work = total.adjacent_share_of_work();
    let case1 = total.same as f64 / total.total() as f64;
    let mut claims = Claims::default();
    claims.check(
        case2_of_work > 0.5,
        format!(
            "fig2: Case 2 is {case2_of_work:.4} of {} work cases > 0.5",
            total.adjacent + total.distant
        ),
    );
    claims.check(
        case1 > 0.2,
        format!(
            "fig2: Case 1 is {case1:.4} of {} cases > 0.2",
            total.total()
        ),
    );
    claims.assert_all("Figure 2");
}

/// Figure 4: across every Case 2 scenario, the touched fraction of the
/// graph peaks well below the whole graph and its median is near zero.
#[test]
fn fig4_case2_updates_touch_a_small_fraction() {
    let cfg = config(0.1, 8, 8);
    let mut fractions: Vec<f64> = Vec::new();
    for entry in &TABLE_I {
        let setup = build_setup(entry, &cfg);
        let n = setup.n() as f64;
        fractions.extend(
            run_cpu(&setup)
                .per_insertion
                .iter()
                .flat_map(|r| &r.per_source)
                .filter(|o| o.case == InsertionCase::Adjacent)
                .map(|o| o.touched as f64 / n),
        );
    }
    fractions.sort_by(f64::total_cmp);
    let max = fractions.last().copied().unwrap_or(0.0);
    let med = median(&fractions);
    let mut claims = Claims::default();
    let scenarios = fractions.len();
    claims.check(
        max < 0.60,
        format!("fig4: max touched {max:.4} of {scenarios} Case 2 scenarios < 0.60"),
    );
    claims.check(med < 0.10, format!("fig4: median touched {med:.4} < 0.10"));
    claims.assert_all("Figure 4");
}

/// Figure 1 via telemetry (`fig1_touched_fraction`): the median
/// per-insertion touched fraction, read from the telemetry histogram, is
/// below 10% of |V| on every graph for the CPU and node-parallel engines.
#[test]
fn fig1_median_touched_fraction_is_small_on_every_graph() {
    let cfg = config(0.1, 8, 8);
    let device = DeviceConfig::tesla_c2075();
    let mut claims = Claims::default();
    for entry in &TABLE_I {
        let setup = build_setup(entry, &cfg);
        let (_, mut cpu) = run_cpu_with(&setup, |e| e.set_telemetry(true));
        let (_, mut gpu) =
            run_gpu_with(&setup, device, Parallelism::Node, |e| e.set_telemetry(true));
        for (engine, telemetry) in [
            ("cpu", cpu.take_telemetry_report()),
            ("gpu node", gpu.take_telemetry_report()),
        ] {
            let p50 = telemetry
                .expect("telemetry enabled")
                .histogram(TOUCHED_FRACTION)
                .expect("touched-fraction histogram populated")
                .p50();
            claims.check(
                p50 < 0.10,
                format!(
                    "fig1 telemetry {} {engine}: median touched {p50:.4} < 0.10",
                    entry.short
                ),
            );
        }
    }
    claims.assert_all("Figure 1 (touched fraction)");
}

/// Tables II and III on one set of runs per graph. Table II: node-parallel
/// beats edge-parallel everywhere, node beats the CPU by more than 3x on
/// every graph and by more than 15x on the best one, and edge-parallel's
/// speedup collapses on the mesh (del) to under a third of its best.
/// Table III: even the slowest node-parallel update beats a static
/// recomputation on every graph, and the average update does so by a
/// geometric mean above 5x.
#[test]
fn table2_node_beats_edge_and_table3_updates_beat_recompute() {
    let cfg = config(0.1, 8, 6);
    let device = DeviceConfig::tesla_c2075();
    let mut claims = Claims::default();
    let (mut min_node, mut max_node) = (f64::INFINITY, 0.0f64);
    let mut edge_speedups: Vec<(&str, f64)> = Vec::new();
    let mut avg_speedups: Vec<f64> = Vec::new();
    for entry in &TABLE_I {
        let setup = build_setup(entry, &cfg);
        let cpu = run_cpu(&setup).total_model_seconds;
        let edge = run_gpu(&setup, device, Parallelism::Edge);
        let node = run_gpu(&setup, device, Parallelism::Node);
        let (edge_s, node_s) = (edge.total_model_seconds, node.total_model_seconds);
        claims.check(
            node_s < edge_s,
            format!(
                "table2 {}: node {node_s:.4e} s < edge {edge_s:.4e} s",
                entry.short
            ),
        );
        min_node = min_node.min(cpu / node_s);
        max_node = max_node.max(cpu / node_s);
        edge_speedups.push((entry.short, cpu / edge_s));

        let mut full = setup.start.clone();
        for &(u, v) in &setup.insertions {
            full.insert_edge(u, v);
        }
        let recompute = static_bc_gpu(
            device,
            &Csr::from_edge_list(&full),
            &setup.sources,
            Parallelism::Node,
            device.num_sms,
        )
        .seconds;
        let slowest = node.slowest();
        claims.check(
            slowest < recompute,
            format!(
                "table3 {}: slowest update {slowest:.4e} s < recompute {recompute:.4e} s",
                entry.short
            ),
        );
        avg_speedups.push(recompute / node.average());
    }
    claims.check(
        min_node > 3.0,
        format!("table2: min node speedup over cpu {min_node:.2}x > 3x"),
    );
    claims.check(
        max_node > 15.0,
        format!("table2: max node speedup over cpu {max_node:.2}x > 15x"),
    );
    let del_edge = edge_speedups.iter().find(|(g, _)| *g == "del").unwrap().1;
    let best_edge = edge_speedups.iter().map(|&(_, s)| s).fold(0.0, f64::max);
    claims.check(
        del_edge < best_edge / 3.0,
        format!("table2: del edge speedup {del_edge:.2}x < best {best_edge:.2}x / 3"),
    );
    let geo_mean =
        (avg_speedups.iter().map(|s| s.ln()).sum::<f64>() / avg_speedups.len() as f64).exp();
    claims.check(
        geo_mean > 5.0,
        format!("table3: geometric-mean average-update speedup {geo_mean:.2}x > 5x"),
    );
    claims.assert_all("Tables II/III");
}

/// The counters behind Table II, from one memsim run per decomposition
/// and graph (memsim implies profiling): node-parallel's futile-edge
/// ratio is below edge-parallel's (`fig_futile_work`), and under the
/// prefer-L1 geometry its L1 hit rate is above edge-parallel's
/// (`cache_model`), on every graph.
#[test]
fn node_parallel_wastes_fewer_edges_and_hits_l1_more() {
    let cfg = config(0.05, 8, 4);
    let device = DeviceConfig::tesla_c2075();
    let mut claims = Claims::default();
    for entry in &TABLE_I {
        let setup = build_setup(entry, &cfg);
        let [edge, node] = [Parallelism::Edge, Parallelism::Node].map(|par| {
            let (_, mut engine) = run_gpu_with(&setup, device, par, |e| {
                e.set_memsim(true);
                e.set_cache_config(CacheConfig::prefer_l1());
            });
            engine.take_profile_report().total()
        });
        let (edge_futile, node_futile) = (edge.futile_edge_ratio(), node.futile_edge_ratio());
        claims.check(
            node_futile < edge_futile,
            format!(
                "futile {}: node ratio {node_futile:.4} < edge {edge_futile:.4}",
                entry.short
            ),
        );
        let (edge_l1, node_l1) = (edge.cache.l1_hit_rate(), node.cache.l1_hit_rate());
        claims.check(
            node_l1 > edge_l1,
            format!(
                "cache {}: node L1 hit rate {node_l1:.4} > edge {edge_l1:.4}",
                entry.short
            ),
        );
    }
    claims.assert_all("futile-work / L1");
}

/// Per-op snapshots' model-clock updates/sec for the stream below at
/// batch=64, the floor the slack store must hold.
const SNAPSHOT_BASELINE_BATCH64_UPS: f64 = 72110.45754477216;

/// Model-clock batching on one stream: a BA(300, 4) graph, 24 sources and
/// 64 insertions that keep every endpoint pair within one BFS level for
/// every source, so each batch fuses into a single stage. Batch=64 runs
/// at least 2x the batch=1 updates/sec and at least the per-op-snapshot
/// engine's rate, and the slack store's versioned deltas move under a
/// tenth of the slots per-op snapshots staged.
#[test]
fn batching_fuses_stages_and_slack_deltas_stay_sparse() {
    let mut rng = StdRng::seed_from_u64(11);
    let n = 300usize;
    let el = gen::ba(&mut rng, n, 4);
    let sources = sample_sources(&mut rng, n, 24);
    let csr = Csr::from_edge_list(&el);
    let ops = stream::fusable_insertions(&el, &brandes_state(&csr, &sources), 64);
    let device = DeviceConfig::tesla_c2075();
    let ups = |batch: usize| {
        let mut eng = GpuDynamicBc::new(&el, &sources, device, Parallelism::Node)
            .with_backend(Backend::Simulator);
        let model: f64 = ops
            .chunks(batch)
            .map(|chunk| eng.apply_batch(chunk).model_seconds)
            .sum();
        ops.len() as f64 / model
    };
    let (ups1, ups64) = (ups(1), ups(64));

    let mut slack = SlackCsr::from_csr(&csr, 25, 25);
    for chunk in ops.chunks(64) {
        for (j, op) in chunk.iter().enumerate() {
            match *op {
                EdgeOp::Insert(u, v) => slack.insert_edge_versioned(u, v, j as u32 + 1),
                EdgeOp::Remove(u, v) => slack.remove_edge_versioned(u, v, j as u32 + 1),
            }
        }
        slack.settle();
    }
    let delta_slots = slack.slots_touched();
    let snapshot_slots = (ops.len() * csr.adjacency().len()) as u64;

    let mut claims = Claims::default();
    claims.check(
        ups64 >= 2.0 * ups1,
        format!("batching: batch=64 {ups64:.0} updates/s >= 2 x batch=1 {ups1:.0}"),
    );
    claims.check(
        ups64 >= SNAPSHOT_BASELINE_BATCH64_UPS,
        format!(
            "batching: batch=64 {ups64:.0} updates/s >= snapshot baseline \
             {SNAPSHOT_BASELINE_BATCH64_UPS:.0}"
        ),
    );
    claims.check(
        delta_slots * 10 < snapshot_slots,
        format!("slack: {delta_slots} delta slots x 10 < {snapshot_slots} snapshot slots"),
    );
    claims.assert_all("batching");
}
