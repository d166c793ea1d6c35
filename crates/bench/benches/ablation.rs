//! Ablation studies on the design choices DESIGN.md calls out.
//!
//! **A. Frontier duplicate removal** — the paper avoids an atomic
//! test-and-set per discovered vertex by tolerating duplicates and running
//! a bitonic-sort/flag/scan pipeline per level. We run the node-parallel
//! dynamic engine both ways and compare simulated time and atomic counts.
//!
//! **B. Specialized Case 2 vs the general path** — Algorithm 2's
//! incremental add/retract bookkeeping exists because distances are
//! static in Case 2. Forcing Case 2 insertions through the general
//! (relocation-capable, pull-based) Case 3 machinery is still correct;
//! this measures what the specialization buys.
//!
//! **C. Multi-GPU strong scaling** — the paper's future-work sketch:
//! D single-device engines over round-robin source partitions
//! ([`dynbc_bench::scaling::partitioned_engines`]), each insertion
//! charged the slowest device's simulated time.

use dynbc_bc::brandes::brandes_state;
use dynbc_bc::gpu::engine::DedupStrategy;
use dynbc_bc::gpu::{GpuDynamicBc, Parallelism};
use dynbc_bench::scaling::partitioned_engines;
use dynbc_bench::table::{fmt_seconds, Table};
use dynbc_bench::{build_setup, Config, Setup};
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::suite::entry_by_short;
use dynbc_graph::Csr;

fn run_variant(
    setup: &Setup,
    device: DeviceConfig,
    dedup: DedupStrategy,
    general: bool,
) -> (f64, u64, u64) {
    let mut engine = GpuDynamicBc::new(&setup.start, &setup.sources, device, Parallelism::Node)
        .with_dedup_strategy(dedup)
        .with_force_general(general);
    for &(u, v) in &setup.insertions {
        engine.insert_edge(u, v);
    }
    // Correctness gate: every variant must match a fresh recomputation.
    let mut final_graph = setup.start.clone();
    for &(u, v) in &setup.insertions {
        final_graph.insert_edge(u, v);
    }
    let fresh = brandes_state(&Csr::from_edge_list(&final_graph), &setup.sources);
    let got = engine.state_snapshot();
    for v in 0..fresh.n {
        assert!(
            (got.bc[v] - fresh.bc[v]).abs() <= 1e-6 * fresh.bc[v].abs().max(1.0),
            "variant dedup={dedup:?} general={general} wrong at BC[{v}]"
        );
    }
    let stats = engine.total_stats();
    (
        engine.elapsed_seconds(),
        stats.atomics,
        stats.atomic_conflicts,
    )
}

fn main() {
    let cfg = Config::from_env(0.35, 24, 20);
    let device = DeviceConfig::tesla_c2075();
    println!(
        "== Ablations ({}; device = {}) ==\n",
        cfg.describe(),
        device.name
    );

    let graphs = ["caida", "pref", "small", "del"];

    println!("-- A. duplicate removal: sort/scan (paper) vs atomicCAS gate --");
    let mut t = Table::new(vec![
        "Graph",
        "SortScan",
        "AtomicCas",
        "CAS/Sort",
        "Sort atomics",
        "CAS atomics",
    ]);
    for short in graphs {
        let setup = build_setup(entry_by_short(short).unwrap(), &cfg);
        let (sort_s, sort_atomics, _) = run_variant(&setup, device, DedupStrategy::SortScan, false);
        let (cas_s, cas_atomics, _) = run_variant(&setup, device, DedupStrategy::AtomicCas, false);
        t.row(vec![
            short.to_string(),
            fmt_seconds(sort_s),
            fmt_seconds(cas_s),
            format!("{:.2}", cas_s / sort_s),
            sort_atomics.to_string(),
            cas_atomics.to_string(),
        ]);
    }
    println!("{}", t.render());

    println!("-- B. Case 2 specialized (Alg 2) vs forced general path --");
    let mut t = Table::new(vec![
        "Graph",
        "Specialized",
        "General",
        "General/Specialized",
    ]);
    let mut ratios = Vec::new();
    for short in graphs {
        let setup = build_setup(entry_by_short(short).unwrap(), &cfg);
        let (spec_s, _, _) = run_variant(&setup, device, DedupStrategy::SortScan, false);
        let (gen_s, _, _) = run_variant(&setup, device, DedupStrategy::SortScan, true);
        ratios.push(gen_s / spec_s);
        t.row(vec![
            short.to_string(),
            fmt_seconds(spec_s),
            fmt_seconds(gen_s),
            format!("{:.2}", gen_s / spec_s),
        ]);
    }
    println!("{}", t.render());

    // Both variants are *correct* (asserted above); the ablation's finding
    // is about cost only. Sanity: the general path is never dramatically
    // cheaper — if it were, the paper's specialization would be pointless.
    let min_ratio = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "ablation check: general path is never < 0.5x of the specialized path \
         (min ratio {min_ratio:.2}) => {}",
        if min_ratio > 0.5 { "PASS" } else { "FAIL" }
    );
    assert!(min_ratio > 0.5, "ablation sanity failed");

    println!("\n-- C. multi-GPU strong scaling (paper future work) --");
    // Strong scaling needs enough coarse-grained work to split: run this
    // section with at least 96 sources regardless of the global config
    // (the per-insertion makespan is otherwise pinned to the heaviest
    // single source).
    let scaling_cfg = dynbc_bench::Config {
        sources: cfg.sources.max(96),
        ..cfg
    };
    let mut t = Table::new(vec![
        "Graph",
        "1 GPU",
        "2 GPUs",
        "4 GPUs",
        "8 GPUs",
        "4-GPU efficiency",
    ]);
    let mut effs = Vec::new();
    for short in ["caida", "small"] {
        let setup = build_setup(entry_by_short(short).unwrap(), &scaling_cfg);
        let time_with = |d: usize| {
            let mut engines =
                partitioned_engines(&setup.start, &setup.sources, device, Parallelism::Node, d);
            let mut total = 0.0;
            for &(u, v) in &setup.insertions {
                total += engines
                    .iter_mut()
                    .map(|eng| eng.insert_edge(u, v).model_seconds)
                    .fold(0.0, f64::max);
            }
            total
        };
        let (t1, t2, t4, t8) = (time_with(1), time_with(2), time_with(4), time_with(8));
        let eff4 = t1 / t4 / 4.0;
        effs.push(eff4);
        t.row(vec![
            short.to_string(),
            fmt_seconds(t1),
            fmt_seconds(t2),
            fmt_seconds(t4),
            fmt_seconds(t8),
            format!("{:.0}%", 100.0 * eff4),
        ]);
    }
    println!("{}", t.render());
    let min_eff = effs.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "scaling check: 4-GPU parallel efficiency > 30% on every graph \
         (min {:.0}%) => {}",
        100.0 * min_eff,
        if min_eff > 0.30 { "PASS" } else { "FAIL" }
    );
    assert!(min_eff > 0.30, "strong scaling collapsed");
}
