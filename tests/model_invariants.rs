//! Cross-crate invariants of the machine model: functional results must
//! be independent of every cost-model knob, and cost must respond to the
//! knobs in the direction the paper's argument requires.

use dynbc::bc::gpu::static_bc_gpu;
use dynbc::gpusim::{CacheConfig, KernelStats};
use dynbc::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_close(a: &[f64], b: &[f64], ctx: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let tol = 1e-9 * x.abs().max(y.abs()).max(1.0);
        assert!((x - y).abs() <= tol, "{ctx}: BC[{i}] {x} vs {y}");
    }
}

fn test_graph(n: usize, seed: u64) -> EdgeList {
    let mut rng = StdRng::seed_from_u64(seed);
    dynbc::graph::gen::ws(&mut rng, n, 3, 0.15)
}

#[test]
fn results_are_identical_across_devices() {
    let el = test_graph(300, 1);
    let csr = Csr::from_edge_list(&el);
    let sources: Vec<u32> = (0..30).collect();
    let a = static_bc_gpu(
        DeviceConfig::tesla_c2075(),
        &csr,
        &sources,
        Parallelism::Node,
        14,
    );
    let b = static_bc_gpu(DeviceConfig::gtx560(), &csr, &sources, Parallelism::Node, 7);
    let c = static_bc_gpu(
        DeviceConfig::test_tiny(),
        &csr,
        &sources,
        Parallelism::Node,
        3,
    );
    // Accumulation order differs with warp size and scheduling, so the
    // comparison is to f64 round-off, not bit equality.
    assert_close(&a.bc, &b.bc, "C2075 vs GTX 560");
    assert_close(&a.bc, &c.bc, "C2075 vs test device");
}

#[test]
fn results_are_identical_across_block_counts() {
    let el = test_graph(200, 2);
    let csr = Csr::from_edge_list(&el);
    let sources: Vec<u32> = (0..20).collect();
    let base = static_bc_gpu(
        DeviceConfig::test_tiny(),
        &csr,
        &sources,
        Parallelism::Node,
        1,
    );
    for blocks in [2, 3, 5, 8, 16] {
        let other = static_bc_gpu(
            DeviceConfig::test_tiny(),
            &csr,
            &sources,
            Parallelism::Node,
            blocks,
        );
        assert_close(&base.bc, &other.bc, "block count changed results");
    }
}

#[test]
fn dynamic_results_are_identical_across_devices() {
    let el = test_graph(120, 3);
    let mut rng = StdRng::seed_from_u64(9);
    let sources = sample_sources(&mut rng, 120, 8);
    let mut fast = GpuDynamicBc::new(
        &el,
        &sources,
        DeviceConfig::tesla_c2075(),
        Parallelism::Node,
    );
    let mut tiny = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node);
    for (u, v) in [(0u32, 60u32), (5, 99), (30, 110), (1, 119)] {
        if fast.graph().has_edge(u, v) {
            continue;
        }
        fast.insert_edge(u, v);
        tiny.insert_edge(u, v);
    }
    assert_close(
        &fast.state_snapshot().bc,
        &tiny.state_snapshot().bc,
        "dynamic devices",
    );
}

#[test]
fn edge_and_node_agree_functionally_but_not_in_cost() {
    let el = test_graph(400, 4);
    let csr = Csr::from_edge_list(&el);
    let sources: Vec<u32> = (0..24).collect();
    let node = static_bc_gpu(
        DeviceConfig::tesla_c2075(),
        &csr,
        &sources,
        Parallelism::Node,
        14,
    );
    let edge = static_bc_gpu(
        DeviceConfig::tesla_c2075(),
        &csr,
        &sources,
        Parallelism::Edge,
        14,
    );
    for v in 0..400 {
        assert!(
            (node.bc[v] - edge.bc[v]).abs() < 1e-9,
            "decompositions disagree at {v}"
        );
    }
    assert_ne!(
        node.stats.mem_segments, edge.stats.mem_segments,
        "the two decompositions should not move identical traffic"
    );
}

#[test]
fn makespan_improves_up_to_sm_count_then_plateaus() {
    // Figure 1's mechanism at test scale: fixed total work, increasing
    // block counts on a 14-SM device.
    let el = test_graph(220, 5);
    let csr = Csr::from_edge_list(&el);
    let sources: Vec<u32> = (0..28).collect();
    let device = DeviceConfig::tesla_c2075();
    let t =
        |blocks: usize| static_bc_gpu(device, &csr, &sources, Parallelism::Node, blocks).seconds;
    let t1 = t(1);
    let t7 = t(7);
    let t14 = t(14);
    let t28 = t(28);
    assert!(t7 < t1 * 0.5, "7 blocks should be far faster than 1");
    assert!(t14 < t7, "14 blocks beat 7 on 14 SMs");
    // Beyond one block per SM: no further meaningful gain.
    assert!(
        t28 > t14 * 0.8,
        "blocks beyond SM count must not keep scaling"
    );
}

#[test]
fn deterministic_replay_of_a_full_experiment() {
    let run = || {
        let el = test_graph(150, 6);
        let mut rng = StdRng::seed_from_u64(77);
        let sources = sample_sources(&mut rng, 150, 6);
        let mut engine = GpuDynamicBc::new(
            &el,
            &sources,
            DeviceConfig::tesla_c2075(),
            Parallelism::Edge,
        );
        let mut seconds = Vec::new();
        for (u, v) in [(3u32, 77u32), (10, 140), (66, 67)] {
            if engine.graph().has_edge(u, v) {
                continue;
            }
            let r = engine.insert_edge(u, v);
            seconds.push(r.model_seconds);
        }
        (seconds, engine.state_snapshot().bc)
    };
    let (s1, bc1) = run();
    let (s2, bc2) = run();
    assert_eq!(s1, s2, "simulated times must replay bit-for-bit");
    assert_eq!(bc1, bc2);
}

#[test]
fn case1_updates_cost_orders_of_magnitude_less_than_worked_ones() {
    // A 4-cycle seen from one source: inserting the diagonal between the
    // two distance-1 vertices is Case 1 for it. Compare against a real
    // Case 3 update on the same engine. Cost is a simulator claim: pin
    // the backend so `DYNBC_BACKEND=native` cannot zero both sides.
    let el = EdgeList::from_pairs(4096, (0..4095).map(|i| (i, i + 1)));
    let sources = vec![0u32];
    let mut engine = GpuDynamicBc::new(
        &el,
        &sources,
        DeviceConfig::tesla_c2075(),
        Parallelism::Node,
    )
    .with_backend(Backend::Simulator);
    let worked = engine.insert_edge(1, 4000); // huge Case 3 shortcut
                                              // Vertices 2 and 4000 are now both at distance 2 from 0 → Case 1.
    let snapshot = engine.state_snapshot();
    assert_eq!(snapshot.d[0][2], snapshot.d[0][4000]);
    let idle = engine.insert_edge(2, 4000);
    assert_eq!(idle.cases.same, 1);
    assert!(
        idle.model_seconds * 10.0 < worked.model_seconds,
        "case-1 insertion ({}) should be ≫ cheaper than the worked one ({})",
        idle.model_seconds,
        worked.model_seconds
    );
}

/// A fixed small engine stream (single inserts, single removals and one
/// mixed batch) returning the device's cumulative work counters and its
/// simulated clock. The simulator backend is pinned: the native backend
/// charges no counters, so `DYNBC_BACKEND` must not pick it here.
fn golden_stream(par: Parallelism) -> (KernelStats, u64) {
    let engine = golden_engine(par, |engine| engine.set_backend(Backend::Simulator));
    (*engine.total_stats(), engine.elapsed_seconds().to_bits())
}

/// The engine after the golden stream's ops, with `configure` applied
/// before the first op.
fn golden_engine(par: Parallelism, configure: impl FnOnce(&mut GpuDynamicBc)) -> GpuDynamicBc {
    let el = test_graph(160, 24);
    let mut rng = StdRng::seed_from_u64(2024);
    let sources = sample_sources(&mut rng, 160, 6);
    let mut engine = GpuDynamicBc::new(&el, &sources, DeviceConfig::tesla_c2075(), par);
    configure(&mut engine);
    for (u, v) in [(0u32, 80u32), (7, 133), (41, 112)] {
        assert!(!engine.graph().has_edge(u, v));
        engine.insert_edge(u, v);
    }
    for u in [3u32, 90, 151] {
        let v = engine
            .graph()
            .neighbors(u)
            .next()
            .expect("ws vertices have neighbours");
        engine.remove_edge(u, v);
    }
    let w = engine
        .graph()
        .neighbors(20)
        .next()
        .expect("ws vertices have neighbours");
    engine.apply_batch(&[
        EdgeOp::Insert(12, 97),
        EdgeOp::Remove(20, w),
        EdgeOp::Insert(60, 150),
        EdgeOp::Insert(61, 149),
    ]);
    engine
}

/// Pins the interpreter's charged quantities to values captured before
/// the per-access charge was given its segment memo: any later change to
/// how `BlockCtx` charges an access must leave every counter and every
/// simulated-second bit where it was. The values hold with any
/// instrument switched on (`DYNBC_PROFILE`, `DYNBC_MEMSIM`) and for any
/// `DYNBC_HOST_THREADS`.
#[test]
fn interpreter_counters_match_golden_values() {
    let golden = [
        (
            Parallelism::Node,
            KernelStats {
                warp_execs: 3439,
                lane_events: 153_815,
                mem_segments: 35_582,
                atomics: 5479,
                atomic_conflicts: 2219,
                barriers: 1005,
            },
            0x3f2e_ed2a_51ed_96b8_u64,
        ),
        (
            Parallelism::Edge,
            KernelStats {
                warp_execs: 18_254,
                lane_events: 1_599_625,
                mem_segments: 268_401,
                atomics: 13_779,
                atomic_conflicts: 3438,
                barriers: 579,
            },
            0x3f40_b4aa_0154_60f0_u64,
        ),
    ];
    for (par, stats, seconds_bits) in golden {
        let (got_stats, got_bits) = golden_stream(par);
        assert_eq!(got_stats, stats, "{par:?}: work counters moved");
        assert_eq!(
            got_bits,
            seconds_bits,
            "{par:?}: simulated seconds moved ({} vs {})",
            f64::from_bits(got_bits),
            f64::from_bits(seconds_bits)
        );
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `total()` of the golden stream's profile, as the report renders it.
const NODE_TOTAL: &str = concat!(
    r#"{"warp_execs": 3439, "active_lanes": 26900, "#,
    r#""lane_slots": 110048, "divergent_warps": 891, "#,
    r#""divergence_stalls": 211200, "mem_transactions": 35582, "#,
    r#""coalesced_transactions": 25961, "#,
    r#""uncoalesced_transactions": 9621, "atomic_ops": 5479, "#,
    r#""atomic_conflicts": 2219, "max_contention_depth": 32, "#,
    r#""barriers": 1005, "edges_scanned": 17292, "edges_passed": 4323, "#,
    r#""queue_pushes": 2806, "dedup_ops": 913, "#,
    r#""cache": {"l1_hits": 24768, "l1_misses": 10814, "#,
    r#""l1_evictions": 19, "l2_hits": 9067, "l2_misses": 473, "#,
    r#""l2_sector_fills": 1274, "l2_evictions": 0}}"#,
);

/// The edge-parallel counterpart of [`NODE_TOTAL`].
const EDGE_TOTAL: &str = concat!(
    r#"{"warp_execs": 18254, "active_lanes": 566132, "#,
    r#""lane_slots": 584128, "divergent_warps": 17607, "#,
    r#""divergence_stalls": 933826, "mem_transactions": 268401, "#,
    r#""coalesced_transactions": 257297, "#,
    r#""uncoalesced_transactions": 11104, "atomic_ops": 13779, "#,
    r#""atomic_conflicts": 3438, "max_contention_depth": 10, "#,
    r#""barriers": 579, "edges_scanned": 544401, "edges_passed": 5658, "#,
    r#""queue_pushes": 12, "dedup_ops": 0, "#,
    r#""cache": {"l1_hits": 236641, "l1_misses": 31760, "#,
    r#""l1_evictions": 2, "l2_hits": 29661, "l2_misses": 543, "#,
    r#""l2_sector_fills": 1556, "l2_evictions": 0}}"#,
);

/// Pins the profile of the golden stream, run with the profiler and the
/// memsim cache model on: the report's `total()` counters (as the report
/// renders them, so the pin does not depend on how `Counters` lays out
/// its fields) and a hash of the whole JSON report, which covers every
/// kernel, stage, launch and per-buffer miss list. Any change to how the
/// simulator collects its counters must leave both where they are.
#[test]
fn profile_report_matches_golden_values() {
    let golden = [
        (Parallelism::Node, NODE_TOTAL, 0x44c1_2cee_3382_e097_u64),
        (Parallelism::Edge, EDGE_TOTAL, 0x81a2_aa0f_e9ba_2a1a_u64),
    ];
    for (par, total, hash) in golden {
        let mut engine = golden_engine(par, |engine| {
            engine.set_backend(Backend::Simulator);
            engine.set_profiling(true);
            engine.set_memsim(true);
            engine.set_cache_config(CacheConfig::prefer_l1());
        });
        let json = engine.take_profile_report().to_json();
        let got_total = json
            .strip_prefix("{\"total\": ")
            .and_then(|rest| rest.split_once(", \"kernels\": "))
            .map(|(total, _)| total);
        assert_eq!(got_total, Some(total), "{par:?}: profile total moved");
        assert_eq!(
            fnv1a(json.as_bytes()),
            hash,
            "{par:?}: profile report moved"
        );
    }
}
