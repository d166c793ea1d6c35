//! End-to-end tests of dynbc-memsim through the dynamic-BC engines: the
//! observability-only contract (BC bits and simulated seconds identical
//! with the model on or off), per-buffer attribution, the node- vs
//! edge-parallel locality contrast, the `DYNBC_MEMSIM` knob, and
//! bit-determinism under host-parallel execution and beside other
//! engines running concurrently.

use dynbc::gpusim::{DeviceConfig, ProfileReport, MEMSIM_ENV};
use dynbc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drives a fixed mixed insert/delete stream through an engine and
/// returns its profile report, final BC scores, and simulated seconds.
fn stream(par: Parallelism, threads: usize, memsim: bool) -> (ProfileReport, Vec<f64>, f64) {
    let mut rng = StdRng::seed_from_u64(42);
    let el = dynbc::graph::gen::ws(&mut rng, 150, 3, 0.2);
    let sources = sample_sources(&mut rng, 150, 8);
    let mut eng = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), par);
    eng.set_profiling(true);
    eng.set_memsim(memsim);
    eng.set_host_threads(threads);
    let mut done = 0;
    let mut rng = StdRng::seed_from_u64(7);
    while done < 12 {
        let a = rng.gen_range(0..150u32);
        let b = rng.gen_range(0..150u32);
        if a == b {
            continue;
        }
        if eng.graph().has_edge(a, b) {
            eng.remove_edge(a, b);
        } else {
            eng.insert_edge(a, b);
        }
        done += 1;
    }
    let seconds = eng.elapsed_seconds();
    let bc = eng.state_snapshot().bc;
    (eng.take_profile_report(), bc, seconds)
}

#[test]
fn memsim_changes_no_bc_bit_and_no_simulated_second() {
    let (on_report, on_bc, on_s) = stream(Parallelism::Node, 1, true);
    let (off_report, off_bc, off_s) = stream(Parallelism::Node, 1, false);
    // Observability-only: the cache model never feeds the cost model.
    assert_eq!(on_bc, off_bc, "BC scores must be bit-identical");
    assert_eq!(on_s, off_s, "simulated clock must be unchanged");
    assert!(!on_report.total().cache.is_empty());
    assert!(off_report.total().cache.is_empty());
    // Same profiles modulo the cache fields: every launch's non-cache
    // counters agree.
    assert_eq!(on_report.launches.len(), off_report.launches.len());
    for (a, b) in on_report.launches.iter().zip(&off_report.launches) {
        assert_eq!(a.kernel, b.kernel);
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.total.mem_transactions, b.total.mem_transactions);
        assert_eq!(a.total.edges_scanned, b.total.edges_scanned);
    }
    // And memsim-off serialization carries no cache keys at all.
    let json = off_report.to_json();
    assert!(!json.contains("\"cache\""), "{json}");
    assert!(!json.contains("buffer_misses"), "{json}");
}

#[test]
fn engine_memsim_attributes_misses_to_named_buffers_and_stages() {
    let (report, _, _) = stream(Parallelism::Node, 1, true);
    let total = report.total().cache;
    assert_eq!(
        total.l1_requests(),
        report.total().mem_transactions,
        "L1 sees exactly the charged transactions"
    );
    let buffers = report.buffer_totals();
    assert!(!buffers.is_empty());
    let names: Vec<&str> = buffers.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        names.iter().any(|n| n.contains("sigma")),
        "path-count buffers should appear in the hot set: {names:?}"
    );
    let attributed: u64 = buffers.iter().map(|(_, m)| m).sum();
    assert_eq!(attributed, total.l1_misses, "every miss is attributed");
    // Stage cache counters sum to the total.
    let stage_l1: u64 = report
        .stage_totals()
        .iter()
        .map(|(_, c)| c.cache.l1_requests())
        .sum();
    assert_eq!(stage_l1, total.l1_requests());
}

#[test]
fn node_parallel_l1_hit_rate_beats_edge_parallel() {
    let (node, _, _) = stream(Parallelism::Node, 1, true);
    let (edge, _, _) = stream(Parallelism::Edge, 1, true);
    let node_l1 = node.total().cache.l1_hit_rate();
    let edge_l1 = edge.total().cache.l1_hit_rate();
    // The paper's locality story in cache terms: edge-parallel streams
    // the whole arc list through the hierarchy every BFS level, while
    // node-parallel revisits the frontier's compact adjacency.
    assert!(
        node_l1 > edge_l1,
        "node L1 hit rate {node_l1:.4} must beat edge {edge_l1:.4}"
    );
}

#[test]
fn engine_memsim_is_bit_identical_across_host_threads() {
    let (baseline, bc1, _) = stream(Parallelism::Node, 1, true);
    for threads in [2usize, 8] {
        let (got, bc, _) = stream(Parallelism::Node, threads, true);
        assert_eq!(
            baseline, got,
            "memsim engine report differs at {threads} host threads"
        );
        assert_eq!(bc1, bc);
    }
    assert_eq!(
        baseline.to_json(),
        stream(Parallelism::Node, 8, true).0.to_json()
    );
}

/// Grows vertex 0's row past its slack, so the store relayouts and the
/// engine allocates fresh device buffers mid-stream. `step` runs after
/// construction and after every op. Returns the serialized memsim report.
fn hub_stream(step: &dyn Fn()) -> String {
    let mut rng = StdRng::seed_from_u64(42);
    let el = dynbc::graph::gen::ws(&mut rng, 150, 3, 0.2);
    let sources = sample_sources(&mut rng, 150, 8);
    let mut eng = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node);
    eng.set_profiling(true);
    eng.set_memsim(true);
    eng.set_host_threads(1);
    step();
    for v in 100..112 {
        if !eng.graph().has_edge(0, v) {
            eng.insert_edge(0, v);
        }
        step();
    }
    eng.take_profile_report().to_json()
}

#[test]
fn concurrently_built_engines_report_what_an_engine_run_alone_reports() {
    // Memsim's cache sets follow device addresses. Each engine's device
    // owns its address space, so two engines allocating at the same time
    // on two threads, construction and mid-stream relayouts interleaved
    // op by op, must each see exactly the addresses, and so the report,
    // of an engine run alone.
    let alone = hub_stream(&|| {});
    let step = std::sync::Barrier::new(2);
    let reports: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    step.wait();
                    hub_stream(&|| {
                        step.wait();
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine thread panicked"))
            .collect()
    });
    for (i, report) in reports.iter().enumerate() {
        assert!(
            *report == alone,
            "engine {i}'s memsim report differs from the engine run alone"
        );
    }
}

#[test]
fn memsim_env_knob_enables_collection_and_implies_profiling() {
    let el = EdgeList::from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    std::env::set_var(MEMSIM_ENV, "1");
    let mut eng = GpuDynamicBc::new(&el, &[0, 3], DeviceConfig::test_tiny(), Parallelism::Node);
    std::env::remove_var(MEMSIM_ENV);
    assert!(eng.instruments().memsim);
    // Profiling was never switched on, yet memsim launches still record
    // profiles (cache counters ride in LaunchProfile).
    eng.insert_edge(0, 5);
    let report = eng.profile_report();
    assert!(!report.launches.is_empty());
    assert!(!report.total().cache.is_empty());
}
