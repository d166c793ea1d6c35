//! End-to-end tests of the profiling subsystem through the dynamic-BC
//! engines: per-stage attribution, the paper's futile-work contrast
//! between decompositions, the `DYNBC_PROFILE` environment knob, and
//! determinism of full-engine profiles under host-parallel block
//! execution.

mod common;

use dynbc::gpusim::{knob, DeviceConfig, ProfileReport, PROFILE_ENV};
use dynbc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drives a fixed mixed insert/delete stream through a profiled engine
/// and returns its report.
fn profiled_stream(par: Parallelism, threads: usize) -> ProfileReport {
    let mut rng = StdRng::seed_from_u64(42);
    let el = dynbc::graph::gen::ws(&mut rng, 150, 3, 0.2);
    let sources = sample_sources(&mut rng, 150, 8);
    let mut eng = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), par);
    eng.set_profiling(true);
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
    eng.take_profile_report()
}

#[test]
fn engine_profiles_attribute_work_to_kernel_stages() {
    let report = profiled_stream(Parallelism::Node, 1);
    assert!(!report.launches.is_empty());
    let stages = report.stage_totals();
    let labels: Vec<&str> = stages.iter().map(|(l, _)| l.as_str()).collect();
    assert!(labels.contains(&"common::init"), "labels: {labels:?}");
    assert!(labels.contains(&"common::update"), "labels: {labels:?}");
    assert!(
        labels.iter().any(|l| l.starts_with("case2_node::")),
        "labels: {labels:?}"
    );
    // Stage counters sum to the launch totals.
    let stage_sum: u64 = stages.iter().map(|(_, c)| c.edges_scanned).sum();
    assert_eq!(stage_sum, report.total().edges_scanned);
    // Per-stage launch names from the batched exec layer.
    assert!(report
        .kernel_totals()
        .iter()
        .any(|(k, _)| k.starts_with("batch::fused::node#")));
}

#[test]
fn node_parallel_futile_ratio_is_below_edge_parallel() {
    let node = profiled_stream(Parallelism::Node, 1).total();
    let edge = profiled_stream(Parallelism::Edge, 1).total();
    assert!(node.edges_scanned > 0 && edge.edges_scanned > 0);
    // The paper's central claim as counters: the edge decomposition
    // rescans the whole arc list every level, so nearly all of its
    // scanned edges fail the frontier test; node-parallelism only scans
    // frontier adjacency.
    assert!(
        node.futile_edge_ratio() < edge.futile_edge_ratio(),
        "node futile {} must be below edge futile {}",
        node.futile_edge_ratio(),
        edge.futile_edge_ratio()
    );
    // The queue/dedup pipeline belongs to the node decomposition; the
    // edge path only touches queues in the shared phantom-retraction
    // kernel (one push per adjacent delete).
    assert!(node.queue_pushes > edge.queue_pushes);
    assert_eq!(edge.dedup_ops, 0);
}

#[test]
fn engine_profile_is_bit_identical_across_host_threads() {
    let baseline = profiled_stream(Parallelism::Node, 1);
    for threads in [2usize, 8] {
        let got = profiled_stream(Parallelism::Node, threads);
        assert_eq!(
            baseline, got,
            "engine ProfileReport differs at {threads} host threads"
        );
    }
    assert_eq!(
        baseline.to_json(),
        profiled_stream(Parallelism::Node, 8).to_json()
    );
}

#[test]
fn profile_env_knob_enables_collection() {
    // The knob is set only in a child process running this test alone.
    if !knob::flag_from_env(PROFILE_ENV) {
        return common::run_with_knob("profile_env_knob_enables_collection", PROFILE_ENV);
    }
    let el = EdgeList::from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let mut eng = GpuDynamicBc::new(&el, &[0, 3], DeviceConfig::test_tiny(), Parallelism::Node);
    assert!(eng.instruments().profiling);
    eng.insert_edge(0, 5);
    assert!(!eng.profile_report().launches.is_empty());
}
