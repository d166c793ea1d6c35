//! Bit-determinism of the GPU engines under host-parallel block execution.
//!
//! `Gpu::launch` may fan simulated thread blocks over real host threads
//! (`DYNBC_HOST_THREADS`). The contract is strict: **every** output —
//! simulated seconds, work counters, and the full dynamic-BC state,
//! including each `f64` bit pattern — must be identical whether blocks
//! ran sequentially or on 2 or 8 host threads. These tests drive mixed
//! insert/delete streams on two graph families through both work
//! decompositions and compare everything bit-wise against the
//! single-threaded run.

use dynbc::gpusim::{DeviceConfig, KernelStats};
use dynbc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bit patterns of `(bc, d, sigma, delta)` from a [`BcState`].
type StateBits = (Vec<u64>, Vec<Vec<u32>>, Vec<Vec<u64>>, Vec<Vec<u64>>);

/// Bit-exact projection of a [`BcState`]: `f64` fields as raw bits.
fn state_bits(st: &BcState) -> StateBits {
    let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    (
        bits(&st.bc),
        st.d.clone(),
        st.sigma.iter().map(|r| bits(r)).collect(),
        st.delta.iter().map(|r| bits(r)).collect(),
    )
}

/// Runs a deterministic `events`-long mixed insert/delete stream on
/// `threads` host threads and returns everything the determinism contract
/// covers.
fn run_stream(
    el: &EdgeList,
    sources: &[VertexId],
    par: Parallelism,
    threads: usize,
    events: usize,
    seed: u64,
) -> (u64, KernelStats, StateBits) {
    let n = el.vertex_count() as u32;
    let mut eng = GpuDynamicBc::new(el, sources, DeviceConfig::test_tiny(), par);
    eng.set_host_threads(threads);
    assert_eq!(eng.instruments().host_threads, threads.max(1));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut done = 0;
    while done < events {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
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
    (
        eng.elapsed_seconds().to_bits(),
        *eng.total_stats(),
        state_bits(&eng.state_snapshot()),
    )
}

/// The shared harness: 50 mixed events, threads ∈ {1, 2, 8}, bit-compared
/// against the sequential baseline.
fn assert_thread_count_invariant(el: &EdgeList, par: Parallelism, seed: u64, family: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sources = sample_sources(&mut rng, el.vertex_count(), 6);
    let baseline = run_stream(el, &sources, par, 1, 50, seed ^ 0xD15EA5E);
    for threads in [2usize, 8] {
        let got = run_stream(el, &sources, par, threads, 50, seed ^ 0xD15EA5E);
        assert_eq!(
            baseline.0, got.0,
            "{family}/{par}: elapsed_seconds differs at {threads} host threads"
        );
        assert_eq!(
            baseline.1, got.1,
            "{family}/{par}: total_stats differs at {threads} host threads"
        );
        assert_eq!(
            baseline.2, got.2,
            "{family}/{par}: BcState differs at {threads} host threads"
        );
    }
}

#[test]
fn erdos_renyi_stream_is_bit_identical_across_host_threads() {
    let mut rng = StdRng::seed_from_u64(2014);
    let el = dynbc::graph::gen::er(&mut rng, 32, 70);
    assert_thread_count_invariant(&el, Parallelism::Node, 11, "er");
}

#[test]
fn small_world_stream_is_bit_identical_across_host_threads() {
    let mut rng = StdRng::seed_from_u64(1414);
    let el = dynbc::graph::gen::ws(&mut rng, 36, 2, 0.2);
    assert_thread_count_invariant(&el, Parallelism::Edge, 23, "ws");
}

#[test]
fn static_bc_is_bit_identical_across_host_threads() {
    // The static kernels stage their BC accumulation through the same
    // per-block delta slab; the report must be thread-count-invariant too.
    let mut rng = StdRng::seed_from_u64(77);
    let el = dynbc::graph::gen::geometric(&mut rng, 120, 0.08);
    let csr = Csr::from_edge_list(&el);
    let sources: Vec<VertexId> = (0..120).step_by(5).collect();
    let run = |threads: usize| {
        let report = static_bc_gpu_on(
            DeviceConfig::test_tiny(),
            &csr,
            &sources,
            Parallelism::Node,
            7,
            Some(threads),
        );
        (
            report.seconds.to_bits(),
            report.stats,
            report.bc.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
            report
                .block_cycles
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<u64>>(),
        )
    };
    let baseline = run(1);
    for threads in [2usize, 8] {
        let got = run(threads);
        assert_eq!(baseline, got, "static BC differs at {threads} host threads");
    }
}
