//! Property test for the batch ordering-determinism contract: applying a
//! mixed insert/delete stream through `apply_batch` must be *bit*-identical
//! to applying the same ops one at a time — same BC score bits, same
//! per-op case tallies — on every engine, for both GPU parallelisms, and
//! regardless of how many host threads execute the simulated blocks.

use dynbc_bc::dynamic::CpuDynamicBc;
use dynbc_bc::gpu::{Backend, GpuDynamicBc, Parallelism};
use dynbc_bc::CaseCounts;
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::{gen, Csr, EdgeList, EdgeOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (
        6usize..18,
        proptest::collection::vec((0u32..18, 0u32..18), 4..40),
    )
        .prop_map(|(n, pairs)| {
            let n = n.max(
                pairs
                    .iter()
                    .map(|&(a, b)| a.max(b) as usize + 1)
                    .max()
                    .unwrap_or(0),
            );
            EdgeList::from_pairs(n, pairs)
        })
}

/// Derives a valid mixed op stream from `(graph, seed)`: at each step a
/// random vertex pair becomes a removal if the edge currently exists and
/// an insertion otherwise, tracked against a probe graph so the stream
/// never contains self loops, duplicate insertions, or absent removals.
/// Also returns the probe's final graph: an oracle for the engines'
/// stores that shares no code with them (a sorted `EdgeList`, not a
/// `SlackCsr`).
fn op_stream(el: &EdgeList, seed: u64, len: usize) -> (Vec<EdgeOp>, Csr) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probe = el.clone();
    let n = probe.vertex_count() as u32;
    let mut ops = Vec::new();
    let mut attempts = 0;
    while ops.len() < len && attempts < 400 {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let op = if probe.contains(a, b) {
            EdgeOp::Remove(a, b)
        } else {
            EdgeOp::Insert(a, b)
        };
        assert!(probe.apply_op(op));
        ops.push(op);
    }
    (ops, Csr::from_edge_list(&probe))
}

fn sources_for(el: &EdgeList) -> Vec<u32> {
    (0..el.vertex_count() as u32).step_by(3).collect()
}

/// `(bc bits, per-op case tallies)` after the sequential (batch-of-one)
/// reference run.
fn sequential_cpu(el: &EdgeList, ops: &[EdgeOp]) -> (Vec<u64>, Vec<CaseCounts>) {
    let mut eng = CpuDynamicBc::new(el, &sources_for(el));
    let cases = ops
        .iter()
        .map(|&op| {
            let (u, v) = op.endpoints();
            if op.is_insert() {
                eng.insert_edge(u, v).cases
            } else {
                eng.remove_edge(u, v).cases
            }
        })
        .collect();
    (bits(&eng.state().bc), cases)
}

fn bits(bc: &[f64]) -> Vec<u64> {
    bc.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cpu_batch_is_bit_identical_to_sequential(el in arb_graph(), seed in 0u64..1_000, len in 2usize..8) {
        let (ops, probe) = op_stream(&el, seed, len);
        if ops.is_empty() { return Ok(()); }
        let (seq_bits, seq_cases) = sequential_cpu(&el, &ops);

        let mut eng = CpuDynamicBc::new(&el, &sources_for(&el));
        let br = eng.apply_batch(&ops);
        prop_assert_eq!(br.per_op.len(), ops.len());
        for (i, op) in br.per_op.iter().enumerate() {
            prop_assert_eq!(op.cases, seq_cases[i], "op {} case tallies", i);
        }
        prop_assert_eq!(bits(&eng.state().bc), seq_bits, "CPU batched BC bits");
        prop_assert_eq!(eng.graph().to_csr(), probe, "CPU: store");
    }

    #[test]
    fn gpu_batch_is_bit_identical_to_sequential(el in arb_graph(), seed in 0u64..1_000, len in 2usize..8) {
        let (ops, probe) = op_stream(&el, seed, len);
        if ops.is_empty() { return Ok(()); }
        let sources = sources_for(&el);
        let device = DeviceConfig::test_tiny();
        for par in [Parallelism::Node, Parallelism::Edge] {
            // Sequential reference at 1 host thread.
            let mut seq = GpuDynamicBc::new(&el, &sources, device, par);
            seq.set_host_threads(1);
            let mut seq_cases = Vec::new();
            for &op in &ops {
                let r = seq.apply_batch(&[op]);
                seq_cases.push(r.per_op[0].cases);
            }
            let seq_bits = bits(&seq.state_snapshot().bc);

            // Batched run at 1, 2, and 8 host threads.
            for threads in [1usize, 2, 8] {
                let mut eng = GpuDynamicBc::new(&el, &sources, device, par);
                eng.set_host_threads(threads);
                let br = eng.apply_batch(&ops);
                prop_assert_eq!(br.per_op.len(), ops.len());
                for (i, op) in br.per_op.iter().enumerate() {
                    prop_assert_eq!(
                        op.cases, seq_cases[i],
                        "{:?} t{}: op {} case tallies", par, threads, i
                    );
                }
                prop_assert_eq!(
                    bits(&eng.state_snapshot().bc), seq_bits.clone(),
                    "{:?} t{}: batched BC bits", par, threads
                );
            }
            // The engine's one host graph tracks the independent probe on
            // the simulator and the native backend alike.
            for backend in [Backend::Simulator, Backend::Native] {
                let mut eng = GpuDynamicBc::new(&el, &sources, device, par).with_backend(backend);
                eng.apply_batch(&ops);
                prop_assert_eq!(eng.graph().to_csr(), probe.clone(), "{:?} {}: store", par, backend);
            }
        }
    }
}

/// A removal-heavy stream over a mid-size graph: three in four ops remove
/// a random existing edge, the rest insert a random absent pair.
fn churn_stream(el: &EdgeList, seed: u64, len: usize) -> Vec<EdgeOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probe = el.clone();
    let n = probe.vertex_count() as u32;
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let a = rng.gen_range(0..n);
        let op = if rng.gen_bool(0.75) {
            let nbrs: Vec<u32> = probe
                .edges()
                .iter()
                .filter_map(|&(x, y)| (x == a).then_some(y).or((y == a).then_some(x)))
                .collect();
            if nbrs.is_empty() {
                continue;
            }
            EdgeOp::Remove(a, nbrs[rng.gen_range(0..nbrs.len())])
        } else {
            let b = rng.gen_range(0..n);
            if a == b || probe.contains(a, b) {
                continue;
            }
            EdgeOp::Insert(a, b)
        };
        assert!(probe.apply_op(op));
        ops.push(op);
    }
    ops
}

/// `ops` cut into consecutive batches of random widths from 1 to 8.
fn random_partition(ops: &[EdgeOp], seed: u64) -> Vec<&[EdgeOp]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches = Vec::new();
    let mut rest = ops;
    while !rest.is_empty() {
        let (batch, tail) = rest.split_at(rng.gen_range(1..=8usize).min(rest.len()));
        batches.push(batch);
        rest = tail;
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Batch-partition invariance on 300–360-vertex graphs, where removals
    /// inside a batch reshape the shortest-path DAG under the ops after
    /// them far more often than on the small graphs above: a random
    /// partition of a removal-heavy stream gives the one-op-at-a-time BC
    /// bits and case tallies on the CPU engine and the edge-parallel GPU
    /// engine. (Node-parallel, on the simulator and native, is covered by
    /// `native_equivalence::midsize_removal_streams_match_simulator_and_brandes`.)
    #[test]
    fn midsize_partitions_are_bit_identical_to_sequential(
        family in 0u8..2,
        n in 300usize..360,
        seed in 0u64..1_000_000,
        len in 10usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let el = if family == 0 { gen::ba(&mut rng, n, 2) } else { gen::ws(&mut rng, n, 2, 0.1) };
        let ops = churn_stream(&el, seed ^ 0x5eed, len);
        let batches = random_partition(&ops, seed ^ 0xba7c);
        let sources: Vec<u32> = (0..n as u32).step_by(n / 6).collect();

        let mut seq = CpuDynamicBc::new(&el, &sources);
        let seq_cases: Vec<CaseCounts> =
            ops.iter().map(|&op| seq.apply_batch(&[op]).per_op[0].cases).collect();
        let mut cut = CpuDynamicBc::new(&el, &sources);
        let cut_cases: Vec<CaseCounts> = batches
            .iter()
            .flat_map(|b| cut.apply_batch(b).per_op.into_iter().map(|o| o.cases))
            .collect();
        prop_assert_eq!(&cut_cases, &seq_cases, "CPU case tallies");
        prop_assert_eq!(bits(&cut.state().bc), bits(&seq.state().bc), "CPU BC bits");

        let device = DeviceConfig::test_tiny();
        let mut seq = GpuDynamicBc::new(&el, &sources, device, Parallelism::Edge);
        let seq_cases: Vec<CaseCounts> =
            ops.iter().map(|&op| seq.apply_batch(&[op]).per_op[0].cases).collect();
        let mut cut = GpuDynamicBc::new(&el, &sources, device, Parallelism::Edge);
        let cut_cases: Vec<CaseCounts> = batches
            .iter()
            .flat_map(|b| cut.apply_batch(b).per_op.into_iter().map(|o| o.cases))
            .collect();
        prop_assert_eq!(&cut_cases, &seq_cases, "edge-parallel case tallies");
        prop_assert_eq!(bits(&cut.bc_scores()), bits(&seq.bc_scores()), "edge-parallel BC bits");
    }
}
