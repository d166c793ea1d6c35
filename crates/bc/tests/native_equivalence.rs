//! Property test for the backend bit-exactness contract: the native
//! direct-execution backend (and the hybrid router, which only ever picks
//! between native worker counts) must be *bit*-identical to the SIMT
//! simulator — same BC score bits, same per-op case tallies, same
//! per-source touched statistics — on mixed insert/delete streams, for
//! any host-thread count, on both the single- and multi-GPU engines.
//!
//! The simulator is the oracle: it interprets every kernel lane against
//! the machine model, so agreement here certifies the plain-loop
//! translations in `bc/src/native` statement by statement.

use dynbc_bc::brandes::brandes_state;
use dynbc_bc::dynamic::{OpOutcome, SourceOutcome};
use dynbc_bc::gpu::{Backend, GpuDynamicBc, MultiGpuDynamicBc, Parallelism};
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
fn op_stream(el: &EdgeList, seed: u64, len: usize) -> Vec<EdgeOp> {
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
    ops
}

fn sources_for(el: &EdgeList) -> Vec<u32> {
    (0..el.vertex_count() as u32).step_by(3).collect()
}

fn bits(bc: &[f64]) -> Vec<u64> {
    bc.iter().map(|x| x.to_bits()).collect()
}

/// One batched run on the single-GPU engine; returns `(bc bits, per-op
/// outcomes)` — cases *and* per-source touched statistics.
fn run_single(
    el: &EdgeList,
    ops: &[EdgeOp],
    backend: Backend,
    threads: usize,
) -> (Vec<u64>, Vec<OpOutcome>) {
    let mut eng = GpuDynamicBc::new(el, &sources_for(el), DeviceConfig::test_tiny(), {
        Parallelism::Node
    })
    .with_backend(backend);
    eng.set_host_threads(threads);
    let br = eng.apply_batch(ops);
    (bits(&eng.state_snapshot().bc), br.per_op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn native_backend_is_bit_identical_to_simulator(el in arb_graph(), seed in 0u64..1_000, len in 2usize..8) {
        let ops = op_stream(&el, seed, len);
        if ops.is_empty() { return Ok(()); }
        let (oracle_bits, oracle_ops) = run_single(&el, &ops, Backend::Simulator, 1);

        for backend in [Backend::Native, Backend::Hybrid] {
            for threads in [1usize, 2, 8] {
                let (got_bits, got_ops) = run_single(&el, &ops, backend, threads);
                prop_assert_eq!(got_ops.len(), oracle_ops.len());
                for (i, (got, want)) in got_ops.iter().zip(&oracle_ops).enumerate() {
                    prop_assert_eq!(
                        got.cases, want.cases,
                        "{} t{}: op {} case tallies", backend, threads, i
                    );
                    prop_assert_eq!(
                        &got.per_source, &want.per_source,
                        "{} t{}: op {} per-source outcomes", backend, threads, i
                    );
                }
                prop_assert_eq!(
                    got_bits, oracle_bits.clone(),
                    "{} t{}: BC bits vs simulator", backend, threads
                );
            }
        }
    }

    #[test]
    fn multi_gpu_native_is_bit_identical_to_simulator(el in arb_graph(), seed in 0u64..1_000, len in 2usize..6) {
        let ops = op_stream(&el, seed, len);
        if ops.is_empty() { return Ok(()); }
        let sources = sources_for(&el);
        let device = DeviceConfig::test_tiny();
        let mut oracle = MultiGpuDynamicBc::new(&el, &sources, device, Parallelism::Node, 2);
        oracle.set_backend(Backend::Simulator);
        oracle.set_host_threads(1);
        let oracle_br = oracle.apply_batch(&ops);
        let oracle_bits = bits(&oracle.bc());

        for backend in [Backend::Native, Backend::Hybrid] {
            for threads in [1usize, 2, 8] {
                let mut eng = MultiGpuDynamicBc::new(&el, &sources, device, Parallelism::Node, 2);
                eng.set_backend(backend);
                eng.set_host_threads(threads);
                let br = eng.apply_batch(&ops);
                for (i, (got, want)) in br.per_op.iter().zip(&oracle_br.per_op).enumerate() {
                    prop_assert_eq!(
                        got.cases, want.cases,
                        "{} t{}: op {} case tallies", backend, threads, i
                    );
                    prop_assert_eq!(
                        &got.per_source, &want.per_source,
                        "{} t{}: op {} per-source outcomes", backend, threads, i
                    );
                }
                prop_assert_eq!(
                    bits(&eng.bc()), oracle_bits.clone(),
                    "{} t{}: BC bits vs simulator", backend, threads
                );
            }
        }
    }
}

/// A 300–400-vertex graph (`family` 0: a BA tree, every edge a bridge;
/// 1: BA with two edges per vertex; 2: a sparse Watts–Strogatz ring,
/// whose long distances give multi-level lost sets) with a four-vertex
/// tail hanging off vertex 0 by the bridge `(0, n - 4)`.
fn midsize_graph(family: u8, n: usize, seed: u64) -> EdgeList {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = match family {
        0 => gen::ba(&mut rng, n - 4, 1),
        1 => gen::ba(&mut rng, n - 4, 2),
        _ => gen::ws(&mut rng, n - 4, 2, 0.1),
    };
    let t = (n - 4) as u32;
    let tail = [(0, t), (t, t + 1), (t + 1, t + 2), (t + 2, t + 3)];
    EdgeList::from_pairs(n, base.edges().iter().copied().chain(tail))
}

/// A removal-heavy stream: three in four ops remove a random existing
/// edge, the rest insert a random absent pair, and op `bridge_at`
/// removes the tail's bridge (if it still stands). Returns the stream and
/// the final graph.
fn removal_stream(
    el: &EdgeList,
    seed: u64,
    len: usize,
    bridge_at: usize,
) -> (Vec<EdgeOp>, EdgeList) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probe = el.clone();
    let n = probe.vertex_count() as u32;
    let bridge = (0, n - 4);
    let mut ops = Vec::new();
    while ops.len() < len {
        let a = rng.gen_range(0..n);
        let op = if ops.len() == bridge_at && probe.contains(bridge.0, bridge.1) {
            EdgeOp::Remove(bridge.0, bridge.1)
        } else if rng.gen_bool(0.75) {
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
    (ops, probe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Mid-size removal-heavy streams, where Case D3 builds multi-vertex
    /// lost sets and disconnects components (the tiny `arb_graph`s rarely
    /// do): native equals the simulator bit for bit, batched equals one
    /// op at a time bit for bit, and both track Brandes on the final graph.
    #[test]
    fn midsize_removal_streams_match_simulator_and_brandes(
        family in 0u8..3,
        n in 300usize..400,
        seed in 0u64..1_000_000,
        len in 10usize..18,
        bridge_at in 0usize..10,
    ) {
        let el = midsize_graph(family, n, seed);
        let (ops, after) = removal_stream(&el, seed ^ 0x5eed, len, bridge_at);
        let n = n as u32;
        let sources: Vec<u32> = (0..n).step_by(n as usize / 5).chain([n - 2]).collect();
        let run = |backend: Backend, batched: bool| {
            let mut eng = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), {
                Parallelism::Node
            })
            .with_backend(backend);
            let per_op: Vec<OpOutcome> = if batched {
                eng.apply_batch(&ops).per_op
            } else {
                ops.iter().flat_map(|&op| eng.apply_batch(&[op]).per_op).collect()
            };
            (eng.state_snapshot(), per_op)
        };
        let (sim, sim_ops) = run(Backend::Simulator, true);
        prop_assert!(sim_ops.iter().any(|o| o.cases.distant > 0), "stream has no D3 item");
        for (backend, batched) in [
            (Backend::Native, true),
            (Backend::Native, false),
            (Backend::Simulator, false),
        ] {
            let (got, got_ops) = run(backend, batched);
            for (i, (a, b)) in got_ops.iter().zip(&sim_ops).enumerate() {
                prop_assert_eq!(a.cases, b.cases, "{} batched={}: op {} cases", backend, batched, i);
                prop_assert_eq!(
                    &a.per_source, &b.per_source,
                    "{} batched={}: op {} per-source", backend, batched, i
                );
            }
            prop_assert_eq!(
                bits(&got.bc), bits(&sim.bc),
                "{} batched={}: BC bits vs batched simulator", backend, batched
            );
        }
        let fresh = brandes_state(&Csr::from_edge_list(&after), &sources);
        for i in 0..sources.len() {
            prop_assert_eq!(&sim.d[i], &fresh.d[i], "d, source row {}", i);
            for v in 0..sim.n {
                prop_assert!((sim.sigma[i][v] - fresh.sigma[i][v]).abs() < 1e-6, "sigma {} {}", i, v);
                prop_assert!((sim.delta[i][v] - fresh.delta[i][v]).abs() < 1e-6, "delta {} {}", i, v);
            }
        }
        for v in 0..sim.n {
            prop_assert!((sim.bc[v] - fresh.bc[v]).abs() < 1e-6, "BC at {}: {} vs {}", v, sim.bc[v], fresh.bc[v]);
        }
    }
}

/// A two-level tree of `width` children under root 0, `width` grandchildren
/// under each child, plus one isolated vertex at the end — distances from
/// root 0 are 0 / 1 / 2 / ∞, which lets a stream dial in exactly the case
/// it wants.
fn routing_graph(width: usize) -> EdgeList {
    let n = 1 + width + width * width + 1;
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for c in 0..width as u32 {
        pairs.push((0, 1 + c));
    }
    for g in 0..(width * width) as u32 {
        let parent = 1 + (g % width as u32);
        pairs.push((parent, 1 + width as u32 + g));
    }
    EdgeList::from_pairs(n, pairs)
}

/// The hybrid router must send big updates (a component merge whose
/// predicted footprint is the whole graph) to the parallel native backend
/// and small Case 2 updates (predicted ~|V|/10, under the max(1024, n/4)
/// threshold) down the sequential CPU path — with results bit-identical
/// to both pure backends either way.
#[test]
fn hybrid_router_exercises_both_paths_on_mixed_stream() {
    let width = 38; // n = 1 + 38 + 1444 + 1 = 1484; threshold = max(1024, 371) = 1024
    let el = routing_graph(width);
    let n = el.vertex_count() as u32;
    let isolated = n - 1;
    // One BC source at the root: grandchild g's distance is 2, child c's
    // is 1, so (child, foreign grandchild) insertions are pure Case 2.
    let sources = [0u32];
    let ops: Vec<EdgeOp> = vec![
        // Component merge: the isolated vertex is unreachable, so this is
        // Case 3 with a default predicted footprint of n > 1024 → native.
        EdgeOp::Insert(0, isolated),
        // Tiny Case 2 updates: predicted 0.1·n ≈ 148 ≤ 1024 → CPU path.
        EdgeOp::Insert(1, 1 + width as u32 + 1),
        EdgeOp::Insert(2, 1 + width as u32 + 2),
        EdgeOp::Insert(3, 1 + width as u32 + 3),
    ];

    let mut hybrid = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), {
        Parallelism::Node
    })
    .with_backend(Backend::Hybrid);
    let mut cases = Vec::new();
    for &op in &ops {
        let (u, v) = op.endpoints();
        cases.push(hybrid.insert_edge(u, v).cases);
    }
    assert_eq!(cases[0].distant, 1, "merge op must classify Case 3");
    assert!(
        (1..ops.len()).all(|i| cases[i].adjacent == 1),
        "small ops must classify Case 2: {cases:?}"
    );
    assert!(
        hybrid.router_native_stages() >= 1,
        "the merge stage should route to the parallel native backend"
    );
    assert!(
        hybrid.router_cpu_stages() >= 3,
        "every small Case 2 stage should route to the sequential CPU path; \
         cpu={} native={}",
        hybrid.router_cpu_stages(),
        hybrid.router_native_stages()
    );

    // Routing must not be observable in the results.
    for backend in [Backend::Simulator, Backend::Native] {
        let mut pure = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), {
            Parallelism::Node
        })
        .with_backend(backend);
        for &op in &ops {
            let (u, v) = op.endpoints();
            pure.insert_edge(u, v);
        }
        assert_eq!(
            bits(&pure.state_snapshot().bc),
            bits(&hybrid.state_snapshot().bc),
            "hybrid BC bits differ from {backend}"
        );
    }
}

/// Touched statistics land in `SourceOutcome`s — make sure the import is
/// exercised so the per-source comparison above stays honest about what
/// it compares.
#[test]
fn per_source_outcomes_carry_touched_counts() {
    let el = EdgeList::from_pairs(4, [(0, 1), (0, 2), (1, 3)]);
    let mut eng = GpuDynamicBc::new(&el, &[0], DeviceConfig::test_tiny(), Parallelism::Node)
        .with_backend(Backend::Native);
    let r = eng.insert_edge(2, 3);
    let touched: Vec<SourceOutcome> = r.per_source;
    assert!(touched[0].touched > 0);
}
