//! Property test for the backend bit-exactness contract: the native
//! direct-execution backend, whether it runs a stage inline or fans it
//! out over host threads, must be *bit*-identical to the SIMT
//! simulator — same BC score bits, same per-op case tallies, same
//! per-source touched statistics — on mixed insert/delete streams, for
//! any host-thread count.
//!
//! Both backends run the same node-parallel kernel bodies
//! (`bc/src/gpu/kernels`, generic over an executor), so agreement here
//! certifies what the two executors do differently: charged lane
//! accesses versus plain host loads and stores, claiming a vertex, lazy
//! reads of untouched scratch cells, the frontier at a level, and the
//! one step that keeps two bodies because one would change the
//! simulator's charges or the host's cost — the dense versus sparse init
//! and commit. A bug in a shared body makes both backends wrong alike;
//! the Brandes-tracking and golden-counter tests catch that.

use dynbc_bc::brandes::brandes_state;
use dynbc_bc::dynamic::{OpOutcome, SourceOutcome};
use dynbc_bc::gpu::{Backend, DedupStrategy, GpuDynamicBc, Parallelism};
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
    (dedup, force_general): (DedupStrategy, bool),
) -> (Vec<u64>, Vec<OpOutcome>) {
    let mut eng = GpuDynamicBc::new(el, &sources_for(el), DeviceConfig::test_tiny(), {
        Parallelism::Node
    })
    .with_backend(backend)
    .with_dedup_strategy(dedup)
    .with_force_general(force_general);
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
        // Every configuration the per-item dispatch branches on: both
        // frontier dedup strategies, and Case 2 insertions on their own
        // kernels or forced through the general ones.
        for dedup in [DedupStrategy::SortScan, DedupStrategy::AtomicCas] {
            for force_general in [false, true] {
                let cfg = (dedup, force_general);
                let (oracle_bits, oracle_ops) = run_single(&el, &ops, Backend::Simulator, 1, cfg);
                for threads in [1usize, 2, 8] {
                    let (got_bits, got_ops) = run_single(&el, &ops, Backend::Native, threads, cfg);
                    prop_assert_eq!(got_ops.len(), oracle_ops.len());
                    for (i, (got, want)) in got_ops.iter().zip(&oracle_ops).enumerate() {
                        prop_assert_eq!(
                            got.cases, want.cases,
                            "native {:?} t{}: op {} case tallies", cfg, threads, i
                        );
                        prop_assert_eq!(
                            &got.per_source, &want.per_source,
                            "native {:?} t{}: op {} per-source outcomes", cfg, threads, i
                        );
                    }
                    prop_assert_eq!(
                        got_bits, oracle_bits.clone(),
                        "native {:?} t{}: BC bits vs simulator", cfg, threads
                    );
                }
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

/// The native backend runs small stages inline and fans big ones out
/// over host threads (`native::stage_workers`' fan-out rule). One stream
/// here has stages far on each side of that rule — one or two work items
/// against well over a hundred, with every source row spread over both
/// blocks — and must match the simulator bit for bit at every host-thread
/// count, so the scoped-thread branch and its block-order reassembly are
/// covered by input size alone.
#[test]
fn fan_out_rule_takes_both_branches_bit_identically() {
    let width = 12; // n = 1 + 12 + 144 + 1 = 158
    let el = routing_graph(width);
    let n = el.vertex_count() as u32;
    let isolated = n - 1;
    let child = |c: u32| 1 + c;
    // Grandchild `i` of child `c` (`routing_graph` deals them round-robin).
    let grandchild = |c: u32, i: u32| 1 + width as u32 + c + i * width as u32;
    // The root and every grandchild are sources.
    let sources: Vec<u32> = std::iter::once(0)
        .chain((1 + width as u32)..isolated)
        .collect();
    let (g1, g2) = (grandchild(0, 0), grandchild(0, 1));
    let batches: Vec<Vec<EdgeOp>> = vec![
        // Small: siblings g1, g2 are equidistant from every source but
        // themselves, so only their own rows do work (Case 3).
        vec![EdgeOp::Insert(g1, g2)],
        // Big: the isolated vertex joins, Case 3 for every source.
        vec![EdgeOp::Insert(0, isolated)],
        // Big: children gain foreign grandchildren, Case 2 for most
        // sources; each op ends its own stage.
        vec![
            EdgeOp::Insert(child(1), grandchild(2, 0)),
            EdgeOp::Insert(child(3), grandchild(4, 1)),
            EdgeOp::Insert(child(5), grandchild(6, 2)),
        ],
        // Small: the sibling edge goes again (Case D3 for g1 and g2).
        vec![EdgeOp::Remove(g1, g2)],
        // Big: the bridge to the isolated vertex goes (Case D3 for all).
        vec![EdgeOp::Remove(0, isolated)],
        vec![EdgeOp::Remove(child(1), grandchild(2, 0))],
    ];
    let run = |backend: Backend, threads: usize| {
        let mut eng = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), {
            Parallelism::Node
        })
        .with_backend(backend);
        eng.set_host_threads(threads);
        let per_op: Vec<OpOutcome> = batches
            .iter()
            .flat_map(|b| eng.apply_batch(b).per_op)
            .collect();
        (bits(&eng.state_snapshot().bc), per_op)
    };
    let (sim_bits, sim_ops) = run(Backend::Simulator, 1);
    // Work items per op: its `(source, op)` pairs that are not Case 1.
    let work: Vec<u64> = sim_ops
        .iter()
        .map(|o| o.cases.adjacent + o.cases.distant)
        .collect();
    for small in [0, 5] {
        assert!(
            (1..=2).contains(&work[small]),
            "op {small} should be small: {work:?}"
        );
    }
    for big in [1, 2, 3, 4, 6, 7] {
        assert!(work[big] >= 100, "op {big} should be big: {work:?}");
    }
    for threads in [1usize, 2, 8] {
        let (got_bits, got_ops) = run(Backend::Native, threads);
        for (i, (got, want)) in got_ops.iter().zip(&sim_ops).enumerate() {
            assert_eq!(got.cases, want.cases, "t{threads}: op {i} case tallies");
            assert_eq!(
                got.per_source, want.per_source,
                "t{threads}: op {i} per-source outcomes"
            );
        }
        assert_eq!(got_bits, sim_bits, "t{threads}: BC bits vs simulator");
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
