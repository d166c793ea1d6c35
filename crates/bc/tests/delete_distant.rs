//! Case D3 (a removal that takes `u_low`'s only shortest-path
//! predecessor) on the node-parallel GPU engines, shape by shape.
//!
//! The node-parallel path repairs the lost subtree incrementally instead
//! of re-running the source (`gpu/kernels/delete.rs`). Each test applies
//! one small hand-built scenario on the simulator and on the native
//! backend and asserts:
//!
//! * the two backends agree bit for bit (BC scores, case tallies and
//!   per-source touched counts);
//! * both states match a from-scratch Brandes pass over the final graph:
//!   distances exactly, σ/δ/BC within the engine tests' `1e-6`.

use dynbc_bc::brandes::brandes_state;
use dynbc_bc::dynamic::OpOutcome;
use dynbc_bc::gpu::{Backend, GpuDynamicBc, Parallelism};
use dynbc_bc::BcState;
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::{Csr, EdgeList, EdgeOp};

const INF: u32 = u32::MAX;

fn engine(el: &EdgeList, sources: &[u32], backend: Backend) -> GpuDynamicBc {
    GpuDynamicBc::new(el, sources, DeviceConfig::test_tiny(), Parallelism::Node)
        .with_backend(backend)
}

fn bits(bc: &[f64]) -> Vec<u64> {
    bc.iter().map(|x| x.to_bits()).collect()
}

fn assert_matches_brandes(st: &BcState, fresh: &BcState, ctx: &str) {
    for i in 0..st.sources.len() {
        assert_eq!(st.d[i], fresh.d[i], "{ctx}: d, source row {i}");
        for v in 0..st.n {
            assert!(
                (st.sigma[i][v] - fresh.sigma[i][v]).abs() < 1e-6,
                "{ctx}: sigma, source row {i} vertex {v}: {} vs {}",
                st.sigma[i][v],
                fresh.sigma[i][v]
            );
            assert!(
                (st.delta[i][v] - fresh.delta[i][v]).abs() < 1e-6,
                "{ctx}: delta, source row {i} vertex {v}: {} vs {}",
                st.delta[i][v],
                fresh.delta[i][v]
            );
        }
    }
    for v in 0..st.n {
        assert!(
            (st.bc[v] - fresh.bc[v]).abs() < 1e-6,
            "{ctx}: BC at {v}: {} vs {}",
            st.bc[v],
            fresh.bc[v]
        );
    }
}

/// Applies `ops` as one batch on the simulator and on native, checks the
/// two against each other and against Brandes on the final graph, and
/// returns the simulator's per-op outcomes and final state.
fn check(el: &EdgeList, sources: &[u32], ops: &[EdgeOp]) -> (Vec<OpOutcome>, BcState) {
    let mut probe = el.clone();
    for &op in ops {
        assert!(probe.apply_op(op));
    }
    let fresh = brandes_state(&Csr::from_edge_list(&probe), sources);
    let mut sim = engine(el, sources, Backend::Simulator);
    let mut native = engine(el, sources, Backend::Native);
    let sim_ops = sim.apply_batch(ops).per_op;
    let native_ops = native.apply_batch(ops).per_op;
    for (i, (a, b)) in sim_ops.iter().zip(&native_ops).enumerate() {
        assert_eq!(a.cases, b.cases, "op {i}: case tallies, sim vs native");
        assert_eq!(
            a.per_source, b.per_source,
            "op {i}: per-source, sim vs native"
        );
    }
    let sim_st = sim.state_snapshot();
    let native_st = native.state_snapshot();
    assert_eq!(
        bits(&sim_st.bc),
        bits(&native_st.bc),
        "BC bits: sim vs native"
    );
    assert_matches_brandes(&sim_st, &fresh, "sim");
    assert_matches_brandes(&native_st, &fresh, "native");
    (sim_ops, sim_st)
}

/// Removing a bridge cuts `{2, 3}` off from source 0: both end at
/// `d = ∞` with σ = δ = 0, and every source on the far side loses the
/// near side.
#[test]
fn disconnecting_removal() {
    let el = EdgeList::from_pairs(5, [(0, 1), (1, 2), (2, 3), (0, 4)]);
    let (ops, st) = check(&el, &[0, 3], &[EdgeOp::Remove(1, 2)]);
    assert_eq!(ops[0].cases.distant, 2, "D3 from both sides of the bridge");
    assert_eq!(st.d[0][2], INF);
    assert_eq!(st.d[0][3], INF);
    assert_eq!(st.d[1][0], INF);
}

/// A 6-cycle: removing `(1, 2)` pushes 2 from level 2 to level 4 (round
/// the other way) without disconnecting anything.
#[test]
fn distance_growth_without_disconnection() {
    let el = EdgeList::from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    let (ops, st) = check(&el, &[0], &[EdgeOp::Remove(1, 2)]);
    assert_eq!(ops[0].cases.distant, 1);
    assert_eq!(st.d[0][2], 4);
}

/// The lost set `{1, 2, 3}` hangs off source 0 by the removed edge
/// `(0, 1)`. Its boundary neighbours sit at different levels — 2 touches
/// 5 at level 2, 3 touches the kept child 8 at level 3 — so 2 settles at
/// 3, then 1 (through 2) and 3 (through 8) at 4.
#[test]
fn multi_vertex_lost_set_settles_from_boundaries_at_different_levels() {
    let el = EdgeList::from_pairs(
        9,
        [
            (0, 1),
            (1, 2),
            (1, 3),
            (0, 4),
            (4, 5),
            (2, 5),
            (0, 6),
            (6, 7),
            (7, 8),
            (3, 8),
        ],
    );
    let (ops, st) = check(&el, &[0], &[EdgeOp::Remove(0, 1)]);
    assert_eq!(ops[0].cases.distant, 1);
    assert_eq!(st.d[0][1..4], [4, 3, 4]);
}

/// Vertex 3 has two predecessors, 1 and 2. Removing `(0, 1)` loses 1, so
/// 3 keeps only 2: σ[3] halves, and 1 settles one level below 3.
#[test]
fn kept_child_loses_one_of_two_predecessors() {
    let el = EdgeList::from_pairs(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
    let (ops, st) = check(&el, &[0], &[EdgeOp::Remove(0, 1)]);
    assert_eq!(ops[0].cases.distant, 1);
    assert_eq!(st.sigma[0][3], 1.0);
    assert_eq!(st.d[0][1], 3);
}

/// `u_high` = 1 carried all of 2's subtree. After `(1, 2)` goes, 2 is
/// reached through 7 instead, and 1's dependency drops to zero — a drop
/// only the explicit `u_high` touch can see, since no remaining edge
/// links 1 to the lost subtree.
#[test]
fn u_high_dependency_drops() {
    let el = EdgeList::from_pairs(
        8,
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (0, 5),
            (5, 6),
            (6, 7),
            (7, 2),
        ],
    );
    let before = brandes_state(&Csr::from_edge_list(&el), &[0]);
    assert!(before.delta[0][1] > 0.0);
    let (ops, st) = check(&el, &[0], &[EdgeOp::Remove(1, 2)]);
    assert_eq!(ops[0].cases.distant, 1);
    assert_eq!(st.delta[0][1], 0.0);
}

/// A D3 removal cuts its stage; the ops after it run in later stages on
/// the repaired state. The batch must equal the ops applied one at a
/// time, bit for bit, on both backends.
#[test]
fn d3_followed_by_later_stages_in_one_batch() {
    let el = EdgeList::from_pairs(
        9,
        [
            (0, 1),
            (1, 2),
            (1, 3),
            (0, 4),
            (4, 5),
            (2, 5),
            (0, 6),
            (6, 7),
            (7, 8),
            (3, 8),
        ],
    );
    let sources = [0, 2, 5];
    let ops = [
        EdgeOp::Remove(0, 1),
        EdgeOp::Insert(1, 4),
        EdgeOp::Remove(7, 8),
        EdgeOp::Insert(0, 8),
        EdgeOp::Remove(4, 5),
    ];
    let (per_op, st) = check(&el, &sources, &ops);
    assert!(per_op[0].cases.distant >= 1);
    for backend in [Backend::Simulator, Backend::Native] {
        let mut seq = engine(&el, &sources, backend);
        for &op in &ops {
            seq.apply_batch(&[op]);
        }
        assert_eq!(
            bits(&seq.state_snapshot().bc),
            bits(&st.bc),
            "{backend}: batched vs one at a time"
        );
    }
}

/// The node-parallel simulator answers D3 with the `delete::d3_*`
/// kernels and never launches a static source pass; the edge-parallel
/// path keeps the from-scratch fallback.
#[test]
fn node_parallel_d3_runs_no_static_pass() {
    let el = EdgeList::from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    for par in [Parallelism::Node, Parallelism::Edge] {
        let mut eng = GpuDynamicBc::new(&el, &[0], DeviceConfig::test_tiny(), par);
        eng.set_profiling(true);
        assert_eq!(eng.remove_edge(1, 2).cases.distant, 1);
        let labels: Vec<&str> = eng
            .profile_report()
            .launches
            .iter()
            .flat_map(|l| l.stages.iter().map(|s| s.label.as_str()))
            .collect();
        let has = |prefix: &str| labels.iter().any(|l| l.starts_with(prefix));
        match par {
            Parallelism::Node => {
                assert!(has("delete::d3_"), "{labels:?}");
                assert!(!has("static::"), "{labels:?}");
            }
            Parallelism::Edge => assert!(has("static::edge"), "{labels:?}"),
        }
    }
}
