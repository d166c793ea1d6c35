//! The **plan layer** of the batched update pipeline: every engine-facing
//! case decision lives here.
//!
//! A streaming batch is a sequence of [`EdgeOp`]s. For each op, every BC
//! source is classified into the paper's taxonomy before any update work
//! is dispatched:
//!
//! * insertions — Case 1/2/3 of Section II-D-1 ([`classify`]), including
//!   the component-merge subcase (one endpoint unreachable);
//! * removals — the deletion duals D1 (same level, free), D2 (adjacent
//!   levels with a surviving predecessor) and D3 (sole predecessor,
//!   distances grow), via [`classify_removal`].
//!
//! The result is one [`PlannedOp`] per op: the per-source decisions with
//! Case 1 / D1 sources already separated out, so the exec layers (CPU
//! loop, GPU batch dispatcher) only ever see non-trivial `(source, op)`
//! work items.
//!
//! ## Stages
//!
//! Classification only reads the source's distance row, and Case 2 / D2
//! updates never modify distances. A *stage* is therefore a maximal run
//! of consecutive ops in which only the **last** op has any
//! distance-changing item (insertion Case 3 or deletion D3): within a
//! stage every op can be classified against the distances as they stood
//! at stage start, and the whole stage can be fused into one launch
//! without changing any decision the sequential path would have made.
//! [`PlannedOp::cuts_stage`] is that boundary predicate.

use crate::cases::{CaseCounts, InsertionCase, INF};
use dynbc_graph::{BatchOpError, BatchOpErrorKind, EdgeOp, VertexId};

/// A classified `(source, op)` pair, oriented so `u_high` is the endpoint
/// nearer the source ("higher in the BFS tree") and `u_low` the farther
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classified {
    /// Which scenario this source faces.
    pub case: InsertionCase,
    /// Endpoint closer to the source (valid for `Adjacent`/`Distant`).
    pub u_high: VertexId,
    /// Endpoint farther from the source.
    pub u_low: VertexId,
}

/// Classifies the insertion `(u, v)` for a source with distance array `d`.
///
/// "Figuring out which case each source node has to compute is trivial":
/// two distance lookups.
pub fn classify(d: &[u32], u: VertexId, v: VertexId) -> Classified {
    let du = d[u as usize];
    let dv = d[v as usize];
    match (du == INF, dv == INF) {
        (true, true) => Classified {
            case: InsertionCase::Same,
            u_high: u,
            u_low: v,
        },
        (false, true) => Classified {
            case: InsertionCase::Distant,
            u_high: u,
            u_low: v,
        },
        (true, false) => Classified {
            case: InsertionCase::Distant,
            u_high: v,
            u_low: u,
        },
        (false, false) => {
            let (u_high, u_low) = if du <= dv { (u, v) } else { (v, u) };
            let gap = du.abs_diff(dv);
            let case = match gap {
                0 => InsertionCase::Same,
                1 => InsertionCase::Adjacent,
                _ => InsertionCase::Distant,
            };
            Classified {
                case,
                u_high,
                u_low,
            }
        }
    }
}

/// Classifies the removal `(u, v)` for a source with **pre-removal**
/// distance array `d`; `neighbors` must already reflect the removal (the
/// surviving-predecessor scan must not see the deleted edge).
///
/// The deletion duals map onto [`InsertionCase`]: D1 → `Same` (equal
/// levels, nothing changes), D2 → `Adjacent` (a surviving predecessor at
/// `d_low − 1` keeps all distances intact; only path counts shrink),
/// D3 → `Distant` (the removed edge was `u_low`'s sole predecessor, so
/// distances grow: the node-parallel GPU path repairs the lost subtree,
/// the CPU and edge-parallel engines re-run the source).
pub fn classify_removal<I: Iterator<Item = VertexId>>(
    d: &[u32],
    u: VertexId,
    v: VertexId,
    neighbors: impl Fn(VertexId) -> I,
) -> Classified {
    let du = d[u as usize];
    let dv = d[v as usize];
    if du == dv {
        return Classified {
            case: InsertionCase::Same,
            u_high: u,
            u_low: v,
        };
    }
    // The edge existed, so the endpoints were in one component: either
    // both reachable (levels differing by exactly one) or both INF
    // (handled above as Same).
    let (u_high, u_low) = if du < dv { (u, v) } else { (v, u) };
    let d_low = d[u_low as usize];
    let survives = neighbors(u_low).any(|x| d[x as usize] != INF && d[x as usize] + 1 == d_low);
    Classified {
        case: if survives {
            InsertionCase::Adjacent
        } else {
            InsertionCase::Distant
        },
        u_high,
        u_low,
    }
}

/// One op of a batch with every source's case decision attached — the
/// `(source × edge-op)` slice of the `UpdatePlan`.
#[derive(Debug, Clone)]
pub struct PlannedOp {
    /// The mutation this plan covers (already committed to the graph).
    pub op: EdgeOp,
    /// Per-source decisions, indexed by source row.
    pub sources: Vec<Classified>,
    /// Case tallies across the sources.
    pub cases: CaseCounts,
    /// Adjacency entries read by the deletion surviving-predecessor
    /// scans (Σ degree(`u_low`) over non-D1 sources); zero for
    /// insertions. The CPU cost model charges these as edge traversals.
    pub scan_edges: u64,
}

impl PlannedOp {
    /// The non-trivial work items: `(source_row, decision)` pairs with
    /// Case 1 / D1 sources dropped.
    pub fn items(&self) -> impl Iterator<Item = (usize, Classified)> + '_ {
        self.sources
            .iter()
            .enumerate()
            .filter(|(_, c)| c.case != InsertionCase::Same)
            .map(|(row, c)| (row, *c))
    }

    /// True if any source's update may change distances (insertion
    /// Case 3 or deletion D3) — the op must then be the last one of its
    /// fused stage, because later classifications need the new
    /// distances.
    pub fn cuts_stage(&self) -> bool {
        self.cases.distant > 0
    }
}

/// Classifies every source of the committed `op` against the distance
/// rows `d` (`d[row]` = that source's distances, valid at the current
/// stage start). `neighbors` yields the adjacency *after* `op`: the
/// caller commits the op first, because the removal
/// surviving-predecessor scan must not see the deleted edge, while
/// insertion classification only reads distances.
pub fn plan_op<R: AsRef<[u32]>, I: Iterator<Item = VertexId>>(
    d: &[R],
    op: EdgeOp,
    neighbors: impl Fn(VertexId) -> I,
) -> PlannedOp {
    let (u, v) = op.endpoints();
    let sources: Vec<Classified> = match op {
        EdgeOp::Insert(..) => d.iter().map(|row| classify(row.as_ref(), u, v)).collect(),
        EdgeOp::Remove(..) => d
            .iter()
            .map(|row| classify_removal(row.as_ref(), u, v, &neighbors))
            .collect(),
    };
    let mut cases = CaseCounts::default();
    let mut scan_edges = 0u64;
    for c in &sources {
        cases.record(c.case);
        if !op.is_insert() && c.case != InsertionCase::Same {
            scan_edges += neighbors(c.u_low).count() as u64;
        }
    }
    PlannedOp {
        op,
        sources,
        cases,
        scan_edges,
    }
}

/// Checks a whole batch before any engine state is touched, without
/// changing the graph: each op is checked against `has_edge` on the
/// pre-batch graph of `n` vertices, overlaid with the ops before it in
/// the batch. Reports the first invalid op.
pub fn validate_batch(
    n: usize,
    has_edge: impl Fn(VertexId, VertexId) -> bool,
    ops: &[EdgeOp],
) -> Result<(), BatchOpError> {
    // Edge presence after the batch's earlier ops, keyed by the ordered
    // endpoint pair; lookups only, so hash order never matters.
    let mut overlay = std::collections::HashMap::new();
    for (index, &op) in ops.iter().enumerate() {
        let (u, v) = op.endpoints();
        let key = (u.min(v), u.max(v));
        let kind = if key.1 as usize >= n {
            BatchOpErrorKind::OutOfRange
        } else if u == v {
            BatchOpErrorKind::SelfLoop
        } else {
            let present = overlay.get(&key).copied().unwrap_or_else(|| has_edge(u, v));
            match (op.is_insert(), present) {
                (true, true) => BatchOpErrorKind::AlreadyPresent,
                (false, false) => BatchOpErrorKind::NotPresent,
                _ => {
                    overlay.insert(key, op.is_insert());
                    continue;
                }
            }
        };
        return Err(BatchOpError { index, op, kind });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbc_graph::{Csr, EdgeList};

    /// The CSR of `pairs` after applying `op` to them.
    fn after(n: usize, pairs: &[(VertexId, VertexId)], op: EdgeOp) -> Csr {
        let mut el = EdgeList::from_pairs(n, pairs.iter().copied());
        assert!(el.apply_op(op));
        Csr::from_edge_list(&el)
    }

    #[test]
    fn same_level_is_case1() {
        let d = [0, 1, 1, 2];
        let c = classify(&d, 1, 2);
        assert_eq!(c.case, InsertionCase::Same);
    }

    #[test]
    fn adjacent_levels_oriented_correctly() {
        let d = [0, 1, 2, 3];
        let c = classify(&d, 2, 1);
        assert_eq!(c.case, InsertionCase::Adjacent);
        assert_eq!(c.u_high, 1);
        assert_eq!(c.u_low, 2);
        // Argument order must not matter.
        let c2 = classify(&d, 1, 2);
        assert_eq!((c2.u_high, c2.u_low, c2.case), (c.u_high, c.u_low, c.case));
    }

    #[test]
    fn distant_levels_are_case3() {
        let d = [0, 1, 5, 3];
        let c = classify(&d, 0, 2);
        assert_eq!(c.case, InsertionCase::Distant);
        assert_eq!(c.u_high, 0);
        assert_eq!(c.u_low, 2);
    }

    #[test]
    fn both_unreachable_is_case1() {
        let d = [0, INF, INF];
        assert_eq!(classify(&d, 1, 2).case, InsertionCase::Same);
    }

    #[test]
    fn one_unreachable_is_case3_with_reachable_high() {
        let d = [0, 2, INF];
        let c = classify(&d, 2, 1);
        assert_eq!(c.case, InsertionCase::Distant);
        assert_eq!(c.u_high, 1);
        assert_eq!(c.u_low, 2);
    }

    #[test]
    fn removal_with_surviving_predecessor_is_d2() {
        // Path 0-1-3 plus 0-2-3: removing (1,3) leaves predecessor 2 at
        // level 1, so distances from source 0 hold → D2 (Adjacent).
        let g = after(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], EdgeOp::Remove(1, 3));
        let d = [0u32, 1, 1, 2];
        let c = classify_removal(&d, 1, 3, |x| g.neighbors(x).iter().copied());
        assert_eq!(c.case, InsertionCase::Adjacent);
        assert_eq!((c.u_high, c.u_low), (1, 3));
    }

    #[test]
    fn removal_of_sole_predecessor_is_d3() {
        // Path 0-1-2: removing (1,2) orphans vertex 2 → D3 (Distant).
        let g = after(3, &[(0, 1), (1, 2)], EdgeOp::Remove(1, 2));
        let d = [0u32, 1, 2];
        let c = classify_removal(&d, 2, 1, |x| g.neighbors(x).iter().copied());
        assert_eq!(c.case, InsertionCase::Distant);
        assert_eq!((c.u_high, c.u_low), (1, 2));
    }

    #[test]
    fn removal_at_equal_levels_is_d1() {
        let g = after(4, &[(0, 1), (0, 2), (1, 2)], EdgeOp::Remove(1, 2));
        let d = [0u32, 1, 1, INF];
        assert_eq!(
            classify_removal(&d, 1, 2, |x| g.neighbors(x).iter().copied()).case,
            InsertionCase::Same
        );
    }

    #[test]
    fn plan_op_drops_case1_sources_and_tallies() {
        // Star around 0; inserting (1, 2) is Case 1 for the source row
        // seeing both endpoints at level 1, Case 2 for the row seeing
        // levels 2 and 1 (insert classification reads only distances).
        let g = Csr::from_edge_list(&EdgeList::from_pairs(4, [(0, 1), (0, 2), (0, 3)]));
        let d = vec![vec![0u32, 1, 1, 1], vec![1u32, 2, 1, 0]];
        let p = plan_op(&d, EdgeOp::Insert(1, 2), |x| g.neighbors(x).iter().copied());
        assert!(!g.has_edge(1, 2), "plan_op does not commit the op");
        assert_eq!(p.cases.same, 1);
        assert_eq!(p.cases.adjacent, 1);
        let items: Vec<_> = p.items().collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, 1, "only source row 1 has work");
        assert!(!p.cuts_stage());
    }

    #[test]
    fn plan_op_scans_post_removal_degree() {
        // Diamond 0-1-3, 0-2-3 plus leaf 3-4: removing (1,3) is D2 for
        // source 0, and the surviving-predecessor scan charges vertex
        // 3's degree after the removal (2: vertices 2 and 4).
        let op = EdgeOp::Remove(1, 3);
        let g = after(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], op);
        let d = vec![vec![0u32, 1, 1, 2, 3]];
        let p = plan_op(&d, op, |x| g.neighbors(x).iter().copied());
        assert_eq!(p.cases.adjacent, 1);
        assert_eq!(p.scan_edges, 2);
    }

    #[test]
    fn stage_cut_on_distance_changing_item() {
        let g = Csr::from_edge_list(&EdgeList::from_pairs(4, [(0, 1)]));
        // Source 0: vertex 3 unreachable → component merge → Distant.
        let d = vec![vec![0u32, 1, INF, INF]];
        let p = plan_op(&d, EdgeOp::Insert(1, 2), |x| g.neighbors(x).iter().copied());
        assert!(p.cuts_stage());
    }

    fn validate(g: &EdgeList, ops: &[EdgeOp]) -> Result<(), BatchOpError> {
        validate_batch(g.vertex_count(), |u, v| g.contains(u, v), ops)
    }

    #[test]
    fn validate_batch_accepts_paired_ops_and_rejects_a_bad_batch() {
        let g = EdgeList::from_pairs(5, [(0, 1)]);
        // Inserting then removing the same edge within one batch, and
        // removing then re-inserting one, are both valid.
        validate(
            &g,
            &[
                EdgeOp::Insert(1, 2),
                EdgeOp::Remove(2, 1),
                EdgeOp::Remove(0, 1),
                EdgeOp::Insert(0, 1),
            ],
        )
        .unwrap();
        // Removing an edge twice is not.
        validate(&g, &[EdgeOp::Remove(0, 1), EdgeOp::Remove(1, 0)]).unwrap_err();
    }

    #[test]
    fn validate_batch_reports_duplicate_insert_at_its_index() {
        let g = EdgeList::from_pairs(6, [(0, 1)]);
        // Op 2 re-inserts the edge op 0 already inserted.
        let err = validate(
            &g,
            &[
                EdgeOp::Insert(2, 3),
                EdgeOp::Remove(0, 1),
                EdgeOp::Insert(3, 2),
            ],
        )
        .unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(err.kind, BatchOpErrorKind::AlreadyPresent);
        assert!(err.to_string().contains("already present"), "{err}");
    }

    #[test]
    fn validate_batch_rejects_bad_ops() {
        let g = EdgeList::from_pairs(4, [(0, 1)]);
        for (op, kind, phrase) in [
            (
                EdgeOp::Insert(1, 1),
                BatchOpErrorKind::SelfLoop,
                "self-loop insertion",
            ),
            (
                EdgeOp::Remove(2, 2),
                BatchOpErrorKind::SelfLoop,
                "self-loop removal",
            ),
            (
                EdgeOp::Remove(0, 2),
                BatchOpErrorKind::NotPresent,
                "not present",
            ),
            (
                EdgeOp::Insert(0, 4),
                BatchOpErrorKind::OutOfRange,
                "out of range",
            ),
            // The range check comes first.
            (
                EdgeOp::Remove(4, 4),
                BatchOpErrorKind::OutOfRange,
                "out of range",
            ),
        ] {
            let err = validate(&g, &[EdgeOp::Insert(2, 3), op]).unwrap_err();
            assert_eq!((err.index, err.op, err.kind), (1, op, kind));
            assert!(err.to_string().contains(phrase), "{err}");
        }
    }
}
