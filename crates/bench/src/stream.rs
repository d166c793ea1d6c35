//! NetworKit-shaped edge-event streams for the serving benchmark, the
//! batch-partition tests and the batching paper-shape check.
//!
//! Mirrors the `removeAndAddEdges` protocol of the NetworKit dynamic-BC
//! experiment scripts: pick random existing edges that are in neither a
//! *tabu* set (edges the experiment must keep, e.g. a spanning tree so
//! the graph stays connected) nor already picked, emit an
//! `EDGE_REMOVAL` stream over them, and an `EDGE_ADDITION` stream that
//! re-inserts the same edges. [`remove_then_add`] reproduces the
//! script's two-phase shape; [`interleaved`] laces the two streams with
//! a fixed lag so removal and re-addition churn concurrently — the
//! client workload a serving shard sees.
//!
//! All generation is deterministic from the caller's seeded RNG, and
//! every produced stream is validated to be sequentially applicable
//! (each removal hits a present edge, each addition an absent one), so
//! harnesses can feed any prefix or batching of it to `apply_batch`.

use std::collections::BTreeSet;

use dynbc_bc::BcState;
use dynbc_graph::{DynGraph, EdgeList, EdgeOp, VertexId};
use rand::rngs::StdRng;
use rand::Rng;

/// Canonical `(min, max)` form of an undirected edge.
fn canon(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// A BFS spanning forest of `el` as a tabu set: removing any non-tabu
/// edge leaves every component connected, matching the scripts' use of
/// a spanning tree as the tabu graph.
pub fn spanning_forest_tabu(el: &EdgeList) -> BTreeSet<(VertexId, VertexId)> {
    let n = el.vertex_count();
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in el.edges() {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    let mut seen = vec![false; n];
    let mut tabu = BTreeSet::new();
    let mut queue = std::collections::VecDeque::new();
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        queue.push_back(root as VertexId);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u as usize] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    tabu.insert(canon(u, v));
                    queue.push_back(v);
                }
            }
        }
    }
    tabu
}

/// Samples `count` distinct removable edges (present, not tabu) in
/// random order — the scripts' rejection loop, made deterministic by
/// the caller's seeded RNG.
///
/// # Panics
/// Panics if fewer than `count` non-tabu edges exist.
fn sample_removable(
    el: &EdgeList,
    count: usize,
    tabu: &BTreeSet<(VertexId, VertexId)>,
    rng: &mut StdRng,
) -> Vec<(VertexId, VertexId)> {
    let mut pool: Vec<(VertexId, VertexId)> = el
        .edges()
        .iter()
        .copied()
        .filter(|e| !tabu.contains(e))
        .collect();
    assert!(
        pool.len() >= count,
        "stream wants {count} removable edges, graph has {}",
        pool.len()
    );
    // Partial Fisher-Yates: the first `count` slots are a uniform
    // without-replacement sample.
    for i in 0..count {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// The scripts' two-phase protocol: a removal stream over `count`
/// random non-tabu edges, and an addition stream re-inserting them in
/// the same order. Apply all removals (in any batching), then all
/// additions.
pub fn remove_then_add(
    el: &EdgeList,
    count: usize,
    tabu: &BTreeSet<(VertexId, VertexId)>,
    rng: &mut StdRng,
) -> (Vec<EdgeOp>, Vec<EdgeOp>) {
    let picked = sample_removable(el, count, tabu, rng);
    let removals: Vec<EdgeOp> = picked.iter().map(|&(u, v)| EdgeOp::Remove(u, v)).collect();
    let additions: Vec<EdgeOp> = picked.iter().map(|&(u, v)| EdgeOp::Insert(u, v)).collect();
    let all: Vec<EdgeOp> = removals.iter().chain(additions.iter()).copied().collect();
    validate_stream(el, &all);
    (removals, additions)
}

/// One interleaved stream: each picked edge's removal is followed,
/// `lag` events later, by its re-addition (`lag >= 1`), so removal and
/// addition churn overlap the way a live client stream does. The
/// stream has `2 * count` events and is sequentially valid from `el`.
pub fn interleaved(
    el: &EdgeList,
    count: usize,
    lag: usize,
    tabu: &BTreeSet<(VertexId, VertexId)>,
    rng: &mut StdRng,
) -> Vec<EdgeOp> {
    let lag = lag.max(1);
    let picked = sample_removable(el, count, tabu, rng);
    let mut ops = Vec::with_capacity(2 * count);
    for (i, &(u, v)) in picked.iter().enumerate() {
        ops.push(EdgeOp::Remove(u, v));
        if i + 1 >= lag {
            let (a, b) = picked[i + 1 - lag];
            ops.push(EdgeOp::Insert(a, b));
        }
    }
    for &(u, v) in &picked[count.saturating_sub(lag - 1)..] {
        ops.push(EdgeOp::Insert(u, v));
    }
    validate_stream(el, &ops);
    ops
}

/// Asserts `ops` applies cleanly from `el` one op at a time — the
/// guarantee that lets harnesses batch any prefix of the stream.
fn validate_stream(el: &EdgeList, ops: &[EdgeOp]) {
    let mut g = el.clone();
    for &op in ops.iter() {
        match op {
            EdgeOp::Remove(u, v) => {
                assert_eq!(
                    g.remove_edges(&[(u, v)]),
                    1,
                    "removal of absent edge {u}-{v}"
                )
            }
            EdgeOp::Insert(u, v) => {
                assert!(g.insert_edge(u, v), "insertion of present edge {u}-{v}")
            }
        }
    }
}

/// Up to `count` insertions that preserve every source's BFS distances
/// (both endpoints reachable and within one level for every source):
/// all Case 1/2 ops, so whole batches fuse into single stages — the
/// best case the batch API targets. Used by the batching check of
/// `tests/paper_shape.rs`.
///
/// # Panics
/// Panics if the graph is too sparse in same-level pairs to supply
/// `count` such edges.
pub fn fusable_insertions(el: &EdgeList, state: &BcState, count: usize) -> Vec<EdgeOp> {
    let n = el.vertex_count() as u32;
    let mut probe = DynGraph::from_edge_list(el);
    let mut ops = Vec::with_capacity(count);
    'outer: for a in 0..n {
        for b in (a + 1)..n {
            if probe.has_edge(a, b) {
                continue;
            }
            let fusable = state.d.iter().all(|row| {
                row[a as usize] != u32::MAX
                    && row[b as usize] != u32::MAX
                    && row[a as usize].abs_diff(row[b as usize]) <= 1
            });
            if fusable {
                assert!(probe.insert_edge(a, b));
                ops.push(EdgeOp::Insert(a, b));
                if ops.len() == count {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(ops.len(), count, "graph too sparse in same-level pairs");
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbc_graph::gen;
    use rand::SeedableRng;

    fn graph() -> EdgeList {
        let mut rng = StdRng::seed_from_u64(7);
        gen::ba(&mut rng, 80, 3)
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let el = graph();
        let tabu = spanning_forest_tabu(&el);
        let a = interleaved(&el, 20, 3, &tabu, &mut StdRng::seed_from_u64(42));
        let b = interleaved(&el, 20, 3, &tabu, &mut StdRng::seed_from_u64(42));
        let c = interleaved(&el, 20, 3, &tabu, &mut StdRng::seed_from_u64(43));
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should pick different edges");
        assert_eq!(a.len(), 40);
    }

    #[test]
    fn interleaved_respects_the_lag() {
        let el = graph();
        let tabu = spanning_forest_tabu(&el);
        let ops = interleaved(&el, 10, 4, &tabu, &mut StdRng::seed_from_u64(1));
        // Each edge's removal index precedes its addition index.
        for (i, &op) in ops.iter().enumerate() {
            if let EdgeOp::Insert(u, v) = op {
                let removal = ops[..i]
                    .iter()
                    .position(|&o| o == EdgeOp::Remove(u, v))
                    .expect("addition before its removal");
                assert!(removal < i);
            }
        }
    }

    #[test]
    fn remove_then_add_round_trips_the_graph() {
        let el = graph();
        let tabu = spanning_forest_tabu(&el);
        let (removals, additions) = remove_then_add(&el, 15, &tabu, &mut StdRng::seed_from_u64(5));
        let mut g = el.clone();
        for op in removals.iter().chain(additions.iter()) {
            match *op {
                EdgeOp::Remove(u, v) => assert_eq!(g.remove_edges(&[(u, v)]), 1),
                EdgeOp::Insert(u, v) => assert!(g.insert_edge(u, v)),
            }
        }
        assert_eq!(g, el, "remove-then-add must restore the original graph");
    }

    #[test]
    fn tabu_edges_are_never_removed() {
        let el = graph();
        let tabu = spanning_forest_tabu(&el);
        let ops = interleaved(&el, 25, 1, &tabu, &mut StdRng::seed_from_u64(9));
        for op in &ops {
            if let EdgeOp::Remove(u, v) = *op {
                assert!(!tabu.contains(&canon(u, v)), "tabu edge {u}-{v} removed");
            }
        }
    }

    #[test]
    fn spanning_forest_spans_connected_graphs() {
        let el = graph();
        let tabu = spanning_forest_tabu(&el);
        // BA graphs are connected: a spanning tree has n-1 edges.
        assert_eq!(tabu.len(), el.vertex_count() - 1);
    }
}
