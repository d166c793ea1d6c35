//! Canonical undirected edge lists.
//!
//! Every generator in [`crate::gen`] produces an [`EdgeList`]: a
//! deduplicated, self-loop-free list of undirected edges stored with
//! `u < v`. It is the interchange format between generators, I/O, the
//! immutable [`Csr`](crate::csr::Csr) snapshot and the mutable
//! [`SlackCsr`](crate::slack::SlackCsr) store, and the simple edge-set
//! model the tests check that store against.

use crate::op::EdgeOp;
use crate::VertexId;

/// A simple undirected graph as a canonical edge list.
///
/// Invariants (enforced by [`EdgeList::from_pairs`]):
/// * every edge is stored once, as `(min, max)`;
/// * no self loops;
/// * edges are sorted lexicographically (so equality is structural).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl EdgeList {
    /// Builds a canonical edge list over vertices `0..n` from arbitrary
    /// pairs: orients each pair as `(min, max)`, drops self loops and
    /// duplicates, and sorts.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n`.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        let mut edges: Vec<(VertexId, VertexId)> = pairs
            .into_iter()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        for &(u, v) in &edges {
            assert!((v as usize) < n, "edge ({u}, {v}) out of range for n = {n}");
        }
        edges.sort_unstable();
        edges.dedup();
        Self { n, edges }
    }

    /// An empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The canonical `(min, max)` edges, sorted.
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// True if the canonical edge `(min(u,v), max(u,v))` is present.
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.binary_search(&key).is_ok()
    }

    /// Degree of every vertex (each undirected edge contributes to both
    /// endpoints).
    pub fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        deg
    }

    /// Removes the listed canonical edges, returning how many were present
    /// and removed. Pairs are canonicalised before lookup.
    pub fn remove_edges(&mut self, remove: &[(VertexId, VertexId)]) -> usize {
        let mut removed = 0;
        for &(u, v) in remove {
            if u == v {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if let Ok(idx) = self.edges.binary_search(&key) {
                self.edges.remove(idx);
                removed += 1;
            }
        }
        removed
    }

    /// Inserts one edge, keeping the list canonical. Returns `false` if the
    /// edge was a self loop or already present.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        assert!((u.max(v) as usize) < self.n, "endpoint out of range");
        let key = if u < v { (u, v) } else { (v, u) };
        match self.edges.binary_search(&key) {
            Ok(_) => false,
            Err(idx) => {
                self.edges.insert(idx, key);
                true
            }
        }
    }

    /// Applies one [`EdgeOp`]. Returns `false` (changing nothing) for a
    /// self loop, a duplicate insertion or the removal of an absent edge.
    pub fn apply_op(&mut self, op: EdgeOp) -> bool {
        match op {
            EdgeOp::Insert(u, v) => self.insert_edge(u, v),
            EdgeOp::Remove(u, v) => self.remove_edges(&[(u, v)]) == 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalises_orientation_and_duplicates() {
        let el = EdgeList::from_pairs(4, [(2, 1), (1, 2), (0, 3), (3, 3)]);
        assert_eq!(el.edges(), [(0, 3), (1, 2)]);
        assert_eq!(el.edge_count(), 2);
        assert_eq!(el.vertex_count(), 4);
    }

    #[test]
    fn contains_is_orientation_blind() {
        let el = EdgeList::from_pairs(3, [(0, 1)]);
        assert!(el.contains(0, 1));
        assert!(el.contains(1, 0));
        assert!(!el.contains(0, 2));
        assert!(!el.contains(1, 1));
    }

    #[test]
    fn degrees_count_both_endpoints() {
        let el = EdgeList::from_pairs(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(el.degrees(), [3, 1, 1, 1]);
    }

    #[test]
    fn remove_and_insert_round_trip() {
        let mut el = EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(el.remove_edges(&[(2, 1), (0, 3), (1, 1)]), 1);
        assert_eq!(el.edge_count(), 2);
        assert!(!el.contains(1, 2));
        assert!(el.insert_edge(2, 1));
        assert!(el.contains(1, 2));
        assert!(!el.insert_edge(1, 2), "duplicate insert rejected");
        assert_eq!(el.edges(), [(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = EdgeList::from_pairs(2, [(0, 5)]);
    }

    #[test]
    fn empty_graph() {
        let el = EdgeList::empty(10);
        assert_eq!(el.vertex_count(), 10);
        assert_eq!(el.edge_count(), 0);
        assert_eq!(el.degrees(), vec![0; 10]);
    }
}
