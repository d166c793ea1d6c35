//! Compressed Sparse Row (CSR) graph snapshot.
//!
//! The GPU kernels of the paper consume the classic CSR pair — a row-offset
//! array `R` and a column (adjacency) array `C` — because neighbour
//! expansion then becomes a contiguous, coalescible scan. Undirected edges
//! are stored as two directed *arcs*, so `arc_count() == 2 * edge_count()`.
//!
//! The streaming engines no longer snapshot a `Csr` per update: every
//! backend reads adjacency through the device-resident
//! [`SlackCsr`](crate::slack::SlackCsr) store, which absorbs each
//! committed op as an O(degree) epoch delta (the paper explicitly
//! neglects the cost of the graph-structure update itself, citing
//! STINGER; we keep all structure maintenance out of every timed
//! region). `Csr` remains the canonical immutable form: construction
//! input, oracle for equivalence checks (`SlackCsr::to_csr()`
//! canonicalizes to these exact bytes), and host-side analytics.

use crate::edgelist::EdgeList;
use crate::VertexId;

/// Immutable CSR adjacency for a simple undirected graph: every row is
/// sorted and every arc is paired with its reverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// Row offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated neighbour lists (directed arcs), each row sorted.
    adj: Vec<VertexId>,
}

impl Csr {
    /// Builds a CSR from a canonical edge list.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        let n = el.vertex_count();
        let mut deg = vec![0usize; n];
        for &(u, v) in el.edges() {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut adj = vec![0 as VertexId; acc];
        let mut cursor = offsets.clone();
        for &(u, v) in el.edges() {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Edge list is sorted by (u, v), so row u is already sorted for the
        // first direction; the reverse arcs arrive sorted by u as well,
        // interleaved — sort each row to restore the invariant.
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Self { offsets, adj }
    }

    /// Builds a CSR from pre-computed parts: `offsets` of length `n + 1`
    /// and `adj` with each row already sorted ascending. Crate-internal
    /// fast path for snapshotting structures that already know their
    /// degrees (see [`SlackCsr::to_csr`](crate::slack::SlackCsr::to_csr)).
    pub(crate) fn from_sorted_parts(offsets: Vec<usize>, adj: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap(), adj.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(
            (0..offsets.len() - 1).all(|v| adj[offsets[v]..offsets[v + 1]]
                .windows(2)
                .all(|w| w[0] < w[1]))
        );
        Self { offsets, adj }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed arcs (`2m` for an undirected graph).
    pub fn arc_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Sorted neighbours of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// True if the arc `u -> v` exists (symmetric for undirected input).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The raw row-offset array (`R`), length `n + 1`.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw column array (`C`), length `2m`.
    pub fn adjacency(&self) -> &[VertexId] {
        &self.adj
    }

    /// Iterates every directed arc `(v, w)` in row order — the unit of work
    /// of the edge-parallel kernels.
    pub fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.vertex_count()).flat_map(move |v| {
            self.neighbors(v as VertexId)
                .iter()
                .map(move |&w| (v as VertexId, w))
        })
    }

    /// Materialises the arc list as `(tail, head)` pairs — the `E` array the
    /// edge-parallel kernels index by thread id.
    pub fn arc_pairs(&self) -> Vec<(VertexId, VertexId)> {
        self.arcs().collect()
    }

    /// Converts back to a canonical edge list.
    pub fn to_edge_list(&self) -> EdgeList {
        EdgeList::from_pairs(self.vertex_count(), self.arcs().filter(|&(u, v)| u < v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Csr {
        // 0-1, 0-2, 1-2, 2-3
        Csr::from_edge_list(&EdgeList::from_pairs(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
    }

    #[test]
    fn counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.arc_count(), 8);
    }

    #[test]
    fn neighbours_sorted_and_symmetric() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(0), [1, 2]);
        assert_eq!(g.neighbors(1), [0, 2]);
        assert_eq!(g.neighbors(2), [0, 1, 3]);
        assert_eq!(g.neighbors(3), [2]);
        for v in 0..4u32 {
            for &w in g.neighbors(v) {
                assert!(g.has_edge(w, v), "arc {w}->{v} missing");
            }
        }
    }

    #[test]
    fn degrees_and_offsets() {
        let g = triangle_plus_tail();
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.offsets(), [0, 2, 4, 7, 8]);
    }

    #[test]
    fn arc_iteration_covers_both_directions() {
        let g = triangle_plus_tail();
        let arcs = g.arc_pairs();
        assert_eq!(arcs.len(), 8);
        assert!(arcs.contains(&(0, 1)));
        assert!(arcs.contains(&(1, 0)));
        assert!(arcs.contains(&(3, 2)));
    }

    #[test]
    fn round_trips_through_edge_list() {
        let el = EdgeList::from_pairs(6, [(0, 5), (1, 3), (2, 4), (3, 4), (0, 1)]);
        let g = Csr::from_edge_list(&el);
        assert_eq!(g.to_edge_list(), el);
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let g = Csr::from_edge_list(&EdgeList::from_pairs(5, [(0, 1)]));
        assert_eq!(g.degree(2), 0);
        assert!(g.neighbors(3).is_empty());
        assert_eq!(g.vertex_count(), 5);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::empty(3));
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.arc_count(), 0);
        assert_eq!(g.arc_pairs(), []);
    }
}
