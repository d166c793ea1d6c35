//! Minimal graph-access trait so the host-side algorithms (Brandes
//! seeding, planning, oracles) run on both the immutable CSR form and
//! the mutable slack-CSR store. The device kernels are *not* generic
//! over this trait: they read adjacency through versioned views of the
//! engines' slack-CSR store (`gpu::kernels::GraphView`).

use dynbc_graph::{Csr, SlackCsr, VertexId};

/// Read-only neighbourhood access.
pub trait Topology {
    /// Number of vertices.
    fn vertex_count(&self) -> usize;
    /// Calls `f` for each neighbour of `v`.
    fn for_neighbors<F: FnMut(VertexId)>(&self, v: VertexId, f: F);
}

impl Topology for Csr {
    fn vertex_count(&self) -> usize {
        Csr::vertex_count(self)
    }

    fn for_neighbors<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        for &w in self.neighbors(v) {
            f(w);
        }
    }
}

impl Topology for SlackCsr {
    fn vertex_count(&self) -> usize {
        SlackCsr::vertex_count(self)
    }

    fn for_neighbors<F: FnMut(VertexId)>(&self, v: VertexId, f: F) {
        self.neighbors(v).for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbc_graph::slack::{DEFAULT_COMPACT_PCT, DEFAULT_SLACK_PCT};
    use dynbc_graph::EdgeList;

    #[test]
    fn csr_and_slack_csr_agree() {
        let el = EdgeList::from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let csr = Csr::from_edge_list(&el);
        let mut slack = SlackCsr::from_csr(&csr, DEFAULT_SLACK_PCT, DEFAULT_COMPACT_PCT);
        // A removal leaves a tombstone the slack view must skip.
        slack.insert_edge(1, 3);
        slack.remove_edge(1, 3);
        assert_eq!(Topology::vertex_count(&csr), Topology::vertex_count(&slack));
        for v in 0..5u32 {
            let mut a = Vec::new();
            let mut b = Vec::new();
            csr.for_neighbors(v, |w| a.push(w));
            slack.for_neighbors(v, |w| b.push(w));
            assert_eq!(a, b, "vertex {v}");
        }
    }
}
