//! Persistent betweenness-centrality state.
//!
//! Dynamic updating requires keeping, for every source vertex `s`, the
//! BFS distances `d_s(t)`, shortest-path counts `σ_st` and dependencies
//! `δ_s(t)` — the O(kn) storage the paper accepts because "the performance
//! gain is well worth the extra space".

use dynbc_graph::VertexId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Full dynamic-BC state: scores plus the per-source SSSP data.
#[derive(Debug, Clone, PartialEq)]
pub struct BcState {
    /// Number of vertices.
    pub n: usize,
    /// The `k` source vertices used for (approximate) BC.
    pub sources: Vec<VertexId>,
    /// Centrality scores, accumulated over `sources`.
    pub bc: Vec<f64>,
    /// `d[i][t]`: distance from `sources[i]` to `t` (`u32::MAX` if
    /// unreachable).
    pub d: Vec<Vec<u32>>,
    /// `sigma[i][t]`: number of shortest paths from `sources[i]` to `t`.
    /// Stored as `f64` (exact below 2^53; ratios are what the algorithm
    /// consumes).
    pub sigma: Vec<Vec<f64>>,
    /// `delta[i][t]`: dependency of `t` with respect to `sources[i]`.
    pub delta: Vec<Vec<f64>>,
}

impl BcState {
    /// Allocates a zeroed state for `n` vertices and the given sources.
    pub fn zeroed(n: usize, sources: Vec<VertexId>) -> Self {
        let k = sources.len();
        Self {
            n,
            sources,
            bc: vec![0.0; n],
            d: vec![vec![u32::MAX; n]; k],
            sigma: vec![vec![0.0; n]; k],
            delta: vec![vec![0.0; n]; k],
        }
    }

    /// Number of sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Index of `s` within the source list, if it is one.
    pub fn source_index(&self, s: VertexId) -> Option<usize> {
        self.sources.iter().position(|&x| x == s)
    }

    /// The vertices with the `top` largest BC scores, in [`top_k`]
    /// order. The paper notes "the relative ranking of the vertices
    /// tends to be more informative than the magnitude of their scores".
    pub fn top_ranked(&self, top: usize) -> Vec<(VertexId, f64)> {
        top_k(&self.bc, top)
    }
}

/// The `k` highest scores of `scores` as `(vertex, score)` pairs, where
/// the vertex is the score's index: sorted by descending score, ties
/// broken by ascending vertex id (`-0.0` ties `+0.0`).
///
/// One pass in ascending vertex id keeps the best `k` seen so far in a
/// heap rooted at the worst of them; a later vertex displaces the root
/// only with a strictly greater score, since on a tie its higher id
/// ranks it lower. O(n log k) time and O(k) memory, where a full sort
/// would pay O(n log n) to return `k` entries.
///
/// `#[inline]`, so it compiles into its caller's crate (the serve
/// read path): compiled here, its code and speed shifted with every
/// edit to this crate's kernels, which share its codegen units.
///
/// # Panics
/// Panics if any score is NaN.
#[inline]
pub fn top_k(scores: &[f64], k: usize) -> Vec<(VertexId, f64)> {
    let mut kept = BinaryHeap::with_capacity(k.min(scores.len()));
    for (v, &score) in scores.iter().enumerate() {
        assert!(!score.is_nan(), "BC scores are never NaN");
        if kept.len() < k {
            kept.push(Ranked(score, v as VertexId));
        } else if let Some(mut worst) = kept.peek_mut() {
            if score > worst.0 {
                *worst = Ranked(score, v as VertexId);
            }
        }
    }
    kept.into_sorted_vec()
        .into_iter()
        .map(|Ranked(score, v)| (v, score))
        .collect()
}

/// A `(score, vertex)` entry ordered by rank: greater means ranked
/// lower (smaller score, then larger id), so a max-heap's root is the
/// worst entry kept. Scores are never NaN.
#[derive(PartialEq)]
struct Ranked(f64, VertexId);

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .partial_cmp(&self.0)
            .expect("BC scores are never NaN")
            .then(self.1.cmp(&other.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_shapes() {
        let s = BcState::zeroed(5, vec![0, 3]);
        assert_eq!(s.source_count(), 2);
        assert_eq!(s.bc.len(), 5);
        assert_eq!(s.d.len(), 2);
        assert_eq!(s.d[1][4], u32::MAX);
        assert_eq!(s.sigma[0][0], 0.0);
    }

    #[test]
    fn source_index_lookup() {
        let s = BcState::zeroed(4, vec![2, 0]);
        assert_eq!(s.source_index(2), Some(0));
        assert_eq!(s.source_index(0), Some(1));
        assert_eq!(s.source_index(3), None);
    }

    #[test]
    fn top_ranked_orders_and_breaks_ties_by_id() {
        let mut s = BcState::zeroed(4, vec![0]);
        s.bc = vec![1.0, 3.0, 3.0, 0.5];
        let top = s.top_ranked(3);
        assert_eq!(top, [(1, 3.0), (2, 3.0), (0, 1.0)]);
    }
}
