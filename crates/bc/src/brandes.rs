//! Brandes's static betweenness-centrality algorithm (Algorithm 1).
//!
//! The three-stage structure — initialization, shortest-path calculation
//! (BFS), dependency accumulation in reverse BFS order — is the skeleton
//! every other implementation in this crate (dynamic CPU, dynamic GPU,
//! static GPU) either reuses or incrementalizes.
//!
//! Exact BC runs the outer loop over every vertex (O(mn)); approximate BC
//! over `k` chosen sources (O(mk)), as in Brandes & Pich and the paper's
//! experiments (k = 256 there).

use crate::state::BcState;
use dynbc_graph::{Csr, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Per-source result of one Brandes pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SourcePass {
    /// BFS distance from the source (`u32::MAX` if unreachable).
    pub d: Vec<u32>,
    /// Shortest-path counts from the source.
    pub sigma: Vec<f64>,
    /// Dependencies with respect to the source.
    pub delta: Vec<f64>,
}

/// Runs one source's shortest-path calculation and dependency
/// accumulation (stages 2 and 3 of Algorithm 1), without predecessor
/// lists: the dependency stage re-examines neighbours and filters with
/// `d[v] + 1 == d[w]`, the O(E)-memory-saving variant of Green & Bader
/// the paper adopts (its reference \[18\]).
pub fn source_pass(g: &Csr, s: VertexId) -> SourcePass {
    source_pass_on(g, s)
}

/// [`source_pass`] over any [`Topology`](crate::topology::Topology) —
/// also runs directly on the mutable [`SlackCsr`](dynbc_graph::SlackCsr)
/// store, which the decremental fallback path needs.
pub fn source_pass_on<T: crate::topology::Topology>(g: &T, s: VertexId) -> SourcePass {
    let n = g.vertex_count();
    let mut d = vec![u32::MAX; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    d[s as usize] = 0;
    sigma[s as usize] = 1.0;
    // Stage 2: BFS.
    let mut head = 0usize;
    order.push(s);
    while head < order.len() {
        let v = order[head];
        head += 1;
        let dv = d[v as usize];
        g.for_neighbors(v, |w| {
            if d[w as usize] == u32::MAX {
                d[w as usize] = dv + 1;
                order.push(w);
            }
            if d[w as usize] == dv + 1 {
                sigma[w as usize] += sigma[v as usize];
            }
        });
    }
    // Stage 3: dependency accumulation in reverse BFS order.
    for &w in order.iter().rev() {
        let dw = d[w as usize];
        if dw == 0 {
            continue;
        }
        let sig_w = sigma[w as usize];
        let del_w = delta[w as usize];
        g.for_neighbors(w, |v| {
            if d[v as usize] != u32::MAX && d[v as usize] + 1 == dw {
                delta[v as usize] += sigma[v as usize] / sig_w * (1.0 + del_w);
            }
        });
    }
    SourcePass { d, sigma, delta }
}

/// Exact betweenness centrality: every vertex is a source.
pub fn brandes_exact(g: &Csr) -> Vec<f64> {
    let n = g.vertex_count();
    let mut bc = vec![0.0f64; n];
    for s in 0..n as VertexId {
        let pass = source_pass(g, s);
        for (v, acc) in bc.iter_mut().enumerate() {
            if v != s as usize {
                *acc += pass.delta[v];
            }
        }
    }
    bc
}

/// Approximate BC over the given sources, retaining all per-source data —
/// the initialization step of every dynamic engine.
pub fn brandes_state(g: &Csr, sources: &[VertexId]) -> BcState {
    let n = g.vertex_count();
    let mut state = BcState::zeroed(n, sources.to_vec());
    for (i, &s) in sources.iter().enumerate() {
        let pass = source_pass(g, s);
        for v in 0..n {
            if v != s as usize {
                state.bc[v] += pass.delta[v];
            }
        }
        state.d[i] = pass.d;
        state.sigma[i] = pass.sigma;
        state.delta[i] = pass.delta;
    }
    state
}

/// Approximate BC scores only (no retained trees).
pub fn brandes_approx(g: &Csr, sources: &[VertexId]) -> Vec<f64> {
    brandes_state(g, sources).bc
}

/// Samples `k` distinct source vertices uniformly at random, the SSCA
/// benchmark's source-selection rule followed by the paper.
pub fn sample_sources(rng: &mut impl Rng, n: usize, k: usize) -> Vec<VertexId> {
    let mut all: Vec<VertexId> = (0..n as VertexId).collect();
    all.shuffle(rng);
    all.truncate(k.min(n));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_bc;
    use dynbc_graph::gen;
    use dynbc_graph::EdgeList;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn g(n: usize, edges: &[(u32, u32)]) -> Csr {
        Csr::from_edge_list(&EdgeList::from_pairs(n, edges.iter().copied()))
    }

    #[test]
    fn path_graph_center_dominates() {
        // 0-1-2: vertex 1 lies on the single 0..2 shortest path, counted
        // from both directions: BC(1) = 2.
        let bc = brandes_exact(&g(3, &[(0, 1), (1, 2)]));
        assert_eq!(bc, [0.0, 2.0, 0.0]);
    }

    #[test]
    fn star_center_carries_all_pairs() {
        // Star on 4 leaves: center lies on all 4*3 = 12 ordered leaf pairs.
        let bc = brandes_exact(&g(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]));
        assert_eq!(bc[0], 12.0);
        assert!(bc[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn cycle_is_symmetric() {
        let bc = brandes_exact(&g(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]));
        for w in bc.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-12,
                "cycle BC must be uniform: {bc:?}"
            );
        }
    }

    #[test]
    fn sigma_counts_parallel_shortest_paths() {
        // Diamond 0-1-3, 0-2-3: two shortest paths 0→3.
        let pass = source_pass(&g(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]), 0);
        assert_eq!(pass.d, [0, 1, 1, 2]);
        assert_eq!(pass.sigma, [1.0, 1.0, 1.0, 2.0]);
        // Each middle vertex carries half the dependency of reaching 3.
        assert!((pass.delta[1] - 0.5).abs() < 1e-12);
        assert!((pass.delta[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disconnected_components_do_not_interact() {
        let bc = brandes_exact(&g(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]));
        assert_eq!(bc, [0.0, 2.0, 0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn matches_naive_oracle_on_random_graphs() {
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let el = gen::er(&mut rng, 18, 30);
            let csr = Csr::from_edge_list(&el);
            let fast = brandes_exact(&csr);
            let slow = naive_bc(&csr);
            for v in 0..18 {
                assert!(
                    (fast[v] - slow[v]).abs() < 1e-9,
                    "seed {seed} vertex {v}: {} vs {}",
                    fast[v],
                    slow[v]
                );
            }
        }
    }

    #[test]
    fn approx_with_all_sources_equals_exact() {
        let csr = Csr::from_edge_list(&gen::er(&mut StdRng::seed_from_u64(9), 20, 40));
        let all: Vec<VertexId> = (0..20).collect();
        let approx = brandes_approx(&csr, &all);
        let exact = brandes_exact(&csr);
        for v in 0..20 {
            assert!((approx[v] - exact[v]).abs() < 1e-9);
        }
    }

    #[test]
    fn state_retains_consistent_trees() {
        let csr = g(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let st = brandes_state(&csr, &[0]);
        assert_eq!(st.d[0], [0, 1, 1, 2]);
        assert_eq!(st.sigma[0], [1.0, 1.0, 1.0, 2.0]);
        assert_eq!(st.bc[1], st.delta[0][1]);
    }

    #[test]
    fn sampled_sources_are_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = sample_sources(&mut rng, 50, 10);
        assert_eq!(s.len(), 10);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 10, "duplicates in {s:?}");
        assert!(s.iter().all(|&v| v < 50));
        // Requesting more than n clamps.
        assert_eq!(sample_sources(&mut rng, 5, 10).len(), 5);
    }
}
