//! Decremental updates: edge deletion.
//!
//! The paper restricts its presentation to insertions, noting that "edge
//! removal updates require similar algorithmic techniques to edge
//! insertion updates" (citing Lee et al.'s QUBE). This module supplies
//! the removal side for the sequential engine, with the case analysis
//! dual to insertion:
//!
//! * **Case D1** (`|Δd| = 0`): a same-level edge lies on *no* shortest
//!   path from the source, so removing it changes nothing — the exact
//!   mirror of insertion Case 1. For an existing edge the distance gap is
//!   always 0 or 1, so this is the only free case.
//! * **Case D2** (`|Δd| = 1`, `u_low` retains another predecessor): no
//!   distance changes anywhere — any shortest path using `(u_high,
//!   u_low)` reroutes through the surviving predecessor at equal length —
//!   so only path counts shrink. This runs Algorithm 2's machinery with a
//!   *negative* seed (`σ̂[u_low] = σ[u_low] − σ[u_high]`) plus one
//!   asymmetry: the dependency stage walks current neighbours, and the
//!   deleted edge is no longer one, so `u_high`'s stale contribution
//!   through it is retracted explicitly.
//! * **Case D3** (`u_high` was `u_low`'s only predecessor): distances
//!   grow, which is genuinely harder than insertion (new distances are
//!   not derivable from one relaxation). This engine answers it with a
//!   single-source Brandes re-pass and score diff for the affected
//!   source — still incremental at the update level (unaffected sources
//!   skip), but coarser-grained. It stays the re-pass on purpose: it is
//!   the reference the node-parallel GPU path's incremental D3 repair
//!   (`gpu/kernels/delete.rs`) is tested against. See DESIGN.md §4c.

use super::cpu::{CpuDynamicBc, INF, T_DOWN, T_UNTOUCHED, T_UP};
use super::result::UpdateResult;
use crate::brandes::source_pass_on;
use dynbc_gpusim::OpCounter;
use dynbc_graph::{EdgeOp, VertexId};

impl CpuDynamicBc {
    /// Removes the undirected edge `{u, v}` and incrementally updates BC.
    ///
    /// A batch-of-one wrapper around [`CpuDynamicBc::apply_batch`]. The
    /// returned [`UpdateResult`] reports Case D1 as
    /// [`InsertionCase::Same`](crate::cases::InsertionCase::Same), Case D2
    /// as [`InsertionCase::Adjacent`](crate::cases::InsertionCase::Adjacent)
    /// and the fallback Case D3 as
    /// [`InsertionCase::Distant`](crate::cases::InsertionCase::Distant).
    ///
    /// # Panics
    /// Panics if the edge is absent or a self loop.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> UpdateResult {
        self.apply_batch(&[EdgeOp::Remove(u, v)])
            .into_update_result()
    }

    /// Case D2: distances static, path counts shrink. Mirrors Algorithm 2
    /// with a negative seed; see the module docs for the one asymmetry.
    pub(super) fn delete_case2(
        &mut self,
        i: usize,
        s: VertexId,
        u_high: VertexId,
        u_low: VertexId,
        ops: &mut OpCounter,
    ) -> usize {
        let n = self.graph.vertex_count();
        let graph = &self.graph;
        let d = &self.state.d[i];
        let sigma = &mut self.state.sigma[i];
        let delta = &mut self.state.delta[i];
        let bc = &mut self.state.bc;
        let scr = &mut self.scratch;
        scr.reset();
        ops.inits += 3 * n as u64;

        // Seed: u_low loses the paths that arrived over the deleted edge.
        let start_level = d[u_low as usize];
        scr.touch(u_low, T_DOWN, start_level);
        scr.sigma_hat[u_low as usize] = sigma[u_low as usize] - sigma[u_high as usize];
        scr.delta_hat[u_low as usize] = 0.0;
        scr.bfs_q.push_back(u_low);
        scr.dep_q.enqueue(start_level as usize, u_low);
        ops.queue_ops += 2;

        // Downward σ̂ repair (pushes are negative deltas).
        while let Some(v) = scr.bfs_q.pop_front() {
            ops.queue_ops += 1;
            let dv = d[v as usize];
            let push = scr.sigma_hat[v as usize] - sigma[v as usize];
            for w in graph.neighbors(v) {
                ops.edges += 1;
                if d[w as usize] == dv + 1 {
                    if scr.t[w as usize] == T_UNTOUCHED {
                        scr.touch(w, T_DOWN, dv + 1);
                        scr.sigma_hat[w as usize] = sigma[w as usize];
                        scr.delta_hat[w as usize] = 0.0;
                        scr.bfs_q.push_back(w);
                        scr.dep_q.enqueue((dv + 1) as usize, w);
                        ops.queue_ops += 2;
                    }
                    scr.sigma_hat[w as usize] += push;
                }
            }
        }

        // The deleted edge's stale dependency contribution: u_high no
        // longer neighbours u_low, so the sweep below cannot retract it.
        // Do it here, seeding u_high as an "up" vertex.
        if scr.t[u_high as usize] == T_UNTOUCHED {
            scr.touch(u_high, T_UP, d[u_high as usize]);
            scr.sigma_hat[u_high as usize] = sigma[u_high as usize];
            scr.delta_hat[u_high as usize] = delta[u_high as usize];
            scr.dep_q.enqueue(d[u_high as usize] as usize, u_high);
            ops.queue_ops += 1;
        }
        ops.accums += 1;
        scr.delta_hat[u_high as usize] -=
            sigma[u_high as usize] / sigma[u_low as usize] * (1.0 + delta[u_low as usize]);

        // Dependency accumulation, identical in structure to insertion
        // Case 2 (there is no new-edge exclusion: the pair is gone from
        // the adjacency).
        let mut level = scr.dep_q.deepest_touched();
        loop {
            let bucket = scr
                .dep_q
                .swap_level(level, std::mem::take(&mut scr.bucket_reuse));
            for &w in &bucket {
                ops.queue_ops += 1;
                let dw = d[w as usize];
                let dhat_w = scr.delta_hat[w as usize];
                let shat_w = scr.sigma_hat[w as usize];
                for v in graph.neighbors(w) {
                    ops.edges += 1;
                    let dv = d[v as usize];
                    if dv != INF && dv + 1 == dw {
                        if scr.t[v as usize] == T_UNTOUCHED {
                            scr.touch(v, T_UP, dv);
                            scr.sigma_hat[v as usize] = sigma[v as usize];
                            scr.delta_hat[v as usize] = delta[v as usize];
                            scr.dep_q.enqueue(dv as usize, v);
                            ops.queue_ops += 1;
                        }
                        ops.accums += 1;
                        scr.delta_hat[v as usize] +=
                            scr.sigma_hat[v as usize] / shat_w * (1.0 + dhat_w);
                        if scr.t[v as usize] == T_UP {
                            ops.accums += 1;
                            scr.delta_hat[v as usize] -=
                                sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
                        }
                    }
                }
                if w != s {
                    bc[w as usize] += dhat_w - delta[w as usize];
                }
            }
            scr.bucket_reuse = bucket;
            if level == 0 {
                break;
            }
            level -= 1;
        }

        ops.inits += n as u64;
        for &v in &scr.touched {
            sigma[v as usize] = scr.sigma_hat[v as usize];
            delta[v as usize] = scr.delta_hat[v as usize];
        }
        scr.touched.len()
    }

    /// Case D3 fallback: distances grew; rebuild this source's tree with
    /// one Brandes pass and diff the scores.
    pub(super) fn delete_fallback(&mut self, i: usize, s: VertexId, ops: &mut OpCounter) -> usize {
        let n = self.graph.vertex_count();
        let pass = source_pass_on(&self.graph, s);
        // Model cost: one full SSSP + accumulation over the graph.
        ops.edges += 4 * (self.graph.arc_count() / 2) as u64;
        ops.inits += 3 * n as u64;
        ops.queue_ops += n as u64;
        ops.accums += n as u64;
        let mut touched = 0usize;
        for v in 0..n {
            let changed = self.state.d[i][v] != pass.d[v]
                || self.state.sigma[i][v] != pass.sigma[v]
                || self.state.delta[i][v] != pass.delta[v];
            if changed {
                touched += 1;
            }
            if v as u32 != s {
                self.state.bc[v] += pass.delta[v] - self.state.delta[i][v];
            }
        }
        self.state.d[i] = pass.d;
        self.state.sigma[i] = pass.sigma;
        self.state.delta[i] = pass.delta;
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::{brandes_state, sample_sources};
    use dynbc_graph::{gen, EdgeList};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_recompute(engine: &CpuDynamicBc, ctx: &str) {
        let csr = engine.graph().to_csr();
        let fresh = brandes_state(&csr, &engine.state().sources);
        let st = engine.state();
        for i in 0..st.sources.len() {
            assert_eq!(st.d[i], fresh.d[i], "{ctx}: d mismatch source {i}");
            for v in 0..st.n {
                assert!(
                    (st.sigma[i][v] - fresh.sigma[i][v]).abs() < 1e-6,
                    "{ctx}: sigma[{i}][{v}]"
                );
                assert!(
                    (st.delta[i][v] - fresh.delta[i][v]).abs() < 1e-6,
                    "{ctx}: delta[{i}][{v}]: {} vs {}",
                    st.delta[i][v],
                    fresh.delta[i][v]
                );
            }
        }
        for v in 0..st.n {
            assert!((st.bc[v] - fresh.bc[v]).abs() < 1e-6, "{ctx}: bc[{v}]");
        }
    }

    #[test]
    fn same_level_removal_is_free() {
        // 4-cycle + chord (1,3): from source 0 the chord joins two
        // distance-1 vertices.
        let el = EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]);
        let mut eng = CpuDynamicBc::new(&el, &[0]);
        let before = eng.state().clone();
        let r = eng.remove_edge(1, 3);
        assert_eq!(r.cases.same, 1);
        assert_eq!(r.per_source[0].touched, 0);
        assert_eq!(eng.state().bc, before.bc);
        assert_matches_recompute(&eng, "same-level removal");
    }

    #[test]
    fn sigma_only_removal_uses_incremental_path() {
        // Diamond: 0-1-3, 0-2-3. Removing (2,3) leaves 3 reachable at the
        // same distance through 1 → Case D2.
        let el = EdgeList::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut eng = CpuDynamicBc::new(&el, &[0]);
        let r = eng.remove_edge(2, 3);
        assert_eq!(r.cases.adjacent, 1);
        assert_matches_recompute(&eng, "sigma-only removal");
        assert_eq!(eng.state().bc[1], 1.0, "1 now carries the whole 0→3 flow");
        assert_eq!(eng.state().bc[2], 0.0);
    }

    #[test]
    fn sole_predecessor_removal_falls_back() {
        // Path 0-1-2-3: removing (1,2) disconnects {2,3} from 0.
        let el = EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let mut eng = CpuDynamicBc::new(&el, &[0]);
        let r = eng.remove_edge(1, 2);
        assert_eq!(r.cases.distant, 1);
        assert_matches_recompute(&eng, "disconnecting removal");
        assert_eq!(eng.state().d[0][2], u32::MAX);
        assert_eq!(eng.state().bc[1], 0.0);
    }

    #[test]
    fn distance_growth_without_disconnection() {
        // 0-1-2 plus the shortcut (0,2): removing it pushes 2 from
        // distance 1 back to 2.
        let el = EdgeList::from_pairs(3, [(0, 1), (1, 2), (0, 2)]);
        let mut eng = CpuDynamicBc::new(&el, &[0]);
        let r = eng.remove_edge(0, 2);
        assert_eq!(r.cases.distant, 1);
        assert_matches_recompute(&eng, "distance growth");
        assert_eq!(eng.state().d[0][2], 2);
    }

    #[test]
    fn random_removal_streams_match_recompute() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 28;
            let el = gen::er(&mut rng, n, 60);
            let sources = sample_sources(&mut rng, n, 5);
            let mut eng = CpuDynamicBc::new(&el, &sources);
            let mut removed = 0;
            while removed < 8 {
                let edges = eng.graph().to_csr().to_edge_list();
                if edges.edge_count() == 0 {
                    break;
                }
                let &(u, v) = &edges.edges()[rng.gen_range(0..edges.edge_count())];
                eng.remove_edge(u, v);
                removed += 1;
                assert_matches_recompute(&eng, &format!("seed {seed} removal {removed}"));
            }
        }
    }

    #[test]
    fn insert_then_remove_is_identity() {
        let mut rng = StdRng::seed_from_u64(5);
        let el = gen::ws(&mut rng, 40, 2, 0.2);
        let sources = sample_sources(&mut rng, 40, 6);
        let mut eng = CpuDynamicBc::new(&el, &sources);
        let before = eng.state().clone();
        eng.insert_edge(0, 20);
        eng.remove_edge(0, 20);
        let after = eng.state();
        for v in 0..40 {
            assert!(
                (before.bc[v] - after.bc[v]).abs() < 1e-9,
                "BC[{v}] drifted through insert+remove"
            );
        }
        assert_eq!(before.d, after.d);
    }

    #[test]
    fn mixed_insert_remove_stream() {
        let mut rng = StdRng::seed_from_u64(77);
        let n = 30;
        let el = gen::ba(&mut rng, n, 3);
        let sources = sample_sources(&mut rng, n, 5);
        let mut eng = CpuDynamicBc::new(&el, &sources);
        for step in 0..20 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            if eng.graph().has_edge(u, v) {
                eng.remove_edge(u, v);
            } else {
                eng.insert_edge(u, v);
            }
            assert_matches_recompute(&eng, &format!("mixed step {step}"));
        }
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn removing_absent_edge_panics() {
        let el = EdgeList::from_pairs(3, [(0, 1)]);
        let mut eng = CpuDynamicBc::new(&el, &[0]);
        eng.remove_edge(1, 2);
    }
}
