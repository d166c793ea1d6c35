//! Sequential dynamic betweenness centrality (the CPU baseline).
//!
//! Implements the incremental algorithm of Green, McColl & Bader as
//! presented in the paper:
//!
//! * **Case 1** (`|Δd| = 0`) — nothing to do.
//! * **Case 2** (`|Δd| = 1`) — Algorithm 2, verbatim: a downward
//!   shortest-path-count repair from `u_low` followed by a multi-level-queue
//!   dependency accumulation that *adds* the new contribution of each
//!   touched successor and *retracts* its stale one. (The paper's listing
//!   has one evident typo — line 39 copies `δ̂` for *untouched* vertices;
//!   Algorithm 8, its GPU twin, confirms the condition is `t[v] ≠
//!   untouched`, which is what we implement.)
//! * **Case 3** (`|Δd| > 1`, incl. component merges) — the paper notes its
//!   "techniques generalize and can be applied to Case 3"; we implement
//!   that generalization: a level-ordered downward sweep that relocates
//!   vertices whose distance drops and *pulls* fresh `σ̂` values, a
//!   pred-closure marking pass over both the old and the new BFS DAGs (a
//!   vertex whose distance shrank abandons old-tree parents that a single
//!   new-tree sweep would miss), and a pull-based dependency sweep by
//!   decreasing new level. Pulling `δ̂` from scratch sidesteps the
//!   add/subtract bookkeeping that is only sound when levels are static.
//!
//! The engine is instrumented with an [`OpCounter`]; modeled seconds come
//! from [`CpuConfig::model_seconds`]. The graph lives in the same
//! [`SlackCsr`] store the GPU engines use, mutated through its settled
//! single-op path; per the paper's methodology, that graph-structure
//! update itself is not timed.

use crate::brandes::brandes_state;
use crate::cases::InsertionCase;
use crate::dynamic::mlq::MultiLevelQueue;
use crate::dynamic::result::{BatchResult, OpOutcome, SourceOutcome, UpdateResult};
use crate::lifecycle::{secs_since, Collector};
use crate::plan;
use crate::state::BcState;
use dynbc_gpusim::{CpuConfig, OpCounter};
use dynbc_graph::slack::{DEFAULT_COMPACT_PCT, DEFAULT_SLACK_PCT};
use dynbc_graph::{Csr, EdgeList, EdgeOp, SlackCsr, VertexId};
use dynbc_telemetry::{CacheCounters, Span, Telemetry};
use std::collections::VecDeque;

pub(super) const T_UNTOUCHED: u8 = 0;
pub(super) const T_DOWN: u8 = 1;
pub(super) const T_UP: u8 = 2;
pub(super) const INF: u32 = u32::MAX;

/// Reusable per-update scratch: the `t`, `σ̂`, `δ̂`, `d̂` arrays and queues
/// of Algorithm 2, allocated once and reset in O(touched).
#[derive(Debug, Clone)]
pub(super) struct Scratch {
    pub(super) t: Vec<u8>,
    pub(super) processed: Vec<bool>,
    pub(super) sigma_hat: Vec<f64>,
    pub(super) delta_hat: Vec<f64>,
    pub(super) d_hat: Vec<u32>,
    pub(super) touched: Vec<u32>,
    pub(super) dep_q: MultiLevelQueue,
    pub(super) down_q: MultiLevelQueue,
    pub(super) bfs_q: VecDeque<u32>,
    pub(super) worklist: Vec<u32>,
    pub(super) bucket_reuse: Vec<u32>,
}

impl Scratch {
    pub(super) fn new(n: usize) -> Self {
        Self {
            t: vec![T_UNTOUCHED; n],
            processed: vec![false; n],
            sigma_hat: vec![0.0; n],
            delta_hat: vec![0.0; n],
            d_hat: vec![0; n],
            touched: Vec::with_capacity(64),
            dep_q: MultiLevelQueue::new(n + 2),
            down_q: MultiLevelQueue::new(n + 2),
            bfs_q: VecDeque::with_capacity(64),
            worklist: Vec::with_capacity(64),
            bucket_reuse: Vec::with_capacity(64),
        }
    }

    /// O(touched) reset between per-source updates.
    pub(super) fn reset(&mut self) {
        for &v in &self.touched {
            self.t[v as usize] = T_UNTOUCHED;
            self.processed[v as usize] = false;
        }
        self.touched.clear();
        self.dep_q.clear();
        self.down_q.clear();
        self.bfs_q.clear();
        self.worklist.clear();
    }

    #[inline]
    pub(super) fn touch(&mut self, v: u32, kind: u8, level: u32) {
        debug_assert_eq!(self.t[v as usize], T_UNTOUCHED);
        self.t[v as usize] = kind;
        self.d_hat[v as usize] = level;
        self.touched.push(v);
    }

    /// New-tree distance of `x`: `d̂` if touched, old `d` otherwise.
    #[inline]
    fn dist(&self, d_old: &[u32], x: u32) -> u32 {
        if self.t[x as usize] != T_UNTOUCHED {
            self.d_hat[x as usize]
        } else {
            d_old[x as usize]
        }
    }

    /// Updated σ of `x`: `σ̂` if touched, old σ otherwise.
    #[inline]
    fn sig(&self, sigma_old: &[f64], x: u32) -> f64 {
        if self.t[x as usize] != T_UNTOUCHED {
            self.sigma_hat[x as usize]
        } else {
            sigma_old[x as usize]
        }
    }
}

/// Dynamic-BC engine over a mutable graph, keeping state for `k` sources.
#[derive(Debug, Clone)]
pub struct CpuDynamicBc {
    pub(super) graph: SlackCsr,
    pub(super) state: BcState,
    pub(super) cpu: CpuConfig,
    pub(super) scratch: Scratch,
    pub(super) total_ops: OpCounter,
    /// Cumulative modeled seconds across all updates — the CPU analogue of
    /// the GPU engines' device clock, giving telemetry spans a timeline.
    model_clock_s: f64,
    telemetry: Collector,
}

impl CpuDynamicBc {
    /// Builds the engine: runs static Brandes from each source to seed the
    /// per-source `d`/`σ`/`δ` state (the O(kn) storage the dynamic
    /// algorithm trades for speed).
    pub fn new(el: &EdgeList, sources: &[VertexId]) -> Self {
        let csr = Csr::from_edge_list(el);
        let state = brandes_state(&csr, sources);
        Self {
            graph: SlackCsr::from_csr(&csr, DEFAULT_SLACK_PCT, DEFAULT_COMPACT_PCT),
            state,
            cpu: CpuConfig::i7_2600k(),
            scratch: Scratch::new(el.vertex_count()),
            total_ops: OpCounter::new(),
            model_clock_s: 0.0,
            telemetry: Collector::from_env(),
        }
    }

    /// Enables/disables telemetry for every batch this engine applies
    /// (default: `DYNBC_TELEMETRY`). When on, `apply_batch` records update
    /// metrics (latency, touched fractions, case tallies) and lifecycle
    /// spans into [`telemetry_report`](Self::telemetry_report); results
    /// are unaffected.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry.set(on)
    }

    /// True when batches record telemetry.
    pub fn telemetry(&self) -> bool {
        self.telemetry.on()
    }

    /// The telemetry accumulated by batches applied with telemetry on.
    pub fn telemetry_report(&self) -> Option<&Telemetry> {
        self.telemetry.report()
    }

    /// Drains the accumulated telemetry, leaving a fresh collector behind
    /// (scrape-and-continue, like a Prometheus endpoint would).
    pub fn take_telemetry_report(&mut self) -> Option<Telemetry> {
        self.telemetry.take()
    }

    /// Current BC state (scores + per-source trees).
    pub fn state(&self) -> &BcState {
        &self.state
    }

    /// The engine's current graph.
    pub fn graph(&self) -> &SlackCsr {
        &self.graph
    }

    /// Cumulative operation counts across all updates.
    pub fn total_ops(&self) -> &OpCounter {
        &self.total_ops
    }

    /// Inserts the undirected edge `{u, v}` and incrementally updates BC.
    ///
    /// A batch-of-one wrapper around [`CpuDynamicBc::apply_batch`].
    ///
    /// # Panics
    /// Panics on self loops, out-of-range endpoints, or duplicate edges —
    /// the experiment protocols never produce these, and silently ignoring
    /// them would corrupt the case statistics.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> UpdateResult {
        self.apply_batch(&[EdgeOp::Insert(u, v)])
            .into_update_result()
    }

    /// Applies a batch of edge mutations in submission order,
    /// incrementally updating BC after each one.
    ///
    /// The batch is validated against the graph up front (all or
    /// nothing); per-op classification and dispatch run through the
    /// shared [plan layer](crate::plan), so results are identical —
    /// bit for bit — to applying the same ops one at a time.
    ///
    /// # Panics
    /// Panics (before touching any engine state) if any op has an
    /// out-of-range endpoint, is a self loop, a duplicate insertion, or a
    /// removal of an absent edge.
    pub fn apply_batch(&mut self, batch: &[EdgeOp]) -> BatchResult {
        let mut trace = self.telemetry.begin(&self.graph, batch, self.model_clock_s);

        // Counters accumulate per op (`ops`) and fold into the batch
        // total; the counter sums — and therefore the modeled seconds —
        // are exactly what one shared accumulator produced, while the
        // per-op subtotals give telemetry spans their durations.
        let mut batch_ops = OpCounter::new();
        let mut per_op = Vec::with_capacity(batch.len());
        for (op_idx, &op) in batch.iter().enumerate() {
            let op_t = trace.stopwatch();
            let mut ops = OpCounter::new();
            let committed = match op {
                EdgeOp::Insert(u, v) => self.graph.insert_edge(u, v),
                EdgeOp::Remove(u, v) => self.graph.remove_edge(u, v),
            };
            debug_assert!(committed, "validated op {op} must commit");
            let planned = plan::plan_op(&self.state.d, op, |v| self.graph.neighbors(v));
            // Classification charge: one two-load compare per source,
            // plus the surviving-predecessor scans for removals.
            ops.queue_ops += planned.sources.len() as u64;
            ops.edges += planned.scan_edges;

            let mut per_source = Vec::with_capacity(planned.sources.len());
            for (row, cls) in planned.sources.iter().enumerate() {
                let s = self.state.sources[row];
                let touched = match (cls.case, op.is_insert()) {
                    (InsertionCase::Same, _) => 0,
                    (InsertionCase::Adjacent, true) => {
                        let BcState {
                            bc,
                            d,
                            sigma,
                            delta,
                            ..
                        } = &mut self.state;
                        case2_update(
                            &self.graph,
                            s,
                            cls.u_high,
                            cls.u_low,
                            &d[row],
                            &mut sigma[row],
                            &mut delta[row],
                            bc,
                            &mut self.scratch,
                            &mut ops,
                        )
                    }
                    (InsertionCase::Distant, true) => {
                        let BcState {
                            bc,
                            d,
                            sigma,
                            delta,
                            ..
                        } = &mut self.state;
                        case3_update(
                            &self.graph,
                            s,
                            cls.u_high,
                            cls.u_low,
                            &mut d[row],
                            &mut sigma[row],
                            &mut delta[row],
                            bc,
                            &mut self.scratch,
                            &mut ops,
                        )
                    }
                    (InsertionCase::Adjacent, false) => {
                        self.delete_case2(row, s, cls.u_high, cls.u_low, &mut ops)
                    }
                    (InsertionCase::Distant, false) => self.delete_fallback(row, s, &mut ops),
                };
                per_source.push(SourceOutcome {
                    case: cls.case,
                    touched,
                });
            }
            per_op.push(OpOutcome {
                op,
                cases: planned.cases,
                per_source,
            });
            if trace.timed() {
                trace.push(
                    Span::new(
                        format!("op#{op_idx}"),
                        1,
                        trace.start_s + self.cpu.model_seconds(&batch_ops),
                        self.cpu.model_seconds(&ops),
                    )
                    .wall(secs_since(op_t))
                    .arg("sources", per_op[op_idx].per_source.len() as f64),
                );
            }
            batch_ops.add(&ops);
        }
        // No device mirror reads the store's delta journal here; drain it
        // so a long-lived engine does not accumulate it.
        self.graph.take_deltas();
        self.total_ops.add(&batch_ops);
        let model_seconds = self.cpu.model_seconds(&batch_ops);
        self.model_clock_s += model_seconds;
        // The CPU baseline has no cache model: empty counters keep the
        // memsim families undefined in its telemetry.
        let counters = || (batch_ops.queue_ops, 0, CacheCounters::default());
        trace.finish(&mut self.telemetry, per_op, model_seconds, counters)
    }
}

/// Case 2 update for one source — Algorithm 2 of the paper.
///
/// Returns the number of touched vertices.
#[allow(clippy::too_many_arguments)]
fn case2_update(
    g: &SlackCsr,
    s: VertexId,
    u_high: VertexId,
    u_low: VertexId,
    d: &[u32],
    sigma: &mut [f64],
    delta: &mut [f64],
    bc: &mut [f64],
    scr: &mut Scratch,
    ops: &mut OpCounter,
) -> usize {
    let n = g.vertex_count();
    scr.reset();
    // Stage 1 (lines 2–8): t/σ̂/δ̂ initialization sweeps over all of V.
    // Physically we reset lazily in O(touched); the *model* charges the
    // algorithm as written.
    ops.inits += 3 * n as u64;

    // Lines 5–7: seed u_low with the paths routed through the new edge.
    let start_level = d[u_low as usize];
    scr.touch(u_low, T_DOWN, start_level);
    scr.sigma_hat[u_low as usize] = sigma[u_low as usize] + sigma[u_high as usize];
    scr.delta_hat[u_low as usize] = 0.0;
    scr.bfs_q.push_back(u_low);
    scr.dep_q.enqueue(start_level as usize, u_low);
    ops.queue_ops += 2;

    // Stage 2 (lines 9–20): repair shortest-path counts downward.
    while let Some(v) = scr.bfs_q.pop_front() {
        ops.queue_ops += 1;
        let dv = d[v as usize];
        // σ̂[v] is final here: all of v's predecessors were dequeued before
        // v (FIFO preserves level order).
        let push = scr.sigma_hat[v as usize] - sigma[v as usize];
        for w in g.neighbors(v) {
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

    // Stage 3 (lines 21–36): dependency accumulation, deepest level first.
    // Level 0 (the source) is drained too: its δ̂ bookkeeping keeps the
    // stored state bit-identical to a fresh Brandes run (the source's
    // dependency is never *read*, but stale state is a trap for later
    // consumers).
    let mut level = scr.dep_q.deepest_touched();
    loop {
        let bucket = scr
            .dep_q
            .swap_level(level, std::mem::take(&mut scr.bucket_reuse));
        for &w in &bucket {
            ops.queue_ops += 1;
            let dw = d[w as usize];
            debug_assert_eq!(dw as usize, level);
            let dhat_w = scr.delta_hat[w as usize];
            let shat_w = scr.sigma_hat[w as usize];
            for v in g.neighbors(w) {
                ops.edges += 1;
                let dv = d[v as usize];
                if dv != INF && dv + 1 == dw {
                    if scr.t[v as usize] == T_UNTOUCHED {
                        // Line 27–30: first touch from below seeds δ̂ with
                        // the old dependency.
                        scr.touch(v, T_UP, dv);
                        scr.sigma_hat[v as usize] = sigma[v as usize];
                        scr.delta_hat[v as usize] = delta[v as usize];
                        scr.dep_q.enqueue(dv as usize, v);
                        ops.queue_ops += 1;
                    }
                    ops.accums += 1;
                    // Line 31: add w's updated contribution.
                    scr.delta_hat[v as usize] +=
                        scr.sigma_hat[v as usize] / shat_w * (1.0 + dhat_w);
                    // Lines 32–33: retract w's stale contribution — except
                    // across the inserted edge itself, which had none.
                    if scr.t[v as usize] == T_UP && !(v == u_high && w == u_low) {
                        ops.accums += 1;
                        scr.delta_hat[v as usize] -=
                            sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
                    }
                }
            }
            // Lines 34–35 (once per popped vertex, as in Algorithm 8).
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

    // Lines 37–40: commit. The model charges the full sweep; physically
    // only touched entries differ.
    ops.inits += n as u64;
    for &v in &scr.touched {
        sigma[v as usize] = scr.sigma_hat[v as usize];
        delta[v as usize] = scr.delta_hat[v as usize];
    }
    scr.touched.len()
}

/// Case 3 update for one source: distances shrink (possibly from ∞).
///
/// Returns the number of touched vertices.
#[allow(clippy::too_many_arguments)]
fn case3_update(
    g: &SlackCsr,
    s: VertexId,
    u_high: VertexId,
    u_low: VertexId,
    d: &mut [u32],
    sigma: &mut [f64],
    delta: &mut [f64],
    bc: &mut [f64],
    scr: &mut Scratch,
    ops: &mut OpCounter,
) -> usize {
    let n = g.vertex_count();
    scr.reset();
    // Initialization sweeps (σ̂/δ̂/t) plus the d̂ copy the moved-distance
    // variant needs.
    ops.inits += 4 * n as u64;

    // ---- Phase 1: downward relocation + pull-based σ̂ repair. ----
    // u_high keeps its distance (an edge to a farther vertex cannot
    // shorten it); u_low drops to d[u_high] + 1.
    let start_level = d[u_high as usize] + 1;
    scr.touch(u_low, T_DOWN, start_level);
    scr.down_q.enqueue(start_level as usize, u_low);
    ops.queue_ops += 1;

    let mut level = start_level as usize;
    while level <= scr.down_q.deepest_touched() {
        let bucket = scr
            .down_q
            .swap_level(level, std::mem::take(&mut scr.bucket_reuse));
        for &v in &bucket {
            ops.queue_ops += 1;
            // Skip entries staled by a later relocation, and re-processing.
            if scr.d_hat[v as usize] as usize != level || scr.processed[v as usize] {
                continue;
            }
            scr.processed[v as usize] = true;
            // Pull σ̂[v] fresh from all current predecessors. Predecessors
            // with changed state are touched and already final (their level
            // is smaller and fully drained); untouched ones kept their old
            // values.
            let mut sig = 0.0;
            for_each_neighbor_counted(g, v, ops, |x, _| {
                if scr.dist(d, x) as usize + 1 == level {
                    sig += scr.sig(sigma, x);
                }
            });
            scr.sigma_hat[v as usize] = sig;
            // Expand: relocate farther neighbours, mark next-level ones.
            for_each_neighbor_counted(g, v, ops, |w, scr_ops| {
                let dw = scr.dist(d, w);
                let next = level as u32 + 1;
                if dw > next {
                    // w's distance drops to `next` (covers dw = ∞).
                    if scr.t[w as usize] == T_UNTOUCHED {
                        scr.touch(w, T_DOWN, next);
                    } else {
                        // Already touched at a deeper tentative level:
                        // relocate and invalidate the stale queue entry.
                        debug_assert!(!scr.processed[w as usize]);
                        scr.d_hat[w as usize] = next;
                    }
                    scr.down_q.enqueue(next as usize, w);
                    scr_ops.queue_ops += 1;
                } else if dw == next && scr.t[w as usize] == T_UNTOUCHED {
                    // Same-distance successor of a changed vertex: its σ
                    // may change; pull it into the down set.
                    scr.touch(w, T_DOWN, next);
                    scr.down_q.enqueue(next as usize, w);
                    scr_ops.queue_ops += 1;
                }
            });
        }
        scr.bucket_reuse = bucket;
        level += 1;
    }

    // ---- Phase 2a: closure of dependency changes. ----
    // A vertex's δ changes if it is a predecessor — in the *new* BFS DAG
    // (gains/changes a contribution) or in the *old* one (loses a stale
    // contribution from a relocated vertex) — of any changed vertex.
    // Walking only the new DAG would miss old-tree parents of relocated
    // vertices, so both tests run.
    scr.worklist.extend_from_slice(&scr.touched);
    let mut i = 0;
    while i < scr.worklist.len() {
        let w = scr.worklist[i];
        i += 1;
        let dw_new = scr.dist(d, w);
        let dw_old = d[w as usize];
        for_each_neighbor_counted(g, w, ops, |x, _| {
            if scr.t[x as usize] != T_UNTOUCHED {
                return;
            }
            let dx = d[x as usize]; // untouched ⇒ old = new
            let new_pred = dx != INF && dw_new != INF && dx + 1 == dw_new;
            let old_pred = dx != INF && dw_old != INF && dx + 1 == dw_old;
            if new_pred || old_pred {
                scr.touch(x, T_UP, dx);
                scr.sigma_hat[x as usize] = sigma[x as usize];
                scr.delta_hat[x as usize] = delta[x as usize];
                scr.worklist.push(x);
            }
        });
    }

    // ---- Phase 2b: pull-based dependency sweep by decreasing new level.
    for &v in &scr.touched {
        let lvl = scr.d_hat[v as usize];
        debug_assert_ne!(lvl, INF, "touched vertices are reachable after insertion");
        scr.dep_q.enqueue(lvl as usize, v);
        ops.queue_ops += 1;
    }
    let mut level = scr.dep_q.deepest_touched();
    loop {
        let bucket = scr
            .dep_q
            .swap_level(level, std::mem::take(&mut scr.bucket_reuse));
        for &w in &bucket {
            ops.queue_ops += 1;
            let shat_w = scr.sigma_hat[w as usize];
            let mut acc = 0.0;
            for_each_neighbor_counted(g, w, ops, |x, scr_ops| {
                if scr.dist(d, x) as usize == level + 1 {
                    scr_ops.accums += 1;
                    let (sx, dx) = if scr.t[x as usize] != T_UNTOUCHED {
                        (scr.sigma_hat[x as usize], scr.delta_hat[x as usize])
                    } else {
                        (sigma[x as usize], delta[x as usize])
                    };
                    acc += shat_w / sx * (1.0 + dx);
                }
            });
            scr.delta_hat[w as usize] = acc;
            if w != s {
                bc[w as usize] += acc - delta[w as usize];
            }
        }
        scr.bucket_reuse = bucket;
        if level == 0 {
            break;
        }
        level -= 1;
    }

    // Commit (model: full sweep; physical: touched entries).
    ops.inits += n as u64;
    for &v in &scr.touched {
        d[v as usize] = scr.d_hat[v as usize];
        sigma[v as usize] = scr.sigma_hat[v as usize];
        delta[v as usize] = scr.delta_hat[v as usize];
    }
    scr.touched.len()
}

/// Neighbour iteration that also counts edge traversals — keeps the
/// instrumentation inseparable from the traversal, like the GPU side.
fn for_each_neighbor_counted<F: FnMut(VertexId, &mut OpCounter)>(
    g: &SlackCsr,
    v: VertexId,
    ops: &mut OpCounter,
    mut f: F,
) {
    for w in g.neighbors(v) {
        ops.edges += 1;
        f(w, ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::{brandes_state, sample_sources};
    use dynbc_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Asserts the engine state equals a from-scratch Brandes run on the
    /// same graph with the same sources.
    fn assert_matches_recompute(engine: &CpuDynamicBc, ctx: &str) {
        let csr = engine.graph().to_csr();
        let fresh = brandes_state(&csr, &engine.state().sources);
        let st = engine.state();
        for i in 0..st.sources.len() {
            assert_eq!(st.d[i], fresh.d[i], "{ctx}: d mismatch source {i}");
            for v in 0..st.n {
                assert!(
                    (st.sigma[i][v] - fresh.sigma[i][v]).abs() < 1e-6,
                    "{ctx}: sigma mismatch source {i} vertex {v}: {} vs {}",
                    st.sigma[i][v],
                    fresh.sigma[i][v]
                );
                assert!(
                    (st.delta[i][v] - fresh.delta[i][v]).abs() < 1e-6,
                    "{ctx}: delta mismatch source {i} vertex {v}: {} vs {}",
                    st.delta[i][v],
                    fresh.delta[i][v]
                );
            }
        }
        for v in 0..st.n {
            assert!(
                (st.bc[v] - fresh.bc[v]).abs() < 1e-6,
                "{ctx}: BC mismatch at {v}: {} vs {}",
                st.bc[v],
                fresh.bc[v]
            );
        }
    }

    fn path5() -> EdgeList {
        EdgeList::from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn case2_single_source_diamond_closure() {
        // 0-1-3 path plus 2 hanging off 0: inserting (2,3) where
        // d0(2)=1, d0(3)=2 is a Case 2 insertion for source 0.
        let el = EdgeList::from_pairs(4, [(0, 1), (0, 2), (1, 3)]);
        let mut eng = CpuDynamicBc::new(&el, &[0]);
        let r = eng.insert_edge(2, 3);
        assert_eq!(r.cases.adjacent, 1);
        assert_matches_recompute(&eng, "diamond closure");
        // After insertion 3 has two shortest paths; both 1 and 2 carry 0.5.
        assert!((eng.state().bc[1] - 0.5).abs() < 1e-12);
        assert!((eng.state().bc[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn case1_changes_nothing() {
        // Source 0 on a 4-cycle: 1 and 3 are both at distance 1.
        let el = EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut eng = CpuDynamicBc::new(&el, &[0]);
        let before = eng.state().clone();
        let r = eng.insert_edge(1, 3);
        assert_eq!(r.cases.same, 1);
        assert_eq!(r.per_source[0].touched, 0);
        assert_eq!(eng.state().bc, before.bc);
        assert_matches_recompute(&eng, "case1");
    }

    #[test]
    fn case3_shortcut_on_path() {
        // Path 0-1-2-3-4, insert (0,4): d0 gap is 4 → Case 3 with moves.
        let mut eng = CpuDynamicBc::new(&path5(), &[0]);
        let r = eng.insert_edge(0, 4);
        assert_eq!(r.cases.distant, 1);
        assert_matches_recompute(&eng, "path shortcut");
        assert_eq!(eng.state().d[0], [0, 1, 2, 2, 1]);
    }

    #[test]
    fn case3_component_merge() {
        // Two components: 0-1 and 2-3; insert (1,2) merges them.
        let el = EdgeList::from_pairs(4, [(0, 1), (2, 3)]);
        let mut eng = CpuDynamicBc::new(&el, &[0, 2]);
        let r = eng.insert_edge(1, 2);
        assert_eq!(r.cases.distant, 2);
        assert_matches_recompute(&eng, "component merge");
        assert_eq!(eng.state().d[0], [0, 1, 2, 3]);
    }

    #[test]
    fn case3_old_tree_parent_loses_contribution() {
        // The regression the closure pass exists for: s-a-v-w path plus
        // inserted (s,w). v loses its old successor w (which relocates to
        // level 1) while v itself keeps distance 2 — its δ must drop via
        // the old-DAG predecessor test.
        let el = EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let mut eng = CpuDynamicBc::new(&el, &[0]);
        eng.insert_edge(0, 3);
        assert_matches_recompute(&eng, "old-tree parent");
        // v (=2) no longer lies on any shortest path from 0.
        assert_eq!(eng.state().bc[2], 0.0);
    }

    #[test]
    fn multi_source_mixed_cases() {
        // Star + tail: sources see different cases for one insertion.
        let el = EdgeList::from_pairs(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]);
        let mut eng = CpuDynamicBc::new(&el, &[0, 5, 2]);
        let r = eng.insert_edge(1, 5);
        assert_eq!(r.cases.total(), 3);
        assert!(r.cases.distant >= 1);
        assert_matches_recompute(&eng, "mixed cases");
    }

    #[test]
    fn sequential_insertions_stay_consistent() {
        let el = EdgeList::from_pairs(6, [(0, 1), (1, 2), (3, 4)]);
        let mut eng = CpuDynamicBc::new(&el, &[0, 3]);
        for (u, v) in [(2, 3), (0, 5), (4, 5), (1, 4), (0, 2)] {
            eng.insert_edge(u, v);
            assert_matches_recompute(&eng, &format!("after ({u},{v})"));
        }
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_insert_panics() {
        let mut eng = CpuDynamicBc::new(&path5(), &[0]);
        eng.insert_edge(0, 1);
    }

    #[test]
    fn removal_batch_is_bit_identical_to_sequential_ops() {
        // Validation must not reorder adjacency lists: the ops before a
        // removal traverse them, and neighbour order is float
        // accumulation order.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 300;
        let el = gen::ba(&mut rng, n, 3);
        let sources: Vec<u32> = (0..n as u32).step_by(17).collect();
        let mut probe = el.clone();
        let mut ops = Vec::new();
        while ops.len() < 8 {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            let first_neighbor = probe
                .edges()
                .iter()
                .find_map(|&(x, y)| (x == a).then_some(y).or((y == a).then_some(x)));
            let op = match first_neighbor {
                Some(w) if ops.len() % 2 == 1 => EdgeOp::Remove(a, w),
                _ => EdgeOp::Insert(a, b),
            };
            if probe.apply_op(op) {
                ops.push(op);
            }
        }
        let mut batched = CpuDynamicBc::new(&el, &sources);
        let br = batched.apply_batch(&ops);
        let mut sequential = CpuDynamicBc::new(&el, &sources);
        for (i, &op) in ops.iter().enumerate() {
            let r = sequential.apply_batch(&[op]);
            assert_eq!(br.per_op[i].per_source, r.per_op[0].per_source, "op {i}");
        }
        let bits = |e: &CpuDynamicBc| e.state().bc.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&batched), bits(&sequential));
    }

    #[test]
    fn out_of_range_endpoint_panics_before_state_change() {
        let el = path5();
        let mut eng = CpuDynamicBc::new(&el, &[0]);
        let bc = eng.state().bc.clone();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.apply_batch(&[EdgeOp::Insert(0, 2), EdgeOp::Insert(5, 1)])
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("out of range"), "{msg}");
        assert_eq!(eng.graph().to_csr().to_edge_list(), el);
        assert_eq!(eng.state().bc, bc);
    }

    #[test]
    fn random_er_insertion_streams_match_recompute() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 30;
            let el = gen::er(&mut rng, n, 45);
            let sources = sample_sources(&mut rng, n, 6);
            let mut eng = CpuDynamicBc::new(&el, &sources);
            let mut done = 0;
            while done < 6 {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u == v || eng.graph().has_edge(u, v) {
                    continue;
                }
                eng.insert_edge(u, v);
                done += 1;
            }
            assert_matches_recompute(&eng, &format!("er seed {seed}"));
        }
    }

    #[test]
    fn random_sparse_forest_merges_match_recompute() {
        // Start from a near-empty graph so component merges dominate.
        for seed in 20..26u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 24;
            let el = gen::er(&mut rng, n, 6);
            let sources = sample_sources(&mut rng, n, 5);
            let mut eng = CpuDynamicBc::new(&el, &sources);
            let mut done = 0;
            while done < 10 {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u == v || eng.graph().has_edge(u, v) {
                    continue;
                }
                eng.insert_edge(u, v);
                done += 1;
            }
            assert_matches_recompute(&eng, &format!("forest seed {seed}"));
        }
    }

    #[test]
    fn ops_are_counted_and_time_modeled() {
        let mut eng = CpuDynamicBc::new(&path5(), &[0]);
        let r = eng.insert_edge(0, 3);
        assert!(r.model_seconds > 0.0);
        assert!(eng.total_ops().edges > 0);
        assert!(eng.total_ops().inits > 0);
    }

    #[test]
    fn touched_counts_reported_per_source() {
        let mut eng = CpuDynamicBc::new(&path5(), &[0, 2]);
        let r = eng.insert_edge(0, 4);
        assert_eq!(r.per_source.len(), 2);
        // Source 0 faces Case 3 with several relocations.
        assert!(r.per_source[0].touched >= 2);
        assert!(r.max_touched() >= r.per_source[1].touched);
    }
}
