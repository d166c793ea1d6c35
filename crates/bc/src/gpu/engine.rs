//! The dynamic-BC GPU engine: batch orchestration.
//!
//! Follows the paper's execution shape (Section III, Figure 3): the grid
//! has one thread block per SM; blocks exploit coarse-grained parallelism
//! by taking independent source vertices, threads within a block the
//! fine-grained (edge- or node-) parallelism.
//!
//! Updates flow through the three-layer batch pipeline:
//!
//! 1. the **plan layer** ([`crate::plan`]) validates the batch against
//!    the engine's one host graph, the [`SlackCsr`] store, and classifies
//!    every `(source, op)` pair as this module commits the ops in
//!    submission order — Case 1 / D1 sources are dropped before any
//!    launch ("figuring out which case each source node has to compute
//!    is trivial");
//! 2. the **exec layer** (`super::exec`) fuses each stage's surviving
//!    work items into a single grid over the device-resident slack store:
//!    each op records only its O(degree) epoch delta and its items read
//!    the store through a versioned [`GraphView`](super::kernels::GraphView),
//!    with a per-*(op, block)* BC delta slab so batching is bit-identical
//!    to one-at-a-time application;
//! 3. this module owns the device, the persistent buffers — including the
//!    [`SlackCsr`] host store and its [`SlackGraphBuffers`] device mirror
//!    — and the public API: [`GpuDynamicBc::apply_batch`], with
//!    [`insert_edge`](GpuDynamicBc::insert_edge) /
//!    [`remove_edge`](GpuDynamicBc::remove_edge) as batch-of-one
//!    wrappers.
//!
//! Simulated time accumulates on the engine's [`Gpu`] clock; host↔device
//! staging (slack-store delta sync after the structure update, result
//! downloads) stays off the clock, as in the paper's methodology.
//!
//! Blocks of the fused launch may execute on real host threads
//! (`DYNBC_HOST_THREADS`; see `dynbc-gpusim`). Every cross-block effect is
//! made order-independent: the Algorithm 8 commit stages `BC` increments
//! in per-*(op, block)* `bc_delta` slab rows that are reduced serially in
//! row order after the launch, and each work item's touched statistic
//! lands in its own slot, keyed by `(op, row)` — so simulated seconds, stats,
//! and every `f64` of state are bit-identical for any thread count.

use super::buffers::{ScratchBuffers, SlackGraphBuffers, StateBuffers};
use super::exec::{self, Backend, ExecConfig, StageBufs};
use crate::brandes::brandes_state;
use crate::dynamic::result::{BatchResult, OpOutcome, SourceOutcome, UpdateResult};
use crate::lifecycle::{secs_since, Collector};
use crate::plan::{self, PlannedOp};
use crate::state::BcState;
use dynbc_gpusim::{
    CacheConfig, CacheCounters, DeviceConfig, Gpu, GpuBuffer, Instruments, KernelStats,
    ProfileReport,
};
use dynbc_graph::slack::{DEFAULT_COMPACT_PCT, DEFAULT_SLACK_PCT};
use dynbc_graph::{Csr, EdgeList, EdgeOp, SlackCsr, VertexId};
use dynbc_telemetry::{Span, Telemetry};

/// Fine-grained work decomposition: one thread per arc, or one thread per
/// frontier vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread per edge (arc), rescanning all of `E` every level.
    Edge,
    /// One thread per queued vertex, with explicit work queues.
    Node,
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Edge => write!(f, "Edge"),
            Parallelism::Node => write!(f, "Node"),
        }
    }
}

/// How the node-parallel frontier avoids duplicate queue entries.
///
/// The paper chooses sort-based removal precisely to avoid an atomic
/// test-and-set per discovered vertex; [`DedupStrategy::AtomicCas`] is the
/// alternative it argues against, kept here for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupStrategy {
    /// Bitonic sort → flag → scan-compact (the paper's choice).
    #[default]
    SortScan,
    /// `atomicCAS` on the `t` flag gates each push; no post-pass.
    AtomicCas,
}

/// Dynamic betweenness centrality on the simulated GPU.
#[derive(Debug)]
pub struct GpuDynamicBc {
    gpu: Gpu,
    par: Parallelism,
    st: StateBuffers,
    scr: ScratchBuffers,
    case_buf: GpuBuffer<u32>,
    num_blocks: usize,
    dedup: DedupStrategy,
    force_general: bool,
    backend: Backend,
    /// The engine's one host graph, and the host side of the
    /// device-resident dynamic adjacency: batches are validated and
    /// classified against it, and each committed op splices an
    /// O(degree) epoch delta into the slack rows instead of rebuilding a
    /// CSR snapshot. Settled (and possibly compacted) after every stage;
    /// `slack.to_csr()` canonicalizes to the exact bytes
    /// `Csr::from_edge_list` produces over the same edge set.
    slack: SlackCsr,
    /// Device mirror of `slack`, kept current by replaying its delta
    /// journal ([`SlackGraphBuffers::sync`]) — every kernel of every
    /// backend reads adjacency through this one store, via per-op
    /// versioned views.
    store: SlackGraphBuffers,
    telemetry: Collector,
}

impl GpuDynamicBc {
    /// Builds the engine: host-side Brandes seeds the state, which is then
    /// uploaded along with the graph.
    pub fn new(
        el: &EdgeList,
        sources: &[VertexId],
        device: DeviceConfig,
        par: Parallelism,
    ) -> Self {
        // dynbc-lint: allow(hot-path-rebuild) — one-time engine construction, not the batch update path
        let csr = Csr::from_edge_list(el);
        let state = brandes_state(&csr, sources);
        let num_blocks = device.num_sms;
        let slack = SlackCsr::from_csr(&csr, DEFAULT_SLACK_PCT, DEFAULT_COMPACT_PCT);
        // Every buffer lives in the engine's own device address space.
        let mut gpu = Gpu::new(device);
        let store = SlackGraphBuffers::from_slack(&mut gpu, &slack);
        // The scratch pool: allocated once, reused by every update (and
        // grown on demand — see `apply_batch`). Queue rows start with
        // headroom for the insertion stream growing the graph; sizing
        // follows the slack store's slot capacity, since edge-parallel
        // kernels scan every slot.
        let scr = ScratchBuffers::new(
            &mut gpu,
            num_blocks,
            el.vertex_count(),
            store.capacity + 4096,
        );
        let st = StateBuffers::upload(&mut gpu, &state);
        let case_buf = gpu.alloc(sources.len(), 0).named("case");
        Self {
            gpu,
            par,
            st,
            scr,
            case_buf,
            num_blocks,
            dedup: DedupStrategy::default(),
            force_general: false,
            // Only the node-parallel kernels run on the native executor;
            // edge-parallel engines ignore the knob and stay on the
            // simulator.
            backend: if par == Parallelism::Node {
                exec::backend_from_env()
            } else {
                Backend::Simulator
            },
            slack,
            store,
            telemetry: Collector::from_env(),
        }
    }

    /// Selects the execution backend (builder form). Overrides
    /// `DYNBC_BACKEND`. Edge-parallel engines have no native kernels and
    /// silently keep the simulator. All backends produce bit-identical
    /// results; they trade the cost model and profiler (simulator) for
    /// wall-clock speed (native).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.set_backend(backend);
        self
    }

    /// Selects the execution backend. Edge-parallel engines keep the
    /// simulator regardless.
    ///
    /// The native kernels run *sparsely*: they rely on every `t` row
    /// being all-[`T_UNTOUCHED`] on entry and restore that on exit, while
    /// the simulator's full-row init neither needs nor keeps it. So
    /// switching a simulator engine to native clears the `t` rows once.
    ///
    /// [`T_UNTOUCHED`]: crate::gpu::buffers::T_UNTOUCHED
    pub fn set_backend(&mut self, backend: Backend) {
        if self.par != Parallelism::Node {
            return;
        }
        if self.backend == Backend::Simulator && backend == Backend::Native {
            self.scr.t.fill(crate::gpu::buffers::T_UNTOUCHED);
        }
        self.backend = backend;
    }

    /// The execution backend batches run on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Selects the frontier duplicate-removal strategy (ablation knob).
    pub fn with_dedup_strategy(mut self, dedup: DedupStrategy) -> Self {
        self.dedup = dedup;
        self
    }

    /// Routes Case 2 insertions through the general (Case 3) relocation
    /// machinery, which is correct but skips the specialised incremental
    /// add/retract bookkeeping (ablation knob).
    pub fn with_force_general(mut self, force: bool) -> Self {
        self.force_general = force;
        self
    }

    /// Pins the number of host threads simulated blocks and native stages
    /// run on (clamped to ≥ 1; `1` forces the sequential path). Results
    /// are bit-identical for any value — this knob only trades wall-clock
    /// time.
    pub fn set_host_threads(&mut self, threads: usize) {
        self.gpu.instruments_mut().host_threads = threads.max(1);
    }

    /// Enables/disables checked (racecheck) execution for every launch
    /// this engine performs. Checked runs panic on any error-severity
    /// diagnostic and tally warnings in
    /// [`racecheck_warnings`](Self::racecheck_warnings).
    pub fn set_racecheck(&mut self, on: bool) {
        self.gpu.instruments_mut().racecheck = on;
    }

    /// Warning-severity diagnostics accumulated across checked launches.
    pub fn racecheck_warnings(&self) -> u64 {
        self.gpu.check_warnings()
    }

    /// Number of launches that ran under the racechecker.
    pub fn checked_launches(&self) -> u64 {
        self.gpu.checked_launches()
    }

    /// Enables/disables profiled execution for every launch this engine
    /// performs. Profiled runs collect per-kernel/per-stage hardware-style
    /// counters into [`profile_report`](Self::profile_report); results are
    /// unaffected and the counters are bit-identical for any host-thread
    /// count.
    pub fn set_profiling(&mut self, on: bool) {
        self.gpu.instruments_mut().profiling = on;
    }

    /// Enables/disables the memsim cache-hierarchy model for every launch
    /// this engine performs. Memsim implies profiling: each launch's
    /// `LaunchProfile` carries L1/L2 hit/miss/eviction counters and
    /// per-buffer miss attribution. Results are unaffected — the model
    /// observes the memory-transaction stream but never feeds the cost
    /// model — and the counters are bit-identical for any host-thread
    /// count.
    pub fn set_memsim(&mut self, on: bool) {
        self.gpu.instruments_mut().memsim = on;
    }

    /// Overrides the modeled cache geometry; the next memsim launch
    /// starts a cold L2 of the new shape.
    pub fn set_cache_config(&mut self, cfg: CacheConfig) {
        self.gpu.instruments_mut().cache = cfg;
    }

    /// The instrumentation switches this engine's launches run under.
    pub fn instruments(&self) -> Instruments {
        self.gpu.instruments()
    }

    /// The profiles accumulated by launches that ran with profiling on.
    pub fn profile_report(&self) -> &ProfileReport {
        self.gpu.profile_report()
    }

    /// Drains the accumulated profiles (profile one phase, take the
    /// report, keep going).
    pub fn take_profile_report(&mut self) -> ProfileReport {
        self.gpu.take_profile_report()
    }

    /// Enables/disables telemetry for every batch this engine applies.
    /// When on, `apply_batch` records update metrics (latency, touched
    /// fractions, case tallies) and lifecycle spans into
    /// [`telemetry_report`](Self::telemetry_report); results are
    /// unaffected and the model-clock metrics are bit-identical for any
    /// host-thread count.
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

    /// The decomposition this engine uses.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// The engine's current graph: the slack store its kernels read.
    pub fn graph(&self) -> &SlackCsr {
        &self.slack
    }

    /// Cumulative simulated seconds across all updates.
    pub fn elapsed_seconds(&self) -> f64 {
        self.gpu.elapsed_seconds()
    }

    /// Cumulative device work counters.
    pub fn total_stats(&self) -> &KernelStats {
        self.gpu.total_stats()
    }

    /// Downloads the device state (testing / reporting).
    pub fn state_snapshot(&self) -> BcState {
        self.st.download()
    }

    /// Downloads only the BC score vector — O(n), unlike
    /// [`GpuDynamicBc::state_snapshot`]'s O(k·n) full-state download.
    /// Serving layers publish score snapshots per committed batch, so the
    /// per-source distance/sigma/delta planes must stay on the device.
    pub fn bc_scores(&self) -> Vec<f64> {
        self.st.bc.to_vec()
    }

    /// Inserts the undirected edge `{u, v}` and updates BC on the device.
    ///
    /// A batch-of-one wrapper around [`GpuDynamicBc::apply_batch`].
    ///
    /// # Panics
    /// Panics on self loops, out-of-range endpoints, or duplicate edges.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> UpdateResult {
        self.apply_batch(&[EdgeOp::Insert(u, v)])
            .into_update_result()
    }

    /// Removes the undirected edge `{u, v}` and updates BC on the device
    /// (the decremental mirror of [`insert_edge`](Self::insert_edge); see
    /// `dynamic::delete` for the case taxonomy).
    ///
    /// A batch-of-one wrapper around [`GpuDynamicBc::apply_batch`].
    ///
    /// # Panics
    /// Panics if the edge is absent or a self loop.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> UpdateResult {
        self.apply_batch(&[EdgeOp::Remove(u, v)])
            .into_update_result()
    }

    /// Applies a batch of edge mutations in submission order, updating BC
    /// on the device after each one.
    ///
    /// The batch is validated up front (all or nothing), then split into
    /// stages at distance-changing ops and executed with one fused grid
    /// per stage (see `super::exec`). Results — every `f64` of BC and
    /// state, the case tallies, the touched statistics — are bit-identical
    /// to applying the ops one at a time; what batching changes is the
    /// simulated cost, by amortizing launch overhead and packing light
    /// ops into SMs idled by heavy ones.
    ///
    /// # Panics
    /// Panics (before touching any engine state) if any op has an
    /// out-of-range endpoint, is a self loop, a duplicate insertion, or a
    /// removal of an absent edge.
    pub fn apply_batch(&mut self, batch: &[EdgeOp]) -> BatchResult {
        let clock = self.gpu.elapsed_seconds();
        let mut trace = self.telemetry.begin(&self.slack, batch, clock);
        let prof_launches_before = self.gpu.profile_report().launches.len();

        let mut per_op: Vec<OpOutcome> = Vec::with_capacity(batch.len());
        let mut next = 0;
        let mut stage_idx = 0usize;
        while next < batch.len() {
            let plan_t = trace.stopwatch();
            let stage_base = next;
            let stage = self.plan_stage(batch, &mut next);

            let plan_wall = secs_since(plan_t);
            let stage_clock0 = self.gpu.elapsed_seconds();
            let exec_t = trace.stopwatch();

            // Scratch sized by batch width: queue rows for the widest
            // snapshot, one BC-delta slab row per (op, block) pair.
            self.scr
                .ensure_arc_capacity(&mut self.gpu, self.store.capacity + 4096);
            self.scr
                .ensure_bc_rows(&mut self.gpu, stage.len() * self.num_blocks);

            let cfg = self.exec_config();
            // One stage runner for both backends: the simulator charges
            // the cost model and feeds the profiler; the native backend
            // trades both for wall clock.
            let bufs = StageBufs {
                st: &self.st,
                scr: &self.scr,
                store: &self.store,
                case_buf: &self.case_buf,
            };
            let run = exec::run_stage(
                &mut self.gpu,
                self.backend,
                cfg,
                bufs,
                &stage,
                stage_idx,
                trace.timed(),
            );
            // Stage epilogue: normalize the stage's epochs to settled
            // live/tombstone form — compacting deterministically when the
            // tombstone share crosses the threshold — and replay the
            // resulting deltas onto the device mirror (off the clock,
            // like all staging).
            self.slack.settle();
            self.store.sync(&mut self.gpu, &mut self.slack);
            let stage_clock1 = self.gpu.elapsed_seconds();
            let exec_wall = secs_since(exec_t);
            let commit_t = trace.stopwatch();

            for planned in &stage {
                per_op.push(OpOutcome {
                    op: planned.op,
                    cases: planned.cases,
                    per_source: planned
                        .sources
                        .iter()
                        .map(|c| SourceOutcome {
                            case: c.case,
                            touched: 0,
                        })
                        .collect(),
                });
            }
            for (op_slot, row, t) in run.touched {
                per_op[stage_base + op_slot].per_source[row].touched = t;
            }

            if trace.timed() {
                let commit_wall = secs_since(commit_t);
                let [ins, d2, d3] = run.kinds;
                let mut span = Span::new(
                    format!("stage#{stage_idx}"),
                    1,
                    stage_clock0,
                    stage_clock1 - stage_clock0,
                )
                .wall(exec_wall)
                .arg("ops", stage.len() as f64)
                .arg("items_insert", ins as f64)
                .arg("items_d2", d2 as f64)
                .arg("items_d3", d3 as f64);
                if let Some([ins, d2, d3]) = run.kind_wall {
                    span = span
                        .arg("wall_insert_s", ins)
                        .arg("wall_d2_s", d2)
                        .arg("wall_d3_s", d3);
                }
                trace.push(span);
                trace.push(
                    Span::instant("plan", 2, stage_clock0, plan_wall)
                        .arg("stage", stage_idx as f64),
                );
                for kernel in run.kernels {
                    trace.push(kernel);
                }
                trace.push(
                    Span::instant("commit", 2, stage_clock1, commit_wall)
                        .arg("stage", stage_idx as f64),
                );
            }
            stage_idx += 1;
        }

        let model_seconds = self.gpu.elapsed_seconds() - trace.start_s;
        // Queue/dedup volume and cache counters come from the profiler's
        // kernel-annotated counters: attributed to this batch via the
        // launches it added.
        let counters = || {
            let mut cache = CacheCounters::default();
            let (queue_ops, dedup_ops) = self.gpu.profile_report().launches[prof_launches_before..]
                .iter()
                .fold((0, 0), |(q, d), l| {
                    cache.merge(&l.total.cache);
                    (q + l.total.queue_pushes, d + l.total.dedup_ops)
                });
            (queue_ops, dedup_ops, cache)
        };
        trace.finish(&mut self.telemetry, per_op, model_seconds, counters)
    }

    /// The dispatch knobs every stage of this engine runs under.
    fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            par: self.par,
            dedup: self.dedup,
            force_general: self.force_general,
            num_blocks: self.num_blocks,
        }
    }

    /// Plans the stage of `batch` that starts at op `*next` (host side,
    /// off the simulated clock) and advances `*next` past it. Each op is
    /// committed to the slack store and classified against the
    /// stage-start distances — valid because only the stage's last op
    /// may change any distance. Each op splices an O(degree) versioned
    /// delta into the store; its classification and its work items read
    /// the store at that version, so the fused stage sees exactly the
    /// adjacency the sequential path would. The stage's deltas are
    /// replayed onto the device mirror before it returns.
    fn plan_stage(&mut self, batch: &[EdgeOp], next: &mut usize) -> Vec<PlannedOp> {
        // Stage-start distance rows, borrowed straight from the device
        // buffer (classification only reads; nothing writes `d` until
        // the stage executes). The borrow is a field-level split from
        // `self.slack`, so no k×n copy.
        let d_flat = self.st.d.host();
        let n = self.st.n;
        let d_rows: Vec<&[u32]> = (0..self.st.k)
            .map(|i| &d_flat[i * n..(i + 1) * n])
            .collect();
        let mut stage: Vec<PlannedOp> = Vec::new();
        while *next < batch.len() {
            // Commit the op to the slack store at stage version
            // `slot + 1`: an O(degree) epoch splice instead of the
            // O(V + E) snapshot clone per op the CSR path cost. Even
            // Case-1-only ops (which launch nothing) apply their delta —
            // later ops of the stage read versions above them.
            let op = batch[*next];
            let ver = stage.len() as u32 + 1;
            match op {
                EdgeOp::Insert(u, v) => self.slack.insert_edge_versioned(u, v, ver),
                EdgeOp::Remove(u, v) => self.slack.remove_edge_versioned(u, v, ver),
            }
            let planned = plan::plan_op(&d_rows, op, |v| self.slack.neighbors_at(v, ver));
            *next += 1;
            let cut = planned.cuts_stage();
            stage.push(planned);
            if cut {
                break;
            }
        }
        // Replay the stage's deltas onto the device mirror before any
        // kernel reads it (off the simulated clock, like all staging).
        self.store.sync(&mut self.gpu, &mut self.slack);
        stage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::sample_sources;
    use dynbc_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_recompute(engine: &GpuDynamicBc, ctx: &str) {
        let csr = engine.graph().to_csr();
        let st = engine.state_snapshot();
        let fresh = brandes_state(&csr, &st.sources);
        for i in 0..st.sources.len() {
            assert_eq!(st.d[i], fresh.d[i], "{ctx}: d mismatch source {i}");
            for v in 0..st.n {
                assert!(
                    (st.sigma[i][v] - fresh.sigma[i][v]).abs() < 1e-6,
                    "{ctx}: sigma mismatch source {i} vertex {v}"
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

    fn engine(el: &EdgeList, sources: &[u32], par: Parallelism) -> GpuDynamicBc {
        GpuDynamicBc::new(el, sources, DeviceConfig::test_tiny(), par)
    }

    #[test]
    fn case2_node_matches_recompute() {
        let el = EdgeList::from_pairs(4, [(0, 1), (0, 2), (1, 3)]);
        let mut eng = engine(&el, &[0], Parallelism::Node);
        let r = eng.insert_edge(2, 3);
        assert_eq!(r.cases.adjacent, 1);
        assert!(r.per_source[0].touched > 0);
        assert_matches_recompute(&eng, "case2 node");
    }

    #[test]
    fn case2_edge_matches_recompute() {
        let el = EdgeList::from_pairs(4, [(0, 1), (0, 2), (1, 3)]);
        let mut eng = engine(&el, &[0], Parallelism::Edge);
        eng.insert_edge(2, 3);
        assert_matches_recompute(&eng, "case2 edge");
    }

    #[test]
    fn case3_both_decompositions_match_recompute() {
        for par in [Parallelism::Node, Parallelism::Edge] {
            let el = EdgeList::from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
            let mut eng = engine(&el, &[0, 2], par);
            eng.insert_edge(0, 4);
            assert_matches_recompute(&eng, &format!("case3 {par}"));
        }
    }

    #[test]
    fn component_merge_matches_recompute() {
        for par in [Parallelism::Node, Parallelism::Edge] {
            let el = EdgeList::from_pairs(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
            let mut eng = engine(&el, &[0, 3], par);
            let r = eng.insert_edge(2, 3);
            assert_eq!(r.cases.distant, 2);
            assert_matches_recompute(&eng, &format!("merge {par}"));
        }
    }

    #[test]
    fn case1_is_fast_path_with_no_touches() {
        let el = EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut eng = engine(&el, &[0], Parallelism::Node);
        let before = eng.state_snapshot();
        let r = eng.insert_edge(1, 3);
        assert_eq!(r.cases.same, 1);
        assert_eq!(r.worked_sources(), 0);
        assert_eq!(eng.state_snapshot().bc, before.bc);
        assert_matches_recompute(&eng, "case1");
    }

    #[test]
    fn random_streams_match_recompute_both_parallelisms() {
        for par in [Parallelism::Node, Parallelism::Edge] {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = 26;
                let el = gen::er(&mut rng, n, 36);
                let sources = sample_sources(&mut rng, n, 5);
                let mut eng = engine(&el, &sources, par);
                let mut done = 0;
                while done < 5 {
                    let a = rng.gen_range(0..n as u32);
                    let b = rng.gen_range(0..n as u32);
                    if a == b || eng.graph().has_edge(a, b) {
                        continue;
                    }
                    eng.insert_edge(a, b);
                    done += 1;
                }
                assert_matches_recompute(&eng, &format!("{par} seed {seed}"));
            }
        }
    }

    #[test]
    fn gpu_agrees_with_cpu_engine_exactly_on_cases_and_touched() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 30;
        let el = gen::ws(&mut rng, n, 2, 0.2);
        let sources = sample_sources(&mut rng, n, 6);
        let mut gpu_eng = engine(&el, &sources, Parallelism::Node);
        let mut cpu_eng = crate::dynamic::CpuDynamicBc::new(&el, &sources);
        let mut done = 0;
        while done < 6 {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a == b || gpu_eng.graph().has_edge(a, b) {
                continue;
            }
            let rg = gpu_eng.insert_edge(a, b);
            let rc = cpu_eng.insert_edge(a, b);
            assert_eq!(rg.cases, rc.cases, "case tallies differ at ({a},{b})");
            done += 1;
        }
        let gpu_state = gpu_eng.state_snapshot();
        let cpu_state = cpu_eng.state();
        for v in 0..n {
            assert!(
                (gpu_state.bc[v] - cpu_state.bc[v]).abs() < 1e-6,
                "engines disagree on BC[{v}]"
            );
        }
    }

    #[test]
    fn simulated_clock_advances_per_update() {
        let el = EdgeList::from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        // Only the simulator charges the model clock.
        let mut eng = engine(&el, &[0], Parallelism::Node).with_backend(Backend::Simulator);
        let r = eng.insert_edge(0, 3);
        assert!(r.model_seconds > 0.0);
        assert!(eng.elapsed_seconds() >= r.model_seconds);
        assert!(eng.total_stats().lane_events > 0);
    }

    #[test]
    fn deletion_same_level_is_free() {
        let el = EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]);
        let mut eng = engine(&el, &[0], Parallelism::Node);
        let before = eng.state_snapshot();
        let r = eng.remove_edge(1, 3);
        assert_eq!(r.cases.same, 1);
        assert_eq!(eng.state_snapshot().bc, before.bc);
        assert_matches_recompute(&eng, "deletion same-level");
    }

    #[test]
    fn deletion_sigma_only_matches_recompute_both_parallelisms() {
        for par in [Parallelism::Node, Parallelism::Edge] {
            let el = EdgeList::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
            let mut eng = engine(&el, &[0], par);
            let r = eng.remove_edge(2, 3);
            assert_eq!(r.cases.adjacent, 1, "{par}");
            assert_matches_recompute(&eng, &format!("deletion D2 {par}"));
        }
    }

    #[test]
    fn deletion_fallback_matches_recompute_both_parallelisms() {
        for par in [Parallelism::Node, Parallelism::Edge] {
            // Removing (1,2) from a path disconnects the tail.
            let el = EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
            let mut eng = engine(&el, &[0, 3], par);
            let r = eng.remove_edge(1, 2);
            assert_eq!(r.cases.distant, 2, "{par}");
            assert_matches_recompute(&eng, &format!("deletion D3 {par}"));
            assert_eq!(eng.state_snapshot().d[0][3], u32::MAX);
        }
    }

    #[test]
    fn random_mixed_streams_match_recompute_and_cpu() {
        for par in [Parallelism::Node, Parallelism::Edge] {
            let mut rng = StdRng::seed_from_u64(314);
            let n = 26;
            let el = gen::er(&mut rng, n, 40);
            let sources = sample_sources(&mut rng, n, 5);
            let mut gpu = engine(&el, &sources, par);
            let mut cpu = crate::dynamic::CpuDynamicBc::new(&el, &sources);
            for _ in 0..14 {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a == b {
                    continue;
                }
                if gpu.graph().has_edge(a, b) {
                    let rg = gpu.remove_edge(a, b);
                    let rc = cpu.remove_edge(a, b);
                    assert_eq!(rg.cases, rc.cases, "{par}: deletion cases at ({a},{b})");
                } else {
                    gpu.insert_edge(a, b);
                    cpu.insert_edge(a, b);
                }
            }
            assert_matches_recompute(&gpu, &format!("mixed stream {par}"));
            let gs = gpu.state_snapshot();
            for v in 0..n {
                assert!(
                    (gs.bc[v] - cpu.state().bc[v]).abs() < 1e-6,
                    "{par}: engines disagree at BC[{v}]"
                );
            }
        }
    }

    #[test]
    fn edge_decomposition_moves_more_memory_than_node() {
        let mut rng = StdRng::seed_from_u64(7);
        let el = gen::geometric(&mut rng, 225, 0.05);
        let sources = sample_sources(&mut rng, 225, 8);
        let mut node = engine(&el, &sources, Parallelism::Node);
        let mut edge = engine(&el, &sources, Parallelism::Edge);
        let mut inserted = 0;
        while inserted < 4 {
            let a = rng.gen_range(0..225u32);
            let b = rng.gen_range(0..225u32);
            if a == b || node.graph().has_edge(a, b) {
                continue;
            }
            node.insert_edge(a, b);
            edge.insert_edge(a, b);
            inserted += 1;
        }
        assert!(
            edge.total_stats().mem_segments > node.total_stats().mem_segments,
            "edge {} vs node {}",
            edge.total_stats().mem_segments,
            node.total_stats().mem_segments
        );
        assert!(edge.elapsed_seconds() > node.elapsed_seconds());
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_ops() {
        for par in [Parallelism::Node, Parallelism::Edge] {
            let mut rng = StdRng::seed_from_u64(1234);
            let n = 30;
            let el = gen::er(&mut rng, n, 50);
            let sources = sample_sources(&mut rng, n, 6);
            // Build a mixed op stream that is valid when applied in order.
            let mut probe = el.clone();
            let mut ops = Vec::new();
            while ops.len() < 10 {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a == b {
                    continue;
                }
                let op = if probe.contains(a, b) {
                    EdgeOp::Remove(a, b)
                } else {
                    EdgeOp::Insert(a, b)
                };
                assert!(probe.apply_op(op));
                ops.push(op);
            }
            let mut batched = engine(&el, &sources, par);
            let mut sequential = engine(&el, &sources, par);
            let br = batched.apply_batch(&ops);
            assert_eq!(br.per_op.len(), ops.len());
            for (i, &op) in ops.iter().enumerate() {
                let r = sequential.apply_batch(&[op]).into_update_result();
                assert_eq!(br.per_op[i].cases, r.cases, "{par}: cases of op {i}");
                assert_eq!(
                    br.per_op[i].per_source, r.per_source,
                    "{par}: per-source outcomes of op {i}"
                );
            }
            let bs = batched.state_snapshot();
            let ss = sequential.state_snapshot();
            assert_eq!(bs.d, ss.d, "{par}: distances");
            for v in 0..n {
                assert_eq!(
                    bs.bc[v].to_bits(),
                    ss.bc[v].to_bits(),
                    "{par}: BC[{v}] bits differ"
                );
            }
        }
    }

    #[test]
    fn batching_amortizes_launch_overhead() {
        // A stream of insertions whose endpoints sit within one level of
        // each other for *every* source is pure Case 1/2 work: no op
        // changes any distance, so the whole batch fuses into one stage —
        // 2 launches total instead of 2 per op, and light sources pack
        // into idle SMs. Modeled seconds must drop.
        let mut rng = StdRng::seed_from_u64(77);
        let n = 60;
        let el = gen::ws(&mut rng, n, 3, 0.1);
        let sources = sample_sources(&mut rng, n, 8);
        let state = brandes_state(&Csr::from_edge_list(&el), &sources);
        let mut ops = Vec::new();
        'outer: for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                if el.contains(a, b) {
                    continue;
                }
                let fusable = state.d.iter().all(|row| {
                    row[a as usize] != u32::MAX
                        && row[b as usize] != u32::MAX
                        && row[a as usize].abs_diff(row[b as usize]) <= 1
                });
                if fusable {
                    ops.push(EdgeOp::Insert(a, b));
                    if ops.len() == 8 {
                        break 'outer;
                    }
                }
            }
        }
        assert!(ops.len() >= 4, "graph too sparse in same-level pairs");
        let device = DeviceConfig::tesla_c2075();
        // Amortization is a model-clock claim: pin the simulator backend.
        let mut batched = GpuDynamicBc::new(&el, &sources, device, Parallelism::Node)
            .with_backend(Backend::Simulator);
        let br = batched.apply_batch(&ops);
        let mut sequential = GpuDynamicBc::new(&el, &sources, device, Parallelism::Node)
            .with_backend(Backend::Simulator);
        let mut seq_seconds = 0.0;
        for &op in &ops {
            seq_seconds += sequential.apply_batch(&[op]).model_seconds;
        }
        assert!(
            br.model_seconds < seq_seconds,
            "batch {} should beat sequential {}",
            br.model_seconds,
            seq_seconds
        );
    }

    #[test]
    fn switching_backends_mid_stream_matches_a_simulator_run() {
        // Simulator stages leave `t` rows dirty; the native kernels need
        // them clean. sim → native → sim over a mixed stream must land on
        // the simulator-only run's bits, cases and per-source outcomes.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 80;
        let el = gen::ws(&mut rng, n, 3, 0.1);
        let sources = sample_sources(&mut rng, n, 12);
        let mut probe = el.clone();
        let mut ops = Vec::new();
        while ops.len() < 24 {
            let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if a == b {
                continue;
            }
            let op = if probe.contains(a, b) {
                EdgeOp::Remove(a, b)
            } else {
                EdgeOp::Insert(a, b)
            };
            assert!(probe.apply_op(op));
            ops.push(op);
        }
        let run = |backends: [Backend; 3]| {
            let mut eng = engine(&el, &sources, Parallelism::Node);
            let mut per_op = Vec::new();
            for (chunk, backend) in ops.chunks(8).zip(backends) {
                eng.set_backend(backend);
                per_op.extend(chunk.iter().flat_map(|&op| eng.apply_batch(&[op]).per_op));
            }
            let bc: Vec<u64> = eng.bc_scores().iter().map(|x| x.to_bits()).collect();
            (bc, per_op)
        };
        let (sim_bc, sim_ops) = run([Backend::Simulator; 3]);
        let (bc, per_op) = run([Backend::Simulator, Backend::Native, Backend::Simulator]);
        assert!(
            sim_ops[8..16]
                .iter()
                .any(|o| o.cases.adjacent + o.cases.distant > 0),
            "the native leg must do work"
        );
        for (i, (got, want)) in per_op.iter().zip(&sim_ops).enumerate() {
            assert_eq!(got.cases, want.cases, "op {i}: case tallies");
            assert_eq!(
                got.per_source, want.per_source,
                "op {i}: per-source outcomes"
            );
        }
        assert_eq!(bc, sim_bc, "BC bits");
    }

    #[test]
    fn forced_native_fanout_matches_inline_stages() {
        // `host_workers` clamps to the host's cores, so on a small machine
        // native stages may never leave the inline path. Drive every stage
        // of a mixed stream through the shared fan-out with 4 forced
        // workers, and inline, on a 14-SM device (14 blocks to claim).
        let mut rng = StdRng::seed_from_u64(31);
        let n = 120;
        let el = gen::ws(&mut rng, n, 3, 0.1);
        let sources: Vec<u32> = (0..n as u32).step_by(3).collect();
        let mut probe = el.clone();
        let mut ops = Vec::new();
        while ops.len() < 12 {
            let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if a == b {
                continue;
            }
            let op = if probe.contains(a, b) {
                EdgeOp::Remove(a, b)
            } else {
                EdgeOp::Insert(a, b)
            };
            assert!(probe.apply_op(op));
            ops.push(op);
        }
        let device = DeviceConfig::tesla_c2075();
        let run = |workers: usize| {
            let mut eng = GpuDynamicBc::new(&el, &sources, device, Parallelism::Node)
                .with_backend(Backend::Native);
            let mut touched = Vec::new();
            let mut next = 0;
            while next < ops.len() {
                let stage = eng.plan_stage(&ops, &mut next);
                eng.scr
                    .ensure_arc_capacity(&mut eng.gpu, eng.store.capacity + 4096);
                eng.scr
                    .ensure_bc_rows(&mut eng.gpu, stage.len() * eng.num_blocks);
                let cfg = eng.exec_config();
                let bufs = StageBufs {
                    st: &eng.st,
                    scr: &eng.scr,
                    store: &eng.store,
                    case_buf: &eng.case_buf,
                };
                let (mut t, _) = exec::Stage::new(cfg, bufs, &stage).run_native(workers, false);
                t.sort_unstable();
                touched.push(t);
                eng.slack.settle();
                eng.store.sync(&mut eng.gpu, &mut eng.slack);
            }
            let bc: Vec<u64> = eng.bc_scores().iter().map(|x| x.to_bits()).collect();
            (bc, eng.state_snapshot(), touched)
        };
        let inline = run(1);
        assert!(
            inline.2.iter().any(|t| t.len() >= 14),
            "some stage must have an item per block"
        );
        let fanned = run(4);
        assert_eq!(inline.0, fanned.0, "BC bits");
        assert_eq!(inline.1, fanned.1, "state");
        assert_eq!(inline.2, fanned.2, "touched statistics");
        // The stages above are the engine's own: one `apply_batch` lands
        // on the same bits.
        let mut eng = GpuDynamicBc::new(&el, &sources, device, Parallelism::Node)
            .with_backend(Backend::Native);
        eng.apply_batch(&ops);
        let bc: Vec<u64> = eng.bc_scores().iter().map(|x| x.to_bits()).collect();
        assert_eq!(inline.0, bc, "BC bits vs apply_batch");
    }

    #[test]
    fn out_of_range_endpoint_panics_before_state_change() {
        let el = EdgeList::from_pairs(4, [(0, 1), (1, 2)]);
        for backend in [Backend::Simulator, Backend::Native] {
            let mut eng = engine(&el, &[0], Parallelism::Node).with_backend(backend);
            let bc = eng.bc_scores();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                eng.apply_batch(&[EdgeOp::Insert(2, 3), EdgeOp::Insert(0, 4)])
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("out of range"), "{backend}: {msg}");
            assert_eq!(eng.graph().to_csr(), Csr::from_edge_list(&el), "{backend}");
            assert_eq!(eng.bc_scores(), bc, "{backend}");
        }
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn batch_with_duplicate_insert_panics_before_state_change() {
        let el = EdgeList::from_pairs(4, [(0, 1), (1, 2)]);
        let mut eng = engine(&el, &[0], Parallelism::Node);
        eng.apply_batch(&[EdgeOp::Insert(2, 3), EdgeOp::Insert(0, 1)]);
    }
}
