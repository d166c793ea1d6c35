//! The **exec layer**: batch-aware GPU dispatch.
//!
//! The plan layer ([`crate::plan`]) turns a batch of edge ops into
//! *stages* — maximal runs of ops in which only the last may change any
//! distance. This module executes one stage at a time, fusing all of its
//! non-trivial `(source, op)` work items into a single grid:
//!
//! * one thread block per SM, as everywhere in this workspace;
//! * block `b` owns the work items whose source row satisfies
//!   `row % num_blocks == b` and processes them in `(op, row)` order, so
//!   every per-source state row has exactly one writer for the whole
//!   launch;
//! * each item reads the graph through a *versioned view* of the shared
//!   slack store ([`WorkItem::view`]): op slot `j` applies its O(degree)
//!   delta at version `j + 1`, and its items read at that same version —
//!   the adjacency after the op committed — so fusing never shows an
//!   item a younger adjacency than the sequential path would, without
//!   cloning a per-op CSR snapshot;
//! * BC increments land in a per-*(op, block)* slab row
//!   (`bc_slot = op_slot * num_blocks + block_slot`); draining the slab
//!   in row order replays the exact `f64` addition order of a
//!   one-op-at-a-time sequence of launches, keeping batched scores
//!   bit-identical to sequential ones.
//!
//! Fusing a stage of `B` ops costs two kernel launches (classification
//! charge + fused grid) instead of `2B` — the launch-overhead
//! amortization the batch API exists for — and lets light ops pack into
//! SMs idled by heavy ones.

use super::buffers::{ScratchBuffers, SlackGraphBuffers, StateBuffers};
use super::engine::{DedupStrategy, Parallelism};
use super::kernels::common::SeedMode;
use super::kernels::{
    case2_edge, case2_node, case3_edge, case3_node, common, delete, Ctx, Exec, GraphView,
};
use super::static_bc::static_source_edge;
use crate::cases::InsertionCase;
use crate::native::{self, HostExec};
use crate::plan::PlannedOp;
use dynbc_gpusim::{fan_out, BlockCtx, Gpu, GpuBuffer};
use dynbc_telemetry::Span;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which engine executes a stage's fused work items.
///
/// The SIMT interpreter is the measurement instrument: it charges the
/// cost model, feeds the profiler, and serves as the bit-exactness
/// oracle. The native backend (the crate-private `native` module) runs the
/// same node-parallel kernel bodies — each written once, generic over
/// the [`Exec`](super::kernels::Exec) executor trait — on a host
/// executor: plain Rust loops over the same buffers, no lockstep
/// interpretation, no cost-model bookkeeping, for serving update
/// streams at host speed. Only the init and commit have a body per
/// backend (dense O(|V|) sweeps on the device, O(touched) on the host):
/// one body would either drop the sweeps the cost model charges or make
/// the host pay them. It runs small stages inline and
/// fans big ones out over host threads, by a fixed rule on the stage's
/// own work items.
///
/// Both backends produce bit-identical BC scores, case tallies,
/// and commit order for any `DYNBC_HOST_THREADS`: cross-block writes
/// are disjoint by construction and the BC delta slab is drained in the
/// same sequential commit order everywhere. Only the node-parallel
/// decomposition runs natively; edge-parallel engines always run on the
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The SIMT interpreter — cost model, profiler, oracle (default).
    #[default]
    Simulator,
    /// Direct execution: plain loops, inline or over scoped host threads.
    Native,
}

impl Backend {
    /// The retired hybrid backend's name, now the native backend. Kept
    /// only until the benchmark's `engine.hybrid_*` metrics are dropped.
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const Hybrid: Backend = Backend::Native;
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Simulator => "sim",
            Backend::Native => "native",
        })
    }
}

pub use dynbc_gpusim::knob::BACKEND_ENV;

/// Reads [`BACKEND_ENV`]: unset or empty selects the simulator; any
/// other value must be one of `sim`, `simulator`, `native`
/// (case-insensitive).
///
/// # Panics
///
/// Panics on an unrecognized value — a misspelled backend silently
/// falling back to the 100–400× slower interpreter would be a far worse
/// failure mode.
pub fn backend_from_env() -> Backend {
    match std::env::var(BACKEND_ENV) {
        Err(_) => Backend::Simulator,
        Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "" | "sim" | "simulator" => Backend::Simulator,
            "native" => Backend::Native,
            other => panic!("{BACKEND_ENV}={other}: expected sim or native"),
        },
    }
}

/// Fixed per-engine dispatch knobs the stage launches need.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecConfig {
    /// Fine-grained decomposition.
    pub par: Parallelism,
    /// Frontier duplicate-removal strategy (node-parallel only).
    pub dedup: DedupStrategy,
    /// Route Case 2 insertions through the general machinery.
    pub force_general: bool,
    /// Grid width (one block per SM).
    pub num_blocks: usize,
}

/// One non-trivial `(source, op)` pair of a stage.
pub(crate) struct WorkItem {
    pub(crate) op_slot: usize,
    pub(crate) row: usize,
    pub(crate) case: InsertionCase,
    pub(crate) is_insert: bool,
    pub(crate) u_high: u32,
    pub(crate) u_low: u32,
}

/// What a work item runs: an insertion (Case 2 or 3), a Case D2 removal
/// (distances static, σ shrinks) or a Case D3 removal (`u_low` lost its
/// only predecessor, so distances grow). Per-kind arrays index by the
/// discriminant: `[insert, d2, d3]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ItemKind {
    Insert,
    D2,
    D3,
}

/// Work items per kind (`[insert, d2, d3]`).
fn kind_counts(items: &[WorkItem]) -> [usize; 3] {
    let mut counts = [0; 3];
    for item in items {
        counts[item.kind() as usize] += 1;
    }
    counts
}

impl WorkItem {
    /// This item's kind.
    pub(crate) fn kind(&self) -> ItemKind {
        if self.is_insert {
            ItemKind::Insert
        } else if self.case == InsertionCase::Adjacent {
            ItemKind::D2
        } else {
            ItemKind::D3
        }
    }

    /// The versioned graph view this item must read: the shared device
    /// store as of its own op's commit (`version = op_slot + 1`). The
    /// single place the stage-versioning invariant lives — every backend
    /// builds its kernel context through [`WorkItem::ctx`], which reads
    /// through this accessor.
    pub(crate) fn view<'a>(&self, store: &'a SlackGraphBuffers) -> GraphView<'a> {
        op_view(store, self.op_slot)
    }

    /// The kernel context this item runs on, in any backend: its owning
    /// block's scratch row (`row % num_blocks`), its *(op, block)* slab
    /// row, its source row and its oriented edge, reading the graph
    /// through [`WorkItem::view`].
    pub(crate) fn ctx<'a>(&self, bufs: StageBufs<'a>, num_blocks: usize) -> Ctx<'a> {
        let b = self.row % num_blocks;
        Ctx {
            g: self.view(bufs.store),
            st: bufs.st,
            scr: bufs.scr,
            block_slot: b,
            bc_slot: self.op_slot * num_blocks + b,
            src_row: self.row,
            s: bufs.st.sources[self.row],
            u_high: self.u_high,
            u_low: self.u_low,
        }
    }
}

/// The graph view as of op slot `op_slot`'s commit within a stage.
pub(crate) fn op_view(store: &SlackGraphBuffers, op_slot: usize) -> GraphView<'_> {
    GraphView {
        store,
        ver: op_slot as u32 + 1,
    }
}

/// Flattens a stage into its non-trivial work items in op-major /
/// row-minor order — the submission order every backend must preserve
/// per source row.
fn stage_items(stage: &[PlannedOp]) -> Vec<WorkItem> {
    let mut items = Vec::new();
    for (op_slot, planned) in stage.iter().enumerate() {
        for (row, cls) in planned.items() {
            items.push(WorkItem {
                op_slot,
                row,
                case: cls.case,
                is_insert: planned.op.is_insert(),
                u_high: cls.u_high,
                u_low: cls.u_low,
            });
        }
    }
    items
}

/// Charges the device cost of classifying every `(source, op)` pair of
/// the stage: one single-block launch replaying exactly the memory
/// traffic of a per-op classification kernel — two distance loads and a
/// code store per source, plus the surviving-predecessor scan (with
/// early exit) for removals — with a barrier between ops.
///
/// The *decisions* were already made host-side by the plan layer; this
/// launch keeps the cost model honest about where they would have come
/// from on a real device, while fusing what used to be one launch per op
/// into one per stage.
fn charge_classification(
    gpu: &mut Gpu,
    kernels: Option<&mut Vec<Span>>,
    bufs: StageBufs<'_>,
    stage: &[PlannedOp],
    stage_idx: usize,
) {
    let StageBufs {
        st,
        store,
        case_buf,
        ..
    } = bufs;
    let n = st.n;
    let k = st.k;
    // The stage ordinal lands in the launch name so profiles attribute
    // work to individual pipeline stages of a batch (`#0`, `#1`, …).
    let name = format!("batch::classify#{stage_idx}");
    launch(gpu, kernels, &name, 1, |block, _| {
        block.label("batch::classify");
        for (slot, planned) in stage.iter().enumerate() {
            let (u, v) = planned.op.endpoints();
            let is_insert = planned.op.is_insert();
            block.parallel_for(k, |lane, i| {
                let du = lane.read(&st.d, i * n + u as usize);
                let dv = lane.read(&st.d, i * n + v as usize);
                if !is_insert && du != dv {
                    // An existing edge spans adjacent levels, so both
                    // endpoints are reachable here: scan u_low's
                    // post-removal adjacency (the store viewed at this
                    // op's version) for a surviving predecessor,
                    // stopping at the first hit.
                    let g = op_view(store, slot);
                    let u_low = if du < dv { v } else { u };
                    let d_low = du.max(dv);
                    let (start, end, check) = g.row(lane, u_low);
                    for e in start..end {
                        let Some(x) = g.slot(lane, &check, e) else {
                            continue;
                        };
                        let dx = lane.read(&st.d, i * n + x as usize);
                        if dx != u32::MAX && dx + 1 == d_low {
                            break;
                        }
                    }
                }
                lane.write(case_buf, i, 0);
            });
            block.barrier();
        }
    });
}

/// Launches kernel `name` over `num_blocks` blocks and, when `kernels`
/// collects them, appends its depth-2 span (model-clock start and
/// duration, wall time, grid size).
fn launch<F>(gpu: &mut Gpu, kernels: Option<&mut Vec<Span>>, name: &str, num_blocks: usize, f: F)
where
    F: Fn(&mut BlockCtx, usize) + Sync,
{
    let start_s = gpu.elapsed_seconds();
    // dynbc-lint: allow(no-wall-clock) — a kernel span's wall time is an observability-only telemetry field; no model result reads it
    let t0 = kernels.is_some().then(std::time::Instant::now);
    let report = gpu.launch_named(name, num_blocks, f);
    if let (Some(kernels), Some(t0)) = (kernels, t0) {
        kernels.push(
            Span::new(name, 2, start_s, report.seconds)
                .wall(t0.elapsed().as_secs_f64())
                .arg("num_blocks", num_blocks as f64),
        );
    }
}

/// The engine's device-resident buffers a stage reads and writes.
#[derive(Clone, Copy)]
pub(crate) struct StageBufs<'a> {
    pub(crate) st: &'a StateBuffers,
    pub(crate) scr: &'a ScratchBuffers,
    pub(crate) store: &'a SlackGraphBuffers,
    /// Classification codes (the simulator's classification charge).
    pub(crate) case_buf: &'a GpuBuffer<u32>,
}

/// What executing one stage hands back to the engine.
pub(crate) struct StageRun {
    /// The Figure-4 touched statistic as `(op_slot, row, touched)`
    /// triples (order unspecified; each pair appears once).
    pub(crate) touched: Vec<(usize, usize, usize)>,
    /// Work items per kind (`[insert, d2, d3]`).
    pub(crate) kinds: [usize; 3],
    /// On the native backend, each item's wall seconds summed per kind
    /// (`[insert, d2, d3]`, added over blocks; all zero unless `timed`)
    /// — telemetry only, never read by the kernels. `None` on the
    /// simulator.
    pub(crate) kind_wall: Option<[f64; 3]>,
    /// On the simulator, the span of each kernel the stage launched, in
    /// launch order (empty unless `timed`).
    pub(crate) kernels: Vec<Span>,
}

/// Executes every non-trivial `(source, op)` work item of the stage on
/// `backend`, then drains the BC delta slab in sequential commit order —
/// the one stage runner for both backends.
///
/// Both share the preparation ([`Stage::new`]): op-major / row-minor
/// items, bucketed once by owning block, each run on a [`Ctx`] from
/// [`WorkItem::ctx`]. The simulator charges the classification launch,
/// runs the fused grid and drains the whole slab; the native backend
/// runs each block's items as plain loops — inline, or fanned out over
/// [`fan_out`] when [`native::stage_workers`] finds enough work for more
/// than one of the device's [`Gpu::host_workers`] — and drains only the
/// slab cells its items dirtied. `timed` collects the simulator's kernel
/// spans and the native per-kind wall seconds.
pub(super) fn run_stage(
    gpu: &mut Gpu,
    backend: Backend,
    cfg: ExecConfig,
    bufs: StageBufs<'_>,
    stage: &[PlannedOp],
    stage_idx: usize,
    timed: bool,
) -> StageRun {
    let mut kernels = Vec::new();
    let mut traced = timed.then_some(&mut kernels);
    if backend == Backend::Simulator {
        charge_classification(gpu, traced.as_deref_mut(), bufs, stage, stage_idx);
    }
    let work = Stage::new(cfg, bufs, stage);
    let kinds = kind_counts(&work.items);
    let (touched, kind_wall) = match backend {
        Backend::Simulator => (work.simulate(gpu, traced, stage_idx), None),
        Backend::Native => {
            let workers = native::stage_workers(&work.items, gpu.host_workers());
            let (touched, wall) = work.run_native(workers, timed);
            (touched, Some(wall))
        }
    };
    StageRun {
        touched,
        kinds,
        kind_wall,
        kernels,
    }
}

/// One stage's work items and the block that owns each: the preparation
/// both backends execute from.
pub(crate) struct Stage<'a> {
    cfg: ExecConfig,
    bufs: StageBufs<'a>,
    /// Ops in the stage (its BC delta slab spans `ops * num_blocks` rows).
    ops: usize,
    items: Vec<WorkItem>,
    /// Indices into `items` per owning block (`row % num_blocks`), in
    /// item order: two ops touching the same source row are applied in
    /// submission order by the row's owning block.
    by_block: Vec<Vec<usize>>,
}

impl<'a> Stage<'a> {
    /// Flattens `stage` into its work items and buckets them by block.
    pub(crate) fn new(cfg: ExecConfig, bufs: StageBufs<'a>, stage: &[PlannedOp]) -> Self {
        assert!(
            bufs.scr.bc_rows() >= stage.len() * cfg.num_blocks,
            "BC delta slab not sized for this stage"
        );
        let items = stage_items(stage);
        let mut by_block = vec![Vec::new(); cfg.num_blocks];
        for (i, item) in items.iter().enumerate() {
            by_block[item.row % cfg.num_blocks].push(i);
        }
        Self {
            cfg,
            bufs,
            ops: stage.len(),
            items,
            by_block,
        }
    }

    /// Runs the items in one fused grid on the simulator, then drains the
    /// full slab.
    fn simulate(
        &self,
        gpu: &mut Gpu,
        kernels: Option<&mut Vec<Span>>,
        stage_idx: usize,
    ) -> Vec<(usize, usize, usize)> {
        if self.items.is_empty() {
            return Vec::new();
        }
        let (cfg, bufs) = (self.cfg, self.bufs);
        // One slot per item: blocks may run on different host threads,
        // and each writes only its own items' slots. `Relaxed` suffices:
        // the slots publish nothing else, and the launch joins its
        // workers before they are read.
        let touched: Vec<AtomicUsize> = self.items.iter().map(|_| AtomicUsize::new(0)).collect();
        let fused_name = match cfg.par {
            Parallelism::Node => format!("batch::fused::node#{stage_idx}"),
            Parallelism::Edge => format!("batch::fused::edge#{stage_idx}"),
        };
        launch(gpu, kernels, &fused_name, cfg.num_blocks, |block, b| {
            for &i in &self.by_block[b] {
                let item = &self.items[i];
                let ctx = item.ctx(bufs, cfg.num_blocks);
                let t = match cfg.par {
                    Parallelism::Node => run_item(block, &ctx, cfg, item),
                    Parallelism::Edge => run_edge_item(block, &ctx, cfg, item),
                };
                touched[i].store(t, Ordering::Relaxed);
            }
        });
        // Deterministic epilogue: apply the slab rows in op-major /
        // block-minor order — the sequential commit order.
        bufs.scr
            .drain_bc_delta_into(&bufs.st.bc, self.ops * cfg.num_blocks);
        self.items
            .iter()
            .zip(touched)
            .map(|(item, t)| (item.op_slot, item.row, t.into_inner()))
            .collect()
    }

    /// Runs each busy block's items as plain loops on `workers` host
    /// workers ([`fan_out`]; one runs them inline), then drains the
    /// dirtied slab cells. Returns the touched triples and the per-kind
    /// wall seconds (zero unless `timed`).
    pub(crate) fn run_native(
        &self,
        workers: usize,
        timed: bool,
    ) -> (Vec<(usize, usize, usize)>, [f64; 3]) {
        assert_eq!(
            self.cfg.par,
            Parallelism::Node,
            "native backend only implements the node-parallel kernels"
        );
        let (cfg, bufs) = (self.cfg, self.bufs);
        let run_block = |b: usize| {
            let owned = &self.by_block[b];
            let mut touched = Vec::with_capacity(owned.len());
            let mut ex = HostExec::default();
            ex.dirty.reserve(owned.len());
            let mut wall = [0.0; 3];
            for &i in owned {
                let item = &self.items[i];
                // dynbc-lint: allow(no-wall-clock) — per-kind wall seconds are an observability-only telemetry tag; no model result reads them
                let t0 = timed.then(std::time::Instant::now);
                let t = run_item(&mut ex, &item.ctx(bufs, cfg.num_blocks), cfg, item);
                if let Some(t0) = t0 {
                    wall[item.kind() as usize] += t0.elapsed().as_secs_f64();
                }
                touched.push((item.op_slot, item.row, t));
            }
            (touched, ex.dirty, wall)
        };
        let busy: Vec<usize> = (0..cfg.num_blocks)
            .filter(|&b| !self.by_block[b].is_empty())
            .collect();
        // Native workers keep no per-worker state (no segment tables).
        let mut idle = vec![(); workers.clamp(1, busy.len().max(1))];
        let per_block = fan_out(busy.len(), &mut idle, |_, j| run_block(busy[j]));
        let mut touched = Vec::with_capacity(self.items.len());
        let mut dirty_rows = Vec::with_capacity(self.items.len());
        let mut kind_wall = [0.0; 3];
        for (t, dirty, wall) in per_block {
            touched.extend(t);
            dirty_rows.extend(dirty);
            for (total, w) in kind_wall.iter_mut().zip(wall) {
                *total += w;
            }
        }
        // Deterministic epilogue: apply the dirtied slab cells in op-major
        // / block-minor row order — the sequential commit order.
        native::drain_bc_dirty(bufs.scr, &bufs.st.bc, dirty_rows);
        (touched, kind_wall)
    }
}

/// Runs one node-parallel work item's kernel sequence on `ex` and
/// returns its touched count — the one per-item dispatcher for both
/// backends.
///
/// * Insertion: init (Alg 3) → shortest-path recount (Alg 5) →
///   dependency accumulation (Alg 7) → commit (Alg 8), with the Case 3
///   generalization substituted when distances move (or always, under
///   `force_general`).
/// * Case D2: Algorithm 2 machinery with a negative seed and the phantom
///   retraction; the inserted-pair exclusion is disabled with an
///   unmatchable pair for the dependency sweep.
/// * Case D3: collect the lost subtree, settle its new levels, recount
///   σ̂ below it (see [`delete`]), then the Case 3 closure, pull sweep
///   and commit.
fn run_item<X: Exec>(ex: &mut X, ctx: &Ctx<'_>, cfg: ExecConfig, item: &WorkItem) -> usize {
    match item.kind() {
        ItemKind::Insert if item.case == InsertionCase::Distant || cfg.force_general => {
            ex.init(ctx, SeedMode::General);
            let deepest = case3_node::phase1_node(ex, ctx);
            let max_depth = case3_node::mark_node(ex, ctx, deepest);
            case3_node::phase2_node(ex, ctx, max_depth);
            ex.commit(ctx, true)
        }
        ItemKind::Insert => {
            ex.init(ctx, SeedMode::InsertAdjacent);
            let deepest = case2_node::sp_node(ex, ctx, cfg.dedup);
            case2_node::dep_node(ex, ctx, deepest);
            ex.commit(ctx, false)
        }
        ItemKind::D2 => {
            ex.init(ctx, SeedMode::DeleteAdjacent);
            let deepest = case2_node::sp_node(ex, ctx, cfg.dedup);
            delete::phantom_retraction(ex, ctx);
            case2_node::dep_node(ex, &unmatchable_pair(ctx), deepest);
            ex.commit(ctx, false)
        }
        ItemKind::D3 => {
            ex.init(ctx, SeedMode::General);
            delete::d3_collect(ex, ctx);
            delete::d3_settle(ex, ctx);
            let deepest = delete::d3_recount(ex, ctx);
            let max_depth = case3_node::mark_node(ex, ctx, deepest);
            case3_node::phase2_node(ex, ctx, max_depth);
            ex.commit(ctx, true)
        }
    }
}

/// The edge-parallel form of [`run_item`], on the simulator only: the
/// same sequences through the edge-parallel kernels (Alg 4/6), except
/// that a Case D3 item subtracts the old scores, recomputes its source
/// from scratch and commits.
fn run_edge_item(block: &mut BlockCtx, ctx: &Ctx<'_>, cfg: ExecConfig, item: &WorkItem) -> usize {
    match item.kind() {
        ItemKind::Insert if item.case == InsertionCase::Distant || cfg.force_general => {
            common::init_kernel(block, ctx, SeedMode::General);
            let deepest = case3_edge::phase1_edge(block, ctx);
            let max_depth = case3_edge::mark_edge(block, ctx, deepest);
            case3_edge::phase2_edge(block, ctx, max_depth);
            common::update_kernel(block, ctx, true)
        }
        ItemKind::Insert => {
            common::init_kernel(block, ctx, SeedMode::InsertAdjacent);
            let deepest = case2_edge::sp_edge(block, ctx);
            case2_edge::dep_edge(block, ctx, deepest);
            common::update_kernel(block, ctx, false)
        }
        ItemKind::D2 => {
            common::init_kernel(block, ctx, SeedMode::DeleteAdjacent);
            let deepest = case2_edge::sp_edge(block, ctx);
            delete::phantom_retraction(block, ctx);
            case2_edge::dep_edge(block, &unmatchable_pair(ctx), deepest);
            common::update_kernel(block, ctx, false)
        }
        ItemKind::D3 => delete_fallback_item(block, ctx),
    }
}

/// `ctx` with the inserted-pair exclusion disabled (a removal's
/// dependency sweep).
fn unmatchable_pair<'a>(ctx: &Ctx<'a>) -> Ctx<'a> {
    Ctx {
        u_high: u32::MAX,
        u_low: u32::MAX,
        ..*ctx
    }
}

/// Edge-parallel Case D3 item: subtract the old scores, recompute this
/// source from scratch on the device, commit.
fn delete_fallback_item(block: &mut BlockCtx, ctx: &Ctx<'_>) -> usize {
    delete::fallback_subtract_old(block, ctx);
    static_source_edge(block, ctx.g, ctx.scr, ctx.block_slot, ctx.bc_slot, ctx.s);
    // Touched statistic (host instrumentation, off the clock): state
    // entries the commit will change. Element reads cover only rows this
    // block owns (its scratch row, this source's state row).
    let base = ctx.scr.row(ctx.block_slot);
    let krow = ctx.src_row * ctx.n();
    let touched = (0..ctx.n())
        .filter(|&x| {
            let (s, k) = (base + x, krow + x);
            ctx.scr.d_hat.host_get(s) != ctx.st.d.host_get(k)
                || ctx.scr.sigma_hat.host_get(s) != ctx.st.sigma.host_get(k)
                || ctx.scr.delta_hat.host_get(s) != ctx.st.delta.host_get(k)
        })
        .count();
    delete::fallback_commit(block, ctx);
    touched
}
