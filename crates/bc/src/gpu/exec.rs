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

use super::buffers::{ScratchBuffers, SlackGraphBuffers, StateBuffers, T_UNTOUCHED};
use super::engine::{DedupStrategy, Parallelism};
use super::kernels::{
    case2_edge, case2_node, case3_edge, case3_node, common, delete, Ctx, GraphView,
};
use super::static_bc::static_source_edge;
use crate::cases::InsertionCase;
use crate::plan::PlannedOp;
use dynbc_gpusim::{BlockCtx, Gpu, GpuBuffer};
use std::sync::Mutex;

/// Which engine executes a stage's fused work items.
///
/// The SIMT interpreter is the measurement instrument: it charges the
/// cost model, feeds the profiler, and serves as the bit-exactness
/// oracle. The native backend (the crate-private `native` module) runs the same
/// node-parallel kernels as plain Rust loops over the same buffers —
/// no lockstep interpretation, no cost-model bookkeeping — for serving
/// update streams at host speed. It runs small stages inline and fans
/// big ones out over host threads, by a fixed rule on the stage's own
/// work items.
///
/// Both backends produce bit-identical BC scores, case tallies,
/// and commit order for any `DYNBC_HOST_THREADS`: cross-block writes
/// are disjoint by construction and the BC delta slab is drained in the
/// same sequential commit order everywhere. Only the node-parallel
/// decomposition has native kernels; edge-parallel engines always run
/// on the simulator.
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
pub(crate) fn kind_counts(items: &[WorkItem]) -> [usize; 3] {
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
    /// builds its kernel context through this accessor.
    pub(crate) fn view<'a>(&self, store: &'a SlackGraphBuffers) -> GraphView<'a> {
        op_view(store, self.op_slot)
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
pub(crate) fn stage_items(stage: &[PlannedOp]) -> Vec<WorkItem> {
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
pub(super) fn charge_classification(
    gpu: &mut Gpu,
    st: &StateBuffers,
    case_buf: &GpuBuffer<u32>,
    stage: &[PlannedOp],
    store: &SlackGraphBuffers,
    stage_idx: usize,
) {
    let n = st.n;
    let k = st.k;
    // The stage ordinal lands in the launch name so profiles attribute
    // work to individual pipeline stages of a batch (`#0`, `#1`, …).
    gpu.launch_named(&format!("batch::classify#{stage_idx}"), 1, |block, _| {
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

/// Executes every non-trivial `(source, op)` work item of the stage in
/// one fused grid, then drains the BC delta slab in sequential commit
/// order. Returns the Figure-4 touched statistic as `(op_slot, row,
/// touched)` triples (order unspecified; each pair appears once).
pub(super) fn run_stage(
    gpu: &mut Gpu,
    cfg: ExecConfig,
    st: &StateBuffers,
    scr: &ScratchBuffers,
    stage: &[PlannedOp],
    store: &SlackGraphBuffers,
    stage_idx: usize,
) -> Vec<(usize, usize, usize)> {
    let items = stage_items(stage);
    if items.is_empty() {
        return Vec::new();
    }
    let num_blocks = cfg.num_blocks;
    assert!(
        scr.bc_rows() >= stage.len() * num_blocks,
        "BC delta slab not sized for this stage"
    );
    // Per-block slots for the touched statistic: blocks may run on
    // different host threads, so each writes only its own slot.
    let touched_slots: Vec<Mutex<Vec<(usize, usize, usize)>>> =
        (0..num_blocks).map(|_| Mutex::new(Vec::new())).collect();
    let items_ref = &items;
    let fused_name = match cfg.par {
        Parallelism::Node => format!("batch::fused::node#{stage_idx}"),
        Parallelism::Edge => format!("batch::fused::edge#{stage_idx}"),
    };
    gpu.launch_named(&fused_name, num_blocks, |block, b| {
        // Items arrive op-major / row-minor; the filter preserves that
        // order, so two ops touching the same source row are applied in
        // submission order by the row's owning block.
        for item in items_ref.iter().filter(|it| it.row % num_blocks == b) {
            let ctx = Ctx {
                g: item.view(store),
                st,
                scr,
                block_slot: b,
                bc_slot: item.op_slot * num_blocks + b,
                src_row: item.row,
                s: st.sources[item.row],
                u_high: item.u_high,
                u_low: item.u_low,
            };
            let touched = match (item.kind(), cfg.par) {
                (ItemKind::Insert, _) => insert_item(block, &ctx, cfg, item.case),
                (ItemKind::D2, _) => delete_adjacent_item(block, &ctx, cfg),
                (ItemKind::D3, Parallelism::Node) => delete_distant_item(block, &ctx),
                (ItemKind::D3, Parallelism::Edge) => delete_fallback_item(block, &ctx),
            };
            touched_slots[b]
                .lock()
                .unwrap()
                .push((item.op_slot, item.row, touched));
        }
    });
    // Deterministic epilogue: apply the slab rows in op-major /
    // block-minor order — the sequential commit order.
    scr.drain_bc_delta_into(&st.bc);
    let mut out = Vec::with_capacity(items.len());
    for slot in &touched_slots {
        out.extend(slot.lock().unwrap().drain(..));
    }
    out
}

/// Insertion item: init (Alg 3) → shortest-path recount (Alg 4/5) →
/// dependency accumulation (Alg 6/7) → commit (Alg 8), with the Case 3
/// generalization substituted when distances move.
fn insert_item(block: &mut BlockCtx, ctx: &Ctx<'_>, cfg: ExecConfig, case: InsertionCase) -> usize {
    let general = case == InsertionCase::Distant || cfg.force_general;
    let mode = if general {
        common::SeedMode::General
    } else {
        common::SeedMode::InsertAdjacent
    };
    common::init_kernel(block, ctx, mode);
    match (general, cfg.par) {
        (false, Parallelism::Node) => {
            let deepest = case2_node::sp_node(block, ctx, cfg.dedup);
            case2_node::dep_node(block, ctx, deepest);
        }
        (false, Parallelism::Edge) => {
            let deepest = case2_edge::sp_edge(block, ctx);
            case2_edge::dep_edge(block, ctx, deepest);
        }
        (true, Parallelism::Node) => {
            let deepest = case3_node::phase1_node(block, ctx);
            let max_depth = case3_node::mark_node(block, ctx, deepest);
            case3_node::phase2_node(block, ctx, max_depth);
        }
        (true, Parallelism::Edge) => {
            let deepest = case3_edge::phase1_edge(block, ctx);
            let max_depth = case3_edge::mark_edge(block, ctx, deepest);
            case3_edge::phase2_edge(block, ctx, max_depth);
        }
    }
    common::update_kernel(block, ctx, general);
    touched_flags(ctx)
}

/// Case D2 item: Algorithm 2 machinery with a negative seed and the
/// phantom retraction; the inserted-pair exclusion is disabled with an
/// unmatchable pair for the dependency sweep.
fn delete_adjacent_item(block: &mut BlockCtx, ctx: &Ctx<'_>, cfg: ExecConfig) -> usize {
    common::init_kernel(block, ctx, common::SeedMode::DeleteAdjacent);
    let deepest = match cfg.par {
        Parallelism::Node => case2_node::sp_node(block, ctx, cfg.dedup),
        Parallelism::Edge => case2_edge::sp_edge(block, ctx),
    };
    delete::phantom_retraction(block, ctx);
    let dep_ctx = Ctx {
        u_high: u32::MAX,
        u_low: u32::MAX,
        ..*ctx
    };
    match cfg.par {
        Parallelism::Node => case2_node::dep_node(block, &dep_ctx, deepest),
        Parallelism::Edge => case2_edge::dep_edge(block, &dep_ctx, deepest),
    }
    common::update_kernel(block, ctx, false);
    touched_flags(ctx)
}

/// Node-parallel Case D3 item: collect the lost subtree, settle its new
/// levels, recount σ̂ below it (see [`delete`]), then the Case 3 closure,
/// pull sweep and commit.
fn delete_distant_item(block: &mut BlockCtx, ctx: &Ctx<'_>) -> usize {
    common::init_kernel(block, ctx, common::SeedMode::General);
    delete::d3_collect(block, ctx);
    delete::d3_settle(block, ctx);
    let deepest = delete::d3_recount(block, ctx);
    let max_depth = case3_node::mark_node(block, ctx, deepest);
    case3_node::phase2_node(block, ctx, max_depth);
    common::update_kernel(block, ctx, true);
    touched_flags(ctx)
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

/// Figure 4's touched-vertex statistic, read from this block's own `t`
/// scratch row (host instrumentation, off the clock).
fn touched_flags(ctx: &Ctx<'_>) -> usize {
    let base = ctx.scr.row(ctx.block_slot);
    (base..base + ctx.n())
        .filter(|&i| ctx.scr.t.host_get(i) != T_UNTOUCHED)
        .count()
}
