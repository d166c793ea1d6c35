//! The **native backend**: direct host execution of the node-parallel
//! dynamic-BC kernels.
//!
//! The SIMT simulator interprets every kernel lane in lockstep to charge
//! the machine model — the right measurement instrument, but a 100–400×
//! wall-clock overhead when the goal is *serving* an update stream. This
//! module runs the same stage work items as plain Rust loops
//! ([`kernels`] holds sequential, sparse — O(touched) where the device
//! kernels scan O(|V|) — translations of the node-parallel kernels,
//! with a module-level argument for why sparseness preserves every bit)
//! over the same [`ScratchBuffers`] / [`StateBuffers`] layout, fanning
//! blocks over scoped host threads.
//!
//! # Determinism contract
//!
//! The native backend is bit-identical to the simulator for any worker
//! count, by the same argument that makes the simulator bit-identical
//! for any `DYNBC_HOST_THREADS`:
//!
//! * block `b` owns the work items with `row % num_blocks == b` and
//!   processes them in (op, row) submission order, so every per-source
//!   state row has exactly one writer;
//! * scratch rows are per-block, BC increments land in per-(op, block)
//!   slab rows, and the dirtied slab cells are drained serially in row
//!   order afterwards — the exact per-cell sums, in the exact row order,
//!   the simulator's full-slab drain replays;
//! * within a block everything is sequential, and the translations keep
//!   the simulator's lane iteration order (or provably commute with it;
//!   see [`kernels`]), so every `f64` lands bit-identically.
//!
//! What the native backend deliberately does *not* do: charge the cost
//! model (no simulated seconds accrue), feed the profiler, or run the
//! racechecker. The simulator remains the oracle and measurement
//! instrument; `bc/tests/native_equivalence.rs` holds the bit-exactness
//! proof obligation.
//!
//! Every work item is a sparse traversal — insertions, Case D2 removals,
//! and Case D3 removals, which repair only the subtree the removed edge
//! cut off (DESIGN §4c) — so each item drains a sparse list of dirtied
//! slab cells and no item ever scans a whole row.
//!
//! Only the node-parallel decomposition has native kernels; the engines
//! keep edge-parallel work on the simulator.
//!
//! [`ScratchBuffers`]: crate::gpu::buffers::ScratchBuffers
//! [`StateBuffers`]: crate::gpu::buffers::StateBuffers

pub(crate) mod kernels;

use crate::cases::InsertionCase;
use crate::gpu::buffers::{ScratchBuffers, SlackGraphBuffers, StateBuffers};
use crate::gpu::engine::Parallelism;
use crate::gpu::exec::{stage_items, ExecConfig, ItemKind, WorkItem};
use crate::gpu::kernels::common::SeedMode;
use crate::gpu::kernels::Ctx;
use crate::plan::PlannedOp;
use dynbc_gpusim::GpuBuffer;

/// BC-delta slab cells one work item dirtied: its slab row and the
/// vertices whose cells it added to.
type DirtyRow = (usize, Vec<u32>);

/// One block's results: `(op_slot, row, touched)` triples, dirtied slab
/// cells, and per-kind wall seconds.
type BlockRun = (Vec<(usize, usize, usize)>, Vec<DirtyRow>, [f64; 3]);

/// Executes every non-trivial `(source, op)` work item of the stage with
/// plain loops on up to `workers` scoped host threads (callers pass the
/// device's [`Gpu::host_workers`](dynbc_gpusim::Gpu::host_workers), which
/// is already clamped to the host's cores), then drains the BC delta
/// slab in sequential commit order. Mirrors
/// `gpu::exec::run_stage` exactly — same item order, same block
/// ownership, same return shape: the Figure-4 touched statistic as
/// `(op_slot, row, touched)` triples.
///
/// The stage runs inline on the calling thread, with no spawn at all,
/// unless [`fan_out`] finds enough work in its items to give more than
/// one worker its share.
///
/// With `timed`, each item's wall time is summed per [`ItemKind`] and
/// returned alongside (`[insert, d2, d3]` seconds, added over blocks;
/// all zero otherwise) — telemetry only, never read by the kernels.
pub(crate) fn run_stage(
    cfg: ExecConfig,
    st: &StateBuffers,
    scr: &ScratchBuffers,
    stage: &[PlannedOp],
    store: &SlackGraphBuffers,
    workers: usize,
    timed: bool,
) -> (Vec<(usize, usize, usize)>, [f64; 3]) {
    assert_eq!(
        cfg.par,
        Parallelism::Node,
        "native backend only implements the node-parallel kernels"
    );
    let items = stage_items(stage);
    let mut kind_wall = [0.0; 3];
    if items.is_empty() {
        return (Vec::new(), kind_wall);
    }
    let num_blocks = cfg.num_blocks;
    assert!(
        scr.bc_rows() >= stage.len() * num_blocks,
        "BC delta slab not sized for this stage"
    );
    // Items arrive op-major / row-minor; bucketing by owning block
    // preserves that order within each bucket, so two ops touching the
    // same source row are applied in submission order.
    let mut by_block: Vec<Vec<usize>> = vec![Vec::new(); num_blocks];
    for (i, item) in items.iter().enumerate() {
        by_block[item.row % num_blocks].push(i);
    }
    let busy: Vec<usize> = (0..num_blocks)
        .filter(|&b| !by_block[b].is_empty())
        .collect();
    let run_block = |b: usize| -> BlockRun {
        let mut out = Vec::with_capacity(by_block[b].len());
        let mut dirty = Vec::with_capacity(by_block[b].len());
        let mut wall = [0.0; 3];
        for &i in &by_block[b] {
            let item = &items[i];
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
            // dynbc-lint: allow(no-wall-clock) — per-kind wall seconds are an observability-only telemetry tag; no model result reads them
            let t0 = timed.then(std::time::Instant::now);
            let (touched, cells) = run_item(&ctx, cfg, item);
            if let Some(t0) = t0 {
                wall[item.kind() as usize] += t0.elapsed().as_secs_f64();
            }
            out.push((item.op_slot, item.row, touched));
            dirty.push((ctx.bc_slot, cells));
        }
        (out, dirty, wall)
    };
    let workers = fan_out(&items, workers).min(busy.len());
    let mut per_block: Vec<Vec<(usize, usize, usize)>> = Vec::with_capacity(busy.len());
    let mut dirty_rows: Vec<DirtyRow> = Vec::new();
    if workers <= 1 {
        for &b in &busy {
            let (out, dirty, wall) = run_block(b);
            per_block.push(out);
            dirty_rows.extend(dirty);
            add_wall(&mut kind_wall, wall);
        }
    } else {
        // Worker w owns every workers-th busy block; per-block results
        // come back with the worker and are reassembled in block order.
        let run_block = &run_block;
        let chunks = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let busy = &busy;
                    scope.spawn(move || {
                        busy[w..]
                            .iter()
                            .step_by(workers)
                            .map(|&b| (b, run_block(b)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect::<Vec<_>>()
        });
        let mut slots: Vec<Option<Vec<(usize, usize, usize)>>> = vec![None; num_blocks];
        for (b, (results, dirty, wall)) in chunks.into_iter().flatten() {
            slots[b] = Some(results);
            dirty_rows.extend(dirty);
            add_wall(&mut kind_wall, wall);
        }
        per_block.extend(slots.into_iter().flatten());
    }
    // Deterministic epilogue: apply the dirtied slab cells in op-major /
    // block-minor row order — the sequential commit order.
    drain_bc_dirty(scr, &st.bc, dirty_rows);
    (per_block.into_iter().flatten().collect(), kind_wall)
}

/// Fan-out weight of an item whose case is not `Adjacent` — a Case 3
/// insertion or a Case D3 removal, both of which move distances — in
/// units of a Case 2 insertion or Case D2 removal, which weigh one.
const HEAVY_ITEM_WEIGHT: usize = 2;

/// Weighted items each worker must get before a stage fans out.
///
/// Both constants come from the `stage#i` spans (`items_*`, `wall_*_s`)
/// of traced serve-churn replays (caida, n = 6000, 32 sources; seeds 1
/// and 3; median of three replays per stage, ~5 600 stages) on a
/// two-vCPU Xeon host, each stage run inline and on two workers. A
/// fitted light item cost ~14 µs and a heavy one ~35 µs. Inline won
/// below 32 weighted items (median 275 vs 351 µs under 16, 434 vs
/// 477 µs at 16–31), two workers won from 48 up (955 vs 859 µs at 48–63,
/// 1 423 vs 1 230 µs at 64–95), and at 32–47 the small median gain was
/// lost in the mean to thread-start spikes. Two workers therefore need
/// 48: fanning out from there put the summed per-stage medians 1.2%
/// below all-inline, where fanning out every stage put them 4% above
/// (24% above in the mean).
const ITEMS_PER_WORKER: usize = 24;

/// How many of `cap` workers a stage's items earn: one per
/// [`ITEMS_PER_WORKER`] weighted items, at least one. Reads nothing but
/// the items' cases; whatever it picks, every result bit is the same
/// (see the module's determinism contract).
fn fan_out(items: &[WorkItem], cap: usize) -> usize {
    let work: usize = items
        .iter()
        .map(|item| {
            if item.case == InsertionCase::Adjacent {
                1
            } else {
                HEAVY_ITEM_WEIGHT
            }
        })
        .sum();
    (work / ITEMS_PER_WORKER).clamp(1, cap.max(1))
}

fn add_wall(total: &mut [f64; 3], wall: [f64; 3]) {
    for (t, w) in total.iter_mut().zip(wall) {
        *t += w;
    }
}

/// Sparse equivalent of [`ScratchBuffers::drain_bc_delta_into`]: applies
/// and re-zeroes only the slab cells the stage's items dirtied, in
/// ascending row order — the full drain's row order. Bit-identical to
/// the full scan: an unvisited cell holds `+0.0` (so the full scan would
/// neither add nor clear it), each visited cell's accumulated sum is
/// consumed by its first visit with the full scan's exact per-cell
/// logic, and later visits of the same cell (items sharing a row) see
/// `+0.0` and no-op. Within one row every cell is distinct in `bc`, so visit order
/// there cannot change any bit.
fn drain_bc_dirty(scr: &ScratchBuffers, bc: &GpuBuffer<f64>, mut rows: Vec<DirtyRow>) {
    assert!(bc.len() >= scr.n, "BC array shorter than vertex count");
    rows.sort_by_key(|r| r.0);
    for (slot, cells) in rows {
        let base = scr.bc_row(slot);
        for v in cells {
            let v = v as usize;
            let d = scr.bc_delta.host_get(base + v);
            if d != 0.0 {
                bc.host_set(v, bc.host_get(v) + d);
            }
            if d.to_bits() != 0 {
                scr.bc_delta.host_set(base + v, 0.0);
            }
        }
    }
}

/// Dispatches one work item to the right kernel sequence and returns its
/// touched-vertex statistic plus the BC-delta slab cells it dirtied.
/// Mirrors the simulator dispatcher's `insert_item` /
/// `delete_adjacent_item` / `delete_distant_item`, taking the touched
/// count straight from the sparse commit (which resets the `t` row for
/// the block's next item).
fn run_item(ctx: &Ctx<'_>, cfg: ExecConfig, item: &WorkItem) -> (usize, Vec<u32>) {
    match item.kind() {
        ItemKind::Insert => {
            let general = item.case == InsertionCase::Distant || cfg.force_general;
            let mode = if general {
                SeedMode::General
            } else {
                SeedMode::InsertAdjacent
            };
            kernels::init_kernel(ctx, mode);
            if general {
                let deepest = kernels::phase1_node(ctx);
                let max_depth = kernels::mark_node(ctx, deepest);
                kernels::phase2_node(ctx, max_depth);
            } else {
                let deepest = kernels::sp_node(ctx, cfg.dedup);
                kernels::dep_node(ctx, deepest);
            }
            kernels::update_kernel(ctx, general)
        }
        ItemKind::D2 => {
            kernels::init_kernel(ctx, SeedMode::DeleteAdjacent);
            let deepest = kernels::sp_node(ctx, cfg.dedup);
            kernels::phantom_retraction(ctx);
            let dep_ctx = Ctx {
                u_high: u32::MAX,
                u_low: u32::MAX,
                ..*ctx
            };
            kernels::dep_node(&dep_ctx, deepest);
            kernels::update_kernel(ctx, false)
        }
        ItemKind::D3 => {
            kernels::init_kernel(ctx, SeedMode::General);
            kernels::d3_collect(ctx);
            kernels::d3_settle(ctx);
            let deepest = kernels::d3_recount(ctx);
            let max_depth = kernels::mark_node(ctx, deepest);
            kernels::phase2_node(ctx, max_depth);
            kernels::update_kernel(ctx, true)
        }
    }
}
