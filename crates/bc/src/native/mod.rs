//! The **native backend**: direct host execution of the node-parallel
//! dynamic-BC kernels.
//!
//! The SIMT simulator interprets every kernel lane in lockstep to charge
//! the machine model — the right measurement instrument, but a 100–400×
//! wall-clock overhead when the goal is *serving* an update stream. This
//! module is the host executor the same kernel bodies run on
//! ([`HostExec`], with [`Host`] lanes): each node-parallel traversal in
//! [`crate::gpu::kernels`] is generic over
//! [`Exec`], so the native backend runs the simulator's bodies as plain
//! loops over the same [`ScratchBuffers`] / [`StateBuffers`] layout,
//! with no charges, labels or barriers and no dynamic dispatch.
//!
//! The stage runs in the one stage runner both backends share,
//! `gpu::exec::run_stage`, and each item in its one per-item dispatcher:
//! same work items, same block ownership, same kernel contexts, same
//! kernel sequence. This module supplies what differs on the native
//! side: the executor, the fan-out rule ([`stage_workers`]) and the
//! sparse slab drain ([`drain_bc_dirty`]).
//!
//! Only the init and commit keep a host body of their own, because one
//! body would change the simulator's charges or the host's cost: they
//! run in O(touched) here, where the device sweeps all of |V|. Each says
//! why it keeps the same bits. The host's level walk files `QQ` into
//! per-level buckets where the device rescans `QQ` per level.
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
//! * within a block the executor keeps the guarantees the shared bodies
//!   rely on: lanes run in item order (as the interpreter runs them), a
//!   level's frontier is visited in `QQ` order, and a vertex's scratch
//!   cells hold what the dense init left whenever a body reads them.
//!   The sparse init leaves every cell but the seed vertex's stale;
//!   [`Host`]'s claim seeds a vertex's cells when it first touches it,
//!   and its `σ̂`/`d̂` reads of an untouched vertex return the global
//!   rows the dense init would have copied. The sparse commit resets
//!   each `t` flag it commits, restoring the all-untouched invariant for
//!   the block's next item.
//!
//! What the native backend deliberately does *not* do: charge the cost
//! model (no simulated seconds accrue), feed the profiler, or run the
//! racechecker. The simulator remains the oracle and measurement
//! instrument; `bc/tests/native_equivalence.rs` checks the executors
//! agree bit for bit.
//!
//! Every work item is a sparse traversal — insertions, Case D2 removals,
//! and Case D3 removals, which repair only the subtree the removed edge
//! cut off (DESIGN §4c) — so each item drains a sparse list of dirtied
//! slab cells and no item ever scans a whole row.
//!
//! Only the node-parallel decomposition runs here; the engines keep
//! edge-parallel work on the simulator.
//!
//! [`ScratchBuffers`]: crate::gpu::buffers::ScratchBuffers
//! [`StateBuffers`]: crate::gpu::buffers::StateBuffers

use crate::cases::InsertionCase;
use crate::gpu::buffers::{ScratchBuffers, SLOT_QQLEN, T_DOWN, T_UNTOUCHED};
use crate::gpu::exec::WorkItem;
use crate::gpu::kernels::common::SeedMode;
use crate::gpu::kernels::{Ctx, Exec, Gate, KernelLane, LevelOf};
use dynbc_gpusim::{DeviceValue, GpuBuffer};
use dynbc_graph::VertexId;

const INF: u32 = u32::MAX;

/// BC-delta slab cells one work item dirtied: its slab row and the
/// vertices whose cells it added to.
pub(crate) type DirtyRow = (usize, Vec<u32>);

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
pub(crate) fn stage_workers(items: &[WorkItem], cap: usize) -> usize {
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

/// Sparse equivalent of [`ScratchBuffers::drain_bc_delta_into`]: applies
/// and re-zeroes only the slab cells the stage's items dirtied, in
/// ascending row order — the full drain's row order. Bit-identical to
/// the full scan: an unvisited cell holds `+0.0` (so the full scan would
/// neither add nor clear it), each visited cell's accumulated sum is
/// consumed by its first visit with the full scan's exact per-cell
/// logic, and later visits of the same cell (items sharing a row) see
/// `+0.0` and no-op. Within one row every cell is distinct in `bc`, so visit order
/// there cannot change any bit.
pub(crate) fn drain_bc_dirty(scr: &ScratchBuffers, bc: &GpuBuffer<f64>, mut rows: Vec<DirtyRow>) {
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

/// The host executor: one native block, running a kernel body's lanes
/// one after another as plain loops, with the sparse init and commit.
///
/// Holds the init's seed mode (what [`Host::claim`] seeds) and the
/// BC-delta slab cells every committed item dirtied, for the stage's
/// sparse drain ([`drain_bc_dirty`]).
#[derive(Default)]
pub(crate) struct HostExec {
    general: bool,
    /// Dirtied slab cells, one row per committed item.
    pub(crate) dirty: Vec<DirtyRow>,
}

impl HostExec {
    fn lane(&self) -> Host {
        Host {
            general: self.general,
        }
    }
}

/// One host lane: uncharged loads and stores. `general` says whether the
/// item's init was [`SeedMode::General`], which also copies `d̂ ← d`.
#[derive(Clone, Copy)]
pub(crate) struct Host {
    general: bool,
}

impl Host {
    /// Marks `v` touched with `flag` and seeds its scratch cells with the
    /// values the dense init kernel left there: `σ̂ ← σ`, `δ̂ ← 0`, and
    /// after a general init `d̂ ← d`. Always inlined, for the reason
    /// [`GraphView::row`](crate::gpu::kernels::GraphView::row) gives: it
    /// runs once per claimed vertex.
    #[inline(always)]
    fn touch(self, ctx: &Ctx<'_>, v: VertexId, flag: u8) {
        ctx.scr.t.host_set(ctx.sn(v), flag);
        ctx.scr
            .sigma_hat
            .host_set(ctx.sn(v), ctx.st.sigma.host_get(ctx.kn(v)));
        ctx.scr.delta_hat.host_set(ctx.sn(v), 0.0);
        if self.general {
            ctx.scr
                .d_hat
                .host_set(ctx.sn(v), ctx.st.d.host_get(ctx.kn(v)));
        }
    }

    /// Scratch row `scr` at `v` as the dense kernels would read it: the
    /// cell for touched vertices, the global row `st` (the dense init's
    /// copy) for untouched ones.
    fn lazy<T: DeviceValue>(
        ctx: &Ctx<'_>,
        scr: &GpuBuffer<T>,
        st: &GpuBuffer<T>,
        v: VertexId,
    ) -> T {
        if ctx.scr.t.host_get(ctx.sn(v)) == T_UNTOUCHED {
            st.host_get(ctx.kn(v))
        } else {
            scr.host_get(ctx.sn(v))
        }
    }
}

impl KernelLane for Host {
    #[inline]
    fn read<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T {
        buf.host_get(i)
    }
    #[inline]
    fn write<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize, v: T) {
        buf.host_set(i, v);
    }
    #[inline]
    fn atomic_add_f64(&mut self, buf: &GpuBuffer<f64>, i: usize, v: f64) -> f64 {
        let old = buf.host_get(i);
        buf.host_set(i, old + v);
        old
    }
    #[inline]
    fn atomic_add_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32 {
        let old = buf.host_get(i);
        buf.host_set(i, old + v);
        old
    }
    #[inline]
    fn atomic_max_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32 {
        let old = buf.host_get(i);
        buf.host_set(i, old.max(v));
        old
    }
    #[inline]
    fn atomic_min_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32 {
        let old = buf.host_get(i);
        buf.host_set(i, old.min(v));
        old
    }
    #[inline]
    fn claim(&mut self, ctx: &Ctx<'_>, v: VertexId, flag: u8, _gate: Gate) -> bool {
        let untouched = ctx.scr.t.host_get(ctx.sn(v)) == T_UNTOUCHED;
        if untouched {
            self.touch(ctx, v, flag);
        }
        untouched
    }
    #[inline]
    fn claim_tested(&mut self, ctx: &Ctx<'_>, v: VertexId, flag: u8) -> bool {
        self.touch(ctx, v, flag);
        true
    }
    #[inline]
    fn relocate(&mut self, ctx: &Ctx<'_>, v: VertexId, level: u32) {
        if !self.claim(ctx, v, T_DOWN, Gate::Cas) {
            ctx.scr.t.host_set(ctx.sn(v), T_DOWN);
        }
        ctx.scr.d_hat.host_set(ctx.sn(v), level);
    }
    #[inline]
    fn sigma_hat(&mut self, ctx: &Ctx<'_>, v: VertexId) -> f64 {
        Host::lazy(ctx, &ctx.scr.sigma_hat, &ctx.st.sigma, v)
    }
    #[inline]
    fn d_hat(&mut self, ctx: &Ctx<'_>, v: VertexId) -> u32 {
        Host::lazy(ctx, &ctx.scr.d_hat, &ctx.st.d, v)
    }
}

/// The host's level walk of one kernel's `QQ`: the entries filed so far,
/// bucketed by their level under `by`, each bucket in `QQ` order.
pub(crate) struct HostLevels {
    by: LevelOf,
    filed: usize,
    buckets: Vec<Vec<VertexId>>,
}

impl From<LevelOf> for HostLevels {
    fn from(by: LevelOf) -> Self {
        Self {
            by,
            filed: 0,
            buckets: Vec::new(),
        }
    }
}

impl Exec for HostExec {
    type Lane<'l> = Host;
    type Levels = HostLevels;
    #[inline]
    fn label(&mut self, _label: &'static str) {}
    #[inline]
    fn parallel_for<F: FnMut(&mut Host, usize)>(&mut self, n: usize, mut f: F) {
        let mut lane = self.lane();
        for i in 0..n {
            f(&mut lane, i);
        }
    }
    #[inline]
    fn barrier(&mut self) {}
    #[inline]
    fn read_scalar<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T {
        buf.host_get(i)
    }
    #[inline]
    fn write_scalar<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize, v: T) {
        buf.host_set(i, v);
    }

    /// Files the `QQ` entries appended since the last call into per-level
    /// buckets, then visits the bucket at `level`. Entries are filed in
    /// `QQ` order, so a bucket lists exactly the entries the device's
    /// filtered scan of `QQ[..len]` would visit, in its order — without
    /// the O(levels × |QQ|) rescans. Entries at `∞` are never visited.
    fn for_level<F: FnMut(&mut Host, VertexId)>(
        &mut self,
        levels: &mut HostLevels,
        ctx: &Ctx<'_>,
        len: usize,
        level: u32,
        mut f: F,
    ) {
        let mut lane = self.lane();
        while levels.filed < len {
            let w = ctx.scr.qq.host_get(ctx.qi(levels.filed));
            let l = levels.by.of(&mut lane, ctx, w);
            if l != INF {
                let l = l as usize;
                if levels.buckets.len() <= l {
                    levels.buckets.resize_with(l + 1, Vec::new);
                }
                levels.buckets[l].push(w);
            }
            levels.filed += 1;
        }
        for &w in levels.buckets.get(level as usize).into_iter().flatten() {
            f(&mut lane, w);
        }
    }

    /// Algorithm 3 ([`init_kernel`](crate::gpu::kernels::common::init_kernel)),
    /// sparsified to its only non-default cell — the seed vertex `u_low`.
    /// Every other vertex keeps the lazy defaults that [`Host::claim`] and
    /// the [`Host::sigma_hat`] / [`Host::d_hat`] reads supply on demand.
    fn init(&mut self, ctx: &Ctx<'_>, mode: SeedMode) {
        self.general = mode == SeedMode::General;
        let u_low = ctx.u_low;
        let u_high = ctx.u_high;
        let sigma_low = ctx.st.sigma.host_get(ctx.kn(u_low));
        ctx.scr.t.host_set(ctx.sn(u_low), T_DOWN);
        let sigma_hat = match mode {
            SeedMode::InsertAdjacent => sigma_low + ctx.st.sigma.host_get(ctx.kn(u_high)),
            SeedMode::DeleteAdjacent => sigma_low - ctx.st.sigma.host_get(ctx.kn(u_high)),
            SeedMode::General => {
                let d_high = ctx.st.d.host_get(ctx.kn(u_high));
                ctx.scr.d_hat.host_set(ctx.sn(u_low), d_high + 1);
                sigma_low
            }
        };
        ctx.scr.sigma_hat.host_set(ctx.sn(u_low), sigma_hat);
        ctx.scr.delta_hat.host_set(ctx.sn(u_low), 0.0);
    }

    /// Algorithm 8 ([`update_kernel`](crate::gpu::kernels::common::update_kernel)),
    /// sparsified over the block's discovered list `QQ`, which holds every
    /// touched vertex (duplicates are skipped through the `t` reset). For
    /// an untouched vertex the dense kernel only rewrites `σ` with its own
    /// bits — a no-op — and each touched vertex's commits land in
    /// per-vertex cells, so commit order across vertices is immaterial.
    ///
    /// Returns the touched count (the Figure-4 statistic the dense path
    /// derives from a flag scan) and records the BC-delta slab cells the
    /// item dirtied. Resets each processed `t` flag, restoring the
    /// all-untouched invariant for the block's next item.
    fn commit(&mut self, ctx: &Ctx<'_>, case3: bool) -> usize {
        let s = ctx.s;
        let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN)) as usize;
        let mut touched = 0usize;
        let mut dirty = Vec::with_capacity(qq_len);
        for tid in 0..qq_len {
            let v = ctx.scr.qq.host_get(ctx.qi(tid));
            if ctx.scr.t.host_get(ctx.sn(v)) == T_UNTOUCHED {
                continue; // duplicate QQ entry: already committed
            }
            touched += 1;
            if v != s {
                let dh = ctx.scr.delta_hat.host_get(ctx.sn(v));
                let dl = ctx.st.delta.host_get(ctx.kn(v));
                let i = ctx.bci(v);
                ctx.scr
                    .bc_delta
                    .host_set(i, ctx.scr.bc_delta.host_get(i) + (dh - dl));
                dirty.push(v);
            }
            let sh = ctx.scr.sigma_hat.host_get(ctx.sn(v));
            ctx.st.sigma.host_set(ctx.kn(v), sh);
            let dh = ctx.scr.delta_hat.host_get(ctx.sn(v));
            ctx.st.delta.host_set(ctx.kn(v), dh);
            if case3 {
                let dhat_v = ctx.scr.d_hat.host_get(ctx.sn(v));
                ctx.st.d.host_set(ctx.kn(v), dhat_v);
            }
            ctx.scr.t.host_set(ctx.sn(v), T_UNTOUCHED);
        }
        self.dirty.push((ctx.bc_slot, dirty));
        touched
    }
}
