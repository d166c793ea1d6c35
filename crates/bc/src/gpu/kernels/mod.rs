//! Device kernels for dynamic betweenness centrality (Algorithms 3–8 of
//! the paper, plus our Case 3 generalization and the removal cases D2/D3).
//!
//! On the simulator every global-memory access flows through a
//! `dynbc-gpusim` [`Lane`] and is charged to the machine model, so the
//! edge-vs-node comparison measures exactly the traffic each
//! decomposition generates.
//!
//! The node-parallel traversals — `sp_node`, `dep_node`, `phase1_node`,
//! `mark_node`, `phase2_node`, `phantom_retraction`, `d3_collect`,
//! `d3_settle`, `d3_recount`, the Q2 → Q/QQ [`advance`](common::advance)
//! and the [`bitonic_dedup`](common::bitonic_dedup) network — are
//! written once, generic over an executor ([`Exec`], with
//! [`KernelLane`] lanes): the simulator's [`BlockCtx`] runs them charged,
//! the native backend's host executor runs them as plain loops. Only the
//! per-item init and commit keep a body per executor ([`Exec::init`],
//! [`Exec::commit`]): the dense [`init_kernel`](common::init_kernel) and
//! [`update_kernel`](common::update_kernel) sweep all of |V|, which the
//! cost model charges and the host exists to avoid. The edge-parallel
//! kernels and the static fallback take a `BlockCtx` and run on the
//! simulator only.
//!
//! Layout conventions: per-source state rows live at `src_row * n`, each
//! block's scratch rows at `block_slot * n` (or `block_slot * qw` for
//! queues); a block processes one source at a time, so one scratch row per
//! block suffices even when it loops over several sources. The BC delta
//! slab is the one exception: its row is picked by `bc_slot`, which the
//! batch dispatcher derives from *(op slot, block slot)* so that one fused
//! launch can stage per-op deltas separately and drain them in submission
//! order (see `gpu::exec`).

pub mod case2_edge;
pub mod case2_node;
pub mod case3_edge;
pub mod case3_node;
pub mod common;
pub mod delete;

use super::buffers::{
    ScratchBuffers, SlackGraphBuffers, StateBuffers, ADJ_BORN_SHIFT, ADJ_VERTEX_MASK,
    DEV_BORN_MASK, DEV_BORN_SHIFT, DEV_DIRTY_BIT, DEV_LEN_MASK, DEV_SKIPS_BIT, SKIP_WORDS,
    SLOT_Q2LEN, T_DOWN, T_UNTOUCHED,
};
use common::SeedMode;
use dynbc_gpusim::{BlockCtx, DeviceValue, GpuBuffer, Lane};
use dynbc_graph::slack::epoch_visible;
use dynbc_graph::VertexId;

/// A versioned read view over the device-resident slack store.
///
/// The batch dispatcher versions the store across a stage: op slot `j`
/// applies its O(degree) delta at version `j + 1`, and every work item
/// of that op reads through a view at the same version — the adjacency
/// *after* its own op committed, exactly what the per-op CSR snapshots
/// used to provide, without cloning anything. Version 0 is the settled
/// pre-batch graph (the static path reads there).
///
/// Row scans go through [`GraphView::row`], which grades each row once
/// per header read ([`RowCheck`]); every word it and [`GraphView::slot`]
/// read comes through a [`KernelLane`], charged on the device and free on the
/// host:
///
/// * **packed** — the row is *soft* (no tombstones, staged deaths, or
///   overflowing borns) and either fully visible at this view
///   (`ver >= max staged born`) or too heavily staged for the skip
///   words. Each slot's birth version rides in the top byte of the
///   adjacency word the scan reads anyway ([`GraphView::slot`]), so
///   visibility costs zero extra memory traffic — the same words and
///   segments as the old per-op CSR snapshot scan;
/// * **skip-at** — a soft row with pending staged births the view must
///   not see: one (or two) `staged_skips` words name their offsets, and
///   the scan steps over those slots without reading them — the scan
///   touches exactly the visible adjacency, like the snapshot did;
/// * **epoch** — tombstones, staged deaths, or an overflowing born:
///   pay one epoch word per slot before the adjacency read.
///
/// Edge-parallel kernels instead iterate the full slot capacity and
/// early-exit on [`GraphView::live`] — one branch, the same divergence
/// shape as a futile-edge thread — then decode the neighbour with
/// [`GraphView::neighbour`].
#[derive(Clone, Copy)]
pub struct GraphView<'a> {
    /// The shared device store.
    pub store: &'a SlackGraphBuffers,
    /// Version this view reads at (`op_slot + 1` on the batch path).
    pub ver: u32,
}

impl<'a> GraphView<'a> {
    /// The settled (version-0) view of a store.
    #[inline]
    pub fn settled(store: &'a SlackGraphBuffers) -> Self {
        Self { store, ver: 0 }
    }

    /// Row `v`'s occupied slot range and its visibility grade
    /// (`(start, end, check)`). The whole header is one aligned 8-byte
    /// word, so the open costs a single charged load — one instruction,
    /// one 32-byte segment (the old CSR `R` pair took two loads). A
    /// view below the row's max staged born additionally loads the
    /// staged-skip words when the header offers them.
    ///
    /// Always inlined: every traversal opens one row per frontier vertex,
    /// and the host executor's largest loop bodies (the level walks of
    /// `dep_node`, `phase2_node`, `d3_recount`) otherwise call it out of
    /// line, which cost the native replay about 4% of its samples.
    #[inline(always)]
    pub fn row<L: KernelLane>(&self, ld: &mut L, v: VertexId) -> (usize, usize, RowCheck) {
        let header = ld.read(&self.store.row_pack, v as usize);
        let start = header as u32 as usize;
        let meta = (header >> 32) as u32;
        let end = start + (meta & DEV_LEN_MASK) as usize;
        let check = if meta & DEV_DIRTY_BIT != 0 {
            RowCheck::Epoch
        } else if self.ver >= (meta >> DEV_BORN_SHIFT) & DEV_BORN_MASK || meta & DEV_SKIPS_BIT == 0
        {
            RowCheck::Packed
        } else {
            let mut mask = [0u64; 4];
            for w in 0..SKIP_WORDS {
                let word = ld.read(&self.store.staged_skips, SKIP_WORDS * v as usize + w);
                if !self.collect_skips(word, &mut mask) {
                    break;
                }
            }
            RowCheck::SkipAt { start, mask }
        };
        (start, end, check)
    }

    /// Decodes one staged-skip word, setting in `mask` the row offset
    /// of every slot this view must not see. Entries are sorted
    /// descending by born, so the first visible entry (or the 0
    /// terminator) ends the prefix of invisible slots; returns whether
    /// the *next* word still needs reading.
    #[inline]
    fn collect_skips(&self, w: u64, mask: &mut [u64; 4]) -> bool {
        for i in 0..4 {
            let entry = (w >> (16 * i)) as u16;
            if entry == 0 || u32::from(entry >> 8) <= self.ver {
                return false;
            }
            let off = entry as u8;
            mask[usize::from(off >> 6)] |= 1 << (off & 63);
        }
        true
    }

    /// Reads slot `e` under `check`, returning its neighbour if the
    /// slot is visible at this view's version. On the packed grade the
    /// visibility test uses the born byte of the adjacency word itself
    /// — one charged read per slot, exactly the scan's payload word; on
    /// the epoch grade the epoch word is checked first and the
    /// adjacency word only read (and charged) for visible slots.
    #[inline]
    pub fn slot<L: KernelLane>(&self, ld: &mut L, check: &RowCheck, e: usize) -> Option<VertexId> {
        match check {
            RowCheck::Packed => {
                let w = ld.read(&self.store.adj, e);
                (w >> ADJ_BORN_SHIFT <= self.ver).then_some(w & ADJ_VERTEX_MASK)
            }
            RowCheck::SkipAt { start, mask } => {
                if skipped(*start, mask, e) {
                    None // invisible staged slot: stepped over, never read
                } else {
                    Some(ld.read(&self.store.adj, e) & ADJ_VERTEX_MASK)
                }
            }
            RowCheck::Epoch => self
                .live(ld, e)
                .then(|| ld.read(&self.store.adj, e) & ADJ_VERTEX_MASK),
        }
    }

    /// Slot `e`'s neighbour id, charging the adjacency read to `lane`.
    /// For slots already known visible (an [`GraphView::live`] edge
    /// thread, or positions a kernel recorded itself).
    #[inline]
    pub fn neighbour(&self, lane: &mut Lane<'_>, e: usize) -> VertexId {
        lane.read(&self.store.adj, e) & ADJ_VERTEX_MASK
    }

    /// Whether slot `e` is visible at this view's version, loading its
    /// epoch word through `ld`. Gap and tombstone slots are never visible.
    #[inline]
    pub fn live<L: KernelLane>(&self, ld: &mut L, e: usize) -> bool {
        epoch_visible(ld.read(&self.store.epochs, e), self.ver)
    }
}

/// How a kernel claims an untouched vertex (`t ← flag`) on the device.
/// The host executor runs one lane at a time, so there both gates are
/// the same test-and-set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// `atomicCAS(t, untouched, flag)`: exactly one lane wins.
    Cas,
    /// Plain test, then a volatile set: a benign race in CUDA (every
    /// racing lane sets the same flag; the duplicates they enqueue are
    /// removed later), deterministic here. Volatile declares it to the
    /// racechecker.
    TestAndSet,
}

/// One lane of an [`Exec`]: the per-lane operations a kernel body issues.
///
/// On the device ([`Lane`]) every access is charged and the `prof_*` and
/// [`compute`](KernelLane::compute) annotations feed the profiler and the
/// cost model; on the host (the native backend's `Host`) accesses are
/// plain `host_get`/`host_set`, atomics plain read-modify-writes (a host
/// block runs its lanes one after another), and the annotations are
/// no-ops.
///
/// The scratch rows `σ̂`/`δ̂`/`d̂` are valid on the host only for touched
/// vertices: the host skips the dense init. A body therefore reads them
/// with [`read`](KernelLane::read) only for a vertex it knows is touched,
/// and through [`sigma_hat`](KernelLane::sigma_hat) /
/// [`d_hat`](KernelLane::d_hat) otherwise; every transition out of
/// `T_UNTOUCHED` goes through [`claim`](KernelLane::claim),
/// [`claim_tested`](KernelLane::claim_tested) or
/// [`relocate`](KernelLane::relocate).
pub trait KernelLane {
    /// Reads `buf[i]`.
    fn read<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T;
    /// Writes `buf[i] = v`.
    fn write<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize, v: T);
    /// `atomicAdd` on an `f64` cell; returns the previous value.
    fn atomic_add_f64(&mut self, buf: &GpuBuffer<f64>, i: usize, v: f64) -> f64;
    /// `atomicAdd` on a `u32` cell; returns the previous value.
    fn atomic_add_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32;
    /// `atomicMax` on a `u32` cell; returns the previous value.
    fn atomic_max_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32;
    /// `atomicMin` on a `u32` cell; returns the previous value.
    fn atomic_min_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32;
    /// Charges `units` of arithmetic (device only).
    #[inline]
    fn compute(&mut self, _units: u32) {}
    /// Profiler: `n` edges examined (device only).
    #[inline]
    fn prof_edges_scanned(&mut self, _n: u32) {}
    /// Profiler: `n` edges passed the frontier test (device only).
    #[inline]
    fn prof_edges_passed(&mut self, _n: u32) {}
    /// Profiler: `n` frontier-queue pushes (device only).
    #[inline]
    fn prof_queue_push(&mut self, _n: u32) {}
    /// Profiler: `n` duplicate-removal operations (device only).
    #[inline]
    fn prof_dedup_ops(&mut self, _n: u32) {}
    /// Claims `v` if untouched (`t[v] ← flag`) through `gate`; returns
    /// whether this lane claimed it. The host seeds `v`'s scratch cells
    /// with what the dense init left there.
    fn claim(&mut self, ctx: &Ctx<'_>, v: VertexId, flag: u8, gate: Gate) -> bool;
    /// [`claim`](KernelLane::claim) through [`Gate::Cas`] of a vertex
    /// this lane has just read as untouched. The device still races other
    /// lanes for it; on the host no other lane ran in between, so the
    /// claim always wins and skips the test.
    fn claim_tested(&mut self, ctx: &Ctx<'_>, v: VertexId, flag: u8) -> bool;
    /// Case 3 relocation: `d̂[v] ← level`, `t[v] ← down`, both volatile
    /// (racing lanes write the same values).
    fn relocate(&mut self, ctx: &Ctx<'_>, v: VertexId, level: u32);
    /// `σ̂[v]` of a vertex that may be untouched.
    fn sigma_hat(&mut self, ctx: &Ctx<'_>, v: VertexId) -> f64;
    /// `d̂[v]` of a vertex that may be untouched.
    fn d_hat(&mut self, ctx: &Ctx<'_>, v: VertexId) -> u32;
}

impl KernelLane for Lane<'_> {
    #[inline]
    fn read<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T {
        Lane::read(self, buf, i)
    }
    #[inline]
    fn write<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize, v: T) {
        Lane::write(self, buf, i, v);
    }
    #[inline]
    fn atomic_add_f64(&mut self, buf: &GpuBuffer<f64>, i: usize, v: f64) -> f64 {
        Lane::atomic_add_f64(self, buf, i, v)
    }
    #[inline]
    fn atomic_add_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32 {
        Lane::atomic_add_u32(self, buf, i, v)
    }
    #[inline]
    fn atomic_max_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32 {
        Lane::atomic_max_u32(self, buf, i, v)
    }
    #[inline]
    fn atomic_min_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32 {
        Lane::atomic_min_u32(self, buf, i, v)
    }
    #[inline]
    fn compute(&mut self, units: u32) {
        Lane::compute(self, units);
    }
    #[inline]
    fn prof_edges_scanned(&mut self, n: u32) {
        Lane::prof_edges_scanned(self, n);
    }
    #[inline]
    fn prof_edges_passed(&mut self, n: u32) {
        Lane::prof_edges_passed(self, n);
    }
    #[inline]
    fn prof_queue_push(&mut self, n: u32) {
        Lane::prof_queue_push(self, n);
    }
    #[inline]
    fn prof_dedup_ops(&mut self, n: u32) {
        Lane::prof_dedup_ops(self, n);
    }
    #[inline]
    fn claim(&mut self, ctx: &Ctx<'_>, v: VertexId, flag: u8, gate: Gate) -> bool {
        let i = ctx.sn(v);
        match gate {
            Gate::Cas => self.atomic_cas_u8(&ctx.scr.t, i, T_UNTOUCHED, flag) == T_UNTOUCHED,
            Gate::TestAndSet => {
                let untouched = self.read(&ctx.scr.t, i) == T_UNTOUCHED;
                if untouched {
                    Lane::write_volatile(self, &ctx.scr.t, i, flag);
                }
                untouched
            }
        }
    }
    #[inline]
    fn claim_tested(&mut self, ctx: &Ctx<'_>, v: VertexId, flag: u8) -> bool {
        self.claim(ctx, v, flag, Gate::Cas)
    }
    #[inline]
    fn relocate(&mut self, ctx: &Ctx<'_>, v: VertexId, level: u32) {
        Lane::write_volatile(self, &ctx.scr.d_hat, ctx.sn(v), level);
        Lane::write_volatile(self, &ctx.scr.t, ctx.sn(v), T_DOWN);
    }
    #[inline]
    fn sigma_hat(&mut self, ctx: &Ctx<'_>, v: VertexId) -> f64 {
        self.read(&ctx.scr.sigma_hat, ctx.sn(v))
    }
    #[inline]
    fn d_hat(&mut self, ctx: &Ctx<'_>, v: VertexId) -> u32 {
        self.read(&ctx.scr.d_hat, ctx.sn(v))
    }
}

/// Pushes `v` onto this block's `Q2` (tail allocated by `atomicAdd`).
#[inline]
pub fn push_q2<L: KernelLane>(lane: &mut L, ctx: &Ctx<'_>, v: VertexId) {
    let i = lane.atomic_add_u32(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 1);
    assert!((i as usize) < ctx.scr.qw, "Q2 overflow");
    lane.write(&ctx.scr.q2, ctx.qi(i as usize), v);
    lane.prof_queue_push(1);
}

/// The executor a kernel body runs on: the simulator's [`BlockCtx`],
/// which interprets lanes in lockstep and charges the machine model, or
/// the native backend's host block (`HostExec`), which runs them as
/// plain loops. Each node-parallel traversal kernel is written once, generic
/// over this trait, and monomorphized per executor.
///
/// Besides the lane and scalar operations, an executor provides the
/// steps whose two forms cannot share a body without changing one
/// side's charges or costs: the per-item init and commit (dense O(|V|)
/// sweeps on the device, O(touched) on the host) and the frontier at a
/// level ([`Exec::for_level`]).
pub trait Exec {
    /// One lane.
    type Lane<'l>: KernelLane;
    /// One kernel's walk of `QQ` by level ([`Exec::for_level`]), made
    /// from the distance that levels its entries.
    type Levels: From<LevelOf>;
    /// Tags what follows with a kernel-phase label (device only).
    fn label(&mut self, label: &'static str);
    /// Runs `f(lane, i)` for every `i in 0..n`, in `i` order.
    fn parallel_for<F: FnMut(&mut Self::Lane<'_>, usize)>(&mut self, n: usize, f: F);
    /// Block barrier (device only).
    fn barrier(&mut self);
    /// Single-thread read of `buf[i]`.
    fn read_scalar<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T;
    /// Single-thread write of `buf[i] = v`.
    fn write_scalar<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize, v: T);
    /// Runs `f(lane, w)` for every entry `w` of `QQ[..len]` whose level
    /// under `levels` is `level`, in `QQ` order. The device scans all of
    /// `QQ[..len]` with a charged level test per lane — the
    /// node-parallel method's small futile scan; the host files entries
    /// into per-level buckets as `QQ` grows and visits one bucket. A
    /// kernel must not change the level of an entry once it is in `QQ`.
    fn for_level<F: FnMut(&mut Self::Lane<'_>, VertexId)>(
        &mut self,
        levels: &mut Self::Levels,
        ctx: &Ctx<'_>,
        len: usize,
        level: u32,
        f: F,
    );
    /// Algorithm 3, the per-item init.
    fn init(&mut self, ctx: &Ctx<'_>, mode: SeedMode);
    /// Algorithm 8, the per-item commit; returns the touched count.
    fn commit(&mut self, ctx: &Ctx<'_>, case3: bool) -> usize;
}

impl Exec for BlockCtx {
    type Lane<'l> = Lane<'l>;
    type Levels = LevelOf;
    #[inline]
    fn label(&mut self, label: &'static str) {
        BlockCtx::label(self, label);
    }
    #[inline]
    fn parallel_for<F: FnMut(&mut Lane<'_>, usize)>(&mut self, n: usize, f: F) {
        BlockCtx::parallel_for(self, n, f);
    }
    #[inline]
    fn barrier(&mut self) {
        BlockCtx::barrier(self);
    }
    #[inline]
    fn read_scalar<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T {
        BlockCtx::read_scalar(self, buf, i)
    }
    #[inline]
    fn write_scalar<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize, v: T) {
        BlockCtx::write_scalar(self, buf, i, v);
    }
    fn for_level<F: FnMut(&mut Lane<'_>, VertexId)>(
        &mut self,
        levels: &mut LevelOf,
        ctx: &Ctx<'_>,
        len: usize,
        level: u32,
        mut f: F,
    ) {
        BlockCtx::parallel_for(self, len, |lane, tid| {
            let w = lane.read(&ctx.scr.qq, ctx.qi(tid));
            if levels.of(lane, ctx, w) == level {
                f(lane, w);
            }
        });
    }
    fn init(&mut self, ctx: &Ctx<'_>, mode: SeedMode) {
        common::init_kernel(self, ctx, mode);
    }
    fn commit(&mut self, ctx: &Ctx<'_>, case3: bool) -> usize {
        common::update_kernel(self, ctx, case3)
    }
}

/// Which distance files a `QQ` entry under a level in [`Exec::for_level`]
/// — the device's whole level walk, which rescans `QQ` per level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelOf {
    /// The committed distance `d` (Case 2: levels are static).
    D,
    /// The new distance `d̂` (Case 3 and D3: every `QQ` entry is touched).
    DHat,
}

impl LevelOf {
    /// `QQ` entry `w`'s level, loaded through `ld`.
    #[inline]
    pub fn of<L: KernelLane>(self, ld: &mut L, ctx: &Ctx<'_>, w: VertexId) -> u32 {
        match self {
            LevelOf::D => ld.read(&ctx.st.d, ctx.kn(w)),
            LevelOf::DHat => ld.read(&ctx.scr.d_hat, ctx.sn(w)),
        }
    }
}

/// A row scan's visibility grade, decided once per header read (see
/// [`GraphView::row`]). Kernels pass it to [`GraphView::slot`] per
/// slot; only the `Epoch` grade ever reads epoch words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowCheck {
    /// Soft row: visibility rides in the born byte packed into each
    /// adjacency word — no reads beyond the scan's own payload.
    Packed,
    /// Soft row with pending invisible staged slots: bit `i` of `mask`
    /// marks the slot at capacity position `start + i` (staged offsets
    /// are a byte, so 256 bits cover them all). The scan steps over
    /// marked slots without reading.
    SkipAt {
        /// The row's first capacity slot.
        start: usize,
        /// Invisible staged slots as a bitmask over row offsets.
        mask: [u64; 4],
    },
    /// Hard-dirty row (tombstones, staged deaths, or an overflowing
    /// born): per-slot epoch check required.
    Epoch,
}

/// Whether slot `e` of a `SkipAt` row starting at `start` is an
/// invisible staged slot the scan steps over.
#[inline]
fn skipped(start: usize, mask: &[u64; 4], e: usize) -> bool {
    let off = e - start;
    mask.get(off / 64).is_some_and(|w| w >> (off % 64) & 1 != 0)
}

/// Everything a kernel needs to locate its data: graph view, state,
/// scratch, which block-scratch row to use, which source row to update,
/// and the inserted edge oriented as `(u_high, u_low)`.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    /// Versioned view of the device graph store.
    pub g: GraphView<'a>,
    /// Persistent per-source state.
    pub st: &'a StateBuffers,
    /// Per-block scratch.
    pub scr: &'a ScratchBuffers,
    /// This block's scratch row index.
    pub block_slot: usize,
    /// This work item's BC-delta slab row index. Equal to `block_slot`
    /// for single-op launches; the batch dispatcher spreads ops across
    /// rows (`op_slot * num_blocks + block_slot`) so the drain can replay
    /// sequential commit order.
    pub bc_slot: usize,
    /// This source's state row index (`0..k`).
    pub src_row: usize,
    /// The source vertex.
    pub s: VertexId,
    /// Inserted-edge endpoint nearer the source.
    pub u_high: VertexId,
    /// Inserted-edge endpoint farther from the source.
    pub u_low: VertexId,
}

impl Ctx<'_> {
    /// Vertex count.
    #[inline]
    pub fn n(&self) -> usize {
        self.g.store.n
    }

    /// Index of vertex `v` in this source's state rows (`d`/`σ`/`δ`).
    #[inline]
    pub fn kn(&self, v: VertexId) -> usize {
        self.src_row * self.st.n + v as usize
    }

    /// Index of vertex `v` in this block's scratch rows (`t`/`σ̂`/`δ̂`/`d̂`).
    #[inline]
    pub fn sn(&self, v: VertexId) -> usize {
        self.scr.row(self.block_slot) + v as usize
    }

    /// Index of vertex `v` in this work item's BC delta slab row.
    #[inline]
    pub fn bci(&self, v: VertexId) -> usize {
        self.scr.bc_row(self.bc_slot) + v as usize
    }

    /// Index `i` in this block's queue rows (`q`/`q2`/`qq`).
    #[inline]
    pub fn qi(&self, i: usize) -> usize {
        self.scr.qrow(self.block_slot) + i
    }

    /// Index of control slot `slot` for this block.
    #[inline]
    pub fn li(&self, slot: usize) -> usize {
        self.scr.lens_row(self.block_slot) + slot
    }

    /// Base of this block's scan scratch (width `2 * qw`; the second half
    /// starts at `+ qw`).
    #[inline]
    pub fn scan_base(&self) -> usize {
        self.scr.scan_row(self.block_slot)
    }
}
