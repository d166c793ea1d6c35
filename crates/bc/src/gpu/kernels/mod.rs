//! Device kernels for dynamic betweenness centrality (Algorithms 3–8 of
//! the paper, plus our Case 3 generalization and the removal cases D2/D3).
//!
//! All kernels are written against `dynbc-gpusim`'s `BlockCtx`/`Lane`
//! API: every global-memory access flows through a lane and is charged to
//! the machine model, so the edge-vs-node comparison measures exactly the
//! traffic each decomposition generates.
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
};
use dynbc_gpusim::{DeviceValue, GpuBuffer, Lane};
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
/// read comes through a [`Load`], charged on the device and free on the
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
    #[inline]
    pub fn row<L: Load>(&self, ld: &mut L, v: VertexId) -> (usize, usize, RowCheck) {
        let header = ld.load(&self.store.row_pack, v as usize);
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
                let word = ld.load(&self.store.staged_skips, SKIP_WORDS * v as usize + w);
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
    pub fn slot<L: Load>(&self, ld: &mut L, check: &RowCheck, e: usize) -> Option<VertexId> {
        match check {
            RowCheck::Packed => {
                let w = ld.load(&self.store.adj, e);
                (w >> ADJ_BORN_SHIFT <= self.ver).then_some(w & ADJ_VERTEX_MASK)
            }
            RowCheck::SkipAt { start, mask } => {
                if skipped(*start, mask, e) {
                    None // invisible staged slot: stepped over, never read
                } else {
                    Some(ld.load(&self.store.adj, e) & ADJ_VERTEX_MASK)
                }
            }
            RowCheck::Epoch => self
                .live(ld, e)
                .then(|| ld.load(&self.store.adj, e) & ADJ_VERTEX_MASK),
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
    pub fn live<L: Load>(&self, ld: &mut L, e: usize) -> bool {
        epoch_visible(ld.load(&self.store.epochs, e), self.ver)
    }
}

/// How a [`GraphView`] loads a store word: a device [`Lane`] read, which
/// charges the cost model, or a [`Host`] read, which charges nothing (the
/// native backend). The view decodes the packed, skip-at and epoch
/// grades once, for either.
pub trait Load {
    /// Loads `buf[i]`.
    fn load<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T;
}

impl Load for Lane<'_> {
    #[inline]
    fn load<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T {
        self.read(buf, i)
    }
}

/// Uncharged host-side loads, for the native backend's plain loops.
pub struct Host;

impl Load for Host {
    #[inline]
    fn load<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T {
        buf.host_get(i)
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
