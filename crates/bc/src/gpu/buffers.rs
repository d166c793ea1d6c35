//! Device-resident data for the GPU engines.
//!
//! Three buffer groups mirror what a CUDA implementation would keep on the
//! board:
//!
//! * [`SlackGraphBuffers`] — the device mirror of the host
//!   [`SlackCsr`] dynamic adjacency store: per-row capacity offsets, the
//!   packed length/dirty word, slot values, visibility epochs, and the
//!   per-slot owning row the edge-parallel kernels index by thread id.
//!   The mirror persists across the whole update stream; after each
//!   batch stage [`SlackGraphBuffers::sync`] replays only the host
//!   store's O(degree) slot deltas instead of re-uploading an O(E)
//!   snapshot per op;
//! * [`StateBuffers`] — the persistent O(kn) dynamic state: `BC`, and
//!   per-source `d` / `σ` / `δ` rows;
//! * [`ScratchBuffers`] — per-block working set: the `t` flags, hat
//!   arrays, the `Q`/`Q2`/`QQ` queues of Algorithm 5, and the per-block
//!   BC delta slab, one row per thread block (each block works on one
//!   source at a time).
//!
//! Host↔device staging (`from_slack`, `sync`, `upload_state`, snapshots)
//! happens between updates and is never part of a timed kernel region,
//! matching the paper's methodology (it cites STINGER for the structure
//! update and excludes it from measurement).

use crate::state::BcState;
use dynbc_gpusim::{Gpu, GpuBuffer};
use dynbc_graph::slack::{ROW_DIRTY_BIT, ROW_LEN_MASK};
use dynbc_graph::{SlackCsr, SlackDelta, VertexId};

/// Queue-length / control slots per block in [`ScratchBuffers::lens`].
pub const LEN_SLOTS: usize = 6;
/// `Q_len` slot index.
pub const SLOT_QLEN: usize = 0;
/// `Q2_len` slot index.
pub const SLOT_Q2LEN: usize = 1;
/// `QQ_len` slot index.
pub const SLOT_QQLEN: usize = 2;
/// Current/maximum depth slot index.
pub const SLOT_DEPTH: usize = 3;
/// Done-flag slot index (edge-parallel termination).
pub const SLOT_DONE: usize = 4;
/// Scan-total slot index (duplicate removal).
pub const SLOT_SCAN: usize = 5;

/// `t[v]` flag value: not found in either stage.
pub const T_UNTOUCHED: u8 = 0;
/// Vertex found during the shortest-path (downward) stage.
pub const T_DOWN: u8 = 1;
/// Vertex found during the dependency-accumulation (upward) stage.
pub const T_UP: u8 = 2;

/// Bit position of the staged-born byte packed into each device
/// adjacency word (see `pack_adj`).
pub const ADJ_BORN_SHIFT: u32 = 24;
/// Mask extracting the neighbour id from a packed device adjacency word.
/// Bounds the vertex count the device mirror can hold.
pub const ADJ_VERTEX_MASK: u32 = (1 << ADJ_BORN_SHIFT) - 1;

/// Device row-meta layout (the high word of each `row_pack` header).
/// Richer than the host's `len | dirty` packing: the spare bits carry
/// what a scan needs to prove, from the header alone, that no per-slot
/// visibility work is required.
///
/// Occupied-length field width (bits 0..23).
pub const DEV_LEN_MASK: u32 = (1 << 23) - 1;
/// Bit position of the max-staged-born field (bits 23..30).
pub const DEV_BORN_SHIFT: u32 = 23;
/// Width mask of the max-staged-born field. A view at or above the
/// row's max staged born sees every slot — no checks at all. Staged
/// borns past this clamp degrade the row to the epoch path.
pub const DEV_BORN_MASK: u32 = 0x7f;
/// Set when the row's staged slots all fit the `staged_skips` words
/// (at most [`SKIP_SLOTS`] of them, each at a row offset under 256):
/// a view below the max born can skip invisible slots positionally,
/// never reading them.
pub const DEV_SKIPS_BIT: u32 = 1 << 30;
/// Set for rows needing per-slot epoch checks (tombstones, staged
/// deaths, or a staged born past [`DEV_BORN_MASK`]).
pub const DEV_DIRTY_BIT: u32 = 1 << 31;
/// Staged-slot entries per row in `staged_skips`: [`SKIP_WORDS`] `u64`
/// words of four 16-bit `offset | born << 8` entries each, sorted by
/// born *descending* and 0-terminated. A view's invisible slots are
/// then a prefix of the list (invisible ⟺ `born > ver`), so a scan
/// loads words only until the first visible-born entry — `⌊i/4⌋ + 1`
/// reads to step over `i` slots, where reading them would cost `i`.
pub const SKIP_SLOTS: usize = 64;
/// `staged_skips` words per row (`SKIP_SLOTS / 4`).
pub const SKIP_WORDS: usize = SKIP_SLOTS / 4;

/// Device mirror of the host [`SlackCsr`] dynamic adjacency store.
///
/// Four named buffers, so racecheck, the profiler, and telemetry see
/// the graph like any other device data:
///
/// * `row_pack` — the per-row header, one `u64` per row: the capacity
///   start slot in the low word and the device meta (occupied length,
///   max staged born, [`DEV_SKIPS_BIT`], [`DEV_DIRTY_BIT`]) in the
///   high word. A row scan opens with a single aligned 8-byte load
///   (CUDA's `uint2` vectorized-load idiom) — one instruction and one
///   32-byte segment, where the old CSR `R` pair cost two loads and
///   crossed a segment boundary for one row in eight;
/// * `staged_skips` — [`SKIP_WORDS`] `u64` words per row listing its
///   staged slots as `offset | born << 8` entries in descending-born
///   order, read (prefix only) by views below the row's max staged
///   born, which then step over invisible slots without touching
///   their adjacency words;
/// * `adj` — slot values, packed as `neighbour | born << 24` (see
///   `pack_adj`): for a *soft* row (no tombstones, staged deaths, or
///   overflowing borns), a slot is visible at version `ver` exactly
///   when `adj[s] >> 24 <= ver`, so the visibility test rides on the
///   adjacency read every scan already performs — zero extra words;
/// * `epochs` — packed `(born << 32) | died` visibility words, read
///   only on hard-dirty rows and by the edge-parallel full-capacity
///   iteration;
/// * `slot_tails` — the owning row per slot, the edge-parallel analogue
///   of the old flat arc-tail list (gap and tombstone slots are skipped
///   by the epoch check in one early-exit branch, the same divergence
///   shape as a futile-edge thread).
///
/// The mirror persists across updates; [`SlackGraphBuffers::sync`]
/// replays the host store's slot deltas (or rebuilds wholesale after a
/// relayout) between launches, off the simulated clock.
#[derive(Debug)]
pub struct SlackGraphBuffers {
    /// Vertex count.
    pub n: usize,
    /// Total slot capacity (the edge-parallel iteration bound).
    pub capacity: usize,
    /// Per-row `start | meta << 32` headers, `n` entries.
    pub row_pack: GpuBuffer<u64>,
    /// Per-row staged-slot skip words, `SKIP_WORDS * n` entries.
    pub staged_skips: GpuBuffer<u64>,
    /// Packed `neighbour | born << 24` slot words, `capacity` entries.
    pub adj: GpuBuffer<u32>,
    /// Slot visibility epochs, `capacity` entries.
    pub epochs: GpuBuffer<u64>,
    /// Owning row per slot, `capacity` entries.
    pub slot_tails: GpuBuffer<u32>,
}

/// Packs a slot's staged-born byte into the top byte of its adjacency
/// word. Settled-live slots (born 0) keep their value verbatim; staged
/// births carry their version so soft-row scans can test visibility on
/// the word they already read. The clamp to 255 only fires on slots
/// whose born overflowed [`dynbc_graph::slack::STAGE_BORN_MAX`] or on
/// gap/tombstone slots — both make the row hard-dirty (or lie beyond
/// its occupied range), so the packed byte is never consulted there.
#[inline]
fn pack_adj(adj: u32, epoch: u64) -> u32 {
    adj | ((epoch >> 32) as u32).min(u32::from(u8::MAX)) << ADJ_BORN_SHIFT
}

/// Builds row `v`'s device header word and staged-skip words from the
/// host store.
///
/// One host-side pass over the row's occupied epochs (off the
/// simulated clock, like all staging) collects every staged-birth
/// slot. The device meta keeps the host's length and dirty bit, and
/// adds the max staged born plus — when the staged slots fit
/// [`SKIP_SLOTS`] entries at sub-256 offsets — [`DEV_SKIPS_BIT`] and
/// the packed `offset | born << 8` entry list. A staged born past
/// [`DEV_BORN_MASK`] sets [`DEV_DIRTY_BIT`]: the epoch path stays
/// exact for stages too deep for the seven-bit field.
fn device_row_header(host: &SlackCsr, v: VertexId) -> (u64, [u64; SKIP_WORDS]) {
    let host_meta = host.row_meta(v);
    let start = host.row_start()[v as usize];
    let len = host_meta & ROW_LEN_MASK;
    assert!(len <= DEV_LEN_MASK, "row degree overflows the device meta");
    let mut dirty = host_meta & ROW_DIRTY_BIT != 0;
    let mut staged: Vec<(u32, u32)> = Vec::new();
    let mut listed = true;
    if !dirty {
        let row = &host.epochs()[start as usize..(start + len) as usize];
        for (off, &e) in row.iter().enumerate() {
            let born = (e >> 32) as u32;
            if born == 0 {
                continue; // settled-live (soft rows hold nothing else)
            }
            if born > DEV_BORN_MASK {
                dirty = true;
                break;
            }
            if off < 256 {
                staged.push((born, off as u32));
            } else {
                listed = false;
            }
        }
    }
    let max_born = staged.iter().map(|&(b, _)| b).max().unwrap_or(0);
    listed = listed && !staged.is_empty() && staged.len() <= SKIP_SLOTS;
    let mut skips = [0u64; SKIP_WORDS];
    if listed {
        // Descending born: a view's invisible slots become a prefix.
        staged.sort_unstable_by(|a, b| b.cmp(a));
        for (i, &(born, off)) in staged.iter().enumerate() {
            let entry = u64::from(off) | u64::from(born) << 8;
            skips[i / 4] |= entry << (16 * (i % 4));
        }
    }
    let meta = if dirty {
        len | DEV_DIRTY_BIT
    } else {
        let skip_bit = if listed { DEV_SKIPS_BIT } else { 0 };
        len | max_born << DEV_BORN_SHIFT | skip_bit
    };
    (u64::from(start) | u64::from(meta) << 32, skips)
}

impl SlackGraphBuffers {
    /// Uploads the host store's current layout wholesale into `gpu`.
    pub fn from_slack(gpu: &mut Gpu, host: &SlackCsr) -> Self {
        let n = host.vertex_count();
        assert!(
            n <= ADJ_VERTEX_MASK as usize,
            "vertex ids must fit under the packed born byte"
        );
        let mut pack = Vec::with_capacity(n);
        let mut skips = Vec::with_capacity(SKIP_WORDS * n);
        for v in 0..n as VertexId {
            let (header, words) = device_row_header(host, v);
            pack.push(header);
            skips.extend_from_slice(&words);
        }
        let adj: Vec<u32> = host
            .adj()
            .iter()
            .zip(host.epochs())
            .map(|(&a, &e)| pack_adj(a, e))
            .collect();
        Self {
            n,
            capacity: host.capacity(),
            row_pack: gpu.upload(pack).named("row_pack"),
            staged_skips: gpu.upload(skips).named("staged_skips"),
            adj: gpu.upload(adj).named("adj"),
            epochs: gpu.upload(host.epochs().to_vec()).named("epochs"),
            slot_tails: gpu.upload(host.slot_tails().to_vec()).named("slot_tails"),
        }
    }

    /// Drains the host store's delta journal into the device mirror.
    ///
    /// Slot deltas copy only the rewritten `adj`/`epochs` range plus the
    /// owning row's meta word — O(degree) staging per op, the whole
    /// point of the slack store. A relayout (row growth or compaction)
    /// invalidates slot indices, so any journal containing one rebuilds
    /// every buffer from the host's current layout instead, allocated
    /// in `gpu`.
    pub fn sync(&mut self, gpu: &mut Gpu, host: &mut SlackCsr) {
        let deltas = host.take_deltas();
        if deltas.is_empty() {
            return;
        }
        if deltas.iter().any(|d| matches!(d, SlackDelta::Relayout)) {
            *self = Self::from_slack(gpu, host);
            return;
        }
        let (adj, epochs) = (host.adj(), host.epochs());
        for delta in deltas {
            let SlackDelta::Slots { row, lo, hi } = delta else {
                unreachable!("relayouts rebuilt above");
            };
            for s in lo as usize..hi as usize {
                self.adj.host_set(s, pack_adj(adj[s], epochs[s]));
                self.epochs.host_set(s, epochs[s]);
            }
            let (header, words) = device_row_header(host, row);
            self.row_pack.host_set(row as usize, header);
            for (i, &w) in words.iter().enumerate() {
                self.staged_skips.host_set(SKIP_WORDS * row as usize + i, w);
            }
        }
    }
}

/// Persistent dynamic-BC state on the device (the O(kn) storage).
#[derive(Debug)]
pub struct StateBuffers {
    /// Vertex count.
    pub n: usize,
    /// Source count.
    pub k: usize,
    /// The source vertices, in row order.
    pub sources: Vec<VertexId>,
    /// BC scores (`n`).
    pub bc: GpuBuffer<f64>,
    /// Distances, `k × n` row-major (`d[row * n + v]`).
    pub d: GpuBuffer<u32>,
    /// Path counts, `k × n`.
    pub sigma: GpuBuffer<f64>,
    /// Dependencies, `k × n`.
    pub delta: GpuBuffer<f64>,
}

impl StateBuffers {
    /// Uploads a host-side [`BcState`] into `gpu`.
    pub fn upload(gpu: &mut Gpu, state: &BcState) -> Self {
        let n = state.n;
        let k = state.sources.len();
        let mut d = Vec::with_capacity(k * n);
        let mut sigma = Vec::with_capacity(k * n);
        let mut delta = Vec::with_capacity(k * n);
        for i in 0..k {
            d.extend_from_slice(&state.d[i]);
            sigma.extend_from_slice(&state.sigma[i]);
            delta.extend_from_slice(&state.delta[i]);
        }
        Self {
            n,
            k,
            sources: state.sources.clone(),
            bc: gpu.upload(state.bc.clone()).named("bc"),
            d: gpu.upload(d).named("d"),
            sigma: gpu.upload(sigma).named("sigma"),
            delta: gpu.upload(delta).named("delta"),
        }
    }

    /// Downloads the device state back into a host [`BcState`] (testing /
    /// reporting).
    pub fn download(&self) -> BcState {
        let mut state = BcState::zeroed(self.n, self.sources.clone());
        state.bc = self.bc.to_vec();
        let d = self.d.host();
        let sigma = self.sigma.host();
        let delta = self.delta.host();
        for i in 0..self.k {
            state.d[i].copy_from_slice(&d[i * self.n..(i + 1) * self.n]);
            state.sigma[i].copy_from_slice(&sigma[i * self.n..(i + 1) * self.n]);
            state.delta[i].copy_from_slice(&delta[i * self.n..(i + 1) * self.n]);
        }
        state
    }
}

/// Per-block working buffers: one row per thread block.
///
/// Allocated once per engine and reused across updates (a pool, not a
/// per-launch allocation); [`ScratchBuffers::ensure_arc_capacity`] grows
/// the queue rows when the insertion stream outgrows them.
#[derive(Debug)]
pub struct ScratchBuffers {
    /// Vertex count (width of the per-vertex rows).
    pub n: usize,
    /// Number of blocks (rows).
    pub blocks: usize,
    /// Width of the queue rows (`Q2`/`QQ`). Sized from the arc count:
    /// one BFS level can push up to one (duplicate) entry per arc
    /// crossing it, which on dense graphs exceeds `n`.
    pub qw: usize,
    /// Row stride of [`ScratchBuffers::bc_delta`]: `n` rounded up so each
    /// block's row starts 256-byte aligned, making the commit kernel's
    /// coalescing pattern identical to a direct write of the `n`-wide
    /// `BC` array.
    pub bc_stride: usize,
    /// `t` flags, `blocks × n`.
    pub t: GpuBuffer<u8>,
    /// `σ̂`, `blocks × n`.
    pub sigma_hat: GpuBuffer<f64>,
    /// `δ̂`, `blocks × n`.
    pub delta_hat: GpuBuffer<f64>,
    /// `d̂` (Case 3 relocations; also the static kernels' working `d`),
    /// `blocks × n`.
    pub d_hat: GpuBuffer<u32>,
    /// BC delta slab, `bc_rows × bc_stride` (at least one row per block;
    /// the batch dispatcher grows it to one row per *(op, block)* pair
    /// via [`ScratchBuffers::ensure_bc_rows`]).
    ///
    /// Kernels never add to the shared `BC` array directly: contended
    /// `atomicAdd(f64)` would make the bit pattern of every score depend
    /// on how concurrent blocks interleave, which host-parallel execution
    /// must not expose. Each work item instead accumulates `δ̂ − δ` into
    /// its own slab row; the host reduces the rows **serially in row
    /// order** after the launch ([`ScratchBuffers::drain_bc_delta_into`]),
    /// so the result is bit-identical for any `DYNBC_HOST_THREADS`.
    pub bc_delta: GpuBuffer<f64>,
    /// Current-level queue `Q`, `blocks × qw`.
    pub q: GpuBuffer<u32>,
    /// Next-level queue `Q2` (duplicates allowed), `blocks × qw`.
    pub q2: GpuBuffer<u32>,
    /// Level-ordered discovered list `QQ`, `blocks × qw` (Case 3 may
    /// re-enqueue relocated vertices).
    pub qq: GpuBuffer<u32>,
    /// Scan ping-pong scratch for duplicate removal, `blocks × 2·qw`.
    pub scan: GpuBuffer<u32>,
    /// Control slots (`Q_len`, `Q2_len`, `QQ_len`, depth, done, scan
    /// total), `blocks × LEN_SLOTS`.
    pub lens: GpuBuffer<u32>,
}

impl ScratchBuffers {
    /// Allocates scratch in `gpu` for `blocks` blocks over `n`-vertex
    /// rows, with queue rows wide enough for `num_arcs` per-level pushes.
    pub fn new(gpu: &mut Gpu, blocks: usize, n: usize, num_arcs: usize) -> Self {
        let qw = Self::queue_width(n, num_arcs);
        // 32 f64 = 256 bytes: every slab row starts on a segment-aligned
        // boundary, like the BC array itself.
        let bc_stride = n.next_multiple_of(32).max(32);
        Self {
            n,
            blocks,
            qw,
            bc_stride,
            t: gpu.alloc(blocks * n, T_UNTOUCHED).named("t"),
            sigma_hat: gpu.alloc(blocks * n, 0.0).named("sigma_hat"),
            delta_hat: gpu.alloc(blocks * n, 0.0).named("delta_hat"),
            d_hat: gpu.alloc(blocks * n, 0).named("d_hat"),
            bc_delta: gpu.alloc(blocks * bc_stride, 0.0).named("bc_delta"),
            q: gpu.alloc(blocks * qw, 0).named("q"),
            q2: gpu.alloc(blocks * qw, 0).named("q2"),
            qq: gpu.alloc(blocks * qw, 0).named("qq"),
            scan: gpu.alloc(blocks * 2 * qw, 0).named("scan"),
            lens: gpu.alloc(blocks * LEN_SLOTS, 0).named("lens"),
        }
    }

    /// Queue-row width for a graph with `num_arcs` arcs over `n` vertices.
    /// Bitonic dedup pads to the next power of two, so make the row
    /// itself a power of two at least as large as any level's pushes.
    fn queue_width(n: usize, num_arcs: usize) -> usize {
        (num_arcs + n + 64).next_power_of_two()
    }

    /// Grows the queue rows if `num_arcs` no longer fits (the insertion
    /// stream adds arcs). Queue contents are per-update scratch, so the
    /// old rows are simply dropped; per-vertex rows never change size.
    pub fn ensure_arc_capacity(&mut self, gpu: &mut Gpu, num_arcs: usize) {
        let qw = Self::queue_width(self.n, num_arcs);
        if qw <= self.qw {
            return;
        }
        self.qw = qw;
        self.q = gpu.alloc(self.blocks * qw, 0).named("q");
        self.q2 = gpu.alloc(self.blocks * qw, 0).named("q2");
        self.qq = gpu.alloc(self.blocks * qw, 0).named("qq");
        self.scan = gpu.alloc(self.blocks * 2 * qw, 0).named("scan");
    }

    /// Base offset of block `b`'s `n`-wide rows.
    #[inline]
    pub fn row(&self, b: usize) -> usize {
        b * self.n
    }

    /// Base offset of BC-delta slab row `r` (a block slot for single-op
    /// launches, an `op_slot * blocks + block_slot` pair under the batch
    /// dispatcher).
    #[inline]
    pub fn bc_row(&self, r: usize) -> usize {
        r * self.bc_stride
    }

    /// Number of rows the BC delta slab currently holds.
    #[inline]
    pub fn bc_rows(&self) -> usize {
        self.bc_delta.len() / self.bc_stride
    }

    /// Grows the BC delta slab to at least `rows` rows (never below one
    /// row per block). Batch dispatch sizes the slab by batch width: one
    /// row per *(op, block)* pair, so each op's deltas stay separable
    /// and the drain can replay sequential commit order. Slab contents
    /// are per-launch scratch (always drained back to zero), so the old
    /// buffer is simply dropped.
    pub fn ensure_bc_rows(&mut self, gpu: &mut Gpu, rows: usize) {
        let rows = rows.max(self.blocks);
        if rows <= self.bc_rows() {
            return;
        }
        self.bc_delta = gpu.alloc(rows * self.bc_stride, 0.0).named("bc_delta");
    }

    /// Reduces the first `rows` rows of the BC delta slab into `bc`,
    /// **serially in row order**, re-zeroing them for the next launch.
    /// `rows` is the launch's row count (ops × blocks): the slab keeps
    /// every row it ever grew to, and rows past the launch's are zero.
    ///
    /// This is the deterministic half of the commit: work items
    /// accumulate into disjoint slab rows during the (possibly
    /// host-parallel) launch, then this host-side pass applies the rows
    /// in a fixed order, so every `f64` in `bc` is bit-identical no
    /// matter how many host threads executed the blocks. With the batch
    /// row layout (`op_slot * blocks + block_slot`), row order is
    /// op-major / block-minor — exactly the addition order a
    /// one-op-at-a-time sequence of launches and drains would produce.
    /// Host-side staging, off the simulated clock — the device-side cost
    /// of the adds was already charged when the kernels wrote the slab.
    pub fn drain_bc_delta_into(&self, bc: &GpuBuffer<f64>, rows: usize) {
        assert!(bc.len() >= self.n, "BC array shorter than vertex count");
        assert!(rows <= self.bc_rows(), "draining past the BC delta slab");
        for b in 0..rows {
            let base = self.bc_row(b);
            for v in 0..self.n {
                let d = self.bc_delta.host_get(base + v);
                if d != 0.0 {
                    bc.host_set(v, bc.host_get(v) + d);
                }
                if d.to_bits() != 0 {
                    self.bc_delta.host_set(base + v, 0.0);
                }
            }
        }
    }

    /// Base offset of block `b`'s queue rows (`q`, `q2`, `qq`).
    #[inline]
    pub fn qrow(&self, b: usize) -> usize {
        b * self.qw
    }

    /// Base offset of block `b`'s scan rows (`2·qw` wide).
    #[inline]
    pub fn scan_row(&self, b: usize) -> usize {
        b * 2 * self.qw
    }

    /// Base offset of block `b`'s control slots.
    #[inline]
    pub fn lens_row(&self, b: usize) -> usize {
        b * LEN_SLOTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::brandes_state;
    use dynbc_gpusim::DeviceConfig;
    use dynbc_graph::{Csr, EdgeList};

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_tiny())
    }

    #[test]
    fn slack_mirror_matches_host_store() {
        let mut g = gpu();
        let el = EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
        let slack = SlackCsr::from_csr_exact(&Csr::from_edge_list(&el));
        let gb = SlackGraphBuffers::from_slack(&mut g, &slack);
        assert_eq!(gb.n, 4);
        assert_eq!(gb.capacity, 8, "exact layout: capacity == arc count");
        let pack = gb.row_pack.to_vec();
        let starts: Vec<u32> = pack.iter().map(|&p| p as u32).collect();
        assert_eq!(starts, [0, 2, 4, 6], "header low words are row starts");
        // Settled-live slots have born 0, so the packed mirror is verbatim.
        assert_eq!(gb.adj.to_vec(), slack.adj());
        assert_eq!(gb.epochs.to_vec(), slack.epochs());
        let tails = gb.slot_tails.to_vec();
        for (s, &t) in tails.iter().enumerate() {
            assert!((0..4).contains(&t));
            assert!(slack.has_edge(t, gb.adj.host_get(s) & ADJ_VERTEX_MASK));
        }
        for v in 0..4u32 {
            assert_eq!((pack[v as usize] >> 32) as u32, slack.row_meta(v));
        }
    }

    #[test]
    fn sync_replays_slot_deltas_without_rebuild() {
        let mut g = gpu();
        let el = EdgeList::from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        // Generous slack, compaction off: the mutations below stay
        // in-place slot rewrites, never a relayout.
        let mut slack = SlackCsr::from_csr(&Csr::from_edge_list(&el), 100, 100);
        let mut gb = SlackGraphBuffers::from_slack(&mut g, &slack);
        let cap0 = gb.capacity;
        assert!(slack.insert_edge(0, 5));
        assert!(slack.remove_edge(2, 3));
        gb.sync(&mut g, &mut slack);
        assert_eq!(slack.relayouts(), 0, "slack absorbed both mutations");
        assert_eq!(gb.capacity, cap0);
        let packed: Vec<u32> = slack
            .adj()
            .iter()
            .zip(slack.epochs())
            .map(|(&a, &e)| pack_adj(a, e))
            .collect();
        assert_eq!(gb.adj.to_vec(), packed);
        assert_eq!(gb.epochs.to_vec(), slack.epochs());
        for v in 0..6u32 {
            assert_eq!(
                (gb.row_pack.host_get(v as usize) >> 32) as u32,
                slack.row_meta(v)
            );
        }
        // Second sync with nothing pending is a no-op.
        gb.sync(&mut g, &mut slack);
        assert_eq!(gb.adj.to_vec(), packed);
    }

    #[test]
    fn sync_rebuilds_after_relayout() {
        let mut g = gpu();
        let el = EdgeList::from_pairs(5, [(0, 1), (1, 2)]);
        // Zero slack leaves one spare slot per row; the second insert
        // into row 1 overflows it and forces growth.
        let mut slack = SlackCsr::from_csr(&Csr::from_edge_list(&el), 0, 100);
        let mut gb = SlackGraphBuffers::from_slack(&mut g, &slack);
        assert!(slack.insert_edge(1, 3));
        assert!(slack.insert_edge(1, 4));
        gb.sync(&mut g, &mut slack);
        assert!(slack.relayouts() > 0, "zero-slack rows must grow");
        assert_eq!(gb.capacity, slack.capacity());
        for v in 0..5usize {
            let p = gb.row_pack.host_get(v);
            assert_eq!(p as u32, slack.row_start()[v]);
            assert_eq!((p >> 32) as u32, slack.row_meta(v as u32));
        }
        let packed: Vec<u32> = slack
            .adj()
            .iter()
            .zip(slack.epochs())
            .map(|(&a, &e)| pack_adj(a, e))
            .collect();
        assert_eq!(gb.adj.to_vec(), packed);
        assert_eq!(gb.epochs.to_vec(), slack.epochs());
        assert_eq!(gb.slot_tails.to_vec(), slack.slot_tails());
    }

    #[test]
    fn state_round_trips_through_device() {
        let mut g = gpu();
        let el = EdgeList::from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let csr = Csr::from_edge_list(&el);
        let state = brandes_state(&csr, &[0, 2]);
        let dev = StateBuffers::upload(&mut g, &state);
        let back = dev.download();
        assert_eq!(back, state);
    }

    #[test]
    fn scratch_row_offsets() {
        let mut g = gpu();
        let scr = ScratchBuffers::new(&mut g, 3, 10, 40);
        assert_eq!(scr.row(2), 20);
        assert!(scr.qw.is_power_of_two());
        assert!(scr.qw >= 50);
        assert_eq!(scr.qrow(2), 2 * scr.qw);
        assert_eq!(scr.scan_row(1), 2 * scr.qw);
        assert_eq!(scr.lens_row(1), LEN_SLOTS);
        assert_eq!(scr.t.len(), 30);
        assert_eq!(scr.q2.len(), 3 * scr.qw);
        assert_eq!(scr.bc_stride % 32, 0);
        assert_eq!(scr.bc_row(2), 2 * scr.bc_stride);
        assert_eq!(scr.bc_delta.len(), 3 * scr.bc_stride);
    }

    #[test]
    fn bc_delta_drains_in_block_order_and_rezeroes() {
        let mut g = gpu();
        let scr = ScratchBuffers::new(&mut g, 3, 4, 0);
        let bc = g.alloc(4, 1.0f64);
        scr.bc_delta.host_set(scr.bc_row(0), 0.5); // block 0, v = 0
        scr.bc_delta.host_set(scr.bc_row(2), 0.25); // block 2, v = 0
        scr.bc_delta.host_set(scr.bc_row(1) + 3, -1.0); // block 1, v = 3
        scr.drain_bc_delta_into(&bc, 3);
        assert_eq!(bc.to_vec(), [1.75, 1.0, 1.0, 0.0]);
        assert!(scr.bc_delta.to_vec().iter().all(|d| d.to_bits() == 0));
        // A second drain is a no-op.
        scr.drain_bc_delta_into(&bc, 3);
        assert_eq!(bc.to_vec(), [1.75, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn ensure_bc_rows_grows_and_drains_in_row_order() {
        let mut g = gpu();
        let mut scr = ScratchBuffers::new(&mut g, 2, 4, 0);
        assert_eq!(scr.bc_rows(), 2);
        scr.ensure_bc_rows(&mut g, 1); // never below one row per block
        assert_eq!(scr.bc_rows(), 2);
        scr.ensure_bc_rows(&mut g, 6); // 3 ops × 2 blocks
        assert_eq!(scr.bc_rows(), 6);
        assert_eq!(scr.bc_delta.len(), 6 * scr.bc_stride);
        let bc = g.alloc(4, 0.0f64);
        scr.bc_delta.host_set(scr.bc_row(5) + 1, 2.0); // op 2, block 1
        scr.bc_delta.host_set(scr.bc_row(0) + 1, 1.0); // op 0, block 0
        scr.drain_bc_delta_into(&bc, 6);
        assert_eq!(bc.to_vec(), [0.0, 3.0, 0.0, 0.0]);
        assert!(scr.bc_delta.to_vec().iter().all(|d| d.to_bits() == 0));
    }

    #[test]
    fn drain_reads_only_the_launchs_rows() {
        let mut g = gpu();
        let mut scr = ScratchBuffers::new(&mut g, 2, 4, 0);
        scr.ensure_bc_rows(&mut g, 6); // one wide batch grew the slab
        let bc = g.alloc(4, 0.0f64);
        scr.bc_delta.host_set(scr.bc_row(1) + 2, 0.5); // 1-op launch, block 1
                                                       // A row past the launch's stays untouched; a launch never writes
                                                       // one, so a real drain would find it zero.
        scr.bc_delta.host_set(scr.bc_row(4), 7.0);
        scr.drain_bc_delta_into(&bc, 2);
        assert_eq!(bc.to_vec(), [0.0, 0.0, 0.5, 0.0]);
        assert_eq!(scr.bc_delta.host_get(scr.bc_row(1) + 2).to_bits(), 0);
        assert_eq!(scr.bc_delta.host_get(scr.bc_row(4)), 7.0);
    }

    #[test]
    fn ensure_arc_capacity_grows_queue_rows_only() {
        let mut g = gpu();
        let mut scr = ScratchBuffers::new(&mut g, 2, 10, 16);
        let qw0 = scr.qw;
        scr.ensure_arc_capacity(&mut g, 8); // smaller: no-op
        assert_eq!(scr.qw, qw0);
        scr.ensure_arc_capacity(&mut g, 8 * qw0);
        assert!(scr.qw > qw0);
        assert!(scr.qw.is_power_of_two());
        assert_eq!(scr.q.len(), 2 * scr.qw);
        assert_eq!(scr.scan.len(), 4 * scr.qw);
        assert_eq!(scr.t.len(), 20, "per-vertex rows must not change");
    }
}
