//! Block-level SIMT execution context.
//!
//! A kernel is a closure receiving a [`BlockCtx`]. Inside it,
//! [`BlockCtx::parallel_for`] maps items to lanes in warps of
//! `warp_size`, runs them in lockstep order, and charges the cost model
//! per warp:
//!
//! * **compute** — `warp_base_cycles` plus `event_instr_cycles ×` the
//!   *longest* lane's event count (lockstep: a warp is as slow as its
//!   busiest lane, which is how degree skew becomes "severe workload
//!   imbalance among threads");
//! * **memory** — each distinct 32-byte segment the warp touches costs
//!   `seg_cycles` of the SM's bandwidth share (the coalescing model:
//!   contiguous lane accesses share segments, scattered ones don't);
//! * **atomics** — base cost per operation plus a serialization penalty
//!   per same-address conflict within the warp.
//!
//! Costs accumulate into a barrier-delimited *interval*; at each
//! [`BlockCtx::barrier`] the block's clock advances by
//! `max(compute, memory) + atomics` — warps overlap, so the slower
//! pipeline bounds progress while atomics serialize on the L2.
//!
//! Every access is charged by `touch`, which looks the access's segment up
//! in the warp's segment set, a `SegTable`. The set is exact: a bitmap with
//! one bit per 32-byte segment of the device's address space. A device
//! hands out addresses compactly from its first base up, so the bitmap is
//! 1/256 of the bytes it has ever allocated (buffers are never freed in
//! place; a graph relayout re-uploads at fresh addresses). On paper-insert
//! that is 103 KB at the start and 171 KB after a 60-second run.
//! Each new segment is also pushed onto a list, and the next warp clears
//! exactly the bits on it, so a warp costs no more to clear than it cost
//! to fill, and nothing hashes, probes, grows or wraps. A segment past the
//! bitmap can only come from an out-of-bounds index under checked
//! execution (which charges the access, then suppresses it); it goes to a
//! short per-warp list. The `Gpu` keeps one table per host worker, grown
//! before each launch to cover every buffer allocated so far, and lends
//! it to that worker's blocks in turn; a table a panicking kernel takes
//! with it is rebuilt at the next launch. Every set bit is on the list
//! before it is set, so no bit outlives its warp either way.
//!
//! In front of the set sits a memo of the segment the previous lane's
//! touch #k hit (k counts the lane's events so far). A lane whose touch #k
//! hits that same segment stops at the memo, which is exact: the memo only
//! holds segments already in this warp's set, so a hit is never the
//! warp's first touch of its segment. The charged segments and cycles,
//! and memsim's L1 requests (one per first touch), are the same as when
//! every touch takes the set, which it does while the profiler is on,
//! because the profiler records every access. The memo costs a hub-row
//! scan (whose lanes rarely repeat each other) one compare per touch, and
//! spares the coalesced lanes of the edge-parallel kernels the bitmap:
//! without it, paper-insert's traced `sim_edge_inserts_per_s` fell by
//! about a quarter (CHANGES.md).
//!
//! [`BlockCtx::sweep`] is a `parallel_for` over `n` items in which most
//! lanes are *uniform*: lane `v` makes the same ordered column accesses
//! `buf[base + v]`, described once by a [`Sweep`]. Only the lanes the
//! caller marks divergent run a [`Lane`] closure, at their own position
//! inside their warp. The uniform lanes between them are charged a run at
//! a time, and charged exactly what their closures would have been:
//!
//! * each lane retires `columns` events (lane events, the busiest lane,
//!   and the profiler's occupancy and divergence counts);
//! * a column's cells are contiguous, so the segments a run of lanes hits
//!   form one range of segment ids, and each is charged if it is new to
//!   the warp's set. Only memsim sees the order of first touches: with it
//!   on, the segments go to the set in lane-major order (lane, then
//!   column), the order a lane loop would reach them, between the first
//!   touches of the divergent lanes before the run and after it. A warp
//!   with no divergent lane whose columns are all on different buffers
//!   charges every segment without the set: segments of distinct buffers
//!   never coincide, and no later lane of the warp looks;
//! * the profiler still sees one segment per lane access, and checked
//!   execution still records one `AccessRecord` per lane access, in lane
//!   order, so racecheck analyses uniform lanes as it does any other.
//!
//! Uniform lanes leave the memo alone. That keeps it exact: it still holds
//! only segments already in the set, whichever lane last wrote an ordinal,
//! so a divergent lane's memo hit is still never a first touch, and a
//! miss falls through to the set, which holds every segment the warp has
//! touched whenever a divergent lane runs. Functionally, a run of uniform
//! lanes applies its writes as slice fills and copies. [`Sweep`] rejects a
//! written column that overlaps another column on the same buffer, so no
//! lane of a run sees another's write and the slice form matches lane
//! order.
//!
//! Within a block, execution is sequential and deterministic; parallelism
//! is *modeled*, never raced. Functionally, lanes see each other's writes
//! immediately, which is a superset of CUDA's intra-block visibility; the
//! kernels ported here only rely on races the paper itself proves benign.
//! Distinct blocks of one launch may run concurrently on host threads (see
//! [`Gpu::launch`](crate::Gpu::launch)); cross-block traffic must then
//! follow the sharing contract documented in [`crate::mem`].

use crate::cache::CacheConfig;
use crate::checker::{
    AccessKind, AccessRecord, AtomicKind, DivergenceRecord, OobRecord, Recorder, SCALAR_LANE,
};
use crate::device::DeviceConfig;
use crate::grid::BlockOut;
use crate::mem::{DeviceValue, GpuBuffer};
use crate::profile::BlockProfile;
use crate::stats::KernelStats;
use std::ops::Range;
use std::sync::atomic::Ordering;

/// Touch ordinals the per-warp memo covers; a lane's later touches always
/// take the set.
const MEMO_ORDINALS: usize = 1024;

/// A memo entry no touch has written this warp. Segment ids are byte
/// addresses `>> 5`, so none equals it.
const NO_SEG: u64 = u64::MAX;

/// The exact set of 32-byte segment ids one warp has touched, plus the
/// warp's previous-lane memo. The set is a bitmap with one bit per
/// segment of the device's address space, which [`Gpu`](crate::Gpu)
/// allocates compactly from its first base up; a launch
/// [`cover`](Self::cover)s everything allocated before it. Every set bit
/// is also listed in `set`, so the next warp clears exactly those bits.
/// An id past the bitmap (only an out-of-bounds index under checked
/// execution reaches one) goes to the short `outside` list instead.
///
/// A device keeps one table per host worker and lends it to the worker's
/// blocks in turn (see `grid`), so blocks and launches reuse its memory.
#[derive(Default)]
pub(crate) struct SegTable {
    /// Bit `s % 64` of word `s / 64` is set iff segment `s` is in the set.
    bits: Vec<u64>,
    /// The segments whose bits are set.
    set: Vec<u64>,
    /// The segments of this warp past the end of `bits`.
    outside: Vec<u64>,
    /// Per touch ordinal `k`: the segment touch #k of the most recent lane
    /// reaching `k` in this warp hit, or [`NO_SEG`]. Every entry is in the
    /// set; cleared per warp with it.
    memo: Vec<u64>,
}

impl std::fmt::Debug for SegTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegTable")
            .field("segments", &(self.bits.len() * 64))
            .field("set", &(self.set.len() + self.outside.len()))
            .finish_non_exhaustive()
    }
}

impl SegTable {
    /// Grows the bitmap to cover every segment below address `end`.
    pub(crate) fn cover(&mut self, end: u64) {
        let words = (end >> 5).div_ceil(64) as usize;
        if words > self.bits.len() {
            self.bits.resize(words, 0);
        }
    }

    /// Empties the set and the memo for the next warp.
    fn clear(&mut self) {
        for &seg in &self.set {
            self.bits[(seg >> 6) as usize] &= !(1 << (seg & 63));
        }
        self.set.clear();
        self.outside.clear();
        self.memo.clear();
    }

    /// `true` when touch #`ordinal` of the previous lane hit `seg` in this
    /// warp, so `seg` is already in the set.
    #[inline]
    fn memo_hit(&self, ordinal: usize, seg: u64) -> bool {
        self.memo.get(ordinal) == Some(&seg)
    }

    /// Inserts `seg` as touch #`ordinal` of the current lane; returns
    /// `true` if the warp had not touched it.
    fn insert_touch(&mut self, ordinal: usize, seg: u64) -> bool {
        if ordinal < MEMO_ORDINALS {
            if ordinal >= self.memo.len() {
                self.memo.resize(ordinal + 1, NO_SEG);
            }
            self.memo[ordinal] = seg;
        }
        self.insert(seg)
    }

    /// Inserts `seg`; returns `true` if the warp had not touched it.
    #[inline]
    fn insert(&mut self, seg: u64) -> bool {
        let Some(word) = self.bits.get_mut((seg >> 6) as usize) else {
            return self.insert_outside(seg);
        };
        let bit = 1 << (seg & 63);
        if *word & bit != 0 {
            return false;
        }
        // Listed before it is set, so no set bit ever goes unlisted.
        self.set.push(seg);
        *word |= bit;
        true
    }

    #[cold]
    fn insert_outside(&mut self, seg: u64) -> bool {
        let new = !self.outside.contains(&seg);
        if new {
            self.outside.push(seg);
        }
        new
    }
}

/// Execution context of one thread block.
#[derive(Debug)]
pub struct BlockCtx {
    dev: DeviceConfig,
    block_id: usize,
    // Interval accumulators (since the previous barrier).
    compute_cycles: f64,
    mem_cycles: f64,
    atomic_cycles: f64,
    committed_cycles: f64,
    // Current-warp state.
    segs: SegTable,
    atomic_addrs: Vec<u64>,
    lane_events: u32,
    max_lane_events: u32,
    stats: KernelStats,
    // Checked-execution shadow state (None ⇒ negligible overhead: one
    // branch per access).
    recorder: Option<Box<Recorder>>,
    // Profile collector, with the memsim L1 under memsim (None ⇒ same
    // no-op guarantee as `recorder`).
    prof: Option<Box<BlockProfile>>,
    label: &'static str,
    /// Ordered program region: bumped at `parallel_for` boundaries and
    /// block barriers. Accesses in different regions never race.
    region: u32,
    /// Block-level barrier epoch (reporting context).
    epoch: u32,
    /// Item index of the lane currently executing, or [`SCALAR_LANE`].
    cur_lane: u32,
    /// Lane-barrier count of the current lane within this `parallel_for`.
    lane_phase: u32,
    /// Lane-barrier count the first completed lane of this `parallel_for`
    /// reached; later lanes must match or the barrier diverged.
    expected_phase: Option<u32>,
    /// Highest lane-barrier count any lane of this `parallel_for` reached
    /// (its barrier cost is charged once per phase at the pf boundary).
    pf_max_phase: u32,
}

impl BlockCtx {
    pub(crate) fn new(
        dev: DeviceConfig,
        block_id: usize,
        record: bool,
        profile: bool,
        cache: Option<CacheConfig>,
        segs: SegTable,
    ) -> Self {
        Self {
            dev,
            block_id,
            compute_cycles: 0.0,
            mem_cycles: 0.0,
            atomic_cycles: 0.0,
            committed_cycles: 0.0,
            segs,
            atomic_addrs: Vec::with_capacity(64),
            lane_events: 0,
            max_lane_events: 0,
            stats: KernelStats::default(),
            recorder: record.then(|| Box::new(Recorder::new(block_id))),
            prof: profile.then(|| Box::new(BlockProfile::new(cache.as_ref()))),
            label: "",
            region: 0,
            epoch: 0,
            cur_lane: SCALAR_LANE,
            lane_phase: 0,
            expected_phase: None,
            pf_max_phase: 0,
        }
    }

    /// This block's id within the launch grid.
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Tags subsequent accesses with a kernel-phase label; racecheck
    /// diagnostics carry it so a finding points into the kernel, not just
    /// at the launch. Cost-free.
    pub fn label(&mut self, label: &'static str) {
        self.label = label;
        if let Some(p) = &mut self.prof {
            p.set_label(label, &self.stats);
        }
    }

    /// The device this block runs on.
    pub fn device(&self) -> &DeviceConfig {
        &self.dev
    }

    /// Executes `f(lane, i)` for every `i in 0..n`, mapped onto warps of
    /// `warp_size` lanes in lockstep. This is the `do in parallel` of the
    /// paper's Algorithms 3–8.
    pub fn parallel_for<F: FnMut(&mut Lane<'_>, usize)>(&mut self, n: usize, mut f: F) {
        self.begin_lanes();
        let ws = self.dev.warp_size;
        let mut base = 0usize;
        while base < n {
            let end = (base + ws).min(n);
            self.begin_warp();
            for i in base..end {
                self.run_lane(i, &mut f);
            }
            self.end_warp();
            base = end;
        }
        self.end_lanes();
    }

    /// A `parallel_for` over the `n` items of `sweep` in which lane `i`
    /// runs `f(lane, i)` where `diverges(i)` holds and is otherwise the
    /// uniform lane `sweep` describes. Charges, profile counts, memsim
    /// requests, racecheck records and buffer contents are exactly those
    /// of a `parallel_for` whose closure ran the uniform accesses itself
    /// (see the module docs). Returns the number of divergent lanes.
    ///
    /// `diverges` is evaluated for all lanes of a warp before any of them
    /// runs, so it must not depend on what the sweep's lanes write.
    pub fn sweep<P, F>(&mut self, sweep: &Sweep<'_>, mut diverges: P, mut f: F) -> usize
    where
        P: FnMut(usize) -> bool,
        F: FnMut(&mut Lane<'_>, usize),
    {
        self.begin_lanes();
        let ws = self.dev.warp_size;
        let mut odd = Vec::new();
        let mut divergent = 0usize;
        let mut base = 0usize;
        while base < sweep.n {
            let end = (base + ws).min(sweep.n);
            odd.clear();
            odd.extend((base..end).filter(|&i| diverges(i)));
            divergent += odd.len();
            // With no divergent lane, and no two columns on one buffer,
            // every segment of the warp's single run is new to the warp.
            let fresh = odd.is_empty() && !sweep.shared;
            self.begin_warp();
            let mut run = base;
            for &i in &odd {
                self.uniform_lanes(sweep, run..i, false);
                self.run_lane(i, &mut f);
                run = i + 1;
            }
            self.uniform_lanes(sweep, run..end, fresh);
            self.end_warp();
            base = end;
        }
        self.end_lanes();
        divergent
    }

    /// Opens the ordered region of a `parallel_for` or sweep.
    fn begin_lanes(&mut self) {
        self.region += 1;
        self.expected_phase = None;
        self.pf_max_phase = 0;
    }

    /// Runs lane `i` of the current warp as a closure.
    #[inline]
    fn run_lane<F: FnMut(&mut Lane<'_>, usize)>(&mut self, i: usize, f: &mut F) {
        self.lane_events = 0;
        self.cur_lane = i as u32;
        self.lane_phase = 0;
        let mut lane = Lane { block: self };
        f(&mut lane, i);
        self.stats.lane_events += u64::from(self.lane_events);
        self.max_lane_events = self.max_lane_events.max(self.lane_events);
        if let Some(p) = &mut self.prof {
            p.lane_retired(self.lane_events);
        }
        self.end_lane(i);
    }

    /// Runs the uniform lanes `lanes` of the current warp: charges them,
    /// records them under checking, and applies their writes. `fresh`
    /// says no segment of the run can already be in the warp's set, which
    /// then stays untouched: no later lane of the warp looks.
    fn uniform_lanes(&mut self, sweep: &Sweep<'_>, lanes: Range<usize>, fresh: bool) {
        if lanes.is_empty() {
            return;
        }
        let events = sweep.cols.len() as u32;
        self.stats.lane_events += lanes.len() as u64 * u64::from(events);
        self.max_lane_events = self.max_lane_events.max(events);
        if let Some(p) = &mut self.prof {
            p.lanes_retired(lanes.len() as u32, events);
            for col in &sweep.cols {
                for v in lanes.clone() {
                    p.touch_seg(col.addr(v) >> 5);
                }
            }
        }
        // A uniform lane reaches no lane barrier.
        if self.expected_phase.is_some_and(|e| e != 0) {
            self.lane_phase = 0;
            for v in lanes.clone() {
                self.end_lane(v);
            }
        } else {
            self.expected_phase = Some(0);
        }
        if self.prof.as_ref().is_some_and(|p| p.memsim()) {
            self.charge_lane_major(sweep, lanes.clone(), fresh);
        } else {
            // Without memsim only which segments are new matters, not the
            // order of first touches: a column's segments over the run are
            // one range of ids.
            let (mut segs, mut mem) = (0u64, self.mem_cycles);
            for col in &sweep.cols {
                let first = col.addr(lanes.start) >> 5;
                let last = col.addr(lanes.end - 1) >> 5;
                for seg in first..=last {
                    if fresh || self.segs.insert(seg) {
                        segs += 1;
                        mem += self.dev.seg_cycles;
                    }
                }
            }
            self.stats.mem_segments += segs;
            self.mem_cycles = mem;
        }
        if let Some(rec) = &mut self.recorder {
            for v in lanes.clone() {
                for col in &sweep.cols {
                    rec.note_buffer(col.buf_base, col.buffer, col.buf_len);
                    rec.accesses.push(AccessRecord {
                        base: col.buf_base,
                        index: (col.start + v) as u32,
                        kind: col.kind,
                        lane: v as u32,
                        region: self.region,
                        phase: 0,
                        epoch: self.epoch,
                        label: self.label,
                        value: col.write.as_ref().map_or(0, |w| w.bits(v)),
                    });
                }
            }
        }
        for col in &sweep.cols {
            if let Some(w) = &col.write {
                w.apply(lanes.start, lanes.len());
            }
        }
    }

    /// Charges the segments of the uniform lanes `lanes` in the order a
    /// lane loop first touches them (lane, then column), so that memsim
    /// sees its L1 requests in that order.
    fn charge_lane_major(&mut self, sweep: &Sweep<'_>, lanes: Range<usize>, fresh: bool) {
        // `next[c]`: the first lane at or after which column `c` enters a
        // segment it has not yet touched in this run.
        let mut next = vec![lanes.start; sweep.cols.len()];
        loop {
            let v = next.iter().copied().min().unwrap_or(lanes.end);
            if v >= lanes.end {
                break;
            }
            for (c, col) in sweep.cols.iter().enumerate() {
                if next[c] == v {
                    let addr = col.addr(v);
                    let seg = addr >> 5;
                    if fresh || self.segs.insert(seg) {
                        self.charge_segment(addr, col.buffer);
                    }
                    // Cells are `width`-aligned and `width` divides 32, so
                    // the segment's remaining bytes hold whole cells.
                    next[c] = v + (((seg + 1) * 32 - addr) >> col.width.trailing_zeros()) as usize;
                }
            }
        }
    }

    /// Closes the ordered region of a `parallel_for` or sweep.
    fn end_lanes(&mut self) {
        self.cur_lane = SCALAR_LANE;
        // Lane-level barriers sync the whole block: charged once per phase
        // reached, like block barriers (no-op when the kernel used none).
        if self.pf_max_phase > 0 {
            self.commit_interval();
            self.committed_cycles += self.pf_max_phase as f64 * self.dev.barrier_cycles;
            self.stats.barriers += u64::from(self.pf_max_phase);
        }
        self.region += 1;
    }

    /// Barrier-divergence detection at lane retirement: every lane of one
    /// `parallel_for` must reach the same number of [`Lane::barrier`]s.
    fn end_lane(&mut self, i: usize) {
        self.pf_max_phase = self.pf_max_phase.max(self.lane_phase);
        match self.expected_phase {
            None => self.expected_phase = Some(self.lane_phase),
            Some(e) if e == self.lane_phase => {}
            Some(e) => {
                if let Some(rec) = &mut self.recorder {
                    rec.divergence.push(DivergenceRecord {
                        lane: i as u32,
                        got: self.lane_phase,
                        expected: e,
                        label: self.label,
                    });
                } else {
                    panic!(
                        "barrier divergence in block {}{}: lane {} reached {} lane-barrier(s) \
                         where earlier lanes reached {} — a real GPU would deadlock \
                         (run under DYNBC_RACECHECK=1 for a structured report)",
                        self.block_id,
                        if self.label.is_empty() {
                            String::new()
                        } else {
                            format!(" ({})", self.label)
                        },
                        i,
                        self.lane_phase,
                        e
                    );
                }
            }
        }
    }

    /// Block-wide barrier: commits the current interval at
    /// `max(compute, memory) + atomics` and pays the synchronization cost.
    pub fn barrier(&mut self) {
        self.commit_interval();
        self.committed_cycles += self.dev.barrier_cycles;
        self.stats.barriers += 1;
        self.epoch += 1;
        self.region += 1;
    }

    /// Shadow-state hook: records the access when checking is on. Returns
    /// `true` when the operation should proceed — always, except an
    /// out-of-bounds access under checking, which is recorded as a
    /// diagnostic and suppressed so the analysis can continue.
    #[inline]
    fn record_access<T: Copy>(
        &mut self,
        buf: &GpuBuffer<T>,
        i: usize,
        kind: AccessKind,
        value: u64,
    ) -> bool {
        let Some(rec) = &mut self.recorder else {
            return true;
        };
        rec.note_buffer(buf.base, buf.name(), buf.len());
        if i >= buf.len() {
            rec.oob.push(OobRecord {
                base: buf.base,
                index: i,
                len: buf.len(),
                lane: self.cur_lane,
                kind,
                label: self.label,
            });
            return false;
        }
        rec.accesses.push(AccessRecord {
            base: buf.base,
            index: i as u32,
            kind,
            lane: self.cur_lane,
            region: self.region,
            phase: self.lane_phase,
            epoch: self.epoch,
            label: self.label,
            value,
        });
        true
    }

    /// Single-thread scalar read (e.g. one lane reading a queue length into
    /// shared memory). Charged as a one-lane warp.
    pub fn read_scalar<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T {
        self.begin_warp();
        self.lane_events = 0;
        self.touch(buf.addr(i), buf.name());
        self.stats.lane_events += u64::from(self.lane_events);
        self.max_lane_events = self.lane_events;
        if let Some(p) = &mut self.prof {
            p.lane_retired(self.lane_events);
        }
        self.end_warp();
        if self.record_access(buf, i, AccessKind::Read, 0) {
            buf.get(i)
        } else {
            T::from_raw_bits(0)
        }
    }

    /// Single-thread scalar write, charged as a one-lane warp.
    pub fn write_scalar<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize, v: T) {
        self.begin_warp();
        self.lane_events = 0;
        self.touch(buf.addr(i), buf.name());
        self.stats.lane_events += u64::from(self.lane_events);
        self.max_lane_events = self.lane_events;
        if let Some(p) = &mut self.prof {
            p.lane_retired(self.lane_events);
        }
        self.end_warp();
        if self.record_access(buf, i, AccessKind::Write, v.to_raw_bits()) {
            buf.set(i, v);
        }
    }

    fn begin_warp(&mut self) {
        self.segs.clear();
        self.atomic_addrs.clear();
        self.max_lane_events = 0;
        if let Some(p) = &mut self.prof {
            p.begin_warp();
        }
    }

    fn end_warp(&mut self) {
        self.stats.warp_execs += 1;
        self.compute_cycles +=
            self.dev.warp_base_cycles + self.dev.event_instr_cycles * self.max_lane_events as f64;
        if !self.atomic_addrs.is_empty() {
            self.atomic_addrs.sort_unstable();
            let mut run = 1u64;
            let mut total_conflicts = 0u64;
            for w in self.atomic_addrs.windows(2) {
                if w[0] == w[1] {
                    run += 1;
                } else {
                    total_conflicts += run - 1;
                    run = 1;
                }
            }
            total_conflicts += run - 1;
            let n_ops = self.atomic_addrs.len() as u64;
            self.atomic_cycles += n_ops as f64 * self.dev.atomic_cycles
                + total_conflicts as f64 * self.dev.atomic_conflict_cycles;
            self.stats.atomic_conflicts += total_conflicts;
        }
        if let Some(p) = &mut self.prof {
            // `atomic_addrs` is sorted by the conflict pass above (or
            // empty, which is vacuously sorted).
            p.end_warp(self.max_lane_events, self.dev.warp_size, &self.atomic_addrs);
        }
    }

    /// Charges one lane access. Touch #k of a lane that hits the segment
    /// touch #k of the previous lane hit is a repeat within the warp:
    /// already in the set and already charged, so it stops at the memo.
    /// The profiler sees every access, so it always takes the set.
    #[inline]
    fn touch(&mut self, addr: u64, buffer: &'static str) {
        let ordinal = self.lane_events as usize;
        self.lane_events += 1;
        if self.prof.is_none() && self.segs.memo_hit(ordinal, addr >> 5) {
            return;
        }
        self.touch_set(ordinal, addr, buffer);
    }

    /// The dedup path of [`Self::touch`]: charges the segment if it is
    /// new to this warp.
    #[inline(never)]
    fn touch_set(&mut self, ordinal: usize, addr: u64, buffer: &'static str) {
        if self.segs.insert_touch(ordinal, addr >> 5) {
            self.charge_segment(addr, buffer);
        }
        if let Some(p) = &mut self.prof {
            p.touch_seg(addr >> 5);
        }
    }

    /// Charges a segment new to this warp, first touched at `addr`.
    #[inline]
    fn charge_segment(&mut self, addr: u64, buffer: &'static str) {
        self.stats.mem_segments += 1;
        self.mem_cycles += self.dev.seg_cycles;
        // Memsim sees exactly the transactions the cost model charges:
        // one L1 request per distinct 32-byte segment per warp.
        if let Some(p) = &mut self.prof {
            p.l1_request(addr, buffer);
        }
    }

    fn commit_interval(&mut self) {
        self.committed_cycles += self.compute_cycles.max(self.mem_cycles) + self.atomic_cycles;
        self.compute_cycles = 0.0;
        self.mem_cycles = 0.0;
        self.atomic_cycles = 0.0;
    }

    /// Finalizes the block: commits the trailing interval and returns
    /// `(cycles, stats)` (test convenience; launches use
    /// [`Self::finish_full`]).
    #[cfg(test)]
    pub(crate) fn finish(self) -> (f64, KernelStats) {
        let ((cycles, stats, _, _), _) = self.finish_full();
        (cycles, stats)
    }

    /// Finalization that also surrenders the shadow logs (checked mode's
    /// access records, profiling's counter buckets and memsim's L1-miss
    /// stream) and hands back the segment table for the worker's next
    /// block.
    pub(crate) fn finish_full(mut self) -> (BlockOut, SegTable) {
        self.commit_interval();
        let buckets = self.prof.take().map(|p| p.finish(&self.stats));
        let out = (
            self.committed_cycles,
            self.stats,
            self.recorder.take(),
            buckets,
        );
        (out, self.segs)
    }

    /// Cycles committed so far (testing/diagnostics; excludes the open
    /// interval).
    pub fn committed_cycles(&self) -> f64 {
        self.committed_cycles
    }

    /// Work counters so far.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }
}

/// The uniform lanes of a [`BlockCtx::sweep`] over `n` items: lane `v`
/// makes the same ordered column accesses, each to `buf[base + v]` of its
/// column. Built once per sweep, it is both the charge description and the
/// functional effect of those lanes, with instruments on or off.
///
/// Column accesses must be in bounds for all `n` lanes, and a written
/// column must not overlap another column on the same buffer; both are
/// checked as columns are added, and a violation panics, with or without
/// checked execution.
pub struct Sweep<'a> {
    n: usize,
    cols: Vec<Column<'a>>,
    /// Two columns are on one buffer (their segments may coincide).
    shared: bool,
}

/// A read column of a [`Sweep`]: what [`Sweep::copy`] stores.
#[derive(Clone, Copy)]
pub struct Col<'a, T: Copy> {
    buf: &'a GpuBuffer<T>,
    base: usize,
}

/// One column access of a uniform lane.
struct Column<'a> {
    /// Address of lane 0's cell, and the lane stride in bytes.
    addr0: u64,
    width: u64,
    buffer: &'static str,
    /// Identity of the buffer (addresses alone repeat across devices).
    buf_id: usize,
    buf_base: u64,
    buf_len: usize,
    /// Index of lane 0's cell.
    start: usize,
    kind: AccessKind,
    write: Option<Box<dyn ColumnWrite + 'a>>,
}

impl Column<'_> {
    #[inline]
    fn addr(&self, v: usize) -> u64 {
        self.addr0 + v as u64 * self.width
    }
}

/// Identity of a buffer, for telling columns on one buffer apart.
fn buffer_id<T: Copy>(buf: &GpuBuffer<T>) -> usize {
    std::ptr::from_ref(buf) as usize
}

/// The functional side of a written [`Sweep`] column.
trait ColumnWrite {
    /// Applies the writes of lanes `first..first + count`.
    fn apply(&self, first: usize, count: usize);
    /// Raw bits lane `v` writes (checked execution records them).
    fn bits(&self, v: usize) -> u64;
}

struct FillWrite<'a, T: Copy> {
    buf: &'a GpuBuffer<T>,
    base: usize,
    value: T,
}

impl<T: DeviceValue> ColumnWrite for FillWrite<'_, T> {
    fn apply(&self, first: usize, count: usize) {
        self.buf.fill_range(self.base + first, count, self.value);
    }

    fn bits(&self, _: usize) -> u64 {
        self.value.to_raw_bits()
    }
}

struct CopyWrite<'a, T: Copy> {
    buf: &'a GpuBuffer<T>,
    base: usize,
    src: Col<'a, T>,
}

impl<T: DeviceValue> ColumnWrite for CopyWrite<'_, T> {
    fn apply(&self, first: usize, count: usize) {
        self.buf.copy_range(
            self.base + first,
            self.src.buf,
            self.src.base + first,
            count,
        );
    }

    fn bits(&self, v: usize) -> u64 {
        self.src.buf.get(self.src.base + v).to_raw_bits()
    }
}

impl<'a> Sweep<'a> {
    /// An empty description of `n` uniform lanes.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            cols: Vec::new(),
            shared: false,
        }
    }

    /// Each lane `v` reads `buf[base + v]`.
    pub fn read<T: DeviceValue>(&mut self, buf: &'a GpuBuffer<T>, base: usize) -> Col<'a, T> {
        self.push(buf, base, AccessKind::Read, None);
        Col { buf, base }
    }

    /// Each lane `v` writes `value` to `buf[base + v]`.
    pub fn fill<T: DeviceValue + 'a>(&mut self, buf: &'a GpuBuffer<T>, base: usize, value: T) {
        let write = FillWrite { buf, base, value };
        self.push(buf, base, AccessKind::Write, Some(Box::new(write)));
    }

    /// Each lane `v` writes the value it read from `src` to
    /// `buf[base + v]`. `src` must be a column of this sweep.
    pub fn copy<T: DeviceValue + 'a>(
        &mut self,
        buf: &'a GpuBuffer<T>,
        base: usize,
        src: Col<'a, T>,
    ) {
        assert!(
            self.cols.iter().any(|c| c.kind == AccessKind::Read
                && c.buf_id == buffer_id(src.buf)
                && c.start == src.base),
            "sweep copy into `{}` from a column this sweep does not read",
            buf.name()
        );
        let write = CopyWrite { buf, base, src };
        self.push(buf, base, AccessKind::Write, Some(Box::new(write)));
    }

    fn push<T: Copy>(
        &mut self,
        buf: &GpuBuffer<T>,
        base: usize,
        kind: AccessKind,
        write: Option<Box<dyn ColumnWrite + 'a>>,
    ) {
        let n = self.n;
        let width = std::mem::size_of::<T>();
        assert!(
            width.is_power_of_two() && width <= 32,
            "sweep cells must tile 32-byte segments"
        );
        if n > 0 {
            assert!(
                base + n <= buf.len(),
                "sweep column `{}`[{base}..{}] out of bounds (len {})",
                buf.name(),
                base + n,
                buf.len()
            );
            for c in &self.cols {
                let writes = kind == AccessKind::Write || c.kind == AccessKind::Write;
                assert!(
                    c.buf_id != buffer_id(buf)
                        || !writes
                        || base + n <= c.start
                        || c.start + n <= base,
                    "sweep columns `{}`[{}..] and [{base}..] overlap, and one is written",
                    buf.name(),
                    c.start
                );
            }
        }
        self.shared |= self.cols.iter().any(|c| c.buf_id == buffer_id(buf));
        self.cols.push(Column {
            addr0: buf.addr(base),
            width: width as u64,
            buffer: buf.name(),
            buf_id: buffer_id(buf),
            buf_base: buf.base,
            buf_len: buf.len(),
            start: base,
            kind,
            write,
        });
    }
}

/// One SIMT lane inside a `parallel_for`. All device-memory traffic flows
/// through these methods, so functional behaviour and cost accounting are
/// inseparable.
pub struct Lane<'a> {
    block: &'a mut BlockCtx,
}

impl Lane<'_> {
    /// Global-memory read of `buf[i]`.
    #[inline]
    pub fn read<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T {
        self.block.touch(buf.addr(i), buf.name());
        if self.block.record_access(buf, i, AccessKind::Read, 0) {
            buf.get(i)
        } else {
            T::from_raw_bits(0)
        }
    }

    /// Global-memory write of `buf[i] = v`.
    #[inline]
    pub fn write<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize, v: T) {
        self.block.touch(buf.addr(i), buf.name());
        if self
            .block
            .record_access(buf, i, AccessKind::Write, v.to_raw_bits())
        {
            buf.set(i, v);
        }
    }

    /// `volatile`-annotated read: CUDA's idiom for reading a cell that a
    /// *benign* intra-block race may be writing concurrently. Identical
    /// cost and functional behaviour to [`Lane::read`]; racecheck exempts
    /// it from intra-block hazard reporting (cross-block checks still
    /// apply — no annotation makes a cross-block plain race safe).
    #[inline]
    pub fn read_volatile<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize) -> T {
        self.block.touch(buf.addr(i), buf.name());
        if self
            .block
            .record_access(buf, i, AccessKind::VolatileRead, 0)
        {
            buf.get(i)
        } else {
            T::from_raw_bits(0)
        }
    }

    /// `volatile`-annotated write: marks a write the paper proves benign
    /// when raced (same-value test-then-set, duplicate frontier
    /// relocation). Identical cost to [`Lane::write`]; exempt from
    /// intra-block hazard reporting, still a write for cross-block checks.
    #[inline]
    pub fn write_volatile<T: DeviceValue>(&mut self, buf: &GpuBuffer<T>, i: usize, v: T) {
        self.block.touch(buf.addr(i), buf.name());
        if self
            .block
            .record_access(buf, i, AccessKind::VolatileWrite, v.to_raw_bits())
        {
            buf.set(i, v);
        }
    }

    /// Lane-level `__syncthreads()`: every lane of the enclosing
    /// `parallel_for` must reach it the same number of times, or the
    /// barrier *diverged* — a deadlock on real hardware. Unchecked mode
    /// panics at the first divergent lane; checked mode records a
    /// [`BarrierDivergence`](crate::checker::DiagClass::BarrierDivergence)
    /// diagnostic. Accesses separated by a lane barrier are ordered for
    /// race analysis, and each phase is charged one block-barrier cost.
    #[inline]
    pub fn barrier(&mut self) {
        self.block.lane_phase += 1;
    }

    /// Charges `units` of pure-arithmetic lane work (no memory traffic):
    /// the σ̂/σ divides and multiply-adds of the dependency kernels.
    #[inline]
    pub fn compute(&mut self, units: u32) {
        self.block.lane_events += units;
    }

    /// Profiler annotation: this lane examined `n` edges (loop iterations
    /// over arcs or adjacency entries). Free when profiling is off — one
    /// predictable branch, no cost-model effect.
    #[inline]
    pub fn prof_edges_scanned(&mut self, n: u32) {
        if let Some(p) = &mut self.block.prof {
            p.cur_mut().edges_scanned += u64::from(n);
        }
    }

    /// Profiler annotation: `n` of the scanned edges passed the frontier
    /// test and produced useful work. No cost-model effect.
    #[inline]
    pub fn prof_edges_passed(&mut self, n: u32) {
        if let Some(p) = &mut self.block.prof {
            p.cur_mut().edges_passed += u64::from(n);
        }
    }

    /// Profiler annotation: this lane pushed `n` entries onto a frontier
    /// queue (node-parallel pipeline). No cost-model effect.
    #[inline]
    pub fn prof_queue_push(&mut self, n: u32) {
        if let Some(p) = &mut self.block.prof {
            p.cur_mut().queue_pushes += u64::from(n);
        }
    }

    /// Profiler annotation: this lane performed `n` dedup pipeline steps
    /// (bitonic compare-exchange, scan, or scatter). No cost-model effect.
    #[inline]
    pub fn prof_dedup_ops(&mut self, n: u32) {
        if let Some(p) = &mut self.block.prof {
            p.cur_mut().dedup_ops += u64::from(n);
        }
    }

    /// `atomicAdd` on an `f64` cell; returns the previous value.
    ///
    /// Implemented as a CAS loop on the bit pattern (like CUDA's
    /// pre-Pascal `atomicAdd(double*)`), so concurrent blocks never lose
    /// updates. Note that the *sum* still depends on arrival order when
    /// blocks contend on one cell; for bit-deterministic cross-block
    /// accumulation the engines use per-block delta slabs reduced in block
    /// order instead of contending here.
    #[inline]
    pub fn atomic_add_f64(&mut self, buf: &GpuBuffer<f64>, i: usize, v: f64) -> f64 {
        self.record_atomic(buf.addr(i), buf.name());
        if !self.block.record_access(
            buf,
            i,
            AccessKind::Atomic(AtomicKind::AddF64),
            v.to_raw_bits(),
        ) {
            return 0.0;
        }
        let cell = buf.atomic_bits(i);
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = f64::from_bits(cur) + v;
            match cell.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }

    /// `atomicAdd` on a `u32` cell; returns the previous value (the queue
    /// tail-allocation idiom).
    #[inline]
    pub fn atomic_add_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32 {
        self.record_atomic(buf.addr(i), buf.name());
        if !self
            .block
            .record_access(buf, i, AccessKind::Atomic(AtomicKind::AddU32), u64::from(v))
        {
            return 0;
        }
        buf.atomic(i).fetch_add(v, Ordering::Relaxed)
    }

    /// `atomicMax` on a `u32` cell; returns the previous value.
    #[inline]
    pub fn atomic_max_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32 {
        self.record_atomic(buf.addr(i), buf.name());
        if !self
            .block
            .record_access(buf, i, AccessKind::Atomic(AtomicKind::MaxU32), u64::from(v))
        {
            return 0;
        }
        buf.atomic(i).fetch_max(v, Ordering::Relaxed)
    }

    /// `atomicMin` on a `u32` cell; returns the previous value.
    #[inline]
    pub fn atomic_min_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, v: u32) -> u32 {
        self.record_atomic(buf.addr(i), buf.name());
        if !self
            .block
            .record_access(buf, i, AccessKind::Atomic(AtomicKind::MinU32), u64::from(v))
        {
            return 0;
        }
        buf.atomic(i).fetch_min(v, Ordering::Relaxed)
    }

    /// `atomicCAS` on a `u32` cell; returns the previous value, storing
    /// `new` only if it equalled `expect` (the BFS frontier-discovery
    /// idiom: CAS the distance from ∞).
    #[inline]
    pub fn atomic_cas_u32(&mut self, buf: &GpuBuffer<u32>, i: usize, expect: u32, new: u32) -> u32 {
        self.record_atomic(buf.addr(i), buf.name());
        if !self.block.record_access(
            buf,
            i,
            AccessKind::Atomic(AtomicKind::CasU32),
            u64::from(new),
        ) {
            return 0;
        }
        match buf
            .atomic(i)
            .compare_exchange(expect, new, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(old) | Err(old) => old,
        }
    }

    /// `atomicCAS` on a `u8` cell (the `t[v]` state flags); returns the
    /// previous value, storing `new` only if it equalled `expect`.
    #[inline]
    pub fn atomic_cas_u8(&mut self, buf: &GpuBuffer<u8>, i: usize, expect: u8, new: u8) -> u8 {
        self.record_atomic(buf.addr(i), buf.name());
        if !self.block.record_access(
            buf,
            i,
            AccessKind::Atomic(AtomicKind::CasU8),
            u64::from(new),
        ) {
            return 0;
        }
        match buf
            .atomic(i)
            .compare_exchange(expect, new, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(old) | Err(old) => old,
        }
    }

    #[inline]
    fn record_atomic(&mut self, addr: u64, buffer: &'static str) {
        self.block.touch(addr, buffer);
        self.block.atomic_addrs.push(addr);
        self.block.stats.atomics += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;

    /// A buffer at the start of a fresh device's address space.
    fn alloc<T: Copy>(len: usize, init: T) -> GpuBuffer<T> {
        crate::Gpu::new(DeviceConfig::test_tiny()).alloc(len, init)
    }

    /// A segment table covering the first MiB of a device's addresses,
    /// where every buffer of these tests lies.
    fn segs() -> SegTable {
        let mut segs = SegTable::default();
        segs.cover(1 << 20);
        segs
    }

    fn ctx() -> BlockCtx {
        BlockCtx::new(DeviceConfig::test_tiny(), 0, false, false, None, segs())
    }

    #[test]
    fn parallel_for_covers_all_items_in_order() {
        let mut b = ctx();
        let buf = alloc::<u32>(10, 0);
        b.parallel_for(10, |lane, i| {
            lane.write(&buf, i, i as u32 + 1);
        });
        assert_eq!(buf.to_vec(), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        // warp_size = 4 → ceil(10/4) = 3 warps.
        assert_eq!(b.stats().warp_execs, 3);
        assert_eq!(b.stats().lane_events, 10);
    }

    #[test]
    fn coalesced_warp_touches_one_segment() {
        let mut b = ctx();
        let buf = alloc::<u32>(8, 7);
        // 4 consecutive u32 = 16 bytes -> exactly one 32-byte segment
        // (base is 256-aligned).
        b.parallel_for(4, |lane, i| {
            lane.read(&buf, i);
        });
        assert_eq!(b.stats().mem_segments, 1);
    }

    #[test]
    fn scattered_warp_touches_many_segments() {
        let mut b = ctx();
        let buf = alloc::<u32>(1024, 0);
        // Stride 32 elements = 128 bytes apart: every lane its own segment.
        b.parallel_for(4, |lane, i| {
            lane.read(&buf, i * 32);
        });
        assert_eq!(b.stats().mem_segments, 4);
    }

    #[test]
    fn lockstep_charges_longest_lane() {
        let dev = DeviceConfig::test_tiny();
        // Warp A: every lane does 1 event. Warp B: one lane does 4 events.
        let mut a = BlockCtx::new(dev, 0, false, false, None, segs());
        let buf = alloc::<u32>(64, 0);
        a.parallel_for(4, |lane, i| {
            lane.read(&buf, i);
        });
        let (cycles_a, _) = a.finish();

        let mut b = BlockCtx::new(dev, 0, false, false, None, segs());
        b.parallel_for(4, |lane, i| {
            if i == 0 {
                for j in 0..4 {
                    lane.read(&buf, j * 16);
                }
            }
        });
        let (cycles_b, _) = b.finish();
        assert!(
            cycles_b > cycles_a,
            "imbalanced warp ({cycles_b}) must cost more than balanced ({cycles_a})"
        );
    }

    #[test]
    fn atomics_functional_and_conflicts_counted() {
        let mut b = ctx();
        let buf = alloc::<u32>(1, 0);
        // 4 lanes atomically bump the same counter: 3 conflicts in the warp.
        let mut olds = Vec::new();
        b.parallel_for(4, |lane, _| {
            olds.push(lane.atomic_add_u32(&buf, 0, 1));
        });
        assert_eq!(buf.host_get(0), 4);
        assert_eq!(olds, [0, 1, 2, 3]);
        assert_eq!(b.stats().atomics, 4);
        assert_eq!(b.stats().atomic_conflicts, 3);
    }

    #[test]
    fn atomics_on_distinct_addresses_do_not_conflict() {
        let mut b = ctx();
        let buf = alloc::<u32>(4, 0);
        b.parallel_for(4, |lane, i| {
            lane.atomic_add_u32(&buf, i, 1);
        });
        assert_eq!(b.stats().atomics, 4);
        assert_eq!(b.stats().atomic_conflicts, 0);
    }

    #[test]
    fn cas_semantics() {
        let mut b = ctx();
        let flags = alloc::<u8>(1, 0);
        let mut results = Vec::new();
        b.parallel_for(3, |lane, _| {
            results.push(lane.atomic_cas_u8(&flags, 0, 0, 2));
        });
        // Only the first CAS succeeds (sees 0); later lanes see 2.
        assert_eq!(results, [0, 2, 2]);
        assert_eq!(flags.host_get(0), 2);
    }

    #[test]
    fn atomic_max_semantics() {
        let mut b = ctx();
        let buf = alloc::<u32>(1, 5);
        b.parallel_for(4, |lane, i| {
            lane.atomic_max_u32(&buf, 0, i as u32 * 3);
        });
        assert_eq!(buf.host_get(0), 9);
    }

    #[test]
    fn barrier_commits_max_of_compute_and_memory() {
        let dev = DeviceConfig::test_tiny();
        let mut b = BlockCtx::new(dev, 0, false, false, None, segs());
        let buf = alloc::<u32>(256, 0);
        // One warp, 4 lanes, one scattered read each: compute = base 1 +
        // 1 event * 1 = 2; mem = 4 segments * 2 = 8. Interval = max = 8.
        b.parallel_for(4, |lane, i| {
            lane.read(&buf, i * 32);
        });
        b.barrier();
        let expected = 8.0 + dev.barrier_cycles;
        assert!(
            (b.committed_cycles() - expected).abs() < 1e-9,
            "got {} want {expected}",
            b.committed_cycles()
        );
    }

    #[test]
    fn scalar_accessors_round_trip_and_charge() {
        let mut b = ctx();
        let buf = alloc::<u32>(4, 0);
        b.write_scalar(&buf, 2, 42);
        assert_eq!(b.read_scalar(&buf, 2), 42);
        assert_eq!(b.stats().warp_execs, 2);
        assert_eq!(b.stats().mem_segments, 2);
    }

    fn gpu() -> crate::Gpu {
        crate::Gpu::new(DeviceConfig::test_tiny())
    }

    #[test]
    fn next_warp_charges_every_segment_again() {
        let mut g = gpu();
        let buf = g.alloc::<u32>(3000 * 8, 0);
        // Two warps of 4 lanes; the first lane of each touches the same
        // 3000 distinct segments (the second in reverse), which no bit
        // left over from the first warp may hide.
        let kernel = |block: &mut BlockCtx, _| {
            block.parallel_for(8, |lane, i| {
                if i % 4 == 0 {
                    for j in 0..3000 {
                        let j = if i == 0 { j } else { 2999 - j };
                        lane.read(&buf, j * 8);
                    }
                }
            });
        };
        assert_eq!(g.launch(1, kernel).stats.mem_segments, 6000);
        // The next launch reuses the table and charges them all again.
        assert_eq!(g.launch(1, kernel).stats.mem_segments, 6000);
    }

    #[test]
    fn a_buffer_allocated_between_launches_is_charged_like_one_allocated_first() {
        // Reads both buffers: element `i` of each, and one scattered cell
        // per lane, so warps hit shared and distinct segments.
        fn kernel<'a>(
            old: &'a GpuBuffer<u32>,
            new: &'a GpuBuffer<f64>,
        ) -> impl Fn(&mut BlockCtx, usize) + Sync + 'a {
            move |block, b| {
                block.parallel_for(64, |lane, i| {
                    lane.read(old, i);
                    lane.read(new, (i * 37 + b) % new.len());
                    lane.read(new, i / 2);
                });
            }
        }
        let mut late = gpu();
        let old = late.alloc::<u32>(64, 0);
        late.launch(2, |block, _| {
            block.parallel_for(64, |lane, i| {
                lane.read(&old, i);
            });
        });
        // Lies wholly above the address the first launch covered.
        let new = late.alloc::<f64>(4096, 0.0);
        let got = late.launch(2, kernel(&old, &new));

        let mut early = gpu();
        let old = early.alloc::<u32>(64, 0);
        let new = early.alloc::<f64>(4096, 0.0);
        let want = early.launch(2, kernel(&old, &new));
        assert_eq!(got.stats, want.stats);
        assert_eq!(got.block_cycles, want.block_cycles);
    }

    #[test]
    fn out_of_bounds_reads_are_charged_their_segments() {
        let mut g = gpu();
        let buf = g.alloc::<u32>(8, 0);
        let (report, check) = g.launch_checked("oob", 1, |block, _| {
            block.parallel_for(8, |lane, i| {
                lane.read(&buf, i);
                // Far past the device's allocations: two segments a warp,
                // each read by two of its lanes.
                lane.read(&buf, (1 << 32) + (i % 2) * 8);
                // Past the end, but inside the buffer's 256-byte padding.
                lane.read(&buf, 9);
            });
        });
        assert_eq!(
            check.errors().count(),
            16,
            "every out-of-bounds read reported"
        );
        // Per warp: one segment in bounds, two far past the allocations
        // and one in the padding.
        assert_eq!(report.stats.mem_segments, 8);
    }

    #[test]
    fn sweep_charges_and_writes_like_the_lane_loop() {
        let run = |swept: bool| {
            let mut b = ctx();
            let src = alloc::<f64>(24, 0.0);
            let flags = alloc::<u8>(16, 0);
            for i in 0..24 {
                src.host_set(i, i as f64);
            }
            let diverges = |i: usize| i == 5;
            let odd = |lane: &mut Lane<'_>, i: usize| {
                let x = lane.read(&src, i + 1);
                lane.atomic_add_f64(&src, 0, x);
            };
            let divergent = if swept {
                let mut sweep = Sweep::new(10);
                let x = sweep.read(&src, 1);
                sweep.fill(&flags, 3, 7);
                sweep.copy(&src, 12, x);
                b.sweep(&sweep, diverges, odd)
            } else {
                b.parallel_for(10, |lane, i| {
                    if diverges(i) {
                        odd(lane, i);
                    } else {
                        let x = lane.read(&src, 1 + i);
                        lane.write(&flags, 3 + i, 7);
                        lane.write(&src, 12 + i, x);
                    }
                });
                1
            };
            let (cycles, stats) = b.finish();
            (
                cycles.to_bits(),
                stats,
                src.to_vec(),
                flags.to_vec(),
                divergent,
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn sweep_rejects_a_written_column_overlapping_another() {
        let buf = alloc::<u32>(16, 0);
        let mut sweep = Sweep::new(8);
        sweep.read(&buf, 0);
        sweep.fill(&buf, 4, 1);
    }

    #[test]
    fn repeated_segment_in_same_warp_counted_once() {
        let mut b = ctx();
        let buf = alloc::<u32>(64, 0);
        b.parallel_for(4, |lane, _| {
            lane.read(&buf, 0);
            lane.read(&buf, 1);
        });
        assert_eq!(b.stats().mem_segments, 1);
        assert_eq!(b.stats().lane_events, 8);
    }
}
