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
//! Every access is charged by `touch`. It dedups the access's segment in a
//! per-warp set (`SegSet`), behind a memo of the segment the previous
//! lane's touch #k hit (k counts the lane's events so far). A lane whose
//! touch #k hits that same segment stops at the memo, which is exact: the
//! memo only holds segments already in this warp's set, so a hit is never
//! the warp's first touch of its segment. The charged segments and cycles,
//! and memsim's L1 requests (one per first touch), are the same as when
//! every touch takes the set, which it does while the profiler is on,
//! because the profiler records every access.
//!
//! Within a block, execution is sequential and deterministic; parallelism
//! is *modeled*, never raced. Functionally, lanes see each other's writes
//! immediately, which is a superset of CUDA's intra-block visibility; the
//! kernels ported here only rely on races the paper itself proves benign.
//! Distinct blocks of one launch may run concurrently on host threads (see
//! [`Gpu::launch`](crate::Gpu::launch)); cross-block traffic must then
//! follow the sharing contract documented in [`crate::mem`].

use crate::cache::{BlockCache, BlockCacheOut, CacheConfig};
use crate::checker::{
    AccessKind, AccessRecord, AtomicKind, DivergenceRecord, OobRecord, Recorder, SCALAR_LANE,
};
use crate::device::DeviceConfig;
use crate::mem::{DeviceValue, GpuBuffer, ADDR_LIMIT};
use crate::profile::{BlockBuckets, BlockProfile};
use crate::stats::KernelStats;
use std::sync::atomic::Ordering;

/// Bits of a [`SegSet`] word that hold the segment id; the generation
/// takes the rest. Segment ids are byte addresses `>> 5`, so this covers
/// every address a device allocates (below `ADDR_LIMIT`).
const KEY_BITS: u32 = ADDR_LIMIT.trailing_zeros() - 5;
const KEY_MASK: u64 = (1 << KEY_BITS) - 1;

/// Touch ordinals the per-warp memo covers; a lane's later touches always
/// take the set.
const MEMO_ORDINALS: usize = 1024;

/// Open-addressed set of the 32-byte segment ids one warp has touched,
/// cleared per warp via a generation counter (no rehash/zeroing in the
/// hot path), plus the warp's previous-lane memo. Each slot packs
/// `generation << KEY_BITS | segment` into one word; a slot stamped with
/// an older generation is empty.
#[derive(Debug)]
struct SegSet {
    slots: Vec<u64>,
    /// Per touch ordinal `k`: the stamped segment that touch #k of the
    /// most recent lane reaching `k` in this warp hit. Every entry
    /// stamped with the current generation is in `slots`.
    memo: Vec<u64>,
    gen: u64,
    live: usize,
}

impl SegSet {
    fn new() -> Self {
        Self {
            slots: vec![0; 256],
            memo: Vec::new(),
            gen: 0,
            live: 0,
        }
    }

    fn next_generation(&mut self) {
        self.gen += 1;
        self.live = 0;
        if self.gen == 1 << (64 - KEY_BITS) {
            // Generation counter wrapped: hard-clear to avoid stale hits.
            self.slots.fill(0);
            self.memo.fill(0);
            self.gen = 1;
        }
    }

    /// Packs `seg` with the current generation. Only an out-of-bounds
    /// index (suppressed under checking) can address past `ADDR_LIMIT`;
    /// its high bits are dropped rather than spill into the generation.
    #[inline]
    fn stamp(&self, seg: u64) -> u64 {
        self.gen << KEY_BITS | (seg & KEY_MASK)
    }

    /// `true` when touch #`ordinal` of the previous lane hit `seg` in this
    /// warp, so `seg` is already in the set.
    #[inline]
    fn memo_hit(&self, ordinal: usize, seg: u64) -> bool {
        self.memo.get(ordinal) == Some(&self.stamp(seg))
    }

    /// Inserts `seg` as touch #`ordinal` of the current lane; returns
    /// `true` if it was not present this generation.
    fn insert(&mut self, ordinal: usize, seg: u64) -> bool {
        let word = self.stamp(seg);
        if ordinal < MEMO_ORDINALS {
            if ordinal >= self.memo.len() {
                self.memo.resize(ordinal + 1, 0);
            }
            self.memo[ordinal] = word;
        }
        self.insert_word(word)
    }

    fn insert_word(&mut self, word: u64) -> bool {
        if self.live * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let key = word & KEY_MASK;
        // Multiplicative hash; segments are sequential-ish so mixing matters.
        let mut idx = (key.wrapping_mul(0x9E3779B97F4A7C15) >> 40) as usize & mask;
        loop {
            let slot = self.slots[idx];
            if slot >> KEY_BITS != self.gen {
                self.slots[idx] = word;
                self.live += 1;
                return true;
            }
            if slot == word {
                return false;
            }
            idx = (idx + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![0; old.len() * 2];
        self.live = 0;
        for word in old {
            if word >> KEY_BITS == self.gen {
                self.insert_word(word);
            }
        }
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
    seg_set: SegSet,
    atomic_addrs: Vec<u64>,
    lane_events: u32,
    max_lane_events: u32,
    stats: KernelStats,
    // Checked-execution shadow state (None ⇒ negligible overhead: one
    // branch per access).
    recorder: Option<Box<Recorder>>,
    // Profile collector (None ⇒ same no-op guarantee as `recorder`).
    prof: Option<Box<BlockProfile>>,
    // Memsim cache collector (None ⇒ same no-op guarantee; see `cache`).
    cache: Option<Box<BlockCache>>,
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
    ) -> Self {
        Self {
            dev,
            block_id,
            compute_cycles: 0.0,
            mem_cycles: 0.0,
            atomic_cycles: 0.0,
            committed_cycles: 0.0,
            seg_set: SegSet::new(),
            atomic_addrs: Vec::with_capacity(64),
            lane_events: 0,
            max_lane_events: 0,
            stats: KernelStats::default(),
            recorder: record.then(|| Box::new(Recorder::new(block_id))),
            prof: profile.then(|| Box::new(BlockProfile::new())),
            cache: cache.map(|cfg| Box::new(BlockCache::new(&cfg))),
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
            p.set_label(label);
        }
        if let Some(c) = &mut self.cache {
            c.set_label(label);
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
        self.region += 1;
        self.expected_phase = None;
        self.pf_max_phase = 0;
        let ws = self.dev.warp_size;
        let mut base = 0usize;
        while base < n {
            let end = (base + ws).min(n);
            self.begin_warp();
            for i in base..end {
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
            self.end_warp();
            base = end;
        }
        self.cur_lane = SCALAR_LANE;
        // Lane-level barriers sync the whole block: charged once per phase
        // reached, like block barriers (no-op when the kernel used none).
        if self.pf_max_phase > 0 {
            self.commit_interval();
            self.committed_cycles += self.pf_max_phase as f64 * self.dev.barrier_cycles;
            self.stats.barriers += u64::from(self.pf_max_phase);
            if let Some(p) = &mut self.prof {
                p.cur_mut().barriers += u64::from(self.pf_max_phase);
            }
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
        if let Some(p) = &mut self.prof {
            p.cur_mut().barriers += 1;
        }
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
        self.seg_set.next_generation();
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
        if self.prof.is_none() && self.seg_set.memo_hit(ordinal, addr >> 5) {
            return;
        }
        self.touch_set(ordinal, addr, buffer);
    }

    /// The dedup path of [`Self::touch`]: charges the segment if it is
    /// new to this warp.
    #[inline(never)]
    fn touch_set(&mut self, ordinal: usize, addr: u64, buffer: &'static str) {
        if self.seg_set.insert(ordinal, addr >> 5) {
            self.stats.mem_segments += 1;
            self.mem_cycles += self.dev.seg_cycles;
            // Memsim sees exactly the transactions the cost model charges:
            // one L1 request per distinct 32-byte segment per warp.
            if let Some(c) = &mut self.cache {
                c.access(addr, buffer);
            }
        }
        if let Some(p) = &mut self.prof {
            p.touch_seg(addr >> 5);
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
        let (cycles, stats, _, _, _) = self.finish_full();
        (cycles, stats)
    }

    /// Finalization that also surrenders the shadow logs (checked mode's
    /// access records, profiling's counter buckets, memsim's cache state).
    pub(crate) fn finish_full(
        mut self,
    ) -> (
        f64,
        KernelStats,
        Option<Box<Recorder>>,
        Option<BlockBuckets>,
        Option<BlockCacheOut>,
    ) {
        self.commit_interval();
        let buckets = self.prof.take().map(|p| p.into_buckets());
        let cache = self.cache.take().map(|c| c.finish());
        (
            self.committed_cycles,
            self.stats,
            self.recorder.take(),
            buckets,
            cache,
        )
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

    fn ctx() -> BlockCtx {
        BlockCtx::new(DeviceConfig::test_tiny(), 0, false, false, None)
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
        let mut a = BlockCtx::new(dev, 0, false, false, None);
        let buf = alloc::<u32>(64, 0);
        a.parallel_for(4, |lane, i| {
            lane.read(&buf, i);
        });
        let (cycles_a, _) = a.finish();

        let mut b = BlockCtx::new(dev, 0, false, false, None);
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
        let mut b = BlockCtx::new(dev, 0, false, false, None);
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

    #[test]
    fn seg_set_survives_growth() {
        let mut b = ctx();
        let buf = alloc::<u32>(100_000, 0);
        // One warp where a single lane touches 3000 distinct segments —
        // forces SegSet growth mid-warp.
        b.parallel_for(1, |lane, _| {
            for j in 0..3000 {
                lane.read(&buf, j * 8);
            }
        });
        assert_eq!(b.stats().mem_segments, 3000);
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
