//! Hardware-counter-style kernel profiles (`DYNBC_PROFILE=1`).
//!
//! The simulator interprets every lane of every warp, so it can expose
//! the counters a hardware profiler (nvprof / Nsight Compute) samples —
//! exactly, not statistically. This module holds the counter model, its
//! collection and its sinks:
//!
//! * [`Counters`] — one bucket of tallies (futile vs useful edge work,
//!   divergence, occupancy, coalescing, atomic contention, queue/dedup
//!   pipeline ops, memsim cache counts);
//! * [`LaunchProfile`] — one kernel launch: per-stage (kernel-phase
//!   label) counter buckets plus the launch's simulated timing and
//!   per-block SM placement;
//! * [`ProfileReport`] — an engine run's accumulated launches, with
//!   deterministic aggregation ([`ProfileReport::kernel_totals`],
//!   [`ProfileReport::stage_totals`]) and a hand-rolled JSON serialization
//!   (the workspace vendors no serde). The Chrome/Perfetto timeline of
//!   launches and blocks is rendered by `dynbc-telemetry`'s unified trace
//!   exporter, next to the host pipeline spans.
//!
//! **One tally per quantity.** A bucket embeds the cost model's
//! [`KernelStats`] (`Counters::stats`): warps, lane events, distinct
//! 32-byte segments, atomics, atomic conflicts and barriers are counted
//! once, by the cost model, and a bucket's share is the change in its
//! block's stats between two label switches. That split is exact, because
//! [`BlockCtx::label`](crate::BlockCtx::label) takes `&mut self` and so
//! cannot run in the middle of a warp. The JSON report's
//! `mem_transactions` is `stats.mem_segments`, the same count:
//! `coalesced_transactions` of them serviced two or more lane accesses,
//! and the rest (`uncoalesced_transactions`) serviced one.
//!
//! Collection mirrors the checked-execution design in [`crate::checker`]:
//! each block optionally carries a boxed `BlockProfile` shadow collector
//! (`None` ⇒ one predictable branch per hook, no allocation — the no-op
//! guarantee), warps feed it from [`BlockCtx`](crate::BlockCtx)'s existing
//! cost-model hook points, and the per-block results are **reduced in
//! block-index order**, so a [`ProfileReport`] is bit-identical for any
//! `DYNBC_HOST_THREADS` value — the same contract the engines use for
//! their `bc_delta` slabs.
//!
//! The tallies the cost model does not keep are the collector's own:
//!
//! * *occupancy / divergence* — at every warp retirement the collector
//!   has seen each lane's event count; idle slots (`busiest × active − Σ`)
//!   are the lockstep stall, and a warp whose lanes disagree is divergent.
//! * *coalescing* — lanes push the 32-byte segment id of every access;
//!   at warp end, a segment that two or more of the sorted ids share is
//!   one coalesced transaction.
//! * *atomic contention* — the warp's sorted atomic addresses yield the
//!   deepest same-address run, the per-address contention depth.
//! * *futile work, queue/dedup ops* — semantic counters the kernels
//!   annotate via `Lane::prof_*`; the simulator cannot know which reads
//!   are "edge scans", so the kernels say so (free when profiling is off).
//!
//! Memsim (`DYNBC_MEMSIM=1`, see [`crate::cache`]) implies profiling and
//! shares the collector's buckets: a block's L1 counts and per-buffer
//! misses go into the bucket of the label active at the request.

use crate::cache::{BlockCache, CacheConfig, L2Cache};
use crate::stats::KernelStats;
use std::fmt::Write as _;

/// One bucket of profile counters (a kernel stage within a block or a
/// launch, or an aggregate of those).
///
/// All counters are exact event counts, not samples. Merging buckets adds
/// every field except [`Counters::max_contention_depth`], which takes the
/// maximum (it is a peak, not a volume).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// The cost model's tallies over this bucket's warps and barriers:
    /// warps executed (one-lane scalar-access warps included), lane
    /// events, distinct 32-byte memory transactions (`mem_segments`, the
    /// JSON report's `mem_transactions`), atomics, same-address atomic
    /// conflicts, and block-wide barriers plus lane-barrier phases.
    pub stats: KernelStats,
    /// Lanes that actually ran, summed over warps.
    pub active_lanes: u64,
    /// Lane slots those warps occupied (`warp_execs × warp_size`): the
    /// denominator of [`Counters::occupancy`].
    pub lane_slots: u64,
    /// Warps whose lanes retired different event counts — the lockstep
    /// penalty ("severe workload imbalance among threads") made visible.
    pub divergent_warps: u64,
    /// Idle lane-event slots lost to lockstep: for each warp,
    /// `busiest lane's events × active lanes − Σ lane events`.
    pub divergence_stalls: u64,
    /// Memory transactions (of `stats.mem_segments`) that serviced two
    /// or more lane accesses.
    pub coalesced_transactions: u64,
    /// Deepest same-address atomic pile-up seen in any single warp.
    pub max_contention_depth: u64,
    /// Edges a kernel examined (kernel-annotated; see `Lane::prof_edges_scanned`).
    pub edges_scanned: u64,
    /// Edges that passed the frontier test and produced useful work.
    pub edges_passed: u64,
    /// Frontier-queue pushes (node-parallel pipeline).
    pub queue_pushes: u64,
    /// Dedup pipeline operations (bitonic-sort compare/scan/scatter steps).
    pub dedup_ops: u64,
    /// Cache-hierarchy counters from memsim (`DYNBC_MEMSIM=1`); all-zero
    /// when the memory-hierarchy model is off.
    pub cache: CacheCounters,
}

/// Cache-hierarchy counters from the memsim tag-array model.
///
/// One L1 request is one 32-byte memory transaction (the population
/// `Counters::stats.mem_segments` counts); one L2 request is one L1 miss.
/// `l2_sector_fills` are requests that found their 128-byte L2 line
/// resident but had to fetch the missing 32-byte sector into it, so
/// `l2_hits + l2_misses + l2_sector_fills` equals `l1_misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// L1 requests that hit a resident line.
    pub l1_hits: u64,
    /// L1 requests that missed (and were forwarded to L2).
    pub l1_misses: u64,
    /// Valid L1 lines evicted to make room for a fill.
    pub l1_evictions: u64,
    /// L2 requests that hit a resident line with the sector present.
    pub l2_hits: u64,
    /// L2 requests whose line was absent (line allocate + DRAM fetch).
    pub l2_misses: u64,
    /// L2 requests whose line was resident but whose sector was not
    /// (sector fetched from DRAM into the existing line).
    pub l2_sector_fills: u64,
    /// Valid L2 lines evicted to make room for an allocate.
    pub l2_evictions: u64,
}

impl CacheCounters {
    /// Folds `other` into `self` (all fields are volumes; all add).
    pub fn merge(&mut self, other: &CacheCounters) {
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l1_evictions += other.l1_evictions;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.l2_sector_fills += other.l2_sector_fills;
        self.l2_evictions += other.l2_evictions;
    }

    /// True when no cache event was recorded (memsim off or no traffic).
    pub fn is_empty(&self) -> bool {
        *self == CacheCounters::default()
    }

    /// Total L1 lookups (`l1_hits + l1_misses`).
    pub fn l1_requests(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }

    /// Total L2 lookups (`l2_hits + l2_misses + l2_sector_fills`).
    pub fn l2_requests(&self) -> u64 {
        self.l2_hits + self.l2_misses + self.l2_sector_fills
    }

    /// L1 hit rate; `0.0` when no L1 request was issued.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.l1_requests() == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.l1_requests() as f64
        }
    }

    /// L2 hit rate (sector fills count as misses to DRAM); `0.0` when no
    /// L2 request was issued.
    pub fn l2_hit_rate(&self) -> f64 {
        if self.l2_requests() == 0 {
            0.0
        } else {
            self.l2_hits as f64 / self.l2_requests() as f64
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"l1_hits\": {}, \"l1_misses\": {}, \"l1_evictions\": {}, \
             \"l2_hits\": {}, \"l2_misses\": {}, \"l2_sector_fills\": {}, \
             \"l2_evictions\": {}}}",
            self.l1_hits,
            self.l1_misses,
            self.l1_evictions,
            self.l2_hits,
            self.l2_misses,
            self.l2_sector_fills,
            self.l2_evictions,
        )
    }
}

impl Counters {
    /// Folds `other` into `self` (adds volumes, maxes peaks).
    pub fn merge(&mut self, other: &Counters) {
        self.stats.add(&other.stats);
        self.active_lanes += other.active_lanes;
        self.lane_slots += other.lane_slots;
        self.divergent_warps += other.divergent_warps;
        self.divergence_stalls += other.divergence_stalls;
        self.coalesced_transactions += other.coalesced_transactions;
        self.max_contention_depth = self.max_contention_depth.max(other.max_contention_depth);
        self.edges_scanned += other.edges_scanned;
        self.edges_passed += other.edges_passed;
        self.queue_pushes += other.queue_pushes;
        self.dedup_ops += other.dedup_ops;
        self.cache.merge(&other.cache);
    }

    /// Memory transactions that serviced exactly one lane access:
    /// `stats.mem_segments − coalesced_transactions`.
    pub fn uncoalesced_transactions(&self) -> u64 {
        self.stats.mem_segments - self.coalesced_transactions
    }

    /// Scanned edges that did **not** pass the frontier test.
    pub fn futile_edges(&self) -> u64 {
        self.edges_scanned - self.edges_passed.min(self.edges_scanned)
    }

    /// Fraction of scanned edges that did **not** pass the frontier test —
    /// the paper's futile-work ratio. `0.0` when nothing was scanned.
    pub fn futile_edge_ratio(&self) -> f64 {
        if self.edges_scanned == 0 {
            0.0
        } else {
            self.futile_edges() as f64 / self.edges_scanned as f64
        }
    }

    /// Active-lane occupancy: lanes that ran over lane slots occupied.
    /// `0.0` when no warps executed.
    pub fn occupancy(&self) -> f64 {
        if self.lane_slots == 0 {
            0.0
        } else {
            self.active_lanes as f64 / self.lane_slots as f64
        }
    }

    /// Fraction of memory transactions that were coalesced (serviced more
    /// than one lane access). `0.0` when no transactions were issued.
    pub fn coalesced_fraction(&self) -> f64 {
        if self.stats.mem_segments == 0 {
            0.0
        } else {
            self.coalesced_transactions as f64 / self.stats.mem_segments as f64
        }
    }

    fn json(&self) -> String {
        // The `cache` block is emitted only when memsim recorded traffic,
        // so memsim-off reports stay byte-identical to pre-memsim ones.
        let cache = if self.cache.is_empty() {
            String::new()
        } else {
            format!(", \"cache\": {}", self.cache.json())
        };
        format!(
            "{{\"warp_execs\": {}, \"active_lanes\": {}, \"lane_slots\": {}, \
             \"divergent_warps\": {}, \"divergence_stalls\": {}, \
             \"mem_transactions\": {}, \"coalesced_transactions\": {}, \
             \"uncoalesced_transactions\": {}, \"atomic_ops\": {}, \
             \"atomic_conflicts\": {}, \"max_contention_depth\": {}, \
             \"barriers\": {}, \"edges_scanned\": {}, \"edges_passed\": {}, \
             \"queue_pushes\": {}, \"dedup_ops\": {}{}}}",
            self.stats.warp_execs,
            self.active_lanes,
            self.lane_slots,
            self.divergent_warps,
            self.divergence_stalls,
            self.stats.mem_segments,
            self.coalesced_transactions,
            self.uncoalesced_transactions(),
            self.stats.atomics,
            self.stats.atomic_conflicts,
            self.max_contention_depth,
            self.stats.barriers,
            self.edges_scanned,
            self.edges_passed,
            self.queue_pushes,
            self.dedup_ops,
            cache,
        )
    }
}

/// One kernel stage (phase label) within a launch, with its counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageProfile {
    /// The kernel-phase label (`BlockCtx::label`), e.g. `"case2_node::sp"`;
    /// `""` for accesses before the kernel's first label.
    pub label: String,
    /// Counters accumulated while that label was active.
    pub counters: Counters,
    /// Memsim hot-set attribution: L1 misses per named `GpuBuffer`, in
    /// deterministic first-miss order. Empty when memsim is off.
    pub buffer_misses: Vec<(String, u64)>,
}

/// Simulated placement of one block on an SM (for timeline rendering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSpan {
    /// Block id within the launch grid.
    pub block: u32,
    /// SM the greedy block scheduler placed it on.
    pub sm: u32,
    /// Simulated start time, seconds since the engine's clock zero.
    pub start_s: f64,
    /// Simulated duration in seconds.
    pub dur_s: f64,
}

/// Profile of a single kernel launch.
///
/// `PartialEq` compares every field except [`wall_s`](Self::wall_s): wall
/// time is a host measurement that varies run to run, while the rest of
/// the profile is bit-deterministic, so reports stay comparable across
/// runs and host-thread counts. For the same reason `wall_s` is excluded
/// from [`ProfileReport::to_json`].
#[derive(Debug, Clone)]
pub struct LaunchProfile {
    /// Kernel name as passed to `Gpu::launch_named`/`launch_checked`.
    pub kernel: String,
    /// Ordinal of this launch on its `Gpu` (0-based).
    pub index: u64,
    /// Grid size in blocks.
    pub num_blocks: usize,
    /// Simulated clock when the launch started (seconds).
    pub start_s: f64,
    /// Simulated duration (makespan + launch overhead, seconds).
    pub seconds: f64,
    /// Per-stage counter buckets, in deterministic first-touch order
    /// (block 0's label order, then labels first seen in later blocks).
    pub stages: Vec<StageProfile>,
    /// All stages merged.
    pub total: Counters,
    /// Per-block SM placement from the greedy scheduler (block-id order).
    pub blocks: Vec<BlockSpan>,
    /// Host wall-clock duration of the launch, seconds. Measurement noise:
    /// excluded from `PartialEq` and from the JSON report.
    pub wall_s: f64,
}

impl PartialEq for LaunchProfile {
    fn eq(&self, other: &Self) -> bool {
        // Everything except wall_s, which is nondeterministic host timing.
        self.kernel == other.kernel
            && self.index == other.index
            && self.num_blocks == other.num_blocks
            && self.start_s == other.start_s
            && self.seconds == other.seconds
            && self.stages == other.stages
            && self.total == other.total
            && self.blocks == other.blocks
    }
}

impl LaunchProfile {
    fn json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"kernel\": {}, \"index\": {}, \"num_blocks\": {}, \
             \"start_s\": {}, \"seconds\": {}, \"total\": {}, \"stages\": [",
            json_string(&self.kernel),
            self.index,
            self.num_blocks,
            json_number(self.start_s),
            json_number(self.seconds),
            self.total.json(),
        );
        for (i, st) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"label\": {}, \"counters\": {}{}}}",
                json_string(&st.label),
                st.counters.json(),
                json_buffer_misses(&st.buffer_misses),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Accumulated profile of an engine run: every profiled launch, in launch
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Profiled launches in the order they ran.
    pub launches: Vec<LaunchProfile>,
}

impl ProfileReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total counters over all launches.
    pub fn total(&self) -> Counters {
        let mut t = Counters::default();
        for l in &self.launches {
            t.merge(&l.total);
        }
        t
    }

    /// Total host wall-clock seconds over launches of one kernel
    /// (nondeterministic; not part of the JSON report).
    pub fn kernel_wall_seconds(&self, kernel: &str) -> f64 {
        self.launches
            .iter()
            .filter(|l| l.kernel == kernel)
            .map(|l| l.wall_s)
            .sum()
    }

    /// Aggregates counters by kernel name, in first-appearance order.
    pub fn kernel_totals(&self) -> Vec<(String, Counters)> {
        let mut out: Vec<(String, Counters)> = Vec::new();
        for l in &self.launches {
            match out.iter_mut().find(|(k, _)| *k == l.kernel) {
                Some((_, c)) => c.merge(&l.total),
                None => out.push((l.kernel.clone(), l.total)),
            }
        }
        out
    }

    /// Aggregates counters by stage label across all launches, in
    /// first-appearance order.
    pub fn stage_totals(&self) -> Vec<(String, Counters)> {
        let mut out: Vec<(String, Counters)> = Vec::new();
        for l in &self.launches {
            for st in &l.stages {
                match out.iter_mut().find(|(k, _)| *k == st.label) {
                    Some((_, c)) => c.merge(&st.counters),
                    None => out.push((st.label.clone(), st.counters)),
                }
            }
        }
        out
    }

    /// Memsim L1 misses per named buffer over the whole report, in
    /// first-appearance order. Empty when memsim is off.
    pub fn buffer_totals(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for l in &self.launches {
            for st in &l.stages {
                merge_buffer_misses(&mut out, &st.buffer_misses);
            }
        }
        out
    }

    /// Serializes the full report as a JSON object:
    /// `{"total": {...}, "kernels": [...], "stages": [...], "launches": [...]}`.
    /// When memsim recorded traffic a `"buffer_misses"` array (per-buffer
    /// L1 misses, first-appearance order) is appended.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"total\": {}, \"kernels\": [", self.total().json());
        for (i, (k, c)) in self.kernel_totals().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"kernel\": {}, \"counters\": {}}}",
                json_string(k),
                c.json()
            );
        }
        out.push_str("], \"stages\": [");
        for (i, (k, c)) in self.stage_totals().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"label\": {}, \"counters\": {}}}",
                json_string(k),
                c.json()
            );
        }
        out.push(']');
        out.push_str(&json_buffer_misses(&self.buffer_totals()));
        out.push_str(", \"launches\": [");
        for (i, l) in self.launches.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&l.json());
        }
        out.push_str("]}");
        out
    }
}

/// Folds one per-buffer miss list into another, preserving `dst`'s
/// first-appearance order (new names append).
fn merge_buffer_misses<S: AsRef<str>>(dst: &mut Vec<(String, u64)>, src: &[(S, u64)]) {
    for (name, misses) in src {
        match dst.iter_mut().find(|(n, _)| n == name.as_ref()) {
            Some((_, m)) => *m += misses,
            None => dst.push((name.as_ref().to_string(), *misses)),
        }
    }
}

/// `, "buffer_misses": [["name", n], ...]` — or `""` when the list is
/// empty, keeping memsim-off JSON byte-identical to pre-memsim output.
fn json_buffer_misses(misses: &[(String, u64)]) -> String {
    if misses.is_empty() {
        return String::new();
    }
    let mut out = String::from(", \"buffer_misses\": [");
    for (i, (name, m)) in misses.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{}, {}]", json_string(name), m);
    }
    out.push(']');
    out
}

/// JSON string literal with the escapes kernel/stage names can contain.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number (JSON has no NaN/Inf; clamp to null).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// One per-label collection bucket of a block.
#[derive(Debug)]
struct Bucket {
    label: &'static str,
    counters: Counters,
    /// Memsim L1 misses per named buffer, in first-miss order.
    buffer_misses: Vec<(&'static str, u64)>,
}

impl Bucket {
    fn new(label: &'static str) -> Self {
        Self {
            label,
            counters: Counters::default(),
            buffer_misses: Vec::new(),
        }
    }
}

/// What a finished block hands back to the launch for reduction: its
/// per-label buckets in first-touch order and, under memsim, its L1-miss
/// stream in execution order as `(L1 line id, bucket index)`.
#[derive(Debug)]
pub(crate) struct BlockBuckets {
    buckets: Vec<Bucket>,
    misses: Vec<(u64, u32)>,
}

/// Shadow profile collector of one block (lives behind
/// `Option<Box<...>>` in `BlockCtx`; absent ⇒ hooks are no-ops).
#[derive(Debug)]
pub(crate) struct BlockProfile {
    /// Per-label counter buckets in first-touch order.
    buckets: Vec<Bucket>,
    /// Index of the bucket accesses currently accumulate into.
    cur: usize,
    /// The block's cost-model stats when `cur` became current: the
    /// bucket's share of them is what they have gained since.
    mark: KernelStats,
    /// The block's private L1 under memsim.
    l1: Option<BlockCache>,
    // ---- per-warp scratch, reset by `begin_warp` ----
    /// 32-byte segment id of every lane access in the current warp.
    warp_segs: Vec<u64>,
    /// Σ lane event counts over the warp's retired lanes.
    sum_lane_events: u64,
    /// Smallest lane event count seen (divergence = min ≠ max).
    min_lane_events: u32,
    /// Lanes retired in the current warp.
    active_lanes: u32,
}

impl BlockProfile {
    /// A collector whose block has run nothing yet; `cache` adds the
    /// memsim L1.
    pub(crate) fn new(cache: Option<&CacheConfig>) -> Self {
        Self {
            buckets: vec![Bucket::new("")],
            cur: 0,
            mark: KernelStats::default(),
            l1: cache.map(BlockCache::new),
            warp_segs: Vec::with_capacity(128),
            sum_lane_events: 0,
            min_lane_events: u32::MAX,
            active_lanes: 0,
        }
    }

    /// Switches the active bucket (kernel-phase label changed); `stats`
    /// are the block's cost-model stats so far.
    pub(crate) fn set_label(&mut self, label: &'static str, stats: &KernelStats) {
        if self.buckets[self.cur].label == label {
            return;
        }
        self.settle(stats);
        self.cur = match self.buckets.iter().position(|b| b.label == label) {
            Some(i) => i,
            None => {
                self.buckets.push(Bucket::new(label));
                self.buckets.len() - 1
            }
        };
    }

    /// Credits the active bucket with the stats gained since it became
    /// current.
    fn settle(&mut self, stats: &KernelStats) {
        self.buckets[self.cur]
            .counters
            .stats
            .add(&stats.since(&self.mark));
        self.mark = *stats;
    }

    /// The bucket accesses currently accumulate into.
    #[inline]
    pub(crate) fn cur_mut(&mut self) -> &mut Counters {
        &mut self.buckets[self.cur].counters
    }

    /// True when the memsim L1 is on.
    pub(crate) fn memsim(&self) -> bool {
        self.l1.is_some()
    }

    /// Starts a warp: clears the per-warp scratch.
    #[inline]
    pub(crate) fn begin_warp(&mut self) {
        self.warp_segs.clear();
        self.sum_lane_events = 0;
        self.min_lane_events = u32::MAX;
        self.active_lanes = 0;
    }

    /// Notes one lane access to the 32-byte segment `seg`.
    #[inline]
    pub(crate) fn touch_seg(&mut self, seg: u64) {
        self.warp_segs.push(seg);
    }

    /// One memory transaction the cost model charged, first touched at
    /// `addr` of the named buffer: a memsim L1 request, counted in the
    /// active bucket. A no-op when memsim is off.
    #[inline]
    pub(crate) fn l1_request(&mut self, addr: u64, buffer: &'static str) {
        let Some(l1) = &mut self.l1 else {
            return;
        };
        let bucket = &mut self.buckets[self.cur];
        if l1.access(addr, self.cur as u32, &mut bucket.counters.cache) {
            match bucket.buffer_misses.iter_mut().find(|(n, _)| *n == buffer) {
                Some((_, m)) => *m += 1,
                None => bucket.buffer_misses.push((buffer, 1)),
            }
        }
    }

    /// Retires one lane with its event count.
    #[inline]
    pub(crate) fn lane_retired(&mut self, lane_events: u32) {
        self.sum_lane_events += u64::from(lane_events);
        self.min_lane_events = self.min_lane_events.min(lane_events);
        self.active_lanes += 1;
    }

    /// Retires `count > 0` lanes that each ran `lane_events` events.
    #[inline]
    pub(crate) fn lanes_retired(&mut self, count: u32, lane_events: u32) {
        self.sum_lane_events += u64::from(count) * u64::from(lane_events);
        self.min_lane_events = self.min_lane_events.min(lane_events);
        self.active_lanes += count;
    }

    /// Retires the warp: folds the scratch into the active bucket.
    /// `atomic_addrs` must already be sorted (the cost model sorts it).
    pub(crate) fn end_warp(
        &mut self,
        max_lane_events: u32,
        warp_size: usize,
        atomic_addrs: &[u64],
    ) {
        let active = self.active_lanes;
        let sum = self.sum_lane_events;
        let min = self.min_lane_events;
        // Coalescing: segments that two or more sorted accesses share.
        self.warp_segs.sort_unstable();
        let mut coalesced = 0u64;
        let mut i = 0usize;
        while i < self.warp_segs.len() {
            let mut j = i + 1;
            while j < self.warp_segs.len() && self.warp_segs[j] == self.warp_segs[i] {
                j += 1;
            }
            if j - i >= 2 {
                coalesced += 1;
            }
            i = j;
        }
        // Atomic contention: the deepest same-address run.
        let mut max_run = 0u64;
        let mut run = 0u64;
        for k in 0..atomic_addrs.len() {
            if k > 0 && atomic_addrs[k] == atomic_addrs[k - 1] {
                run += 1;
            } else {
                run = 1;
            }
            max_run = max_run.max(run);
        }

        let c = self.cur_mut();
        c.active_lanes += u64::from(active);
        c.lane_slots += warp_size as u64;
        if active > 0 && min != max_lane_events {
            c.divergent_warps += 1;
        }
        c.divergence_stalls += u64::from(max_lane_events) * u64::from(active) - sum;
        c.coalesced_transactions += coalesced;
        c.max_contention_depth = c.max_contention_depth.max(max_run);
    }

    /// Surrenders the buckets, crediting the active one with the block's
    /// final `stats`, and the memsim L1-miss stream.
    pub(crate) fn finish(mut self, stats: &KernelStats) -> BlockBuckets {
        self.settle(stats);
        BlockBuckets {
            buckets: self.buckets,
            misses: self.l1.map_or_else(Vec::new, BlockCache::into_misses),
        }
    }
}

/// Merges per-block buckets **in block-index order** into per-stage
/// profiles plus a launch total. Stage order is deterministic: block 0's
/// first-touch order, then labels first seen in later blocks; a bucket
/// that counted nothing (a block that labelled before its first warp
/// leaves an all-zero `""` bucket) makes no stage. Under memsim, `l2` is
/// the device's shared L2: each block's L1-miss stream is replayed
/// through it after the block's buckets merge, so the replay too runs in
/// block-index order, and its counts go to the stage of the bucket that
/// missed.
pub(crate) fn reduce_blocks(
    blocks: Vec<BlockBuckets>,
    mut l2: Option<&mut L2Cache>,
) -> (Vec<StageProfile>, Counters) {
    let mut stages: Vec<StageProfile> = Vec::new();
    let mut total = Counters::default();
    let mut stage_of = Vec::new();
    for block in blocks {
        stage_of.clear();
        for bucket in &block.buckets {
            if bucket.counters == Counters::default() {
                stage_of.push(usize::MAX);
                continue;
            }
            total.merge(&bucket.counters);
            let i = match stages.iter().position(|s| s.label == bucket.label) {
                Some(i) => i,
                None => {
                    stages.push(StageProfile {
                        label: bucket.label.to_string(),
                        counters: Counters::default(),
                        buffer_misses: Vec::new(),
                    });
                    stages.len() - 1
                }
            };
            stages[i].counters.merge(&bucket.counters);
            merge_buffer_misses(&mut stages[i].buffer_misses, &bucket.buffer_misses);
            stage_of.push(i);
        }
        if let Some(l2) = l2.as_deref_mut() {
            for &(line, bucket) in &block.misses {
                let c = l2.replay_miss(line);
                total.cache.merge(&c);
                stages[stage_of[bucket as usize]].counters.cache.merge(&c);
            }
        }
    }
    (stages, total)
}

/// Replays the greedy block scheduler (first least-loaded SM wins, issue
/// order) to place each block on a timeline for the Chrome-trace sink.
/// `cycles_to_s` converts device cycles to seconds; `start_s` is the
/// simulated time the grid starts executing.
pub(crate) fn block_spans(
    block_cycles: &[f64],
    num_sms: usize,
    cycles_to_s: impl Fn(f64) -> f64,
    start_s: f64,
) -> Vec<BlockSpan> {
    let mut sm_load = vec![0.0f64; num_sms.max(1)];
    let mut spans = Vec::with_capacity(block_cycles.len());
    for (b, &c) in block_cycles.iter().enumerate() {
        let mut sm = 0usize;
        for (i, &load) in sm_load.iter().enumerate() {
            if load < sm_load[sm] {
                sm = i;
            }
        }
        spans.push(BlockSpan {
            block: b as u32,
            sm: sm as u32,
            start_s: start_s + cycles_to_s(sm_load[sm]),
            dur_s: cycles_to_s(c),
        });
        sm_load[sm] += c;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(scanned: u64, passed: u64, depth: u64) -> Counters {
        Counters {
            stats: KernelStats {
                warp_execs: 2,
                ..KernelStats::default()
            },
            active_lanes: 6,
            lane_slots: 8,
            edges_scanned: scanned,
            edges_passed: passed,
            max_contention_depth: depth,
            ..Counters::default()
        }
    }

    fn launch(kernel: &str, index: u64, c: Counters) -> LaunchProfile {
        LaunchProfile {
            kernel: kernel.to_string(),
            index,
            num_blocks: 2,
            start_s: index as f64 * 0.5,
            seconds: 0.25,
            stages: vec![StageProfile {
                label: format!("{kernel}::stage"),
                counters: c,
                buffer_misses: Vec::new(),
            }],
            total: c,
            blocks: vec![BlockSpan {
                block: 0,
                sm: 0,
                start_s: index as f64 * 0.5,
                dur_s: 0.2,
            }],
            wall_s: 0.0,
        }
    }

    /// The block-local collector's buckets, with their counters and
    /// per-buffer misses.
    fn buckets(p: BlockProfile, stats: &KernelStats) -> Vec<(&'static str, Counters)> {
        p.finish(stats)
            .buckets
            .into_iter()
            .map(|b| (b.label, b.counters))
            .collect()
    }

    #[test]
    fn wall_time_is_excluded_from_equality_but_summed() {
        let a = launch("k", 0, bucket(10, 5, 1));
        let mut b = a.clone();
        b.wall_s = 1.5;
        assert_eq!(a, b, "wall_s must not affect profile equality");
        let r = ProfileReport {
            launches: vec![a, b],
        };
        assert_eq!(r.kernel_wall_seconds("k"), 1.5);
        assert_eq!(r.kernel_wall_seconds("other"), 0.0);
        assert!(
            !r.to_json().contains("wall_s"),
            "wall time must stay out of the deterministic JSON report"
        );
    }

    #[test]
    fn merge_adds_volumes_and_maxes_peaks() {
        let mut a = bucket(100, 40, 3);
        a.merge(&bucket(50, 10, 7));
        assert_eq!(a.edges_scanned, 150);
        assert_eq!(a.edges_passed, 50);
        assert_eq!(a.max_contention_depth, 7);
        assert_eq!(a.stats.warp_execs, 4);
        assert_eq!(a.lane_slots, 16);
    }

    #[test]
    fn derived_ratios() {
        let c = bucket(100, 40, 0);
        assert_eq!(c.futile_edges(), 60);
        assert!((c.futile_edge_ratio() - 0.6).abs() < 1e-12);
        assert!((c.occupancy() - 0.75).abs() < 1e-12);
        assert_eq!(Counters::default().futile_edge_ratio(), 0.0);
        assert_eq!(Counters::default().occupancy(), 0.0);
        assert_eq!(Counters::default().coalesced_fraction(), 0.0);
    }

    #[test]
    fn kernel_totals_aggregate_in_first_appearance_order() {
        let mut r = ProfileReport::new();
        r.launches.push(launch("sp", 0, bucket(10, 5, 1)));
        r.launches.push(launch("dep", 1, bucket(20, 2, 4)));
        r.launches.push(launch("sp", 2, bucket(30, 15, 2)));
        let totals = r.kernel_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].0, "sp");
        assert_eq!(totals[0].1.edges_scanned, 40);
        assert_eq!(totals[0].1.max_contention_depth, 2);
        assert_eq!(totals[1].0, "dep");
        assert_eq!(r.total().edges_scanned, 60);
    }

    #[test]
    fn json_round_trip_markers() {
        let mut r = ProfileReport::new();
        r.launches.push(launch("case2_node", 0, bucket(10, 5, 1)));
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"kernel\": \"case2_node\""), "{json}");
        assert!(json.contains("\"edges_scanned\": 10"), "{json}");
        assert!(json.contains("\"stages\": ["), "{json}");
        // Balanced braces (cheap well-formedness check without a parser).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn cache_counters_merge_rates_and_conditional_json() {
        let mut c = CacheCounters {
            l1_hits: 30,
            l1_misses: 10,
            l2_hits: 6,
            l2_misses: 2,
            l2_sector_fills: 2,
            ..CacheCounters::default()
        };
        assert!((c.l1_hit_rate() - 0.75).abs() < 1e-12);
        assert!((c.l2_hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(c.l2_requests(), c.l1_misses);
        c.merge(&c.clone());
        assert_eq!(c.l1_hits, 60);
        assert_eq!(c.l2_evictions, 0);
        assert_eq!(CacheCounters::default().l1_hit_rate(), 0.0);
        assert_eq!(CacheCounters::default().l2_hit_rate(), 0.0);

        // Off ⇒ byte-identical pre-memsim JSON (no "cache" key anywhere).
        let plain = launch("k", 0, bucket(10, 5, 1));
        let r = ProfileReport {
            launches: vec![plain],
        };
        assert!(!r.to_json().contains("cache"), "{}", r.to_json());

        // On ⇒ the cache block and hit-rate tracks appear.
        let mut hot = bucket(10, 5, 1);
        hot.cache = c;
        let mut l = launch("k", 0, hot);
        l.stages[0].buffer_misses = vec![("sigma".into(), 7), ("adj".into(), 3)];
        let r = ProfileReport { launches: vec![l] };
        let json = r.to_json();
        assert!(json.contains("\"cache\": {\"l1_hits\": 60"), "{json}");
        assert!(json.contains("\"buffer_misses\": [[\"sigma\", 7], [\"adj\", 3]]"));
        assert_eq!(
            r.buffer_totals(),
            vec![("sigma".into(), 7), ("adj".into(), 3)]
        );
    }

    #[test]
    fn buffer_miss_merge_keeps_first_appearance_order() {
        let mut dst = vec![("a".to_string(), 1u64)];
        merge_buffer_misses(&mut dst, &[("b", 2), ("a", 4)]);
        assert_eq!(dst, vec![("a".to_string(), 5), ("b".to_string(), 2)]);
    }

    #[test]
    fn buckets_follow_labels_in_first_touch_order() {
        let mut p = BlockProfile::new(None);
        let mut stats = KernelStats::default();
        p.set_label("a", &stats);
        p.cur_mut().edges_scanned += 3;
        stats.warp_execs += 2;
        p.set_label("b", &stats);
        p.cur_mut().edges_scanned += 1;
        stats.warp_execs += 1;
        p.set_label("a", &stats);
        p.cur_mut().edges_scanned += 2;
        stats.warp_execs += 4;
        let buckets = buckets(p, &stats);
        // The all-zero `""` bucket stays until the reduction drops it.
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[1].0, "a");
        assert_eq!(buckets[1].1.edges_scanned, 5);
        // A bucket's stats are what the block gained while it was active.
        assert_eq!(buckets[1].1.stats.warp_execs, 6);
        assert_eq!(buckets[2].0, "b");
        assert_eq!(buckets[2].1.stats.warp_execs, 1);
    }

    #[test]
    fn warp_retirement_classifies_coalescing_and_divergence() {
        let mut p = BlockProfile::new(None);
        p.set_label("k", &KernelStats::default());
        p.begin_warp();
        // Lane 0: 3 events on segments 0,0,1; lane 1: 1 event on segment 0.
        p.touch_seg(0);
        p.touch_seg(0);
        p.touch_seg(1);
        p.lane_retired(3);
        p.touch_seg(0);
        p.lane_retired(1);
        p.end_warp(3, 4, &[10, 10, 12]);
        // The cost model charged the warp its two distinct segments.
        let stats = KernelStats {
            warp_execs: 1,
            mem_segments: 2,
            ..KernelStats::default()
        };
        let c = buckets(p, &stats)[1].1;
        assert_eq!(c.active_lanes, 2);
        assert_eq!(c.lane_slots, 4);
        assert_eq!(c.divergent_warps, 1);
        // busiest 3 × active 2 − Σ 4 = 2 idle slots.
        assert_eq!(c.divergence_stalls, 2);
        // Segment 0 serviced 3 accesses (coalesced); segment 1 one.
        assert_eq!(c.coalesced_transactions, 1);
        assert_eq!(c.uncoalesced_transactions(), 1);
        assert_eq!(c.max_contention_depth, 2);
    }

    #[test]
    fn reduce_is_block_index_ordered() {
        let block = |labels: &[(&'static str, u64)]| BlockBuckets {
            buckets: labels
                .iter()
                .map(|&(label, scanned)| Bucket {
                    label,
                    counters: Counters {
                        edges_scanned: scanned,
                        ..Counters::default()
                    },
                    buffer_misses: Vec::new(),
                })
                .collect(),
            misses: Vec::new(),
        };
        let b0 = block(&[("", 0), ("sp", 4)]);
        let b1 = block(&[("dep", 1), ("sp", 2)]);
        let (stages, total) = reduce_blocks(vec![b0, b1], None);
        assert_eq!(stages.len(), 2, "the empty bucket makes no stage");
        assert_eq!(stages[0].label, "sp");
        assert_eq!(stages[0].counters.edges_scanned, 6);
        assert_eq!(stages[1].label, "dep");
        assert_eq!(total.edges_scanned, 7);
    }

    /// A geometry small enough to force evictions with a handful of lines.
    fn tiny() -> CacheConfig {
        CacheConfig {
            l1_kb: 1,
            l1_ways: 2,
            l1_line: 32,
            l2_kb: 1,
            l2_ways: 2,
        }
    }

    #[test]
    fn memsim_requests_and_miss_stream_follow_labels() {
        let cfg = tiny();
        let mut p = BlockProfile::new(Some(&cfg));
        let stats = KernelStats::default();
        p.set_label("sp", &stats);
        p.l1_request(0, "adj");
        p.l1_request(0, "adj"); // same line: L1 hit, no new miss record
        p.set_label("dep", &stats);
        p.l1_request(64, "delta");
        let out = p.finish(&stats);
        let sp = &out.buckets[1];
        assert_eq!(sp.label, "sp");
        assert_eq!(sp.counters.cache.l1_hits, 1);
        assert_eq!(sp.counters.cache.l1_misses, 1);
        assert_eq!(sp.buffer_misses, vec![("adj", 1)]);
        assert_eq!(out.buckets[2].buffer_misses, vec![("delta", 1)]);
        assert_eq!(out.misses, vec![(0, 1), (2, 2)]);
    }

    #[test]
    fn reduce_replays_l2_in_block_index_order() {
        let cfg = tiny();
        let mut l2 = L2Cache::new(&cfg);
        let block = |line: u64| {
            let mut p = BlockProfile::new(Some(&cfg));
            p.set_label("sp", &KernelStats::default());
            p.l1_request(line * 32, "adj");
            p.finish(&KernelStats::default())
        };
        // Block 0 misses sector 0; block 1 misses sector 1 (same L2 line):
        // replayed in block order, block 1's request is a sector fill.
        let (stages, total) = reduce_blocks(vec![block(0), block(1)], Some(&mut l2));
        assert_eq!(total.cache.l1_misses, 2);
        assert_eq!(total.cache.l2_misses, 1);
        assert_eq!(total.cache.l2_sector_fills, 1);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].label, "sp");
        assert_eq!(stages[0].counters.cache, total.cache);
        assert_eq!(stages[0].buffer_misses, vec![("adj".to_string(), 2)]);
        assert_eq!(
            total.cache.l2_requests(),
            total.cache.l1_misses,
            "every L1 miss is exactly one L2 request at 32 B lines"
        );
    }

    #[test]
    fn block_spans_replay_greedy_scheduling() {
        let spans = block_spans(&[10.0, 10.0, 5.0], 2, |c| c, 1.0);
        assert_eq!(spans[0].sm, 0);
        assert_eq!(spans[1].sm, 1);
        // Block 2 lands on the first SM to free up — both free at 10.0,
        // the greedy scheduler takes the first.
        assert_eq!(spans[2].sm, 0);
        assert_eq!(spans[2].start_s, 11.0);
        assert_eq!(spans[2].dur_s, 5.0);
    }
}
