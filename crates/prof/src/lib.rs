//! Hardware-counter-style kernel profiles for the SIMT simulator.
//!
//! The simulator (`dynbc-gpusim`) interprets every lane of every warp, so
//! it can expose the counters a hardware profiler (nvprof / Nsight
//! Compute) samples — exactly, not statistically. This crate holds the
//! *data model* for those counters and their sinks; it is dependency-free
//! so the simulator can depend on it without cycles:
//!
//! * [`Counters`] — one bucket of per-warp/per-access tallies (futile vs
//!   useful edge work, divergence, occupancy, coalescing, atomic
//!   contention, queue/dedup pipeline ops);
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
//! Collection happens in `dynbc-gpusim` (see its `profile` module); the
//! contract that makes reports bit-identical for any `DYNBC_HOST_THREADS`
//! value lives there: per-block buckets are merged **in block-index
//! order**, exactly like the engines' `bc_delta` slabs.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// One bucket of profile counters (a kernel stage within a block or a
/// launch, or an aggregate of those).
///
/// All counters are exact event counts, not samples. Merging buckets adds
/// every field except [`Counters::max_contention_depth`], which takes the
/// maximum (it is a peak, not a volume).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Warps executed (including one-lane scalar-access warps).
    pub warp_execs: u64,
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
    /// Distinct 32-byte memory transactions issued
    /// (= `coalesced_transactions + uncoalesced_transactions`).
    pub mem_transactions: u64,
    /// Transactions that serviced two or more lane accesses.
    pub coalesced_transactions: u64,
    /// Transactions that serviced exactly one lane access.
    pub uncoalesced_transactions: u64,
    /// Atomic operations issued.
    pub atomic_ops: u64,
    /// Same-address serialization conflicts among a warp's atomics.
    pub atomic_conflicts: u64,
    /// Deepest same-address atomic pile-up seen in any single warp.
    pub max_contention_depth: u64,
    /// Block-wide barriers (plus lane-barrier phases) executed.
    pub barriers: u64,
    /// Edges a kernel examined (kernel-annotated; see `Lane::prof_edges_scanned`).
    pub edges_scanned: u64,
    /// Edges that passed the frontier test and produced useful work.
    pub edges_passed: u64,
    /// Frontier-queue pushes (node-parallel pipeline).
    pub queue_pushes: u64,
    /// Dedup pipeline operations (bitonic-sort compare/scan/scatter steps).
    pub dedup_ops: u64,
    /// Cache-hierarchy counters from `dynbc-memsim` (`DYNBC_MEMSIM=1`);
    /// all-zero when the memory-hierarchy model is off.
    pub cache: CacheCounters,
}

/// Cache-hierarchy counters from the memsim tag-array model.
///
/// One L1 request is one 32-byte memory transaction (the same population
/// [`Counters::mem_transactions`] counts); one L2 request is one L1 miss.
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
        self.warp_execs += other.warp_execs;
        self.active_lanes += other.active_lanes;
        self.lane_slots += other.lane_slots;
        self.divergent_warps += other.divergent_warps;
        self.divergence_stalls += other.divergence_stalls;
        self.mem_transactions += other.mem_transactions;
        self.coalesced_transactions += other.coalesced_transactions;
        self.uncoalesced_transactions += other.uncoalesced_transactions;
        self.atomic_ops += other.atomic_ops;
        self.atomic_conflicts += other.atomic_conflicts;
        self.max_contention_depth = self.max_contention_depth.max(other.max_contention_depth);
        self.barriers += other.barriers;
        self.edges_scanned += other.edges_scanned;
        self.edges_passed += other.edges_passed;
        self.queue_pushes += other.queue_pushes;
        self.dedup_ops += other.dedup_ops;
        self.cache.merge(&other.cache);
    }

    /// Fraction of scanned edges that did **not** pass the frontier test —
    /// the paper's futile-work ratio. `0.0` when nothing was scanned.
    pub fn futile_edge_ratio(&self) -> f64 {
        if self.edges_scanned == 0 {
            0.0
        } else {
            (self.edges_scanned - self.edges_passed.min(self.edges_scanned)) as f64
                / self.edges_scanned as f64
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
        if self.mem_transactions == 0 {
            0.0
        } else {
            self.coalesced_transactions as f64 / self.mem_transactions as f64
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
            self.warp_execs,
            self.active_lanes,
            self.lane_slots,
            self.divergent_warps,
            self.divergence_stalls,
            self.mem_transactions,
            self.coalesced_transactions,
            self.uncoalesced_transactions,
            self.atomic_ops,
            self.atomic_conflicts,
            self.max_contention_depth,
            self.barriers,
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
    /// Memsim L1 misses per named buffer over all stages, in deterministic
    /// first-appearance order. Empty when memsim is off.
    pub fn buffer_miss_totals(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for st in &self.stages {
            merge_buffer_misses(&mut out, &st.buffer_misses);
        }
        out
    }

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

    /// Total host wall-clock seconds over all launches (nondeterministic;
    /// not part of the JSON report).
    pub fn wall_seconds(&self) -> f64 {
        self.launches.iter().map(|l| l.wall_s).sum()
    }

    /// Total host wall-clock seconds over launches of one kernel.
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

    /// Memsim L1 misses per named buffer, grouped by kernel name in
    /// first-appearance order. Kernels with no misses are omitted.
    pub fn kernel_buffer_totals(&self) -> Vec<(String, Vec<(String, u64)>)> {
        let mut out: Vec<(String, Vec<(String, u64)>)> = Vec::new();
        for l in &self.launches {
            let misses = l.buffer_miss_totals();
            if misses.is_empty() {
                continue;
            }
            match out.iter_mut().find(|(k, _)| *k == l.kernel) {
                Some((_, dst)) => merge_buffer_misses(dst, &misses),
                None => out.push((l.kernel.clone(), misses)),
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
pub fn merge_buffer_misses(dst: &mut Vec<(String, u64)>, src: &[(String, u64)]) {
    for (name, misses) in src {
        match dst.iter_mut().find(|(n, _)| n == name) {
            Some((_, m)) => *m += misses,
            None => dst.push((name.clone(), *misses)),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(scanned: u64, passed: u64, depth: u64) -> Counters {
        Counters {
            warp_execs: 2,
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

    #[test]
    fn wall_time_is_excluded_from_equality_but_summed() {
        let a = launch("k", 0, bucket(10, 5, 1));
        let mut b = a.clone();
        b.wall_s = 1.5;
        assert_eq!(a, b, "wall_s must not affect profile equality");
        let r = ProfileReport {
            launches: vec![a, b],
        };
        assert_eq!(r.wall_seconds(), 1.5);
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
        assert_eq!(a.warp_execs, 4);
        assert_eq!(a.lane_slots, 16);
    }

    #[test]
    fn derived_ratios() {
        let c = bucket(100, 40, 0);
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
        assert_eq!(r.kernel_buffer_totals()[0].0, "k");
    }

    #[test]
    fn buffer_miss_merge_keeps_first_appearance_order() {
        let mut dst = vec![("a".to_string(), 1u64)];
        merge_buffer_misses(&mut dst, &[("b".to_string(), 2), ("a".to_string(), 4)]);
        assert_eq!(dst, vec![("a".to_string(), 5), ("b".to_string(), 2)]);
    }
}
