//! `dynbc-telemetry`: update-lifecycle observability for the dynamic-BC
//! engines.
//!
//! The paper's headline measurements are *update pipeline* properties —
//! per-insertion latency distributions (Figure 2), the fraction of the
//! graph each insertion touches (Figure 1), and the Case 1/2/3 mix of the
//! Green et al. incremental algorithm. This crate provides the service
//! layer that records them:
//!
//! * a [`Registry`] of counters, gauges, and log-linear [`Histogram`]s
//!   with deterministic p50/p90/p99 queries;
//! * [`Span`]-based tracing of the update lifecycle
//!   (`update → validate → plan → stage[i] → launch → commit`) on the
//!   simulated clock, unified with `dynbc-prof` kernel profiles by
//!   [`unified_chrome_trace`] so host stages and device kernels share one
//!   Perfetto timeline;
//! * exporters: Prometheus text exposition ([`Telemetry::prometheus`]),
//!   a bounded JSON Lines [`EventLog`], and the Chrome trace.
//!
//! # Determinism contract
//!
//! Metric families are tagged with the [`Clock`] they derive from. `Model`
//! families (latency in simulated seconds, touched fractions, case
//! tallies, batch sizes) are reduced in deterministic order by the engines
//! and are bit-identical for any `DYNBC_HOST_THREADS`;
//! [`Telemetry::prometheus_deterministic`] renders exactly that subset.
//! `Wall` families measure real host time and vary run to run.
//!
//! Collection is gated by the engines behind `DYNBC_TELEMETRY=1` /
//! `set_telemetry(...)` following the racecheck/profiling template: a
//! single predictable branch per update when off, no allocation.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod hist;
mod registry;
mod trace;

use std::fmt::Write as _;

pub use dynbc_prof::{CacheCounters, ProfileReport};
pub use export::unified_chrome_trace;
pub use hist::Histogram;
pub use registry::{Clock, Registry};
pub use trace::{EventLog, Span, Trace, DEFAULT_EVENT_CAPACITY};

/// Family: update batches applied (counter).
pub const BATCHES_TOTAL: &str = "dynbc_batches_total";
/// Family: edge operations applied across all batches (counter).
pub const OPS_TOTAL: &str = "dynbc_ops_total";
/// Family: insertion/deletion case tallies, labelled `case="same|adjacent|distant"`.
pub const CASES_TOTAL: &str = "dynbc_cases_total";
/// Family: queue pushes observed during updates (counter; requires
/// profiling on the GPU engines, model queue ops on the CPU engine).
pub const QUEUE_OPS_TOTAL: &str = "dynbc_queue_ops_total";
/// Family: frontier dedup operations observed during updates (counter).
pub const DEDUP_OPS_TOTAL: &str = "dynbc_dedup_ops_total";
/// Family: per-batch update latency on the model clock (histogram).
pub const UPDATE_LATENCY_MODEL: &str = "dynbc_update_latency_model_seconds";
/// Family: per-batch update latency on the host wall clock (histogram).
pub const UPDATE_LATENCY_WALL: &str = "dynbc_update_latency_wall_seconds";
/// Family: operations per batch (histogram).
pub const BATCH_SIZE_OPS: &str = "dynbc_batch_size_ops";
/// Family: fraction of vertices touched per work-requiring (Case 2)
/// source scenario (histogram) — the paper's "typical scenarios touch a
/// tiny fraction of the graph" observation.
pub const TOUCHED_FRACTION: &str = "dynbc_touched_fraction";
/// Family: modeled L1 requests, labelled `outcome="hit|miss"` (counter;
/// requires `DYNBC_MEMSIM=1` on a GPU engine). Defined lazily on the
/// first observation carrying cache counters, so exposition output
/// without memsim stays byte-identical.
pub const MEMSIM_L1_TOTAL: &str = "dynbc_memsim_l1_requests_total";
/// Family: modeled L2 requests, labelled
/// `outcome="hit|miss|sector_fill"` (counter; a sector fill is a request
/// that hit the line's tag but had to fetch its 32 B sector).
pub const MEMSIM_L2_TOTAL: &str = "dynbc_memsim_l2_requests_total";
/// Family: modeled cache-line evictions, labelled `level="l1|l2"`
/// (counter).
pub const MEMSIM_EVICTIONS_TOTAL: &str = "dynbc_memsim_evictions_total";
/// Family: cumulative modeled L1 hit ratio (gauge; recomputed from the
/// accumulated counters after every batch).
pub const MEMSIM_L1_HIT_RATIO: &str = "dynbc_memsim_l1_hit_ratio";
/// Family: cumulative modeled L2 hit ratio (gauge; sector fills count as
/// misses — the line tag matched but DRAM was still touched).
pub const MEMSIM_L2_HIT_RATIO: &str = "dynbc_memsim_l2_hit_ratio";

/// Everything one engine batch contributes to the metrics registry.
///
/// Engines fill this from data they already reduced deterministically
/// (model seconds, case tallies, per-source touched counts) plus the wall
/// clock they already measure for `BatchResult`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateObservation {
    /// Edge operations in the batch.
    pub ops: u64,
    /// Batch latency on the model clock, seconds.
    pub model_seconds: f64,
    /// Batch latency on the host wall clock, seconds.
    pub wall_seconds: f64,
    /// Case 1 (same-level) insertions/deletions in the batch.
    pub case_same: u64,
    /// Case 2 (adjacent-level) operations in the batch.
    pub case_adjacent: u64,
    /// Case 3 (distant-level) operations in the batch.
    pub case_distant: u64,
    /// Touched-vertex fraction (`touched / n`) of each work-requiring
    /// source scenario in the batch, in deterministic (op, source) order.
    pub touched_fractions: Vec<f64>,
    /// Queue pushes attributed to the batch (0 when not measured).
    pub queue_ops: u64,
    /// Dedup operations attributed to the batch (0 when not measured).
    pub dedup_ops: u64,
    /// Modeled cache-hierarchy counters attributed to the batch (empty
    /// unless the engine ran with `DYNBC_MEMSIM=1`).
    pub cache: CacheCounters,
}

/// Telemetry collector owned by one engine: metrics registry, lifecycle
/// trace, and bounded event log.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    registry: Registry,
    trace: Trace,
    events: EventLog,
    updates: u64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A collector with the standard `dynbc_*` family set defined (in
    /// fixed order, so exposition output is comparable across engines).
    pub fn new() -> Self {
        let mut r = Registry::new();
        r.define_counter(BATCHES_TOTAL, "Update batches applied.", Clock::Model);
        r.define_counter(
            OPS_TOTAL,
            "Edge operations applied across all batches.",
            Clock::Model,
        );
        r.define_counter(
            CASES_TOTAL,
            "Green et al. case tallies per operation x source.",
            Clock::Model,
        );
        r.define_counter(
            QUEUE_OPS_TOTAL,
            "Frontier queue pushes observed during updates.",
            Clock::Model,
        );
        r.define_counter(
            DEDUP_OPS_TOTAL,
            "Frontier dedup operations observed during updates.",
            Clock::Model,
        );
        r.define_histogram(
            UPDATE_LATENCY_MODEL,
            "Per-batch update latency on the simulated clock, seconds.",
            Clock::Model,
        );
        r.define_histogram(
            UPDATE_LATENCY_WALL,
            "Per-batch update latency on the host wall clock, seconds.",
            Clock::Wall,
        );
        r.define_histogram(BATCH_SIZE_OPS, "Edge operations per batch.", Clock::Model);
        r.define_histogram(
            TOUCHED_FRACTION,
            "Fraction of vertices touched per work-requiring source scenario.",
            Clock::Model,
        );
        Telemetry {
            registry: r,
            trace: Trace::new(),
            events: EventLog::default(),
            updates: 0,
        }
    }

    /// Record one batch: increments counters, feeds the histograms, and
    /// appends a JSON Lines event record.
    pub fn record_update(&mut self, obs: &UpdateObservation) {
        self.updates += 1;
        let r = &mut self.registry;
        r.inc(BATCHES_TOTAL, &[], 1);
        r.inc(OPS_TOTAL, &[], obs.ops);
        r.inc(CASES_TOTAL, &[("case", "same")], obs.case_same);
        r.inc(CASES_TOTAL, &[("case", "adjacent")], obs.case_adjacent);
        r.inc(CASES_TOTAL, &[("case", "distant")], obs.case_distant);
        r.inc(QUEUE_OPS_TOTAL, &[], obs.queue_ops);
        r.inc(DEDUP_OPS_TOTAL, &[], obs.dedup_ops);
        r.observe(UPDATE_LATENCY_MODEL, &[], obs.model_seconds);
        r.observe(UPDATE_LATENCY_WALL, &[], obs.wall_seconds);
        r.observe(BATCH_SIZE_OPS, &[], obs.ops as f64);
        let mut max_touched = 0.0f64;
        for &f in &obs.touched_fractions {
            r.observe(TOUCHED_FRACTION, &[], f);
            max_touched = max_touched.max(f);
        }
        if !obs.cache.is_empty() {
            self.record_cache(&obs.cache);
        }
        let mut rec = String::with_capacity(160);
        let _ = write!(
            rec,
            "{{\"event\": \"update\", \"seq\": {}, \"ops\": {}, \"model_seconds\": {}, \
             \"wall_seconds\": {}, \"case_same\": {}, \"case_adjacent\": {}, \
             \"case_distant\": {}, \"max_touched_fraction\": {}",
            self.updates,
            obs.ops,
            export::json_number(obs.model_seconds),
            export::json_number(obs.wall_seconds),
            obs.case_same,
            obs.case_adjacent,
            obs.case_distant,
            export::json_number(max_touched),
        );
        if !obs.cache.is_empty() {
            let _ = write!(
                rec,
                ", \"l1_hit_rate\": {}, \"l2_hit_rate\": {}",
                export::json_number(obs.cache.l1_hit_rate()),
                export::json_number(obs.cache.l2_hit_rate()),
            );
        }
        rec.push('}');
        self.events.push(rec);
    }

    /// Feeds one batch's cache counters into the `dynbc_memsim_*`
    /// families, defining them on first use (a collector that never sees
    /// memsim data exposes no memsim families at all). Ratio gauges are
    /// recomputed from the *accumulated* counters, so at scrape time they
    /// read as run-to-date hit rates, not last-batch rates.
    fn record_cache(&mut self, cache: &CacheCounters) {
        let r = &mut self.registry;
        if !r.is_defined(MEMSIM_L1_TOTAL) {
            r.define_counter(
                MEMSIM_L1_TOTAL,
                "Modeled L1 requests per outcome (dynbc-memsim).",
                Clock::Model,
            );
            r.define_counter(
                MEMSIM_L2_TOTAL,
                "Modeled shared-L2 requests per outcome (dynbc-memsim).",
                Clock::Model,
            );
            r.define_counter(
                MEMSIM_EVICTIONS_TOTAL,
                "Modeled cache-line evictions per hierarchy level (dynbc-memsim).",
                Clock::Model,
            );
            r.define_gauge(
                MEMSIM_L1_HIT_RATIO,
                "Cumulative modeled L1 hit ratio (dynbc-memsim).",
                Clock::Model,
            );
            r.define_gauge(
                MEMSIM_L2_HIT_RATIO,
                "Cumulative modeled L2 hit ratio; sector fills count as misses (dynbc-memsim).",
                Clock::Model,
            );
        }
        r.inc(MEMSIM_L1_TOTAL, &[("outcome", "hit")], cache.l1_hits);
        r.inc(MEMSIM_L1_TOTAL, &[("outcome", "miss")], cache.l1_misses);
        r.inc(MEMSIM_L2_TOTAL, &[("outcome", "hit")], cache.l2_hits);
        r.inc(MEMSIM_L2_TOTAL, &[("outcome", "miss")], cache.l2_misses);
        r.inc(
            MEMSIM_L2_TOTAL,
            &[("outcome", "sector_fill")],
            cache.l2_sector_fills,
        );
        r.inc(
            MEMSIM_EVICTIONS_TOTAL,
            &[("level", "l1")],
            cache.l1_evictions,
        );
        r.inc(
            MEMSIM_EVICTIONS_TOTAL,
            &[("level", "l2")],
            cache.l2_evictions,
        );
        let l1_hits = r
            .counter_value(MEMSIM_L1_TOTAL, &[("outcome", "hit")])
            .unwrap_or(0);
        let l1_misses = r
            .counter_value(MEMSIM_L1_TOTAL, &[("outcome", "miss")])
            .unwrap_or(0);
        if l1_hits + l1_misses > 0 {
            r.set_gauge(
                MEMSIM_L1_HIT_RATIO,
                &[],
                l1_hits as f64 / (l1_hits + l1_misses) as f64,
            );
        }
        let l2_hits = r
            .counter_value(MEMSIM_L2_TOTAL, &[("outcome", "hit")])
            .unwrap_or(0);
        let l2_other = r
            .counter_value(MEMSIM_L2_TOTAL, &[("outcome", "miss")])
            .unwrap_or(0)
            + r.counter_value(MEMSIM_L2_TOTAL, &[("outcome", "sector_fill")])
                .unwrap_or(0);
        if l2_hits + l2_other > 0 {
            r.set_gauge(
                MEMSIM_L2_HIT_RATIO,
                &[],
                l2_hits as f64 / (l2_hits + l2_other) as f64,
            );
        }
    }

    /// Append a lifecycle span.
    pub fn push_span(&mut self, span: Span) {
        self.trace.push(span);
    }

    /// Batches recorded so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The lifecycle trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The bounded event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The histogram of family `name` (unlabelled series), if observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.registry.histogram(name)
    }

    /// Prometheus text exposition of every family.
    pub fn prometheus(&self) -> String {
        self.registry.prometheus()
    }

    /// Prometheus text exposition of the [`Clock::Model`] families only —
    /// bit-identical for any `DYNBC_HOST_THREADS`.
    pub fn prometheus_deterministic(&self) -> String {
        self.registry.prometheus_deterministic()
    }

    /// The retained event window as JSON Lines.
    pub fn events_jsonl(&self) -> String {
        self.events.to_jsonl()
    }

    /// Unified Chrome/Perfetto trace: this collector's lifecycle spans
    /// plus each labelled device kernel profile, on one simulated-clock
    /// timeline. See [`unified_chrome_trace`].
    pub fn chrome_trace_json(&self, devices: &[(String, &ProfileReport)]) -> String {
        unified_chrome_trace(&self.trace, devices)
    }

    /// Fold another collector's metrics, spans and events into this one,
    /// after its own. A serving shard folds each batch's engine report
    /// into its running total this way, in commit order.
    pub fn merge_from(&mut self, other: &Telemetry) {
        self.registry.merge(other.registry());
        self.trace.extend_from(other.trace());
        self.events.extend_from(other.events());
        self.updates += other.updates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> UpdateObservation {
        UpdateObservation {
            ops: 4,
            model_seconds: 0.25,
            wall_seconds: 0.001,
            case_same: 1,
            case_adjacent: 1,
            case_distant: 2,
            touched_fractions: vec![0.01, 0.02, 0.3, 0.04],
            queue_ops: 12,
            dedup_ops: 3,
            cache: CacheCounters::default(),
        }
    }

    #[test]
    fn record_update_feeds_every_family() {
        let mut t = Telemetry::new();
        t.record_update(&obs());
        let r = t.registry();
        assert_eq!(r.counter_value(BATCHES_TOTAL, &[]), Some(1));
        assert_eq!(r.counter_value(OPS_TOTAL, &[]), Some(4));
        assert_eq!(
            r.counter_value(CASES_TOTAL, &[("case", "distant")]),
            Some(2)
        );
        assert_eq!(r.counter_value(QUEUE_OPS_TOTAL, &[]), Some(12));
        assert_eq!(t.histogram(UPDATE_LATENCY_MODEL).unwrap().count(), 1);
        assert_eq!(t.histogram(TOUCHED_FRACTION).unwrap().count(), 4);
        assert_eq!(t.updates(), 1);
        // A cache-empty observation must leave no memsim trace anywhere:
        // the families are defined lazily so off-path output is unchanged.
        assert!(!r.is_defined(MEMSIM_L1_TOTAL));
        assert!(!t.prometheus().contains("dynbc_memsim"));
        let line = t.events_jsonl();
        assert!(line.contains("\"event\": \"update\""), "{line}");
        assert!(line.contains("\"max_touched_fraction\": 0.3"), "{line}");
        assert!(!line.contains("l1_hit_rate"), "{line}");
    }

    #[test]
    fn memsim_families_define_lazily_and_accumulate() {
        let cache = CacheCounters {
            l1_hits: 30,
            l1_misses: 10,
            l1_evictions: 2,
            l2_hits: 6,
            l2_misses: 3,
            l2_sector_fills: 1,
            l2_evictions: 1,
        };
        let mut t = Telemetry::new();
        t.record_update(&UpdateObservation { cache, ..obs() });
        let r = t.registry();
        assert_eq!(
            r.counter_value(MEMSIM_L1_TOTAL, &[("outcome", "hit")]),
            Some(30)
        );
        assert_eq!(
            r.counter_value(MEMSIM_L2_TOTAL, &[("outcome", "sector_fill")]),
            Some(1)
        );
        assert_eq!(
            r.counter_value(MEMSIM_EVICTIONS_TOTAL, &[("level", "l1")]),
            Some(2)
        );
        assert_eq!(r.gauge_value(MEMSIM_L1_HIT_RATIO, &[]), Some(0.75));
        assert_eq!(r.gauge_value(MEMSIM_L2_HIT_RATIO, &[]), Some(0.6));
        let line = t.events_jsonl();
        assert!(line.contains("\"l1_hit_rate\": 0.75"), "{line}");
        assert!(line.contains("\"l2_hit_rate\": 0.6"), "{line}");
        // A second batch doubles the counters; the ratio gauges are
        // cumulative, so they stay put.
        t.record_update(&UpdateObservation { cache, ..obs() });
        let r = t.registry();
        assert_eq!(
            r.counter_value(MEMSIM_L1_TOTAL, &[("outcome", "miss")]),
            Some(20)
        );
        assert_eq!(r.gauge_value(MEMSIM_L1_HIT_RATIO, &[]), Some(0.75));
    }

    #[test]
    fn prometheus_output_has_one_help_and_type_per_family() {
        let mut t = Telemetry::new();
        t.record_update(&UpdateObservation {
            cache: CacheCounters {
                l1_hits: 1,
                ..CacheCounters::default()
            },
            ..obs()
        });
        let text = t.prometheus();
        for fam in [
            BATCHES_TOTAL,
            OPS_TOTAL,
            CASES_TOTAL,
            QUEUE_OPS_TOTAL,
            DEDUP_OPS_TOTAL,
            UPDATE_LATENCY_MODEL,
            UPDATE_LATENCY_WALL,
            BATCH_SIZE_OPS,
            TOUCHED_FRACTION,
            MEMSIM_L1_TOTAL,
            MEMSIM_L2_TOTAL,
            MEMSIM_EVICTIONS_TOTAL,
            MEMSIM_L1_HIT_RATIO,
            MEMSIM_L2_HIT_RATIO,
        ] {
            assert_eq!(
                text.matches(&format!("# HELP {fam} ")).count(),
                1,
                "family {fam} in:\n{text}"
            );
            assert_eq!(
                text.matches(&format!("# TYPE {fam} ")).count(),
                1,
                "family {fam} in:\n{text}"
            );
        }
    }

    #[test]
    fn deterministic_exposition_excludes_wall_latency() {
        let mut t = Telemetry::new();
        t.record_update(&obs());
        let det = t.prometheus_deterministic();
        assert!(det.contains(UPDATE_LATENCY_MODEL), "{det}");
        assert!(!det.contains(UPDATE_LATENCY_WALL), "{det}");
    }

    #[test]
    fn merge_from_accumulates_in_order() {
        let mut a = Telemetry::new();
        let mut b = Telemetry::new();
        a.record_update(&obs());
        b.record_update(&obs());
        a.merge_from(&b);
        assert_eq!(a.updates(), 2);
        assert_eq!(a.registry().counter_value(OPS_TOTAL, &[]), Some(8));
        assert_eq!(a.histogram(TOUCHED_FRACTION).unwrap().count(), 8);
    }
}
