//! How an engine records one update batch. Every engine's `apply_batch`
//! opens a [`BatchTrace`] with [`Collector::begin`] (validation, timed),
//! adds only the spans it alone knows (`op#i` on the CPU engine;
//! `stage#i`, `plan`, kernel and `commit` on the GPU engine) and closes
//! it with [`BatchTrace::finish`] (the `update` and `validate` spans, the
//! metrics, the [`BatchResult`]). The only reader of `DYNBC_TELEMETRY`.

use crate::cases::InsertionCase;
use crate::dynamic::result::{BatchResult, OpOutcome};
use crate::plan;
use dynbc_gpusim::knob::{self, TELEMETRY_ENV};
use dynbc_graph::{EdgeOp, SlackCsr};
use dynbc_telemetry::{CacheCounters, Span, Telemetry, UpdateObservation};
use std::time::Instant;

/// Reads `DYNBC_TELEMETRY` (the [`knob::flag_from_env`] grammar): the
/// default telemetry switch of every engine built afterwards and of
/// `dynbc-serve`'s `ServeConfig::from_env`.
pub fn telemetry_from_env() -> bool {
    knob::flag_from_env(TELEMETRY_ENV)
}

/// An engine's telemetry collector: `None` while telemetry is off.
#[derive(Debug, Clone, Default)]
pub(crate) struct Collector(Option<Box<Telemetry>>);

impl Collector {
    /// A collector switched by [`telemetry_from_env`].
    pub(crate) fn from_env() -> Self {
        Self(telemetry_from_env().then(Box::default))
    }

    /// Turns collection on (keeping what was collected) or off (dropping it).
    pub(crate) fn set(&mut self, on: bool) {
        self.0 = on.then(|| self.0.take().unwrap_or_default());
    }

    /// True when batches record telemetry.
    pub(crate) fn on(&self) -> bool {
        self.0.is_some()
    }

    /// The telemetry collected so far.
    pub(crate) fn report(&self) -> Option<&Telemetry> {
        self.0.as_deref()
    }

    /// Drains the collected telemetry, leaving a fresh collector behind.
    pub(crate) fn take(&mut self) -> Option<Telemetry> {
        self.0.as_mut().map(|t| std::mem::take(&mut **t))
    }

    /// Opens a batch whose model clock starts at `start_s`: validates
    /// `batch` against the engine's graph `g`, timing the validation
    /// when telemetry is on.
    ///
    /// # Panics
    /// Panics on the first invalid op (out-of-range endpoint, self loop,
    /// duplicate insertion, removal of an absent edge).
    pub(crate) fn begin(&self, g: &SlackCsr, batch: &[EdgeOp], start_s: f64) -> BatchTrace {
        // dynbc-lint: allow(no-wall-clock) — wall_s is an observability-only telemetry field; no model result reads it
        let wall_start = Instant::now();
        plan::validate_batch(g.vertex_count(), |u, v| g.has_edge(u, v), batch)
            .unwrap_or_else(|e| panic!("{e}"));
        BatchTrace {
            validate_wall: secs_since(self.on().then_some(wall_start)),
            wall_start,
            start_s,
            n: g.vertex_count(),
            spans: self.on().then(Vec::new),
        }
    }
}

/// One open batch: its timing and, with telemetry on, the spans the
/// engine has recorded for it.
#[derive(Debug)]
pub(crate) struct BatchTrace {
    wall_start: Instant,
    validate_wall: f64,
    /// The engine's model clock when the batch began, seconds.
    pub(crate) start_s: f64,
    n: usize,
    spans: Option<Vec<Span>>,
}

impl BatchTrace {
    /// True when this batch records spans.
    pub(crate) fn timed(&self) -> bool {
        self.spans.is_some()
    }

    /// The current instant when this batch records spans.
    pub(crate) fn stopwatch(&self) -> Option<Instant> {
        // dynbc-lint: allow(no-wall-clock) — span wall times are observability-only telemetry fields; no model result reads them
        self.timed().then(Instant::now)
    }

    /// Appends one of the engine's spans (dropped with telemetry off).
    pub(crate) fn push(&mut self, span: Span) {
        if let Some(spans) = &mut self.spans {
            spans.push(span);
        }
    }

    /// Closes the batch, whose ops had outcomes `per_op` and took
    /// `model_seconds` on the engine's clock. With telemetry on it
    /// records the batch into `collector`, `counters` supplying its
    /// queue pushes, dedup ops and cache counters. The
    /// touched-fraction histogram gets one sample per work-requiring
    /// (Case 2) `(op, source)` scenario — the `fig4_touched` population,
    /// so its median is the median scenario, not the median insertion.
    pub(crate) fn finish(
        self,
        collector: &mut Collector,
        per_op: Vec<OpOutcome>,
        model_seconds: f64,
        counters: impl FnOnce() -> (u64, u64, CacheCounters),
    ) -> BatchResult {
        let wall_seconds = self.wall_start.elapsed().as_secs_f64();
        if let (Some(tel), Some(spans)) = (collector.0.as_deref_mut(), self.spans) {
            tel.push_span(
                Span::new("update", 0, self.start_s, model_seconds)
                    .wall(wall_seconds)
                    .arg("ops", per_op.len() as f64),
            );
            let validate = Span::instant("validate", 1, self.start_s, self.validate_wall);
            for s in std::iter::once(validate).chain(spans) {
                tel.push_span(s);
            }
            let (queue_ops, dedup_ops, cache) = counters();
            let mut obs = UpdateObservation {
                ops: per_op.len() as u64,
                model_seconds,
                wall_seconds,
                queue_ops,
                dedup_ops,
                cache,
                ..UpdateObservation::default()
            };
            for op in &per_op {
                obs.case_same += op.cases.same;
                obs.case_adjacent += op.cases.adjacent;
                obs.case_distant += op.cases.distant;
                obs.touched_fractions.extend(
                    op.per_source
                        .iter()
                        .filter(|s| s.case == InsertionCase::Adjacent)
                        .map(|s| s.touched as f64 / self.n.max(1) as f64),
                );
            }
            tel.record_update(&obs);
        }
        BatchResult {
            per_op,
            model_seconds,
            wall_seconds,
        }
    }
}

/// Seconds since `t`, or 0 when nothing was timed.
pub(crate) fn secs_since(t: Option<Instant>) -> f64 {
    t.map_or(0.0, |t| t.elapsed().as_secs_f64())
}
