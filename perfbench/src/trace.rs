//! In-memory spans recorded by the benchmark at each layer boundary, a
//! self-time check over the replayed `apply_batch` spans, and a Chrome
//! trace writer (open the file in Perfetto).
//!
//! Spans of one batch share a trace id: the snapshot epoch that made its
//! ops visible. A disabled tracer records nothing.

use std::fmt::Write as _;
use std::time::Instant;

use dynbc_telemetry::Span as EngineSpan;

use crate::loadgen::now;

/// Largest share of traced `apply_batch` wall time that the engine's
/// `validate`/`plan`/`stage#i`/`commit` spans may leave uncovered. A
/// missing engine span leaves far more than this uncovered.
pub const SELF_TIME_TOLERANCE: f64 = 0.10;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub trace: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    trace: u64,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            origin,
            on,
            trace: 0,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false, now())
    }

    /// Sets the trace id (an epoch, or an op sequence number until
    /// [`Tracer::map_traces`]) stamped on the spans that follow.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    /// Records a span from `t0` to `t1`; returns its id when tracing.
    pub fn span(
        &mut self,
        name: &str,
        parent: Option<u32>,
        t0: Instant,
        t1: Instant,
    ) -> Option<u32> {
        let start = t0.saturating_duration_since(self.origin).as_nanos() as u64;
        self.span_ns(name, parent, start, (t1 - t0).as_nanos() as u64)
    }

    fn span_ns(
        &mut self,
        name: &str,
        parent: Option<u32>,
        start_ns: u64,
        dur_ns: u64,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(SpanRec {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            dur_ns,
            trace: self.trace,
        });
        Some(id)
    }

    /// Re-stamps the spans named `name`, whose trace id is an op sequence
    /// number, with the epoch that made the op visible.
    pub fn map_traces(&mut self, name: &str, epoch_of: impl Fn(u64) -> u64) {
        for s in self.spans.iter_mut().filter(|s| s.name == name) {
            s.trace = epoch_of(s.trace);
        }
    }

    /// Nests one batch's engine telemetry spans under `parent` (a replayed
    /// `apply_batch` span starting at `t0`), laid out in execution order:
    /// `validate`, then per stage `plan`, `stage#i` (with its launches) and
    /// `commit`. Returns the wall seconds each layer covered.
    pub fn nest_engine_spans(
        &mut self,
        parent: Option<u32>,
        t0: Instant,
        spans: &[EngineSpan],
    ) -> EngineSplit {
        let mut split = EngineSplit::default();
        let mut at = t0.saturating_duration_since(self.origin).as_nanos() as u64;
        let place = |tr: &mut Tracer, name: &str, parent: Option<u32>, at: &mut u64, wall: f64| {
            let dur = (wall * 1e9) as u64;
            let id = tr.span_ns(name, parent, *at, dur);
            *at += dur;
            id
        };
        let mut i = 0;
        while i < spans.len() {
            let s = &spans[i];
            if s.name == "validate" {
                split.validate_s += s.wall_s;
                place(self, "engine.validate", parent, &mut at, s.wall_s);
                i += 1;
            } else if s.name.starts_with("stage#") {
                // A stage's spans are pushed as stage#i, plan, launches…,
                // commit; plan ran before the stage body and commit after.
                let stage = s;
                let mut j = i + 1;
                let mut launches = Vec::new();
                let mut commit = 0.0;
                while j < spans.len() && spans[j].depth == 2 {
                    match spans[j].name.as_str() {
                        "plan" => {
                            split.plan_s += spans[j].wall_s;
                            place(self, "plan.plan", parent, &mut at, spans[j].wall_s);
                        }
                        "commit" => commit += spans[j].wall_s,
                        _ => launches.push(&spans[j]),
                    }
                    j += 1;
                }
                split.stage_s += stage.wall_s;
                split.stages += 1;
                let mut inner = at;
                let sid = place(self, "engine.stage", parent, &mut at, stage.wall_s);
                for l in launches {
                    split.launch_s.push(l.wall_s);
                    place(
                        self,
                        &format!("gpusim.{}", l.name),
                        sid,
                        &mut inner,
                        l.wall_s,
                    );
                }
                split.commit_s += commit;
                place(self, "engine.commit", parent, &mut at, commit);
                i = j;
            } else {
                i += 1;
            }
        }
        split
    }

    /// Self time of each span name: its duration minus the part its child
    /// spans cover, summed over all spans of that name.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns;
            }
        }
        let mut by_name: Vec<(String, f64)> = Vec::new();
        for s in &self.spans {
            let own = s.dur_ns.saturating_sub(child_ns[s.id as usize]) as f64 * 1e-9;
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => by_name.push((s.name.clone(), own)),
            }
        }
        by_name.sort_by(|a, b| a.0.cmp(&b.0));
        by_name
    }

    /// Chrome trace JSON: one complete event per span, `args` carrying the
    /// trace id and parent.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        for s in &self.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"trace\": {}, \"parent\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.trace,
                s.parent.map_or(-1, |p| p as i64)
            );
        }
        out.push_str("\n], \"metadata\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{k}\": \"{}\"",
                if i == 0 { "" } else { ", " },
                v.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        out.push_str("}}\n");
        out
    }
}

/// Wall seconds of one or more batches split by engine layer.
#[derive(Debug, Default, Clone)]
pub struct EngineSplit {
    pub validate_s: f64,
    pub plan_s: f64,
    pub stage_s: f64,
    pub commit_s: f64,
    pub stages: u64,
    /// Wall seconds of each simulated kernel launch.
    pub launch_s: Vec<f64>,
}

impl EngineSplit {
    pub fn add(&mut self, o: &EngineSplit) {
        self.validate_s += o.validate_s;
        self.plan_s += o.plan_s;
        self.stage_s += o.stage_s;
        self.commit_s += o.commit_s;
        self.launch_s.extend(&o.launch_s);
        self.stages += o.stages;
    }

    /// Wall seconds the engine spans cover.
    pub fn covered_s(&self) -> f64 {
        self.validate_s + self.plan_s + self.stage_s + self.commit_s
    }
}

/// Share of `apply_s` (traced `apply_batch` wall) left uncovered by the
/// engine spans, and whether it is within [`SELF_TIME_TOLERANCE`]. The
/// covered part may not exceed the parent either.
pub fn self_time_check(split: &EngineSplit, apply_s: f64) -> (f64, bool) {
    let uncovered = 1.0 - split.covered_s() / apply_s;
    (uncovered, (0.0..=SELF_TIME_TOLERANCE).contains(&uncovered))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_spans_nest_in_execution_order_and_self_times_add_up() {
        let origin = now();
        let mut tr = Tracer::new(true, origin);
        let spans = vec![
            EngineSpan::new("update", 0, 0.0, 0.0).wall(0.010),
            EngineSpan::instant("validate", 1, 0.0, 0.001),
            EngineSpan::new("stage#0", 1, 0.0, 0.0).wall(0.006),
            EngineSpan::instant("plan", 2, 0.0, 0.001),
            EngineSpan::new("k", 2, 0.0, 0.0).wall(0.004),
            EngineSpan::instant("commit", 2, 0.0, 0.001),
        ];
        let parent = tr.span(
            "engine.apply_batch",
            None,
            origin,
            origin + std::time::Duration::from_millis(10),
        );
        let split = tr.nest_engine_spans(parent, origin, &spans);
        assert_eq!(split.stages, 1);
        assert!((split.covered_s() - 0.009).abs() < 1e-12);
        let names: Vec<&str> = tr.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "engine.apply_batch",
                "engine.validate",
                "plan.plan",
                "engine.stage",
                "gpusim.k",
                "engine.commit"
            ]
        );
        let selfs = tr.self_times();
        let total: f64 = selfs.iter().map(|(_, t)| t).sum();
        assert!(
            (total - 0.010).abs() < 1e-9,
            "self times sum to the root span"
        );
        let (uncovered, ok) = self_time_check(&split, 0.010);
        assert!((uncovered - 0.1).abs() < 1e-9 && ok);
        // Drop the stage span: the check must fail.
        let mut missing = split.clone();
        missing.stage_s = 0.0;
        assert!(!self_time_check(&missing, 0.010).1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let now = now();
        let mut tr = Tracer::new(false, now);
        assert_eq!(tr.span("x", None, now, now), None);
        assert!(tr.spans.is_empty());
    }
}
