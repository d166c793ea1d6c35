//! Span-based tracing of the update lifecycle and a bounded JSON Lines
//! event log.
//!
//! Spans run on the *model* clock (the same simulated clock
//! `dynbc_gpusim::LaunchProfile`s use), so host pipeline stages and device
//! kernel spans line up on one timeline. Host phases that do no model work
//! (validate, plan, commit) carry a zero model duration and export as
//! instant events, with their wall-clock cost attached as an argument.

use std::fmt::Write as _;

/// One span (or instant marker) on the update-lifecycle timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase name, e.g. `update`, `validate`, `stage#0`, `batch::fused::node#0`.
    pub name: String,
    /// Nesting depth (0 = `update`, 1 = lifecycle phase, 2 = per-stage
    /// detail). Informational: Chrome/Perfetto nest by containment.
    pub depth: u32,
    /// Start time on the model clock, seconds.
    pub start_s: f64,
    /// Duration on the model clock, seconds. `0.0` marks an off-clock host
    /// phase, exported as an instant event.
    pub dur_s: f64,
    /// Wall-clock cost of the phase, seconds (not deterministic).
    pub wall_s: f64,
    /// Extra numeric arguments, exported verbatim into the trace event.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    /// A span covering `[start_s, start_s + dur_s]` on the model clock.
    pub fn new(name: impl Into<String>, depth: u32, start_s: f64, dur_s: f64) -> Self {
        Span {
            name: name.into(),
            depth,
            start_s,
            dur_s,
            wall_s: 0.0,
            args: Vec::new(),
        }
    }

    /// An off-clock host phase at `at_s` whose real cost was `wall_s`.
    pub fn instant(name: impl Into<String>, depth: u32, at_s: f64, wall_s: f64) -> Self {
        Span {
            name: name.into(),
            depth,
            start_s: at_s,
            dur_s: 0.0,
            wall_s,
            args: Vec::new(),
        }
    }

    /// Attach the wall-clock cost.
    pub fn wall(mut self, wall_s: f64) -> Self {
        self.wall_s = wall_s;
        self
    }

    /// Attach a numeric argument.
    pub fn arg(mut self, key: &'static str, value: f64) -> Self {
        self.args.push((key, value));
        self
    }
}

/// Append-only list of lifecycle spans, in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// All spans, in emission order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append all spans from another trace, in its emission order (see
    /// [`crate::Telemetry::merge_from`]).
    pub fn extend_from(&mut self, other: &Trace) {
        self.spans.extend_from_slice(&other.spans);
    }
}

/// Bounded ring buffer of JSON Lines event records.
///
/// Each record is an event kind plus its pre-rendered JSON members. When
/// the buffer is full the oldest record is dropped and counted, so a
/// long-running service keeps a recent window at fixed memory cost.
/// Records are numbered when rendered, so a log merged from many
/// collectors numbers its events 1, 2, … in merge order.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    records: std::collections::VecDeque<(&'static str, String)>,
    capacity: usize,
    dropped: u64,
}

/// Default event-log capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

impl Default for EventLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    /// An empty log holding at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            records: std::collections::VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append one `event` record whose other JSON members are `fields`
    /// (rendered, comma-separated, without braces), evicting the oldest
    /// record when full.
    pub fn push(&mut self, event: &'static str, fields: String) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back((event, fields));
    }

    /// Records currently held, oldest first.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the retained window as JSON Lines, one object per line:
    /// `{"event": …, "seq": …, <fields>}`, where `seq` counts every record
    /// ever pushed, dropped ones included.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (pos, (event, fields)) in self.records.iter().enumerate() {
            let seq = self.dropped + pos as u64 + 1;
            let _ = writeln!(out, "{{\"event\": \"{event}\", \"seq\": {seq}, {fields}}}");
        }
        out
    }

    /// Merge another log's records after this one's; the capacity bound
    /// still applies, and the other log's drops count as this one's.
    pub fn extend_from(&mut self, other: &EventLog) {
        self.dropped += other.dropped;
        for (event, fields) in &other.records {
            self.push(event, fields.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_is_bounded_and_counts_drops() {
        let mut log = EventLog::with_capacity(2);
        log.push("e", "\"a\": 1".into());
        log.push("e", "\"a\": 2".into());
        log.push("e", "\"a\": 3".into());
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(
            log.to_jsonl(),
            "{\"event\": \"e\", \"seq\": 2, \"a\": 2}\n{\"event\": \"e\", \"seq\": 3, \"a\": 3}\n"
        );
    }

    #[test]
    fn merged_logs_number_events_in_merge_order() {
        let mut merged = EventLog::default();
        for a in 1..=3 {
            let mut one = EventLog::default();
            one.push("e", format!("\"a\": {a}"));
            merged.extend_from(&one);
        }
        merged.push("e", "\"a\": 4".into());
        let jsonl = merged.to_jsonl();
        let seqs: Vec<&str> = jsonl
            .lines()
            .map(|l| l.split(", ").nth(1).unwrap())
            .collect();
        assert_eq!(
            seqs,
            ["\"seq\": 1", "\"seq\": 2", "\"seq\": 3", "\"seq\": 4"]
        );
    }

    #[test]
    fn span_builders_set_fields() {
        let s = Span::new("stage#0", 1, 2.0, 0.5).wall(0.01).arg("ops", 4.0);
        assert_eq!(s.name, "stage#0");
        assert_eq!(s.wall_s, 0.01);
        assert_eq!(s.dur_s, 0.5);
        assert_eq!(s.args, vec![("ops", 4.0)]);
        let i = Span::instant("validate", 1, 2.0, 0.001);
        assert_eq!(i.dur_s, 0.0);
        assert_eq!(i.wall_s, 0.001);
    }
}
