//! Metric names and units (they must match `BENCHMARK.json`), the
//! human-readable report, and the one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them; NOTES.md says what each means on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run. A layer a workload does not
/// pass through reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("visible_p50_ms", "ms"),
    ("visible_p90_ms", "ms"),
    ("visible_p99_ms", "ms"),
    ("read_p99_us", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.backpressure_frac", "ratio"),
    ("serve.batch_width_mean.a", "ops"),
    ("serve.batch_width_mean.b", "ops"),
    ("serve.epochs.a", "count"),
    ("serve.epochs.b", "count"),
    ("serve.worker_busy_frac.a", "ratio"),
    ("serve.worker_busy_frac.b", "ratio"),
    ("serve.topk_us_p50", "us"),
    ("engine.apply_ms_p50", "ms"),
    ("engine.apply_ms_p99", "ms"),
    ("engine.scores_us_p50", "us"),
    ("engine.stages_per_batch", "count"),
    ("engine.commit_share", "ratio"),
    ("engine.uncovered_share", "ratio"),
    ("engine.native_replay_s", "s"),
    ("engine.native_apply_ms_p50", "ms"),
    ("engine.hybrid_replay_s", "s"),
    ("engine.hybrid_apply_ms_p50", "ms"),
    ("plan.validate_share", "ratio"),
    ("plan.plan_share", "ratio"),
    ("native.stage_share", "ratio"),
    ("bc.case2_items", "count"),
    ("bc.case3_items", "count"),
    ("bc.touched_frac_p50", "ratio"),
    ("gpusim.stage_share", "ratio"),
    ("gpusim.node.launches", "count"),
    ("gpusim.node.lane_events", "count"),
    ("gpusim.node.mem_segments", "count"),
    ("gpusim.node.atomic_conflicts", "count"),
    ("gpusim.edge.launches", "count"),
    ("gpusim.edge.lane_events", "count"),
    ("gpusim.edge.mem_segments", "count"),
    ("gpusim.edge.atomic_conflicts", "count"),
    ("gpusim.launch_wall_ms_p50", "ms"),
    ("gpusim.host_ns_per_lane_event", "ns"),
    ("sim_node_inserts_per_s", "1/s"),
    ("sim_edge_inserts_per_s", "1/s"),
    ("model_us_per_insert_node", "us"),
    ("model_us_per_insert_edge", "us"),
    ("ds.queue_pushes", "count"),
    ("ds.dedup_ops", "count"),
    ("setup.brandes_s", "s"),
    ("setup.engine_new_s", "s"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted (edge updates sent or applied).
    pub attempted: u64,
    /// Ops refused or never made visible, plus failed verifications.
    pub failed: u64,
    /// Declared metrics measured so far, in measurement order.
    pub metrics: Vec<(&'static str, f64)>,
    /// One line per failed verification.
    pub failures: Vec<String>,
    /// Extra facts for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a declared metric (last value wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Counts a failed verification unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Human-readable report: every measured metric by name with its unit.
    pub fn human(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "workload {workload}");
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "  {name:<32} {value:>16.6} {}", unit_of(name));
        }
        let _ = writeln!(
            out,
            "  {:<32} {:>16.6} ratio ({} of {} attempted)",
            "failed_frac",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The result line: the end-to-end metrics, or with `traced` the
    /// per-layer ones (0 for a layer the workload does not pass through).
    pub fn json_line(&self, traced: bool) -> String {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, unit)) in names.iter().enumerate() {
            let v = self.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares a metric the benchmark does not"
        );
    }

    #[test]
    fn result_line_lists_every_metric_of_its_pass() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        let line = o.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(
            o.json_line(true).matches("\"value\"").count(),
            PER_LAYER.len()
        );
    }
}
