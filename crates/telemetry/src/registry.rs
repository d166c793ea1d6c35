//! Metric registry: named families of counters, gauges, and histograms
//! with Prometheus text-exposition output.
//!
//! Families are stored in definition order and series within a family in
//! first-touch order, so exposition output is deterministic. Every family
//! carries a [`Clock`] tag: `Model` families are derived from the
//! simulator's deterministic cost model (bit-identical for any
//! `DYNBC_HOST_THREADS`), `Wall` families measure real host time and vary
//! run to run. [`Registry::prometheus_deterministic`] renders only the
//! `Model` families, which is what the determinism tests compare.

use std::fmt::Write as _;

use crate::hist::Histogram;

/// Which clock a metric family is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated/model clock or pure event counts: bit-deterministic.
    Model,
    /// Host wall clock: varies run to run, excluded from determinism
    /// comparisons.
    Wall,
}

/// Kind (and value storage) of a metric family.
#[derive(Debug, Clone, PartialEq)]
enum Kind {
    /// Monotonic integer counter.
    Counter,
    /// Last-write-wins floating-point gauge.
    Gauge,
    /// Log-linear distribution.
    Histogram,
}

/// One labelled series inside a family.
#[derive(Debug, Clone, PartialEq)]
struct Series {
    /// Rendered label set, e.g. `{case="same"}`; empty for unlabelled.
    labels: String,
    /// Counter value (Counter kind).
    counter: u64,
    /// Gauge value (Gauge kind).
    gauge: f64,
    /// Distribution (Histogram kind); boxed to keep unlabelled families
    /// cheap.
    hist: Option<Box<Histogram>>,
}

/// A named metric family.
#[derive(Debug, Clone, PartialEq)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    clock: Clock,
    series: Vec<Series>,
}

/// Definition-ordered collection of metric families.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    families: Vec<Family>,
}

/// Render a label set (`&[("case", "same")]`) into Prometheus syntax.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push('}');
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a family; `kind`-specific accessors create series lazily.
    fn define(&mut self, name: &str, help: &str, kind: Kind, clock: Clock) {
        debug_assert!(
            !self.families.iter().any(|f| f.name == name),
            "duplicate metric family {name}"
        );
        self.families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            clock,
            series: Vec::new(),
        });
    }

    /// Define a counter family.
    pub fn define_counter(&mut self, name: &str, help: &str, clock: Clock) {
        self.define(name, help, Kind::Counter, clock);
    }

    /// Define a gauge family.
    pub fn define_gauge(&mut self, name: &str, help: &str, clock: Clock) {
        self.define(name, help, Kind::Gauge, clock);
    }

    /// Define a histogram family.
    pub fn define_histogram(&mut self, name: &str, help: &str, clock: Clock) {
        self.define(name, help, Kind::Histogram, clock);
    }

    /// Whether a family named `name` has been defined. Lets collectors
    /// define opt-in families (e.g. the memsim set) on first use, so the
    /// exposition output of runs that never feed them stays byte-identical
    /// to builds that predate the family.
    pub fn is_defined(&self, name: &str) -> bool {
        self.families.iter().any(|f| f.name == name)
    }

    /// Find or create the series for `labels` in family `name`.
    fn series_mut(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut Series {
        let fam = self
            .families
            .iter_mut()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("metric family {name} not defined"));
        let rendered = render_labels(labels);
        let idx = match fam.series.iter().position(|s| s.labels == rendered) {
            Some(i) => i,
            None => {
                fam.series.push(Series {
                    labels: rendered,
                    counter: 0,
                    gauge: 0.0,
                    hist: matches!(fam.kind, Kind::Histogram).then(|| Box::new(Histogram::new())),
                });
                fam.series.len() - 1
            }
        };
        &mut fam.series[idx]
    }

    /// Increment a counter series by `by`.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.series_mut(name, labels).counter += by;
    }

    /// Set a gauge series.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.series_mut(name, labels).gauge = value;
    }

    /// Record a sample into a histogram series.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.series_mut(name, labels)
            .hist
            .as_mut()
            .expect("observe on non-histogram family")
            .observe(value);
    }

    /// Merge a pre-aggregated [`Histogram`] into a histogram series —
    /// for exporters that aggregate outside the registry and label the
    /// result at scrape time (e.g. per-tenant serving shards).
    pub fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.series_mut(name, labels)
            .hist
            .as_mut()
            .expect("merge_histogram on non-histogram family")
            .merge(h);
    }

    /// Current value of a counter series, if it exists.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let rendered = render_labels(labels);
        let fam = self.families.iter().find(|f| f.name == name)?;
        fam.series
            .iter()
            .find(|s| s.labels == rendered)
            .map(|s| s.counter)
    }

    /// Current value of a gauge series, if it exists.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let rendered = render_labels(labels);
        let fam = self.families.iter().find(|f| f.name == name)?;
        fam.series
            .iter()
            .find(|s| s.labels == rendered)
            .map(|s| s.gauge)
    }

    /// The unlabelled histogram of family `name`, if any samples structure
    /// exists (present as soon as the family has been observed once).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        let fam = self.families.iter().find(|f| f.name == name)?;
        fam.series
            .iter()
            .find(|s| s.labels.is_empty())
            .and_then(|s| s.hist.as_deref())
    }

    /// Merge another registry's series into this one. Families are matched
    /// by name (definitions must agree); counters add, histograms merge,
    /// gauges take the other registry's value. `other`'s series order is
    /// preserved for series new to `self`, keeping output deterministic
    /// when registries are merged in a fixed order (a serving shard merges
    /// each batch's engine report in commit order).
    pub fn merge(&mut self, other: &Registry) {
        for of in &other.families {
            let fam = match self.families.iter_mut().find(|f| f.name == of.name) {
                Some(f) => f,
                None => {
                    self.families.push(of.clone());
                    continue;
                }
            };
            debug_assert_eq!(fam.kind, of.kind, "family {} kind mismatch", of.name);
            for os in &of.series {
                match fam.series.iter_mut().find(|s| s.labels == os.labels) {
                    Some(s) => {
                        s.counter += os.counter;
                        s.gauge = os.gauge;
                        if let (Some(h), Some(oh)) = (s.hist.as_mut(), os.hist.as_deref()) {
                            h.merge(oh);
                        }
                    }
                    None => fam.series.push(os.clone()),
                }
            }
        }
    }

    /// Render every family in Prometheus text-exposition format.
    pub fn prometheus(&self) -> String {
        self.render(false)
    }

    /// Render only the [`Clock::Model`] families — the subset guaranteed
    /// bit-identical for any `DYNBC_HOST_THREADS`.
    pub fn prometheus_deterministic(&self) -> String {
        self.render(true)
    }

    fn render(&self, deterministic_only: bool) -> String {
        let mut out = String::new();
        for fam in &self.families {
            if deterministic_only && fam.clock == Clock::Wall {
                continue;
            }
            let kind = match fam.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Histogram => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", fam.name, fam.help);
            let _ = writeln!(out, "# TYPE {} {}", fam.name, kind);
            // Series render in sorted label order, not first-touch order:
            // exposition output is then independent of which thread (or
            // tenant) touched a family first.
            let mut series: Vec<&Series> = fam.series.iter().collect();
            series.sort_by(|a, b| a.labels.cmp(&b.labels));
            for s in series {
                match fam.kind {
                    Kind::Counter => {
                        let _ = writeln!(out, "{}{} {}", fam.name, s.labels, s.counter);
                    }
                    Kind::Gauge => {
                        let _ = writeln!(out, "{}{} {}", fam.name, s.labels, s.gauge);
                    }
                    Kind::Histogram => {
                        if let Some(h) = s.hist.as_deref() {
                            h.prometheus_lines_labelled(&fam.name, &s.labels, &mut out);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut r = Registry::new();
        r.define_counter("ops_total", "Ops applied.", Clock::Model);
        r.define_gauge("util", "Device utilization.", Clock::Model);
        r.define_histogram("lat", "Latency.", Clock::Model);
        r.inc("ops_total", &[], 3);
        r.inc("ops_total", &[("case", "same")], 2);
        r.set_gauge("util", &[("device", "0")], 0.5);
        r.observe("lat", &[], 1.0);
        assert_eq!(r.counter_value("ops_total", &[]), Some(3));
        assert_eq!(r.counter_value("ops_total", &[("case", "same")]), Some(2));
        assert_eq!(r.gauge_value("util", &[("device", "0")]), Some(0.5));
        assert_eq!(r.histogram("lat").unwrap().count(), 1);
        let text = r.prometheus();
        assert!(text.contains("# TYPE ops_total counter"), "{text}");
        assert!(text.contains("ops_total{case=\"same\"} 2"), "{text}");
        assert!(text.contains("util{device=\"0\"} 0.5"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1"), "{text}");
    }

    #[test]
    fn deterministic_rendering_skips_wall_families() {
        let mut r = Registry::new();
        r.define_histogram("model_lat", "Model latency.", Clock::Model);
        r.define_histogram("wall_lat", "Wall latency.", Clock::Wall);
        r.observe("model_lat", &[], 1.0);
        r.observe("wall_lat", &[], 0.123);
        let det = r.prometheus_deterministic();
        assert!(det.contains("model_lat"), "{det}");
        assert!(!det.contains("wall_lat"), "{det}");
        assert!(r.prometheus().contains("wall_lat"));
    }

    #[test]
    fn exposition_sorts_labels_regardless_of_touch_order() {
        // Two registries touch the same tenant series in opposite order —
        // e.g. under different DYNBC_HOST_THREADS the first commit may come
        // from a different shard — yet the exposition must be bit-identical.
        let mk = |tenants: &[&str]| {
            let mut r = Registry::new();
            r.define_counter("ops_total", "Ops.", Clock::Model);
            r.define_histogram("lat", "Latency.", Clock::Model);
            for (i, t) in tenants.iter().enumerate() {
                r.inc("ops_total", &[("tenant", t)], 1 + i as u64);
                r.observe("lat", &[("tenant", t)], 1.0);
            }
            r
        };
        let mut fwd = mk(&["a", "b"]);
        let mut rev = mk(&["b", "a"]);
        // Equalize the values (mk gives the first-touched tenant 1).
        fwd.inc("ops_total", &[("tenant", "a")], 2);
        fwd.inc("ops_total", &[("tenant", "b")], 1);
        rev.inc("ops_total", &[("tenant", "a")], 1);
        rev.inc("ops_total", &[("tenant", "b")], 2);
        assert_eq!(
            fwd.prometheus_deterministic(),
            rev.prometheus_deterministic()
        );
        let text = fwd.prometheus();
        let a = text.find("ops_total{tenant=\"a\"}").unwrap();
        let b = text.find("ops_total{tenant=\"b\"}").unwrap();
        assert!(a < b, "label sets must sort in exposition output:\n{text}");
    }

    #[test]
    fn labelled_histograms_render_with_labels() {
        let mut r = Registry::new();
        r.define_histogram("lat", "Latency.", Clock::Model);
        r.observe("lat", &[("tenant", "t0")], 1.0);
        r.observe("lat", &[("tenant", "t0")], 1.0);
        let text = r.prometheus();
        assert!(
            text.contains("lat_bucket{tenant=\"t0\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("lat_sum{tenant=\"t0\"} 2"), "{text}");
        assert!(text.contains("lat_count{tenant=\"t0\"} 2"), "{text}");
    }

    #[test]
    fn merge_adds_counters_and_histograms_in_device_order() {
        let mk = |n: u64| {
            let mut r = Registry::new();
            r.define_counter("c", "C.", Clock::Model);
            r.define_histogram("h", "H.", Clock::Model);
            r.inc("c", &[], n);
            r.observe("h", &[], n as f64);
            r
        };
        let mut a = mk(1);
        a.merge(&mk(2));
        assert_eq!(a.counter_value("c", &[]), Some(3));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }
}
