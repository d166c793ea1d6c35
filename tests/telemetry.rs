//! End-to-end tests of the telemetry subsystem through the dynamic-BC
//! engines: the determinism contract (model-clock metric families are
//! bit-identical for any `DYNBC_HOST_THREADS`), disabled-mode no-op
//! behaviour, the `DYNBC_TELEMETRY` environment knob, span tracing over
//! the batched update lifecycle, and the Prometheus exposition shape.

use dynbc::gpusim::{DeviceConfig, TELEMETRY_ENV};
use dynbc::prelude::*;
use dynbc::telemetry::{
    Telemetry, CASES_TOTAL, TOUCHED_FRACTION, UPDATE_LATENCY_MODEL, UPDATE_LATENCY_WALL,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes the env-knob test against the tests that assert telemetry
/// is *off* by default (`std::env` is process-global).
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// The fixed workload every test drives: a small-world graph, 8 sources,
/// and 12 mixed insert/delete ops (same stream as `tests/profiling.rs`).
fn workload() -> (EdgeList, Vec<VertexId>) {
    let mut rng = StdRng::seed_from_u64(42);
    let el = dynbc::graph::gen::ws(&mut rng, 150, 3, 0.2);
    let sources = sample_sources(&mut rng, 150, 8);
    (el, sources)
}

/// Applies the fixed mixed stream via a per-op callback (engines don't
/// share a trait; they share this closure protocol — the callback checks
/// its own graph and inserts or removes accordingly).
fn drive(mut apply: impl FnMut(u32, u32)) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut done = 0;
    while done < 12 {
        let a = rng.gen_range(0..150u32);
        let b = rng.gen_range(0..150u32);
        if a == b {
            continue;
        }
        apply(a, b);
        done += 1;
    }
}

/// Runs the stream through a telemetry-enabled GPU engine and returns the
/// final report.
fn gpu_telemetry(par: Parallelism, threads: usize) -> Telemetry {
    let (el, sources) = workload();
    let mut eng = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), par);
    eng.set_telemetry(true);
    eng.set_host_threads(threads);
    drive(|a, b| {
        if eng.graph().has_edge(a, b) {
            eng.remove_edge(a, b);
        } else {
            eng.insert_edge(a, b);
        }
    });
    eng.take_telemetry_report().expect("telemetry enabled")
}

#[test]
fn gpu_metrics_are_bit_identical_across_host_threads() {
    for par in [Parallelism::Node, Parallelism::Edge] {
        let baseline = gpu_telemetry(par, 1);
        let base_text = baseline.prometheus_deterministic();
        assert!(base_text.contains(UPDATE_LATENCY_MODEL), "{base_text}");
        for threads in [2usize, 8] {
            let got = gpu_telemetry(par, threads);
            assert_eq!(
                base_text,
                got.prometheus_deterministic(),
                "{par}: deterministic exposition differs at {threads} host threads"
            );
            // The headline quantiles, bit for bit.
            for name in [UPDATE_LATENCY_MODEL, TOUCHED_FRACTION] {
                let (b, g) = (
                    baseline.histogram(name).unwrap(),
                    got.histogram(name).unwrap(),
                );
                for q in [0.5, 0.9, 0.99] {
                    assert_eq!(
                        b.quantile(q).to_bits(),
                        g.quantile(q).to_bits(),
                        "{par}: {name} q{q} differs at {threads} host threads"
                    );
                }
            }
        }
    }
}

#[test]
fn cpu_and_gpu_agree_on_model_clock_families() {
    let (el, sources) = workload();
    let mut cpu = CpuDynamicBc::new(&el, &sources);
    cpu.set_telemetry(true);
    drive(|a, b| {
        if cpu.graph().has_edge(a, b) {
            cpu.remove_edge(a, b);
        } else {
            cpu.insert_edge(a, b);
        }
    });
    let cpu_tel = cpu.take_telemetry_report().unwrap();
    let gpu_tel = gpu_telemetry(Parallelism::Node, 1);
    // Case tallies and touched fractions derive from the shared update
    // semantics, so CPU and GPU must agree sample for sample; latency
    // histograms differ (different machine models).
    for labels in [("case", "same"), ("case", "adjacent"), ("case", "distant")] {
        assert_eq!(
            cpu_tel.registry().counter_value(CASES_TOTAL, &[labels]),
            gpu_tel.registry().counter_value(CASES_TOTAL, &[labels]),
            "case tally {labels:?} differs between CPU and GPU engines"
        );
    }
    assert_eq!(
        cpu_tel.histogram(TOUCHED_FRACTION),
        gpu_tel.histogram(TOUCHED_FRACTION)
    );
}

#[test]
fn disabled_mode_is_a_no_op() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (el, sources) = workload();
    let mut plain = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node);
    let mut telem = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node);
    telem.set_telemetry(true);
    assert!(plain.telemetry_report().is_none());
    assert!(!plain.telemetry());
    // Telemetry never changes what an engine computes: identical modeled
    // time and identical BC, bit for bit, with it on or off.
    let a = plain.insert_edge(3, 117);
    let b = telem.insert_edge(3, 117);
    assert_eq!(a.model_seconds.to_bits(), b.model_seconds.to_bits());
    for (x, y) in plain
        .state_snapshot()
        .bc
        .iter()
        .zip(&telem.state_snapshot().bc)
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    // Turning it off again drops the report and the span log.
    telem.set_telemetry(false);
    assert!(telem.telemetry_report().is_none());
    assert!(plain.take_telemetry_report().is_none());
}

#[test]
fn telemetry_env_knob_enables_collection() {
    let _guard = ENV_LOCK.lock().unwrap();
    let el = EdgeList::from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    std::env::set_var(TELEMETRY_ENV, "1");
    let mut eng = GpuDynamicBc::new(&el, &[0, 3], DeviceConfig::test_tiny(), Parallelism::Node);
    std::env::remove_var(TELEMETRY_ENV);
    assert!(eng.telemetry());
    eng.insert_edge(0, 5);
    let tel = eng.telemetry_report().unwrap();
    assert_eq!(tel.updates(), 1);
    let text = tel.prometheus();
    for family in [
        "dynbc_batches_total",
        UPDATE_LATENCY_MODEL,
        UPDATE_LATENCY_WALL,
        TOUCHED_FRACTION,
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    assert!(text.contains("le=\"+Inf\""), "{text}");
}

#[test]
fn spans_cover_the_update_lifecycle_and_export_to_chrome_trace() {
    let tel = gpu_telemetry(Parallelism::Node, 1);
    let spans = tel.trace().spans();
    assert!(!spans.is_empty());
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"update"), "{names:?}");
    assert!(names.contains(&"validate"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("stage#")), "{names:?}");
    assert!(names.contains(&"plan"), "{names:?}");
    assert!(names.contains(&"commit"), "{names:?}");
    // Kernel launches ride along at depth 2 between plan and commit.
    assert!(names.iter().any(|n| n.starts_with("batch::")), "{names:?}");
    let json = tel.chrome_trace_json(&[]);
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("\"ph\": \"X\""), "{json}");
    // Events are valid JSON shape-wise: balanced braces/brackets.
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced chrome trace JSON");
}

#[test]
fn jsonl_event_log_records_one_event_per_update() {
    let tel = gpu_telemetry(Parallelism::Node, 1);
    assert_eq!(tel.updates(), 12);
    let log = tel.events_jsonl();
    assert_eq!(log.lines().count(), 12, "{log}");
    for line in log.lines() {
        assert!(line.starts_with("{\"event\": \"update\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
}

/// Each `stage#i` span counts its work items per kind, and on the native
/// backend also carries each kind's wall seconds.
#[test]
fn stage_spans_split_items_and_native_wall_by_kind() {
    // Path 0-1-2-3 plus 0-4: removing (1, 2) is D3 from source 0.
    let el = EdgeList::from_pairs(5, [(0, 1), (1, 2), (2, 3), (0, 4)]);
    for backend in [Backend::Simulator, Backend::Native] {
        let mut eng = GpuDynamicBc::new(&el, &[0], DeviceConfig::test_tiny(), Parallelism::Node)
            .with_backend(backend);
        eng.set_telemetry(true);
        eng.apply_batch(&[EdgeOp::Insert(3, 4), EdgeOp::Remove(0, 4)]);
        eng.remove_edge(1, 2);
        let tel = eng.take_telemetry_report().unwrap();
        let stages: Vec<_> = tel
            .trace()
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("stage#"))
            .collect();
        let sum = |key: &str| -> f64 {
            stages
                .iter()
                .flat_map(|s| s.args.iter())
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| v)
                .sum()
        };
        assert_eq!(sum("items_insert"), 1.0, "{backend}");
        assert!(sum("items_d2") + sum("items_d3") >= 2.0, "{backend}");
        assert!(sum("items_d3") >= 1.0, "{backend}");
        let timed = stages
            .iter()
            .all(|s| s.args.iter().any(|(k, _)| *k == "wall_d3_s"));
        assert_eq!(timed, backend == Backend::Native, "{backend}");
    }
}
