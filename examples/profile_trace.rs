//! Profile a dynamic-BC update stream and export a Chrome trace.
//!
//! Runs a short mixed insert/delete stream through the node-parallel GPU
//! engine with the hardware-counter profiler and the memsim
//! cache-hierarchy model enabled, prints the nvprof style per-kernel
//! summary plus modeled L1/L2 hit rates, and writes these artifacts:
//!
//! * `profile_report.json` — the full structured `ProfileReport`
//!   (per-launch, per-stage counters) for scripted analysis;
//! * `unified_trace.json` — the Chrome trace-event file; open it at
//!   <https://ui.perfetto.dev> (or `chrome://tracing`). One process
//!   holds the host update pipeline
//!   (`update → validate → plan → stage → launch → commit` spans) and one
//!   per device holds the kernel launches, per-SM block placement and the
//!   edge-work and L1/L2 hit-rate counter tracks, on the simulated
//!   timeline;
//! * `metrics.prom` — Prometheus text exposition of the update-lifecycle
//!   metrics registry;
//! * `events.jsonl` — the JSON Lines per-update event log.
//!
//! ```sh
//! cargo run --release --example profile_trace [-- OUT_DIR]
//! ```
//!
//! (`scripts/profile_trace.sh` wraps this.)

use dynbc::gpusim::DeviceConfig;
use dynbc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));

    let n = 2_000;
    let mut rng = StdRng::seed_from_u64(2014);
    let graph = dynbc::graph::gen::ba(&mut rng, n, 4);
    let sources = sample_sources(&mut rng, n, 24);
    let device = DeviceConfig::tesla_c2075();
    let mut engine = GpuDynamicBc::new(&graph, &sources, device, Parallelism::Node);
    engine.set_profiling(true);
    engine.set_memsim(true);
    engine.set_telemetry(true);

    println!(
        "profiling {} mixed edge ops on n={n} m={} (k={}, {}; node-parallel)\n",
        16,
        graph.edge_count(),
        sources.len(),
        device.name
    );
    let mut done = 0;
    while done < 16 {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a == b {
            continue;
        }
        if engine.graph().has_edge(a, b) {
            engine.remove_edge(a, b);
        } else {
            engine.insert_edge(a, b);
        }
        done += 1;
    }

    let report = engine.take_profile_report();
    let total = report.total();
    println!(
        "{} launches; {} edges scanned, {} passed (futile ratio {:.4})",
        report.launches.len(),
        total.edges_scanned,
        total.edges_passed,
        total.futile_edge_ratio()
    );
    println!(
        "occupancy {:.3}, coalesced fraction {:.3}, atomic conflicts {}, \
         peak contention depth {}",
        total.occupancy(),
        total.coalesced_fraction(),
        total.atomic_conflicts,
        total.max_contention_depth
    );
    println!(
        "memsim: L1 {:.3} hit rate ({} requests), L2 {:.3} hit rate ({} requests)",
        total.cache.l1_hit_rate(),
        total.cache.l1_requests(),
        total.cache.l2_hit_rate(),
        total.cache.l2_requests()
    );
    let mut hot = report.buffer_totals();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    if !hot.is_empty() {
        let shown = hot.len().min(4);
        print!("hottest buffers by L1 misses:");
        for (name, misses) in &hot[..shown] {
            print!(" {name}={misses}");
        }
        println!();
    }
    println!();

    println!(
        "{:<28} {:>12} {:>12} {:>8} {:>8}",
        "kernel stage", "scanned", "passed", "futile", "occup."
    );
    for (label, c) in report.stage_totals() {
        println!(
            "{label:<28} {:>12} {:>12} {:>8.4} {:>8.3}",
            c.edges_scanned,
            c.edges_passed,
            c.futile_edge_ratio(),
            c.occupancy()
        );
    }

    let telemetry = engine
        .take_telemetry_report()
        .expect("telemetry was enabled");
    let latency = telemetry
        .histogram(dynbc::telemetry::UPDATE_LATENCY_MODEL)
        .expect("latency histogram populated");
    println!(
        "update latency (model clock): p50 {:.3e}s, p90 {:.3e}s, p99 {:.3e}s",
        latency.p50(),
        latency.p90(),
        latency.p99()
    );

    let report_path = out_dir.join("profile_report.json");
    let unified_path = out_dir.join("unified_trace.json");
    let metrics_path = out_dir.join("metrics.prom");
    let events_path = out_dir.join("events.jsonl");
    std::fs::write(&report_path, report.to_json()).expect("write report");
    std::fs::write(
        &unified_path,
        telemetry.chrome_trace_json(&[(format!("GPU 0 ({})", device.name), &report)]),
    )
    .expect("write unified trace");
    std::fs::write(&metrics_path, telemetry.prometheus()).expect("write metrics");
    std::fs::write(&events_path, telemetry.events_jsonl()).expect("write events");
    println!("\nwrote {} (structured counters)", report_path.display());
    println!(
        "wrote {} (host pipeline + device launches, one Perfetto process each) \
         — load it at https://ui.perfetto.dev or chrome://tracing",
        unified_path.display()
    );
    println!("wrote {} (Prometheus exposition)", metrics_path.display());
    println!("wrote {} (per-update event log)", events_path.display());
}
