//! Figure 1 of the paper via telemetry: per-insertion touched-vertex
//! fraction and update-latency distributions.
//!
//! The paper's core premise is that a streaming edge insertion perturbs
//! only a small neighbourhood of the shortest-path DAG, so recomputing
//! from scratch wastes almost all of its work. This harness measures that
//! directly from the [`dynbc_telemetry`] histograms: it runs the
//! Section-IV insertion stream through the telemetry-enabled CPU engine
//! and the node-parallel GPU engine on every suite graph and reports:
//!
//! * `fig1_touched_fraction` — one row per (graph, engine) with the
//!   median/p90/p99/max touched-vertex fraction over all work-requiring
//!   (Case 2) source scenarios of the stream (the `fig4_touched`
//!   population, here read back from the telemetry histogram);
//! * `update_latency` — one row per (graph, engine) with p50/p90/p99
//!   model-clock and host-wall update latency.
//!
//! That the **median** touched fraction stays below 10% of the vertex
//! set on every suite graph, for both engines, is asserted at reduced
//! scale by the workspace's `tests/paper_shape.rs`. Quantiles come from
//! the log-linear histogram, so they are bit-identical for any
//! `DYNBC_HOST_THREADS` (the telemetry determinism contract).

use dynbc_bc::gpu::Parallelism;
use dynbc_bench::table::Table;
use dynbc_bench::{build_setup, run_cpu_with, run_gpu_with, Config, HarnessReport};
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::suite::TABLE_I;
use dynbc_telemetry::{TOUCHED_FRACTION, UPDATE_LATENCY_MODEL, UPDATE_LATENCY_WALL};

fn main() {
    // Same defaults as `fig4_touched`: the two harnesses quantile the same
    // scenario population, one from raw outcomes, one from the telemetry
    // histogram.
    let cfg = Config::from_env(0.5, 32, 40);
    let device = DeviceConfig::tesla_c2075();
    println!(
        "== Figure 1: per-insertion touched-vertex fraction via telemetry \
         ({}; device = {}) ==\n",
        cfg.describe(),
        device.name
    );

    let mut table = Table::new(vec![
        "Graph",
        "Engine",
        "Touched p50",
        "Touched p90",
        "Touched p99",
        "Touched max",
        "Latency p50 (model s)",
    ]);
    let mut fig = HarnessReport::new("fig1_touched_fraction");
    let mut lat = HarnessReport::new("update_latency");
    for entry in &TABLE_I {
        let setup = build_setup(entry, &cfg);
        eprintln!(
            "[fig1] {}: n={} m={} ... ",
            entry.short,
            setup.n(),
            setup.m()
        );
        let (cpu, mut cpu_engine) = run_cpu_with(&setup, |e| e.set_telemetry(true));
        let (gpu, mut gpu_engine) =
            run_gpu_with(&setup, device, Parallelism::Node, |e| e.set_telemetry(true));
        for (run, telemetry) in [
            (cpu, cpu_engine.take_telemetry_report()),
            (gpu, gpu_engine.take_telemetry_report()),
        ] {
            let telemetry = telemetry.expect("telemetry enabled");
            let touched = telemetry
                .histogram(TOUCHED_FRACTION)
                .expect("touched-fraction histogram populated");
            let model = telemetry
                .histogram(UPDATE_LATENCY_MODEL)
                .expect("model-latency histogram populated");
            let wall = telemetry
                .histogram(UPDATE_LATENCY_WALL)
                .expect("wall-latency histogram populated");
            fig.push_row_with(
                entry.short,
                &run.label,
                run.total_model_seconds,
                run.total_wall_seconds,
                &[
                    ("touched_fraction_p50", touched.p50()),
                    ("touched_fraction_p90", touched.p90()),
                    ("touched_fraction_p99", touched.p99()),
                    ("touched_fraction_max", touched.max()),
                    ("case2_scenarios", touched.count() as f64),
                    ("updates", setup.insertions.len() as f64),
                ],
            );
            lat.push_row_with(
                entry.short,
                &run.label,
                run.total_model_seconds,
                run.total_wall_seconds,
                &[
                    ("latency_model_p50", model.p50()),
                    ("latency_model_p90", model.p90()),
                    ("latency_model_p99", model.p99()),
                    ("latency_wall_p50", wall.p50()),
                    ("latency_wall_p90", wall.p90()),
                    ("latency_wall_p99", wall.p99()),
                ],
            );
            table.row(vec![
                entry.short.to_string(),
                run.label.clone(),
                format!("{:.4}", touched.p50()),
                format!("{:.4}", touched.p90()),
                format!("{:.4}", touched.p99()),
                format!("{:.4}", touched.max()),
                format!("{:.3e}", model.p50()),
            ]);
        }
    }
    println!("{}", table.render());
    if let Some(path) = fig.write_default() {
        println!("machine-readable rows appended to {}", path.display());
    }
    lat.write_default();
}
