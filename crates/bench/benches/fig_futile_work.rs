//! Futile-work figure (ours): the paper's explanation for Table II,
//! measured directly with the simulator's hardware-style counters.
//!
//! The edge-parallel decomposition assigns one thread per arc and rescans
//! the *entire* arc list every BFS level, so almost every scanned edge
//! fails the frontier test ("futile" work); the node-parallel
//! decomposition only walks the adjacency of frontier vertices. This
//! harness runs the Section-IV insertion stream through both profiled GPU
//! engines on every suite graph and reports:
//!
//! * `fig_futile_work` — one row per (graph, decomposition) with the
//!   futile-edge ratio, occupancy, coalesced fraction, and queue/dedup
//!   pipeline volume;
//! * `kernel_profile` — per-kernel counter totals (one row per
//!   graph × kernel), the machine-readable form of an nvprof table.
//!
//! That the node-parallel futile ratio is strictly below the
//! edge-parallel one on **every** graph is asserted at reduced scale by
//! the workspace's `tests/paper_shape.rs`.

use dynbc_bc::gpu::Parallelism;
use dynbc_bench::table::Table;
use dynbc_bench::{build_setup, run_gpu_with, Config, HarnessReport};
use dynbc_gpusim::{Counters, DeviceConfig, ProfileReport};
use dynbc_graph::suite::TABLE_I;

/// Simulated seconds spent in launches of `kernel`.
fn kernel_seconds(report: &ProfileReport, kernel: &str) -> f64 {
    report
        .launches
        .iter()
        .filter(|l| l.kernel == kernel)
        .map(|l| l.seconds)
        .sum()
}

fn main() {
    let cfg = Config::from_env(0.3, 16, 12);
    let device = DeviceConfig::tesla_c2075();
    println!(
        "== Futile work: edge- vs node-parallel scanned/passed edges ({}; device = {}) ==\n",
        cfg.describe(),
        device.name
    );

    let mut table = Table::new(vec![
        "Graph",
        "Edge scanned",
        "Edge futile",
        "Node scanned",
        "Node futile",
        "Node occup.",
        "Node coal.",
    ]);
    let mut fig = HarnessReport::new("fig_futile_work");
    let mut kernels = HarnessReport::new("kernel_profile");
    for entry in &TABLE_I {
        let setup = build_setup(entry, &cfg);
        eprintln!(
            "[futile] {}: n={} m={} ... ",
            entry.short,
            setup.n(),
            setup.m()
        );
        let mut totals: Vec<Counters> = Vec::with_capacity(2);
        for par in [Parallelism::Edge, Parallelism::Node] {
            let (run, mut engine) = run_gpu_with(&setup, device, par, |e| e.set_profiling(true));
            let profile = engine.take_profile_report();
            let c = profile.total();
            fig.push_row(
                entry.short,
                &format!("GPU {par}"),
                run.total_model_seconds,
                run.total_wall_seconds,
            );
            fig.annotate("futile_ratio", c.futile_edge_ratio());
            fig.annotate("edges_scanned", c.edges_scanned as f64);
            fig.annotate("edges_passed", c.edges_passed as f64);
            fig.annotate("occupancy", c.occupancy());
            fig.annotate("coalesced_fraction", c.coalesced_fraction());
            fig.annotate("divergent_warps", c.divergent_warps as f64);
            fig.annotate("atomic_conflicts", c.stats.atomic_conflicts as f64);
            fig.annotate("queue_pushes", c.queue_pushes as f64);
            fig.annotate("dedup_ops", c.dedup_ops as f64);
            for (kernel, kc) in profile.kernel_totals() {
                kernels.push_row(
                    &format!("{}/{kernel}", entry.short),
                    &format!("GPU {par}"),
                    kernel_seconds(&profile, &kernel),
                    profile.kernel_wall_seconds(&kernel),
                );
                kernels.annotate("edges_scanned", kc.edges_scanned as f64);
                kernels.annotate("edges_passed", kc.edges_passed as f64);
                kernels.annotate("futile_ratio", kc.futile_edge_ratio());
                kernels.annotate("occupancy", kc.occupancy());
                kernels.annotate("coalesced_fraction", kc.coalesced_fraction());
                kernels.annotate("divergence_stalls", kc.divergence_stalls as f64);
                kernels.annotate("atomic_conflicts", kc.stats.atomic_conflicts as f64);
                kernels.annotate("max_contention_depth", kc.max_contention_depth as f64);
            }
            totals.push(c);
        }
        let (edge, node) = (&totals[0], &totals[1]);
        table.row(vec![
            entry.short.to_string(),
            format!("{}", edge.edges_scanned),
            format!("{:.4}", edge.futile_edge_ratio()),
            format!("{}", node.edges_scanned),
            format!("{:.4}", node.futile_edge_ratio()),
            format!("{:.3}", node.occupancy()),
            format!("{:.3}", node.coalesced_fraction()),
        ]);
    }
    println!("{}", table.render());
    if let Some(path) = fig.write_default() {
        println!("machine-readable rows appended to {}", path.display());
    }
    kernels.write_default();
}
