//! Table II: dynamic CPU vs dynamic GPU (edge- and node-parallel) across
//! the benchmark suite.
//!
//! The paper's numbers (Tesla C2075 vs one i7-2600K core, 100 insertions,
//! k = 256): node-parallel wins everywhere, up to 110×; edge-parallel
//! ranges from 20.6× (caida) down to 1.03× (delaunay — its many BFS
//! levels each rescan all |E| arcs). The shape claims — node beats edge
//! on every graph, node beats the CPU by a large factor everywhere, and
//! edge's advantage over the CPU collapses on the mesh — are asserted at
//! reduced scale by the workspace's `tests/paper_shape.rs`; this harness
//! prints the table at full default scale.

use dynbc_bc::gpu::Parallelism;
use dynbc_bench::table::{fmt_seconds, fmt_speedup, Table};
use dynbc_bench::{build_setup, emit_bench_json, paper, run_cpu, run_gpu, Config, DynRun};
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::suite::TABLE_I;

fn main() {
    let cfg = Config::from_env(0.35, 24, 20);
    let device = DeviceConfig::tesla_c2075();
    println!(
        "== Table II: dynamic CPU vs dynamic GPU ({}; device = {}) ==\n",
        cfg.describe(),
        device.name
    );

    let mut table = Table::new(vec![
        "Graph",
        "CPU (model)",
        "GPU Edge",
        "Edge speedup",
        "GPU Node",
        "Node speedup",
        "paper E/N",
    ]);
    let mut measured: Vec<(&str, DynRun)> = Vec::new();
    for entry in &TABLE_I {
        let setup = build_setup(entry, &cfg);
        eprintln!(
            "[table2] {}: n={} m={} ... ",
            entry.short,
            setup.n(),
            setup.m()
        );
        let cpu = run_cpu(&setup);
        let edge = run_gpu(&setup, device, Parallelism::Edge);
        let node = run_gpu(&setup, device, Parallelism::Node);
        let edge_speedup = cpu.total_model_seconds / edge.total_model_seconds;
        let node_speedup = cpu.total_model_seconds / node.total_model_seconds;
        let p = paper::table2_row(entry.short).unwrap();
        table.row(vec![
            entry.short.to_string(),
            fmt_seconds(cpu.total_model_seconds),
            fmt_seconds(edge.total_model_seconds),
            fmt_speedup(edge_speedup),
            fmt_seconds(node.total_model_seconds),
            fmt_speedup(node_speedup),
            format!(
                "{} / {}",
                fmt_speedup(p.edge_speedup()),
                fmt_speedup(p.node_speedup())
            ),
        ]);
        measured.push((entry.short, cpu));
        measured.push((entry.short, edge));
        measured.push((entry.short, node));
    }
    println!("{}", table.render());
    let rows: Vec<(&str, &DynRun)> = measured.iter().map(|(g, r)| (*g, r)).collect();
    if let Some(path) = emit_bench_json("table2_cpu_vs_gpu", &rows) {
        println!("machine-readable rows appended to {}", path.display());
    }
    println!(
        "paper headline: node up to {:.0}x over CPU; node > edge on all graphs",
        paper::MAX_NODE_SPEEDUP_VS_CPU
    );
}
