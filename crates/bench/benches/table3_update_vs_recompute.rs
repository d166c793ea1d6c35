//! Table III: node-parallel dynamic updates vs full GPU recomputation.
//!
//! For each graph: one static (from-scratch) GPU BC run is the
//! recomputation cost; the dynamic run's slowest / average / fastest
//! per-insertion times are compared against it. Paper headline: even the
//! *slowest* update beats recomputation (2.15×–43.3×), the average is
//! ~45× across the suite, and the fastest updates (all-Case-1
//! insertions) win by orders of magnitude. The first two claims are
//! asserted at reduced scale by the workspace's `tests/paper_shape.rs`.

use dynbc_bc::cases::InsertionCase;
use dynbc_bc::gpu::{static_bc_gpu, Parallelism};
use dynbc_bench::table::{fmt_seconds, fmt_speedup, Table};
use dynbc_bench::{build_setup, paper, run_gpu, Config};
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::suite::TABLE_I;
use dynbc_graph::Csr;

fn main() {
    let cfg = Config::from_env(0.35, 24, 20);
    let device = DeviceConfig::tesla_c2075();
    println!(
        "== Table III: node-parallel updates vs GPU recomputation ({}; device = {}) ==\n",
        cfg.describe(),
        device.name
    );

    let mut table = Table::new(vec![
        "Graph",
        "Recompute",
        "Slowest",
        "(speedup)",
        "Average",
        "(speedup)",
        "Fastest",
        "(speedup)",
        "paper avg",
    ]);
    let mut avg_speedups = Vec::new();
    for entry in &TABLE_I {
        let setup = build_setup(entry, &cfg);
        eprintln!("[table3] {} ...", entry.short);
        // Recomputation baseline: static node-parallel BC over the final
        // graph (the strongest static baseline; see DESIGN.md).
        let mut final_graph = setup.start.clone();
        for &(u, v) in &setup.insertions {
            final_graph.insert_edge(u, v);
        }
        let csr = Csr::from_edge_list(&final_graph);
        let recompute = static_bc_gpu(
            device,
            &csr,
            &setup.sources,
            Parallelism::Node,
            device.num_sms,
        );
        let dynamic = run_gpu(&setup, device, Parallelism::Node);
        let (slow, avg, fast) = (dynamic.slowest(), dynamic.average(), dynamic.fastest());
        avg_speedups.push(recompute.seconds / avg);
        // Note whether any insertion was the all-Case-1 ideal.
        let any_all_case1 = dynamic
            .per_insertion
            .iter()
            .any(|r| r.per_source.iter().all(|o| o.case == InsertionCase::Same));
        let p = paper::table3_row(entry.short).unwrap();
        table.row(vec![
            format!(
                "{}{}",
                entry.short,
                if any_all_case1 {
                    " (has all-Case1)"
                } else {
                    ""
                }
            ),
            fmt_seconds(recompute.seconds),
            fmt_seconds(slow),
            fmt_speedup(recompute.seconds / slow),
            fmt_seconds(avg),
            fmt_speedup(recompute.seconds / avg),
            fmt_seconds(fast),
            fmt_speedup(recompute.seconds / fast),
            fmt_speedup(p.recompute_s / p.average_s),
        ]);
    }
    println!("{}", table.render());

    let geo_mean_avg =
        (avg_speedups.iter().map(|s| s.ln()).sum::<f64>() / avg_speedups.len() as f64).exp();
    println!(
        "average-update speedup over recomputation: geometric mean {:.1}x (paper arithmetic mean ≈ {:.0}x)",
        geo_mean_avg,
        paper::AVG_UPDATE_SPEEDUP_VS_RECOMPUTE
    );
}
