//! Figure 4: fraction of the graph touched by each Case 2 scenario.
//!
//! The paper's scatterplot shows, across 62 844 Case 2 scenarios, a
//! maximum touched fraction of ≈ 35 % with the overwhelming mass near
//! zero — the observation that motivates explicit work tracking. We print
//! the per-graph distribution (quantiles instead of 60 000 scatter
//! points); the two properties — a bounded maximum and a near-zero
//! median — are asserted at reduced scale by the workspace's
//! `tests/paper_shape.rs`.

use dynbc_bc::cases::InsertionCase;
use dynbc_bench::table::Table;
use dynbc_bench::{build_setup, paper, run_cpu, Config};
use dynbc_graph::suite::TABLE_I;

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[pos.min(sorted.len() - 1)]
}

fn main() {
    let cfg = Config::from_env(0.5, 32, 40);
    println!(
        "== Figure 4: touched fraction per Case 2 scenario ({}) ==\n",
        cfg.describe()
    );

    let mut table = Table::new(vec![
        "Graph",
        "Case2 scenarios",
        "p50 %",
        "p90 %",
        "p99 %",
        "max %",
    ]);
    let mut all: Vec<f64> = Vec::new();
    for entry in &TABLE_I {
        let setup = build_setup(entry, &cfg);
        let n = setup.n() as f64;
        let run = run_cpu(&setup);
        let mut fracs: Vec<f64> = run
            .per_insertion
            .iter()
            .flat_map(|r| &r.per_source)
            .filter(|o| o.case == InsertionCase::Adjacent)
            .map(|o| o.touched as f64 / n)
            .collect();
        fracs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        all.extend_from_slice(&fracs);
        table.row(vec![
            entry.short.to_string(),
            fracs.len().to_string(),
            format!("{:.3}", 100.0 * quantile(&fracs, 0.5)),
            format!("{:.3}", 100.0 * quantile(&fracs, 0.9)),
            format!("{:.3}", 100.0 * quantile(&fracs, 0.99)),
            format!("{:.3}", 100.0 * fracs.last().copied().unwrap_or(0.0)),
        ]);
    }
    println!("{}", table.render());

    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let max = all.last().copied().unwrap_or(0.0);
    let median = quantile(&all, 0.5);
    println!(
        "overall: {} Case 2 scenarios, median touched {:.3}%, max {:.2}%",
        all.len(),
        100.0 * median,
        100.0 * max
    );
    println!(
        "paper (full scale): max ≈ {:.0}%, dense mass near zero",
        100.0 * paper::FIG4_MAX_TOUCHED_FRACTION
    );
}
