//! Figure 2: distribution of update scenarios (Cases 1/2/3) across
//! (source × insertion) pairs for the benchmark suite.
//!
//! Paper headline: Case 2 is 37.3 % of all scenarios and 73.5 % of the
//! scenarios that require work; Case 1 (no work) is the plurality. That
//! Case 2 dominates the work cases and Case 1 is a substantial share is
//! asserted at reduced scale by the workspace's `tests/paper_shape.rs`.

use dynbc_bc::cases::CaseCounts;
use dynbc_bench::table::Table;
use dynbc_bench::{build_setup, paper, run_cpu, Config};
use dynbc_graph::suite::TABLE_I;

fn main() {
    let cfg = Config::from_env(0.5, 32, 40);
    println!(
        "== Figure 2: scenario distribution ({}) ==\n",
        cfg.describe()
    );

    let mut table = Table::new(vec![
        "Graph",
        "Scenarios",
        "Case1 %",
        "Case2 %",
        "Case3 %",
        "Case2 % of work",
    ]);
    let mut total = CaseCounts::default();
    for entry in &TABLE_I {
        let setup = build_setup(entry, &cfg);
        let run = run_cpu(&setup);
        let mut counts = CaseCounts::default();
        for r in &run.per_insertion {
            counts.add(&r.cases);
        }
        total.add(&counts);
        table.row(vec![
            entry.short.to_string(),
            counts.total().to_string(),
            format!("{:.1}", 100.0 * counts.same as f64 / counts.total() as f64),
            format!("{:.1}", 100.0 * counts.adjacent_share()),
            format!(
                "{:.1}",
                100.0 * counts.distant as f64 / counts.total() as f64
            ),
            format!("{:.1}", 100.0 * counts.adjacent_share_of_work()),
        ]);
    }
    table.row(vec![
        "ALL".to_string(),
        total.total().to_string(),
        format!("{:.1}", 100.0 * total.same as f64 / total.total() as f64),
        format!("{:.1}", 100.0 * total.adjacent_share()),
        format!("{:.1}", 100.0 * total.distant as f64 / total.total() as f64),
        format!("{:.1}", 100.0 * total.adjacent_share_of_work()),
    ]);
    println!("{}", table.render());
    println!(
        "paper (full scale): Case2 = {:.1}% of all, {:.1}% of work cases",
        100.0 * paper::FIG2_CASE2_SHARE,
        100.0 * paper::FIG2_CASE2_SHARE_OF_WORK
    );
}
