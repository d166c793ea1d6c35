//! Experiment harnesses regenerating every table and figure of
//! McLaughlin & Bader (IPDPS Workshops 2014) for EXPERIMENTS.md.
//!
//! Each `benches/*.rs` target prints one artifact at its default scale;
//! the claim each one illustrates is asserted at reduced scale, at every
//! commit, by the workspace's `tests/paper_shape.rs`:
//!
//! | Target | Artifact | Claim it illustrates |
//! |---|---|---|
//! | `fig1_blocks` | Figure 1 | static-BC speedup peaks at one block per SM |
//! | `fig2_cases` | Figure 2 | Case 2 dominates the work-requiring scenarios |
//! | `table2_cpu_vs_gpu` | Table II | node ≫ edge ≥ CPU for dynamic updates |
//! | `table3_update_vs_recompute` | Table III | even the slowest update beats recomputation |
//! | `fig4_touched` | Figure 4 | updates touch a tiny fraction of the graph |
//! | `ablation` | (ours) | design choices: dedup strategy, incremental-vs-pull Case 2 |
//! | `fig_futile_work` | (ours) | profiler counters: node-parallel futile-edge ratio < edge-parallel on every graph |
//! | `fig1_touched_fraction` | Figure 1 (ours, via telemetry) | median per-insertion touched fraction < 10% of |V| on every graph |
//! | `cache_model` | (ours, via memsim) | node-parallel L1 hit rate > edge-parallel on every graph; degree-sorted CSR lifts the small-L2 hit rate (asserted here) |
//! | `micro` | (ours) | Criterion microbenches of the substrate and instrumentation overheads |
//! | `lint_runtime` | (ours) | `dynbc-lint` wall time over the workspace |
//!
//! The serve path and the native backend are measured by the
//! separate `perfbench` benchmark, not here.
//!
//! Scale defaults are reduced so the suite finishes on one CPU core;
//! `DYNBC_SCALE`, `DYNBC_SOURCES`, `DYNBC_INSERTIONS`, and `DYNBC_SEED`
//! environment variables scale toward paper size. Absolute numbers are
//! *simulated* seconds from the `dynbc-gpusim` machine model; the claims
//! under reproduction are ratio and ordering claims.

pub mod config;
pub mod driver;
pub mod paper;
pub mod report;
pub mod stream;
pub mod table;

pub use config::Config;
pub use driver::{
    build_setup, emit_bench_json, run_cpu, run_cpu_with, run_gpu, run_gpu_with, DynRun, Setup,
};
pub use report::HarnessReport;
