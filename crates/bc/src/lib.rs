//! `dynbc-bc` — betweenness centrality, static and dynamic, CPU and
//! (simulated) GPU.
//!
//! The core crate of the workspace: everything McLaughlin & Bader's paper
//! contributes lives here.
//!
//! * [`brandes`] — Algorithm 1 (exact and k-source approximate), plus the
//!   per-source state retention dynamic updating needs;
//! * [`reference`](mod@reference) — a definition-level BC oracle sharing no code with
//!   Brandes, used for cross-validation;
//! * [`cases`] — the Case 1/2/3 insertion taxonomy;
//! * [`plan`] — the shared plan layer: per-`(source, op)` classification
//!   (insertions and deletions) and the fused-stage boundary rule used by
//!   every engine's `apply_batch`;
//! * [`dynamic`] — the sequential incremental engine (Green et al.
//!   Algorithm 2 for Case 2; a generalized relocation-aware update for
//!   Case 3);
//! * [`gpu`] — the paper's GPU kernels (Algorithms 3–8) in edge-parallel
//!   and node-parallel form, executed on the `dynbc-gpusim` machine model,
//!   plus the static-recomputation baselines;
//! * `native` (private) — direct host execution of the node-parallel
//!   kernels: the serving backend behind [`gpu::Backend`], bit-identical
//!   to the simulator;
//! * [`accuracy`] — comparison utilities (error norms, rank correlation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod brandes;
pub mod cases;
pub mod dynamic;
pub mod gpu;
pub(crate) mod native;
pub(crate) mod obs;
pub mod plan;
pub mod reference;
pub mod state;
pub mod topology;

pub use brandes::{brandes_approx, brandes_exact, brandes_state, sample_sources};
pub use cases::{classify, CaseCounts, Classified, InsertionCase};
pub use dynamic::{BatchResult, CpuDynamicBc, OpOutcome, SourceOutcome, UpdateResult};
pub use state::{top_k, BcState};
