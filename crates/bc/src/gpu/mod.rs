//! GPU implementations on the `dynbc-gpusim` machine model.
//!
//! * [`engine`] — the dynamic-BC batch orchestration ([`GpuDynamicBc`]),
//!   in both [`Parallelism`] decompositions;
//! * `exec` (private) — the batch-aware dispatcher: one fused grid per stage of
//!   the update plan, behind the [`Backend`] seam (simulator or native
//!   direct execution);
//! * [`kernels`] — Algorithms 3–8 plus the Case 3 generalization;
//! * [`static_bc`] — from-scratch GPU BC (the Fig. 1 workload and the
//!   Table III recomputation baseline);
//! * [`buffers`] — device-resident graph, state, and scratch memory.

pub mod buffers;
pub mod engine;
pub(crate) mod exec;
pub mod kernels;
pub mod static_bc;

pub use engine::{DedupStrategy, GpuDynamicBc, Parallelism};
pub use exec::{backend_from_env, Backend, BACKEND_ENV};
pub use static_bc::{static_bc_gpu, static_bc_gpu_checked, static_bc_gpu_on, StaticBcReport};
