//! `dynbc-gpusim` — a deterministic SIMT execution-model simulator.
//!
//! The paper's contribution is a statement about **mapping threads to work
//! on a SIMT machine**: edge-parallel kernels waste memory bandwidth on
//! futile edges, node-parallel kernels track live work explicitly, atomics
//! are cheap when contention is low, and one thread block per SM saturates
//! the memory bus. Reproducing those claims in Rust requires a machine
//! model that *counts* the quantities the claims are about. This crate
//! provides it:
//!
//! * [`DeviceConfig`] — published board parameters (Tesla C2075, GTX 560)
//!   and the derived cost constants;
//! * [`GpuBuffer`] — typed device memory whose only kernel-side accessors
//!   also charge the cost model;
//! * [`BlockCtx`] / [`Lane`] — lockstep warp execution with 32-byte-segment
//!   coalescing, same-address atomic serialization, and barrier-delimited
//!   `max(compute, memory)` intervals;
//! * [`Gpu`] — kernel launches, greedy block-to-SM scheduling, a simulated
//!   clock, and one [`Instruments`] switch set (read from the environment
//!   once, at construction) that selects what a launch records;
//! * [`checker`] — `dynbc-racecheck`, a `cuda-memcheck --tool racecheck`
//!   analogue: checked launches ([`Gpu::launch_checked`], or every launch
//!   under [`Instruments::racecheck`] / `DYNBC_RACECHECK=1`) record
//!   per-cell shadow state and report data races, sharing-contract
//!   violations, barrier divergence, and out-of-bounds indexing with
//!   kernel/buffer/lane context;
//! * [`profile`] — profiled launches ([`Instruments::profiling`],
//!   `DYNBC_PROFILE=1`) collect hardware-counter-style
//!   per-kernel/per-stage [`ProfileReport`]s (futile vs useful edge work,
//!   divergence, occupancy, coalescing, atomic contention, queue/dedup
//!   ops) with the same bit-determinism and no-op-when-off guarantees as
//!   the checker. A profile bucket's [`Counters`] embed the cost model's
//!   [`KernelStats`], so each quantity has one tally;
//! * [`cache`] — memsim ([`Instruments::memsim`], `DYNBC_MEMSIM=1`), an
//!   L1/L2 tag-array model whose counts ride in the profile's buckets;
//! * [`OpCounter`] / [`CpuConfig`] — the matching cost model for the
//!   sequential CPU baseline, so every reported ratio compares modelled
//!   seconds to modelled seconds.
//!
//! Everything is deterministic: a seeded experiment replays bit-for-bit.
//! Within a block, execution is sequential; *across* blocks, [`Gpu::launch`]
//! may fan work out over real host threads (`DYNBC_HOST_THREADS`), and the
//! per-block results are reduced serially in block-index order so simulated
//! seconds, stats, and buffer contents never depend on the thread count.
//!
//! The only `unsafe` in the crate lives in [`mem`]: `GpuBuffer` stores its
//! elements in `UnsafeCell`s so blocks on different host threads can share
//! it, under the access contract documented there.

#![deny(unsafe_code)] // granted back, cell-by-cell, in mem.rs only
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod block;
pub mod cache;
pub mod checker;
pub mod cpu_model;
pub mod device;
pub mod grid;
mod instruments;
pub mod knob;
pub mod mem;
pub mod profile;
pub mod stats;

pub use block::{BlockCtx, Col, Lane, Sweep};
pub use cache::CacheConfig;
pub use checker::{AccessKind, AtomicKind, CheckReport, DiagClass, Diagnostic, Severity};
pub use cpu_model::OpCounter;
pub use device::{CpuConfig, DeviceConfig};
pub use grid::{fan_out, Gpu, LaunchReport, LaunchSpan};
pub use instruments::Instruments;
pub use knob::{HOST_THREADS_ENV, MEMSIM_ENV, PROFILE_ENV, RACECHECK_ENV, TELEMETRY_ENV};
pub use mem::{DeviceValue, GpuBuffer};
pub use profile::{BlockSpan, CacheCounters, Counters, LaunchProfile, ProfileReport, StageProfile};
pub use stats::KernelStats;
