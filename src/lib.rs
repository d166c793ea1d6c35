//! # dynbc — dynamic betweenness centrality, edge- vs node-parallel
//!
//! A Rust reproduction of *"Revisiting Edge and Node Parallelism for
//! Dynamic GPU Graph Analytics"* (McLaughlin & Bader, IPDPS Workshops
//! 2014): incremental betweenness-centrality updates under streaming edge
//! insertions, with the paper's two GPU work decompositions executed on a
//! deterministic SIMT machine model.
//!
//! ## Quick start
//!
//! ```
//! use dynbc::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A small-world graph and a handful of BC sources.
//! let mut rng = StdRng::seed_from_u64(7);
//! let graph = dynbc::graph::gen::ws(&mut rng, 200, 3, 0.1);
//! let sources = sample_sources(&mut rng, 200, 16);
//!
//! // Dynamic engine: Brandes once, then incremental updates.
//! let mut engine = CpuDynamicBc::new(&graph, &sources);
//! let result = engine.insert_edge(3, 117);
//! println!(
//!     "insertion touched at most {} vertices across {} sources",
//!     result.max_touched(),
//!     result.per_source.len()
//! );
//!
//! // The same update on the simulated GPU, node-parallel.
//! let mut gpu = GpuDynamicBc::new(&graph, &sources, DeviceConfig::tesla_c2075(), Parallelism::Node);
//! let gpu_result = gpu.insert_edge(3, 117);
//! assert_eq!(gpu_result.cases, result.cases);
//!
//! // Streaming workloads batch their events: one shared update plan,
//! // fused kernel launches, results bit-identical to one-at-a-time.
//! let batch = [EdgeOp::Insert(5, 90), EdgeOp::Remove(3, 117)];
//! let report = gpu.apply_batch(&batch);
//! assert_eq!(report.per_op.len(), 2);
//! ```
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`graph`] | `dynbc-graph` | CSR, slack-CSR dynamic store, DIMACS-family generators, METIS I/O |
//! | [`gpusim`] | `dynbc-gpusim` | the SIMT execution/cost model (warps, coalescing, atomics, SM scheduling) |
//! | [`bc`] | `dynbc-bc` | Brandes, the Case 1/2/3 taxonomy, dynamic CPU engine, GPU kernels and engines |
//! | [`telemetry`] | `dynbc-telemetry` | update-lifecycle metrics registry, span tracing, Prometheus/JSONL/Perfetto exporters |
//! | [`serve`] | `dynbc-serve` | streaming service layer: per-tenant shards, bounded ingest, lock-free score snapshots |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dynbc_bc as bc;
pub use dynbc_gpusim as gpusim;
pub use dynbc_graph as graph;
pub use dynbc_serve as serve;
pub use dynbc_telemetry as telemetry;

/// The one-import surface for applications.
pub mod prelude {
    pub use dynbc_bc::brandes::{brandes_approx, brandes_exact, brandes_state, sample_sources};
    pub use dynbc_bc::cases::{classify, CaseCounts, InsertionCase};
    pub use dynbc_bc::dynamic::{
        BatchResult, CpuDynamicBc, OpOutcome, SourceOutcome, UpdateResult,
    };
    pub use dynbc_bc::gpu::{
        backend_from_env, static_bc_gpu, static_bc_gpu_on, Backend, GpuDynamicBc, Parallelism,
        StaticBcReport,
    };
    pub use dynbc_bc::state::BcState;
    pub use dynbc_gpusim::{CpuConfig, DeviceConfig};
    pub use dynbc_graph::{Csr, EdgeList, EdgeOp, VertexId};
    pub use dynbc_telemetry::{Telemetry, UpdateObservation};
}
