//! Graph substrate for the `dynbc` workspace.
//!
//! Provides everything the betweenness-centrality engines stand on:
//!
//! * [`EdgeList`] — canonical undirected edge lists (generator/I-O
//!   interchange format);
//! * [`Csr`] — the immutable R/C adjacency snapshot the kernels consume;
//! * [`SlackCsr`] — the one mutable adjacency store, a slack CSR
//!   (per-row gaps, tombstoned removals, epoch-versioned batch views):
//!   the host graph of every engine, CPU and GPU, and mirrored on the
//!   device by the GPU engines instead of snapshotting a fresh [`Csr`]
//!   per op;
//! * [`EdgeOp`] — one streaming mutation, the unit the engines apply;
//! * [`gen`] — synthetic generators for the seven DIMACS-10 families of the
//!   paper's Table I;
//! * [`suite`] — the reconstructed benchmark suite itself;
//! * [`io`] — METIS / edge-list readers and writers (drop in the real
//!   DIMACS files when available);
//! * [`algo`] — reference BFS, connected components, and statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod csr;
pub mod edgelist;
pub mod gen;
pub mod io;
pub mod op;
pub mod slack;
pub mod suite;

/// Vertex identifier. `u32` bounds graphs at ~4.3 B vertices — far beyond
/// the paper's scale — while halving index-array traffic versus `usize`,
/// which matters for the memory-transaction modelling.
pub type VertexId = u32;

pub use csr::Csr;
pub use edgelist::EdgeList;
pub use op::{BatchOpError, BatchOpErrorKind, EdgeOp};
pub use slack::{SlackCsr, SlackDelta};
