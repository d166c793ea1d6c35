//! Graph substrate for the `dynbc` workspace.
//!
//! Provides everything the betweenness-centrality engines stand on:
//!
//! * [`EdgeList`] — canonical undirected edge lists (generator/I-O
//!   interchange format);
//! * [`Csr`] — the immutable R/C adjacency snapshot the kernels consume;
//! * [`DynGraph`] — a STINGER-lite blocked store for streaming updates,
//!   the store of the CPU reference engine;
//! * [`SlackCsr`] — a slack-CSR dynamic adjacency store (per-row gaps,
//!   tombstoned removals, epoch-versioned batch views): the GPU engines'
//!   one host graph, mirrored on the device instead of snapshotting a
//!   fresh [`Csr`] per op;
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
pub mod dynamic;
pub mod edgelist;
pub mod gen;
pub mod io;
pub mod slack;
pub mod suite;

/// Vertex identifier. `u32` bounds graphs at ~4.3 B vertices — far beyond
/// the paper's scale — while halving index-array traffic versus `usize`,
/// which matters for the memory-transaction modelling.
pub type VertexId = u32;

pub use csr::Csr;
pub use dynamic::{BatchOpError, BatchOpErrorKind, DynGraph, EdgeOp};
pub use edgelist::EdgeList;
pub use slack::{SlackCsr, SlackDelta};
