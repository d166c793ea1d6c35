//! Dynamic (incremental) betweenness-centrality engines.

pub mod cpu;
pub mod delete;
mod mlq;
pub mod result;

pub use cpu::CpuDynamicBc;
pub use result::{BatchResult, OpOutcome, SourceOutcome, UpdateResult};
