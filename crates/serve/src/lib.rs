//! `dynbc-serve` — the streaming BC service layer.
//!
//! The paper's dynamic-update pipeline only pays off if scores can be
//! *served* while updates flow. This crate turns an engine
//! ([`CpuDynamicBc`](dynbc_bc::CpuDynamicBc) or
//! [`GpuDynamicBc`](dynbc_bc::gpu::GpuDynamicBc), itself routed through
//! the `Backend` seam) into an online service in the style of
//! Kourtellis et al.'s framing of dynamic BC as a service over an
//! edge-event stream. Three layers:
//!
//! * **[`Shard`]** — one tenant's engine behind a bounded ingest queue
//!   of [`EdgeOp`](dynbc_graph::EdgeOp)s. `submit` is non-blocking and
//!   reports backpressure when the queue is full; a worker thread
//!   drains greedily up to an adaptive batch width into `apply_batch`
//!   (batching is where the throughput is — batch=64 measures ~3.1×
//!   updates/sec — but the width halves when the stream trickles so
//!   publication latency stays low).
//! * **[`Snapshot`] chain** — per committed batch the worker publishes
//!   an immutable score snapshot onto a lock-free epoch chain. Readers
//!   ([`SnapshotReader`], top-k queries, per-vertex lookups,
//!   [`RankWatcher`] subscriptions) never block the writer and always
//!   observe a complete epoch; epochs per reader are monotone.
//! * **[`BcService`]** — named shards plus one Prometheus exposition
//!   with `{tenant="…"}`-labelled families (queue depth, published
//!   epoch, batch width, ingest-wait and commit latency) through the
//!   `dynbc-telemetry` registry.
//!
//! Configuration comes from the `DYNBC_SERVE_*` knobs registered in
//! `dynbc_gpusim::knob` (queue capacity, max batch width), plus
//! `DYNBC_TELEMETRY` ([`dynbc_bc::telemetry_from_env`]) for the engine's
//! update-lifecycle telemetry, which [`Shard::spawn`] switches on or off
//! to match [`ServeConfig::telemetry`].

mod service;
mod shard;
mod snapshot;

pub mod family;

pub use service::BcService;
pub use shard::{RankChange, RankWatcher, Shard, ShardEngine, SubmitError};
pub use snapshot::{Snapshot, SnapshotHandle, SnapshotReader};

use dynbc_gpusim::knob;

/// Configuration of a shard's ingest and batching behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Capacity of the bounded ingest queue (`DYNBC_SERVE_QUEUE_CAP`);
    /// submissions beyond it are rejected with backpressure.
    pub queue_cap: usize,
    /// Upper bound on the adaptive batch width drained into
    /// `apply_batch` (`DYNBC_SERVE_BATCH_MAX`).
    pub batch_max: usize,
    /// Engine update-lifecycle telemetry (`DYNBC_TELEMETRY`), set both ways.
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_cap: 1024,
            batch_max: 64,
            telemetry: false,
        }
    }
}

impl ServeConfig {
    /// Reads the `DYNBC_SERVE_*` (and `DYNBC_TELEMETRY`) knobs; unset or
    /// unparsable values fall back to the registered defaults.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            queue_cap: knob::parse_from_env(knob::SERVE_QUEUE_CAP_ENV, d.queue_cap).max(1),
            batch_max: knob::parse_from_env(knob::SERVE_BATCH_MAX_ENV, d.batch_max).max(1),
            telemetry: dynbc_bc::telemetry_from_env(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_registered_knob_defaults() {
        let d = ServeConfig::default();
        assert_eq!(
            d.queue_cap.to_string(),
            knob::lookup(knob::SERVE_QUEUE_CAP_ENV).unwrap().default
        );
        assert_eq!(
            d.batch_max.to_string(),
            knob::lookup(knob::SERVE_BATCH_MAX_ENV).unwrap().default
        );
    }
}
