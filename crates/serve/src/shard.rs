//! One serving shard: a bounded ingest queue draining into an engine on
//! a dedicated worker thread, publishing a snapshot per committed batch.
//!
//! The queue is a `sync_channel` of [`EdgeOp`]s: [`Shard::submit`] is
//! non-blocking and reports [`SubmitError::Backpressure`] when the
//! queue is full, so producers decide their own overload policy (drop,
//! retry, shed). The worker drains greedily up to an adaptive batch
//! width — batching into `apply_batch` is where the throughput is
//! (batch=64 measures ~3.1× updates/sec over one-at-a-time), but a wide
//! fixed batch would add latency when the stream trickles, so the width
//! doubles while drains keep filling it and halves when they don't.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use dynbc_bc::gpu::GpuDynamicBc;
use dynbc_bc::{BatchResult, CpuDynamicBc};
use dynbc_graph::EdgeOp;
use dynbc_telemetry::{Histogram, Registry, Telemetry};

use crate::snapshot::{chain, Publisher, Snapshot, SnapshotHandle, SnapshotReader};
use crate::{family, ServeConfig};

/// The engine a shard serves from — CPU baseline or the GPU engine
/// (itself routed through the `Backend` seam: simulator or native).
/// Both expose the same batch-apply and score-read surface.
#[derive(Debug)]
pub enum ShardEngine {
    /// Sequential CPU engine (boxed: engines own per-source state
    /// planes and are long-lived, so the enum stays pointer-sized).
    Cpu(Box<CpuDynamicBc>),
    /// GPU engine (boxed: it owns device-resident state).
    Gpu(Box<GpuDynamicBc>),
}

impl ShardEngine {
    /// Wraps a CPU engine for serving.
    pub fn cpu(engine: CpuDynamicBc) -> Self {
        ShardEngine::Cpu(Box::new(engine))
    }

    /// Wraps a GPU engine for serving.
    pub fn gpu(engine: GpuDynamicBc) -> Self {
        ShardEngine::Gpu(Box::new(engine))
    }

    fn apply_batch(&mut self, batch: &[EdgeOp]) -> BatchResult {
        match self {
            ShardEngine::Cpu(e) => e.apply_batch(batch),
            ShardEngine::Gpu(e) => e.apply_batch(batch),
        }
    }

    /// Current BC scores — O(n) on both engines (the GPU engine
    /// downloads only the score vector, not the O(k·n) state planes).
    pub fn scores(&self) -> Vec<f64> {
        match self {
            ShardEngine::Cpu(e) => e.state().bc.clone(),
            ShardEngine::Gpu(e) => e.bc_scores(),
        }
    }

    fn set_telemetry(&mut self, on: bool) {
        match self {
            ShardEngine::Cpu(e) => e.set_telemetry(on),
            ShardEngine::Gpu(e) => e.set_telemetry(on),
        }
    }

    fn take_telemetry_report(&mut self) -> Option<Telemetry> {
        match self {
            ShardEngine::Cpu(e) => e.take_telemetry_report(),
            ShardEngine::Gpu(e) => e.take_telemetry_report(),
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded ingest queue is full — back off and retry, or shed.
    Backpressure,
    /// The shard has shut down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure => write!(f, "ingest queue full (backpressure)"),
            SubmitError::Closed => write!(f, "shard is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Adaptive batch width: doubles while drains keep filling the cap
/// (queue is deep — amortize launches), halves when they don't (stream
/// is trickling — keep publication latency low). Clamped to
/// `[1, batch_max]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AdaptiveWidth {
    cap: usize,
    max: usize,
}

impl AdaptiveWidth {
    pub(crate) fn new(max: usize) -> Self {
        Self {
            cap: 1,
            max: max.max(1),
        }
    }

    /// The width the next drain may take.
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Feed back how many ops the last drain actually took.
    pub(crate) fn observe(&mut self, drained: usize) {
        if drained >= self.cap {
            self.cap = (self.cap * 2).min(self.max);
        } else {
            self.cap = (self.cap / 2).max(1);
        }
    }
}

/// Aggregates the worker maintains under a mutex: scrape-time state
/// that is not a plain counter. The worker touches this once per batch;
/// scrapes clone out of it.
#[derive(Debug)]
struct WorkerStats {
    /// Ops per committed batch.
    batch_width: Histogram,
    /// Seconds the worker sat blocked waiting for the first op of a
    /// batch (wall clock; observability only).
    ingest_wait: Histogram,
    /// Seconds per commit: `apply_batch` + snapshot publication (wall
    /// clock; observability only).
    commit_wall: Histogram,
    /// Engine update-lifecycle telemetry (spans, case counters, …),
    /// merged across batches; `None` until telemetry is enabled.
    engine: Option<Telemetry>,
}

impl WorkerStats {
    fn new() -> Self {
        Self {
            batch_width: Histogram::new(),
            ingest_wait: Histogram::new(),
            commit_wall: Histogram::new(),
            engine: None,
        }
    }
}

/// Counters shared between the shard handle and its worker.
#[derive(Debug)]
struct Metrics {
    /// Ops currently queued (submitted, not yet committed).
    depth: AtomicUsize,
    /// Ops accepted by `submit`.
    enqueued: AtomicU64,
    /// Ops rejected with backpressure.
    rejected: AtomicU64,
    /// Ops committed through `apply_batch`.
    committed: AtomicU64,
    /// Batches committed.
    batches: AtomicU64,
    /// Newest published epoch.
    epoch: AtomicU64,
    stats: Mutex<WorkerStats>,
}

/// One tenant's serving shard. Dropping without [`Shard::shutdown`]
/// detaches the worker, which drains the queue and exits.
#[derive(Debug)]
pub struct Shard {
    tx: Option<SyncSender<EdgeOp>>,
    worker: Option<JoinHandle<ShardEngine>>,
    snapshots: SnapshotHandle,
    metrics: Arc<Metrics>,
    queue_cap: usize,
}

impl Shard {
    /// Spawns a shard around `engine`: sets the engine's telemetry to
    /// `cfg.telemetry`, seeds epoch 0 with the engine's current scores,
    /// then serves submissions on a worker thread.
    pub fn spawn(mut engine: ShardEngine, cfg: &ServeConfig) -> Self {
        let (tx, rx) = mpsc::sync_channel(cfg.queue_cap);
        engine.set_telemetry(cfg.telemetry);
        let (publisher, snapshots) = chain(Snapshot::new(0, 0, engine.scores().into()));
        let metrics = Arc::new(Metrics {
            depth: AtomicUsize::new(0),
            enqueued: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            stats: Mutex::new(WorkerStats::new()),
        });
        let worker = {
            let metrics = Arc::clone(&metrics);
            let batch_max = cfg.batch_max;
            std::thread::spawn(move || worker_loop(engine, rx, publisher, metrics, batch_max))
        };
        Self {
            tx: Some(tx),
            worker: Some(worker),
            snapshots,
            metrics,
            queue_cap: cfg.queue_cap,
        }
    }

    /// Submits one edge op. Non-blocking: a full queue reports
    /// [`SubmitError::Backpressure`] instead of waiting.
    pub fn submit(&self, op: EdgeOp) -> Result<(), SubmitError> {
        let tx = self.tx.as_ref().ok_or(SubmitError::Closed)?;
        // Reserve depth before the send so the worker's decrement can
        // never observe a count the op is missing from.
        self.metrics.depth.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(op) {
            Ok(()) => {
                self.metrics.enqueued.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.metrics.depth.fetch_sub(1, Ordering::Relaxed);
                self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                Err(match e {
                    TrySendError::Full(_) => SubmitError::Backpressure,
                    TrySendError::Disconnected(_) => SubmitError::Closed,
                })
            }
        }
    }

    /// A wait-free snapshot cursor (see [`SnapshotReader`]). Handles are
    /// independent; each walks the epoch chain at its own pace.
    pub fn reader(&self) -> SnapshotReader {
        self.snapshots.reader()
    }

    /// The newest published snapshot.
    pub fn latest(&self) -> Snapshot {
        self.snapshots.latest()
    }

    /// A rank-change subscription over the top-`k` set.
    pub fn watch_top_k(&self, k: usize) -> RankWatcher {
        RankWatcher::new(self.reader(), k)
    }

    /// Ops submitted but not yet committed.
    pub fn queue_depth(&self) -> usize {
        self.metrics.depth.load(Ordering::Relaxed)
    }

    /// Capacity of the bounded ingest queue.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Newest published epoch (0 until the first commit).
    pub fn published_epoch(&self) -> u64 {
        self.metrics.epoch.load(Ordering::Relaxed)
    }

    /// The engine update-lifecycle telemetry (spans, case counters) of
    /// every committed batch, merged in commit order (its event log
    /// numbers the batches 1, 2, …), if the shard was spawned with
    /// telemetry enabled and at least one batch has committed.
    pub fn telemetry_report(&self) -> Option<Telemetry> {
        self.metrics
            .stats
            .lock()
            .expect("stats poisoned")
            .engine
            .clone()
    }

    /// Fills `reg` with this shard's serve-metric series under `labels`
    /// (the service passes `{tenant="…"}`). Families must already be
    /// defined — see [`family::define_serve_families`].
    pub fn fill_registry(&self, reg: &mut Registry, labels: &[(&str, &str)]) {
        let m = &self.metrics;
        reg.inc(
            family::OPS_ENQUEUED,
            labels,
            m.enqueued.load(Ordering::Relaxed),
        );
        reg.inc(
            family::OPS_REJECTED,
            labels,
            m.rejected.load(Ordering::Relaxed),
        );
        reg.inc(
            family::OPS_COMMITTED,
            labels,
            m.committed.load(Ordering::Relaxed),
        );
        reg.inc(family::BATCHES, labels, m.batches.load(Ordering::Relaxed));
        reg.set_gauge(family::QUEUE_DEPTH, labels, self.queue_depth() as f64);
        reg.set_gauge(
            family::PUBLISHED_EPOCH,
            labels,
            m.epoch.load(Ordering::Relaxed) as f64,
        );
        let st = m.stats.lock().expect("stats poisoned");
        reg.merge_histogram(family::BATCH_WIDTH, labels, &st.batch_width);
        reg.merge_histogram(family::INGEST_WAIT, labels, &st.ingest_wait);
        reg.merge_histogram(family::COMMIT_WALL, labels, &st.commit_wall);
    }

    /// Stops ingest, drains the queue, joins the worker, and returns
    /// the engine together with the final snapshot (which reflects
    /// every accepted op).
    pub fn shutdown(mut self) -> (ShardEngine, Snapshot) {
        drop(self.tx.take());
        let engine = self
            .worker
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("shard worker panicked");
        let last = self.snapshots.latest();
        (engine, last)
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        drop(self.tx.take());
        // Detach rather than join: drop must not block on a deep queue.
        drop(self.worker.take());
    }
}

/// The worker: drain → `apply_batch` → publish, until every sender is
/// gone and the queue is empty (`recv` errors only when both hold, so
/// shutdown naturally drains).
fn worker_loop(
    mut engine: ShardEngine,
    rx: Receiver<EdgeOp>,
    mut publisher: Publisher,
    metrics: Arc<Metrics>,
    batch_max: usize,
) -> ShardEngine {
    let mut width = AdaptiveWidth::new(batch_max);
    let mut batch: Vec<EdgeOp> = Vec::with_capacity(batch_max);
    let mut epoch = 0u64;
    let mut ops_applied = 0u64;
    loop {
        // dynbc-lint: allow(no-wall-clock) — ingest-wait feeds a Wall-tagged observability histogram; no model result reads it
        let wait_start = std::time::Instant::now();
        let first = match rx.recv() {
            Ok(op) => op,
            Err(_) => break,
        };
        let wait_s = wait_start.elapsed().as_secs_f64();
        batch.clear();
        batch.push(first);
        while batch.len() < width.cap() {
            match rx.try_recv() {
                Ok(op) => batch.push(op),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        // dynbc-lint: allow(no-wall-clock) — commit wall time feeds a Wall-tagged observability histogram; no model result reads it
        let commit_start = std::time::Instant::now();
        let _res = engine.apply_batch(&batch);
        epoch += 1;
        ops_applied += batch.len() as u64;
        publisher.publish(Snapshot::new(epoch, ops_applied, engine.scores().into()));
        let commit_s = commit_start.elapsed().as_secs_f64();
        metrics.depth.fetch_sub(batch.len(), Ordering::Relaxed);
        metrics
            .committed
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        metrics.batches.fetch_add(1, Ordering::Relaxed);
        metrics.epoch.store(epoch, Ordering::Relaxed);
        {
            let mut st = metrics.stats.lock().expect("stats poisoned");
            st.batch_width.observe(batch.len() as f64);
            st.ingest_wait.observe(wait_s);
            st.commit_wall.observe(commit_s);
            if let Some(t) = engine.take_telemetry_report() {
                st.engine.get_or_insert_with(Telemetry::new).merge_from(&t);
            }
        }
        width.observe(batch.len());
    }
    engine
}

/// A rank-change subscription: polls the snapshot chain and reports
/// vertices entering or leaving the top-`k` set since the last poll.
#[derive(Debug)]
pub struct RankWatcher {
    reader: SnapshotReader,
    k: usize,
    last: Vec<u32>,
    last_epoch: u64,
}

/// One observed change of the top-`k` membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankChange {
    /// Epoch at which the new membership was observed.
    pub epoch: u64,
    /// Vertices now in the top-`k` that were not at the last poll, in
    /// rank order.
    pub entered: Vec<u32>,
    /// Vertices that dropped out since the last poll, in former rank
    /// order.
    pub exited: Vec<u32>,
}

impl RankWatcher {
    fn new(mut reader: SnapshotReader, k: usize) -> Self {
        let snap = reader.latest().clone();
        let last = snap.top_k(k).into_iter().map(|(v, _)| v).collect();
        Self {
            reader,
            k,
            last,
            last_epoch: snap.epoch(),
        }
    }

    /// Advances to the newest epoch; `Some` when the top-`k` membership
    /// changed since the previous poll, `None` otherwise (including
    /// when no new epoch was published). Wait-free like any snapshot
    /// read.
    pub fn poll(&mut self) -> Option<RankChange> {
        let snap = self.reader.latest().clone();
        if snap.epoch() == self.last_epoch {
            return None;
        }
        self.last_epoch = snap.epoch();
        let top: Vec<u32> = snap.top_k(self.k).into_iter().map(|(v, _)| v).collect();
        let entered: Vec<u32> = top
            .iter()
            .copied()
            .filter(|v| !self.last.contains(v))
            .collect();
        let exited: Vec<u32> = self
            .last
            .iter()
            .copied()
            .filter(|v| !top.contains(v))
            .collect();
        self.last = top;
        if entered.is_empty() && exited.is_empty() {
            return None;
        }
        Some(RankChange {
            epoch: snap.epoch(),
            entered,
            exited,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbc_graph::EdgeList;

    fn path_graph(n: u32) -> EdgeList {
        EdgeList::from_pairs(n as usize, (0..n - 1).map(|u| (u, u + 1)))
    }

    fn cpu_engine(el: &EdgeList) -> ShardEngine {
        let sources: Vec<u32> = (0..el.vertex_count() as u32).collect();
        ShardEngine::cpu(CpuDynamicBc::new(el, &sources))
    }

    #[test]
    fn adaptive_width_doubles_on_full_drains_and_halves_on_short() {
        let mut w = AdaptiveWidth::new(8);
        assert_eq!(w.cap(), 1);
        w.observe(1);
        assert_eq!(w.cap(), 2);
        w.observe(2);
        assert_eq!(w.cap(), 4);
        w.observe(4);
        assert_eq!(w.cap(), 8);
        w.observe(8);
        assert_eq!(w.cap(), 8, "clamped to batch_max");
        w.observe(3);
        assert_eq!(w.cap(), 4);
        w.observe(1);
        w.observe(1);
        assert_eq!(w.cap(), 1, "floor of 1");
        w.observe(1);
        assert_eq!(w.cap(), 2, "a full drain at the floor re-widens");
    }

    #[test]
    fn shard_serves_scores_matching_a_sequential_oracle() {
        // Path 0-1-2-3-4 plus a stream of chords; shard scores after
        // shutdown must equal a one-op-at-a-time oracle's.
        let el = path_graph(5);
        let ops = vec![
            EdgeOp::Insert(0, 2),
            EdgeOp::Insert(1, 4),
            EdgeOp::Insert(0, 3),
        ];
        let shard = Shard::spawn(cpu_engine(&el), &ServeConfig::default());
        assert_eq!(shard.latest().epoch(), 0);
        for &op in &ops {
            shard.submit(op).unwrap();
        }
        let (engine, last) = shard.shutdown();
        let sources: Vec<u32> = (0..5).collect();
        let mut oracle = CpuDynamicBc::new(&el, &sources);
        for &op in &ops {
            oracle.apply_batch(&[op]);
        }
        assert_eq!(last.ops_applied(), ops.len() as u64);
        assert_eq!(last.scores(), &oracle.state().bc[..], "bit-identical");
        assert_eq!(engine.scores(), oracle.state().bc);
    }

    #[test]
    fn backpressure_rejects_when_queue_is_full() {
        // A 2-slot queue with no fast worker guarantee: fill it until a
        // rejection is observed, then assert the counter moved.
        let el = path_graph(4);
        let cfg = ServeConfig {
            queue_cap: 2,
            batch_max: 4,
            telemetry: false,
        };
        let shard = Shard::spawn(cpu_engine(&el), &cfg);
        let mut saw_backpressure = false;
        for i in 0..10_000 {
            let op = if i % 2 == 0 {
                EdgeOp::Insert(0, 2)
            } else {
                EdgeOp::Remove(0, 2)
            };
            match shard.submit(op) {
                Ok(()) => {}
                Err(SubmitError::Backpressure) => {
                    saw_backpressure = true;
                    break;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        if saw_backpressure {
            let m = shard.metrics.rejected.load(Ordering::Relaxed);
            assert!(m >= 1);
        }
        // Drain cleanly either way; insert/remove pairs may leave one
        // insert uncommitted — shutdown only requires a clean join.
        drop(shard);
    }

    #[test]
    fn shutdown_drains_every_accepted_op() {
        let el = path_graph(6);
        let shard = Shard::spawn(cpu_engine(&el), &ServeConfig::default());
        let mut accepted = 0u64;
        for u in 0..4u32 {
            for v in (u + 2)..6 {
                if shard.submit(EdgeOp::Insert(u, v)).is_ok() {
                    accepted += 1;
                }
            }
        }
        let (_engine, last) = shard.shutdown();
        assert_eq!(last.ops_applied(), accepted);
        assert_eq!(shard_errors_display(), "ingest queue full (backpressure)");
    }

    fn shard_errors_display() -> String {
        assert_eq!(SubmitError::Closed.to_string(), "shard is shut down");
        SubmitError::Backpressure.to_string()
    }

    /// Blocks until the worker has folded `n` batches into its stats
    /// (the engine report of a batch is merged in the same step).
    fn wait_for_batches(shard: &Shard, n: u64) {
        while shard.metrics.stats.lock().unwrap().batch_width.count() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn merged_event_log_numbers_committed_batches_from_one() {
        let el = path_graph(6);
        let cfg = ServeConfig {
            telemetry: true,
            ..ServeConfig::default()
        };
        let shard = Shard::spawn(cpu_engine(&el), &cfg);
        let ops = [(0, 2), (1, 4), (0, 5), (2, 5)];
        for (i, &(u, v)) in ops.iter().enumerate() {
            shard.submit(EdgeOp::Insert(u, v)).unwrap();
            wait_for_batches(&shard, i as u64 + 1);
        }
        let report = shard.telemetry_report().expect("telemetry on");
        assert_eq!(report.updates(), ops.len() as u64);
        let log = report.events_jsonl();
        let seqs: Vec<&str> = log.lines().map(|l| l.split(", ").nth(1).unwrap()).collect();
        assert_eq!(
            seqs,
            ["\"seq\": 1", "\"seq\": 2", "\"seq\": 3", "\"seq\": 4"]
        );
        assert!(log
            .lines()
            .all(|l| l[1..].starts_with("\"event\": \"update\", ")));
    }

    #[test]
    fn config_turns_engine_telemetry_off() {
        let el = path_graph(5);
        let sources: Vec<u32> = (0..5).collect();
        let mut engine = CpuDynamicBc::new(&el, &sources);
        engine.set_telemetry(true);
        let shard = Shard::spawn(ShardEngine::cpu(engine), &ServeConfig::default());
        shard.submit(EdgeOp::Insert(0, 2)).unwrap();
        wait_for_batches(&shard, 1);
        assert_eq!(shard.telemetry_report(), None);
        let (engine, _) = shard.shutdown();
        let ShardEngine::Cpu(engine) = engine else {
            unreachable!("spawned on the CPU engine")
        };
        assert!(!engine.telemetry());
    }

    #[test]
    fn rank_watcher_reports_entries_and_exits() {
        let el = path_graph(5);
        let shard = Shard::spawn(cpu_engine(&el), &ServeConfig::default());
        let mut watcher = shard.watch_top_k(1);
        // On a path, vertex 2 is the unique top-1. Adding chord {0,4}…
        // keeps 2 on top but adding {1,3} shifts weight; drive until the
        // watcher fires or the stream ends.
        shard.submit(EdgeOp::Insert(1, 3)).unwrap();
        shard.submit(EdgeOp::Insert(0, 4)).unwrap();
        let (_engine, last) = shard.shutdown();
        assert!(last.epoch() >= 1);
        // After shutdown the watcher sees the final epoch; whether the
        // membership changed depends on scores — poll must not panic and
        // must leave the watcher at the final epoch.
        let _ = watcher.poll();
        assert_eq!(watcher.last_epoch, last.epoch());
    }
}
