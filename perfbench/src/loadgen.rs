//! The load generator: open-loop and flood senders, a visibility watcher
//! over the shard's snapshot chain, and timed top-k reads.
//!
//! Every wait sleeps for at most [`POLL`] and never spins: on a two-core
//! host a `yield_now` waiter competes with the shard worker and the native
//! kernels for the same cores and costs a large share of serve throughput.

use std::time::{Duration, Instant};

use dynbc_graph::EdgeOp;
use dynbc_serve::{Shard, SnapshotReader, SubmitError};

use crate::trace::Tracer;

/// Longest single sleep of any waiting loop, and so the resolution of the
/// visibility times.
pub const POLL: Duration = Duration::from_micros(100);

/// Longest wait for an accepted op to become visible before it counts as
/// never made visible.
pub const VISIBLE_TIMEOUT: Duration = Duration::from_secs(60);

/// The benchmark's one wall-clock read; every timing goes through it.
pub fn now() -> Instant {
    // dynbc-lint: allow(no-wall-clock) — a benchmark measures wall time; no model result reads it
    Instant::now()
}

/// Seconds since a fixed origin; every timestamp of a run shares one.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(now())
    }

    pub fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Sleeps until `until` (clock seconds) or for one [`POLL`], whichever is
/// sooner.
fn nap(clock: &Clock, until: f64) {
    let left = until - clock.now();
    if left > 0.0 {
        std::thread::sleep(POLL.min(Duration::from_secs_f64(left)));
    }
}

/// One epoch as the watcher first saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seen {
    pub epoch: u64,
    pub ops_applied: u64,
    pub at: f64,
}

/// Steps the snapshot chain epoch by epoch from the shard's epoch 0, so it
/// observes every publication exactly once: the per-epoch `ops_applied`
/// deltas are the shard's batch partition, and the time each epoch was
/// first seen bounds when its ops became visible.
#[derive(Debug)]
pub struct Watcher {
    cursor: SnapshotReader,
    pub seen: Vec<Seen>,
}

impl Watcher {
    /// Must be created before the first submission.
    pub fn new(shard: &Shard) -> Self {
        let cursor = shard.reader();
        assert_eq!(cursor.current().epoch(), 0, "watcher starts at epoch 0");
        Watcher {
            cursor,
            seen: Vec::new(),
        }
    }

    pub fn applied(&self) -> u64 {
        self.seen.last().map_or(0, |s| s.ops_applied)
    }

    /// Records every epoch published since the last poll.
    pub fn poll(&mut self, clock: &Clock) {
        while let Some(s) = self.cursor.advance() {
            let (epoch, ops_applied) = (s.epoch(), s.ops_applied());
            self.seen.push(Seen {
                epoch,
                ops_applied,
                at: clock.now(),
            });
        }
    }

    /// Sleeps until `ops` ops are visible; false on [`VISIBLE_TIMEOUT`].
    pub fn wait_for(&mut self, ops: u64, clock: &Clock) -> bool {
        let deadline = clock.now() + VISIBLE_TIMEOUT.as_secs_f64();
        loop {
            self.poll(clock);
            if self.applied() >= ops {
                return true;
            }
            if clock.now() > deadline {
                return false;
            }
            nap(clock, deadline);
        }
    }

    /// Batch widths of the epochs seen so far, in commit order.
    pub fn widths(&self) -> Vec<usize> {
        let mut prev = 0;
        self.seen
            .iter()
            .map(|s| {
                let w = (s.ops_applied - prev) as usize;
                prev = s.ops_applied;
                w
            })
            .collect()
    }
}

/// For each op `first + i` with due time `due[i]`, the time from its due
/// time to the first epoch whose `ops_applied` covers it, or `None` if no
/// seen epoch does. Timing from the due time, not the send time, charges a
/// stall to every op that should have been sent during it.
pub fn visible_latencies(first: u64, due: &[f64], seen: &[Seen]) -> Vec<Option<f64>> {
    let mut out = Vec::with_capacity(due.len());
    let mut e = 0;
    for (i, &d) in due.iter().enumerate() {
        let op = first + i as u64;
        while e < seen.len() && seen[e].ops_applied <= op {
            e += 1;
        }
        out.push(seen.get(e).map(|s| s.at - d));
    }
    out
}

/// What one send phase did.
#[derive(Debug, Default)]
pub struct Sent {
    /// Due time of each open-loop op (clock seconds).
    pub due: Vec<f64>,
    /// How late each open-loop send started after its due time, seconds.
    pub late: Vec<f64>,
    /// Wall time of each accepted `Shard::submit` call, seconds.
    pub submit_s: Vec<f64>,
    /// Submissions refused with backpressure (then retried).
    pub backpressure: u64,
    /// Ops the shard refused for good (it had shut down).
    pub refused: u64,
}

/// Submits `op`, sleeping and retrying while the queue reports
/// backpressure. Returns false if the shard refused the op for good.
fn submit(
    shard: &Shard,
    op: EdgeOp,
    watcher: &mut Watcher,
    clock: &Clock,
    sent: &mut Sent,
    tracer: &mut Tracer,
) -> bool {
    loop {
        let t0 = now();
        let res = shard.submit(op);
        let t1 = now();
        tracer.span("serve.submit", None, t0, t1);
        match res {
            Ok(()) => {
                sent.submit_s.push((t1 - t0).as_secs_f64());
                return true;
            }
            Err(SubmitError::Backpressure) => {
                sent.backpressure += 1;
                watcher.poll(clock);
                std::thread::sleep(POLL);
            }
            Err(SubmitError::Closed) => {
                sent.refused += 1;
                return false;
            }
        }
    }
}

/// Seconds before a due time after which the generator starts no idle
/// work (see [`open_loop`]).
pub const IDLE_MARGIN: f64 = 0.002;

/// Open loop: op `i` is due at `start + i / rate` whatever the shard does;
/// the generator sleeps until each due time, polling the watcher every
/// [`POLL`] meanwhile. While every sent op is visible and the next is due
/// more than [`IDLE_MARGIN`] away, it calls `idle(i, tracer)` instead of
/// sleeping, so idle work neither blurs visibility times nor delays sends;
/// `idle` returns false when it has nothing to do.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    shard: &Shard,
    ops: &[EdgeOp],
    first: u64,
    rate: f64,
    watcher: &mut Watcher,
    clock: &Clock,
    tracer: &mut Tracer,
    idle: &mut dyn FnMut(usize, &mut Tracer) -> bool,
) -> Sent {
    let mut sent = Sent::default();
    let start = clock.now();
    for (i, &op) in ops.iter().enumerate() {
        let due = start + i as f64 / rate;
        loop {
            watcher.poll(clock);
            let now = clock.now();
            if now >= due {
                break;
            }
            let quiet = watcher.applied() >= first + i as u64 && due - now > IDLE_MARGIN;
            if !(quiet && idle(i, tracer)) {
                nap(clock, due);
            }
        }
        sent.due.push(due);
        sent.late.push(clock.now() - due);
        tracer.set_trace(first + i as u64);
        submit(shard, op, watcher, clock, &mut sent, tracer);
    }
    sent
}

/// Flood: every op is sent as soon as backpressure allows.
pub fn flood(
    shard: &Shard,
    ops: &[EdgeOp],
    first: u64,
    watcher: &mut Watcher,
    clock: &Clock,
    tracer: &mut Tracer,
) -> Sent {
    let mut sent = Sent::default();
    for (i, &op) in ops.iter().enumerate() {
        tracer.set_trace(first + i as u64);
        submit(shard, op, watcher, clock, &mut sent, tracer);
    }
    sent
}

/// What the reads observed.
#[derive(Debug, Default)]
pub struct Reads {
    /// `latest()` plus `top_k`, seconds.
    pub read_s: Vec<f64>,
    /// `top_k` alone, seconds.
    pub topk_s: Vec<f64>,
    /// Reads whose answer broke an invariant: an epoch older than an
    /// earlier read's, or a top-k list of the wrong length or order.
    pub bad: u64,
}

/// True when `top` is a valid top-`k` answer over `n` vertices: the right
/// length, descending scores, ties broken by ascending vertex id.
pub fn top_k_well_formed(top: &[(u32, f64)], k: usize, n: usize) -> bool {
    top.len() == k.min(n)
        && top
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0))
}

/// One read: `latest()` then `top_k(k)`, timed and checked.
pub fn read_once(
    cursor: &mut SnapshotReader,
    k: usize,
    last_epoch: &mut u64,
    reads: &mut Reads,
    tracer: &mut Tracer,
) {
    let t0 = now();
    let snap = cursor.latest().clone();
    let t1 = now();
    let top = snap.top_k(k);
    let t2 = now();
    tracer.set_trace(snap.epoch());
    let id = tracer.span("serve.read", None, t0, t2);
    tracer.span("serve.top_k", id, t1, t2);
    reads.read_s.push((t2 - t0).as_secs_f64());
    reads.topk_s.push((t2 - t1).as_secs_f64());
    if snap.epoch() < *last_epoch || !top_k_well_formed(&top, k, snap.scores().len()) {
        reads.bad += 1;
    }
    *last_epoch = snap.epoch();
    std::hint::black_box(top);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seen(ops_applied: u64, at: f64) -> Seen {
        Seen {
            epoch: 0,
            ops_applied,
            at,
        }
    }

    #[test]
    fn latency_is_measured_from_the_due_time() {
        // Ops 0..3 were due at 0, 1 and 2 s. Suppose a stall meant none was
        // sent before 2.5 s: epoch 1 (ops 0 and 1) is seen at 3 s, epoch 2
        // (op 2) at 4 s. Latency counts from when each op was due.
        let due = [0.0, 1.0, 2.0];
        let lat = visible_latencies(0, &due, &[seen(2, 3.0), seen(3, 4.0)]);
        assert_eq!(lat, vec![Some(3.0), Some(2.0), Some(2.0)]);
    }

    #[test]
    fn ops_past_the_last_seen_epoch_are_never_visible() {
        // Ops numbered from 10 (a second phase); only op 10 is covered.
        let lat = visible_latencies(10, &[5.0, 5.0], &[seen(4, 1.0), seen(11, 6.0)]);
        assert_eq!(lat, vec![Some(1.0), None]);
    }

    #[test]
    fn top_k_answers_are_checked_for_order() {
        assert!(top_k_well_formed(&[(3, 2.0), (1, 1.0), (2, 1.0)], 3, 5));
        assert!(!top_k_well_formed(&[(3, 2.0), (2, 1.0), (1, 1.0)], 3, 5));
        assert!(!top_k_well_formed(&[(1, 1.0), (3, 2.0)], 2, 5));
        assert!(!top_k_well_formed(&[(1, 1.0)], 2, 5));
    }
}
