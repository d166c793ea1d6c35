//! Epoch-based lock-free publication of BC score snapshots.
//!
//! The writer (a shard's worker thread) publishes one immutable
//! [`Snapshot`] per committed batch onto an append-only chain of
//! refcounted nodes linked through [`OnceLock`]s:
//!
//! ```text
//! epoch 0 ──next──▶ epoch 1 ──next──▶ epoch 2   (tail)
//!    ▲ reader A        ▲ reader B        ▲ anchor / writer
//! ```
//!
//! * **Publishing never blocks.** The single writer sets the tail's
//!   `next` cell (uncontended by construction — readers only `get`) and
//!   refreshes the shared anchor with `try_lock`, skipping the refresh
//!   if a reader is being constructed at that instant.
//! * **Reads are wait-free with respect to the writer.** A
//!   [`SnapshotReader`] holds an `Arc` to some node and advances by
//!   following `next` pointers via lock-free `OnceLock::get`; it takes
//!   no lock, so it can neither block the writer nor be blocked by it.
//! * **Consistency.** Every snapshot is immutable once linked: a reader
//!   sees either epoch `e` complete or epoch `e+1` complete, never a
//!   torn mix. Epochs observed by one reader are monotone because the
//!   chain only grows forward.
//! * **Reclamation.** Nodes are dropped by refcount as soon as every
//!   reader has advanced past them — a stalled reader pins only the
//!   suffix of the chain from its position onward.

use std::sync::{Arc, Mutex, OnceLock};

/// One immutable published view of a shard's BC scores.
///
/// Cloning is O(1): the score vector is shared behind an `Arc`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    ops_applied: u64,
    scores: Arc<[f64]>,
}

impl Snapshot {
    /// Builds a snapshot (crate-internal: only the shard worker
    /// constructs new epochs).
    pub(crate) fn new(epoch: u64, ops_applied: u64, scores: Arc<[f64]>) -> Self {
        Self {
            epoch,
            ops_applied,
            scores,
        }
    }

    /// Publication epoch: 0 for the initial (pre-ingest) snapshot, then
    /// +1 per committed batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of stream ops applied up to and including this epoch — the
    /// prefix length of the submission stream this snapshot reflects.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// The full BC score vector at this epoch.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// BC score of one vertex, or `None` if out of range.
    pub fn score(&self, v: u32) -> Option<f64> {
        self.scores.get(v as usize).copied()
    }

    /// The `k` highest-BC vertices as `(vertex, score)` pairs, sorted by
    /// descending score with ascending vertex id breaking ties — the
    /// same selection as `BcState::top_ranked` ([`dynbc_bc::top_k`]),
    /// so service answers are comparable with oracle output. O(n log k)
    /// time and O(k) memory.
    pub fn top_k(&self, k: usize) -> Vec<(u32, f64)> {
        dynbc_bc::top_k(&self.scores, k)
    }
}

/// One chain node: an epoch's snapshot plus the (write-once) link to
/// the next epoch.
#[derive(Debug)]
struct Node {
    snap: Snapshot,
    next: OnceLock<Arc<Node>>,
}

/// A reader's cursor into the snapshot chain. Obtained from
/// [`SnapshotHandle::reader`]; advancing takes no lock.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    cur: Arc<Node>,
}

impl SnapshotReader {
    /// Advances to the newest published epoch and returns it. Wait-free
    /// with respect to the writer: only lock-free `OnceLock::get` reads.
    pub fn latest(&mut self) -> &Snapshot {
        while let Some(next) = self.cur.next.get() {
            self.cur = Arc::clone(next);
        }
        &self.cur.snap
    }

    /// The snapshot at the cursor's current position, without advancing.
    pub fn current(&self) -> &Snapshot {
        &self.cur.snap
    }

    /// Steps to the immediately following epoch if it has been published,
    /// returning it; `None` means the cursor sits at the chain's current
    /// tail. Unlike [`SnapshotReader::latest`] this never skips an epoch,
    /// so polling it observes every published snapshot exactly once —
    /// the primitive under rank-change subscriptions and batch audits.
    /// Wait-free with respect to the writer, like `latest`.
    pub fn advance(&mut self) -> Option<&Snapshot> {
        let next = Arc::clone(self.cur.next.get()?);
        self.cur = next;
        Some(&self.cur.snap)
    }
}

/// Shared anchor: the newest node the writer has managed to record for
/// reader-handle creation (it may trail the true tail by the batches
/// whose `try_lock` refresh was skipped; readers catch up by walking).
type Anchor = Arc<Mutex<Arc<Node>>>;

/// The write side of a snapshot chain; owned by the shard worker.
#[derive(Debug)]
pub(crate) struct Publisher {
    tail: Arc<Node>,
    anchor: Anchor,
}

impl Publisher {
    /// Links `snap` as the next epoch. Never blocks: the `next` cell is
    /// uncontended (single writer) and the anchor refresh is `try_lock`.
    pub(crate) fn publish(&mut self, snap: Snapshot) {
        debug_assert!(snap.epoch == self.tail.snap.epoch + 1, "epochs are dense");
        let node = Arc::new(Node {
            snap,
            next: OnceLock::new(),
        });
        self.tail
            .next
            .set(Arc::clone(&node))
            .expect("single writer: tail.next is unset");
        self.tail = node;
        if let Ok(mut a) = self.anchor.try_lock() {
            *a = Arc::clone(&self.tail);
        }
    }
}

/// The read side of a snapshot chain: cheaply cloneable, hands out
/// [`SnapshotReader`] cursors and one-shot latest views.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    anchor: Anchor,
}

impl SnapshotHandle {
    /// A new cursor, positioned at (or near — the writer's anchor
    /// refresh is best-effort) the newest epoch. Briefly locks the
    /// anchor; this can contend with other `reader()` calls but never
    /// delays the writer, whose anchor refresh is a skippable
    /// `try_lock`.
    pub fn reader(&self) -> SnapshotReader {
        let cur = Arc::clone(&self.anchor.lock().expect("anchor poisoned"));
        SnapshotReader { cur }
    }

    /// The newest published snapshot (a fresh cursor, advanced once).
    pub fn latest(&self) -> Snapshot {
        let mut r = self.reader();
        r.latest().clone()
    }
}

/// Creates a chain seeded with `initial` (epoch 0) and returns its two
/// endpoints.
pub(crate) fn chain(initial: Snapshot) -> (Publisher, SnapshotHandle) {
    let root = Arc::new(Node {
        snap: initial,
        next: OnceLock::new(),
    });
    let anchor: Anchor = Arc::new(Mutex::new(Arc::clone(&root)));
    (
        Publisher {
            tail: root,
            anchor: Arc::clone(&anchor),
        },
        SnapshotHandle { anchor },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64, scores: &[f64]) -> Snapshot {
        Snapshot::new(epoch, epoch, scores.to_vec().into())
    }

    #[test]
    fn top_k_orders_by_score_then_vertex_id() {
        let s = snap(0, &[1.0, 3.0, 3.0, 0.5]);
        assert_eq!(s.top_k(3), vec![(1, 3.0), (2, 3.0), (0, 1.0)]);
        assert_eq!(s.top_k(10).len(), 4);
        assert_eq!(s.score(3), Some(0.5));
        assert_eq!(s.score(4), None);
    }

    #[test]
    fn readers_walk_forward_and_epochs_are_monotone() {
        let (mut pubr, handle) = chain(snap(0, &[0.0]));
        let mut stale = handle.reader();
        assert_eq!(stale.current().epoch(), 0);
        for e in 1..=5 {
            pubr.publish(snap(e, &[e as f64]));
        }
        // A cursor taken before the publishes still advances to 5.
        assert_eq!(stale.latest().epoch(), 5);
        // A fresh cursor starts at the refreshed anchor.
        assert_eq!(handle.reader().current().epoch(), 5);
        assert_eq!(handle.latest().scores(), &[5.0]);
    }

    #[test]
    fn advance_observes_every_epoch_exactly_once() {
        let (mut pubr, handle) = chain(snap(0, &[0.0]));
        let mut r = handle.reader();
        assert!(r.advance().is_none(), "tail cursor has nothing to step to");
        for e in 1..=4 {
            pubr.publish(snap(e, &[e as f64]));
        }
        let mut seen = Vec::new();
        while let Some(s) = r.advance() {
            seen.push(s.epoch());
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(r.current().epoch(), 4);
    }

    #[test]
    fn publish_skips_anchor_refresh_under_contention_but_readers_catch_up() {
        let (mut pubr, handle) = chain(snap(0, &[0.0]));
        {
            // Hold the anchor lock across a publish: the writer must not
            // block, and the chain itself must still grow.
            let _guard = handle.anchor.lock().unwrap();
            pubr.publish(snap(1, &[1.0]));
        }
        // Anchor still points at epoch 0, but walking reaches epoch 1.
        let mut r = handle.reader();
        assert_eq!(r.current().epoch(), 0);
        assert_eq!(r.latest().epoch(), 1);
    }
}
