//! Profile collection for the simulator (the `dynbc-prof` counter model).
//!
//! Mirrors the checked-execution design in [`crate::checker`]: each block
//! optionally carries a boxed [`BlockProfile`] shadow collector
//! (`None` ⇒ one predictable branch per hook, no allocation — the no-op
//! guarantee), warps feed it from [`crate::block::BlockCtx`]'s existing
//! cost-model hook points, and the per-block results are **reduced in
//! block-index order** by [`reduce_blocks`], so a [`ProfileReport`] is
//! bit-identical for any `DYNBC_HOST_THREADS` value — the same contract
//! the engines use for their `bc_delta` slabs.
//!
//! What each counter means and how it is derived:
//!
//! * *occupancy / divergence* — at every warp retirement the collector
//!   has seen each lane's event count; idle slots (`busiest × active − Σ`)
//!   are the lockstep stall, and a warp whose lanes disagree is divergent.
//! * *coalescing* — lanes push the 32-byte segment id of every access;
//!   at warp end the sorted run lengths split transactions into coalesced
//!   (run ≥ 2 lane accesses) and uncoalesced (run = 1). The *distinct*
//!   count matches the cost model's `mem_segments` exactly.
//! * *atomic contention* — the warp's sorted atomic addresses yield both
//!   the conflict count (cost model) and the deepest same-address run,
//!   the per-address contention depth.
//! * *futile work, queue/dedup ops* — semantic counters the kernels
//!   annotate via `Lane::prof_*`; the simulator cannot know which reads
//!   are "edge scans", so the kernels say so (free when profiling is off).

use dynbc_prof::{BlockSpan, Counters, StageProfile};

/// Per-block, per-stage counter buckets in first-touch label order — what
/// a finished block hands back to the launch for reduction.
pub(crate) type BlockBuckets = Vec<(&'static str, Counters)>;

/// Shadow profile collector of one block (lives behind
/// `Option<Box<...>>` in `BlockCtx`; absent ⇒ hooks are no-ops).
#[derive(Debug)]
pub(crate) struct BlockProfile {
    /// Per-label counter buckets in first-touch order.
    buckets: BlockBuckets,
    /// Index of the bucket accesses currently accumulate into.
    cur: usize,
    // ---- per-warp scratch, reset by `begin_warp` ----
    /// 32-byte segment id of every lane access in the current warp.
    warp_segs: Vec<u64>,
    /// Σ lane event counts over the warp's retired lanes.
    sum_lane_events: u64,
    /// Smallest lane event count seen (divergence = min ≠ max).
    min_lane_events: u32,
    /// Lanes retired in the current warp.
    active_lanes: u32,
}

impl BlockProfile {
    pub(crate) fn new() -> Self {
        Self {
            buckets: vec![("", Counters::default())],
            cur: 0,
            warp_segs: Vec::with_capacity(128),
            sum_lane_events: 0,
            min_lane_events: u32::MAX,
            active_lanes: 0,
        }
    }

    /// Switches the active bucket (kernel-phase label changed).
    pub(crate) fn set_label(&mut self, label: &'static str) {
        if self.buckets[self.cur].0 == label {
            return;
        }
        self.cur = match self.buckets.iter().position(|&(l, _)| l == label) {
            Some(i) => i,
            None => {
                self.buckets.push((label, Counters::default()));
                self.buckets.len() - 1
            }
        };
    }

    /// The bucket accesses currently accumulate into.
    #[inline]
    pub(crate) fn cur_mut(&mut self) -> &mut Counters {
        &mut self.buckets[self.cur].1
    }

    /// Starts a warp: clears the per-warp scratch.
    #[inline]
    pub(crate) fn begin_warp(&mut self) {
        self.warp_segs.clear();
        self.sum_lane_events = 0;
        self.min_lane_events = u32::MAX;
        self.active_lanes = 0;
    }

    /// Notes one lane access to the 32-byte segment `seg`.
    #[inline]
    pub(crate) fn touch_seg(&mut self, seg: u64) {
        self.warp_segs.push(seg);
    }

    /// Retires one lane with its event count.
    #[inline]
    pub(crate) fn lane_retired(&mut self, lane_events: u32) {
        self.sum_lane_events += u64::from(lane_events);
        self.min_lane_events = self.min_lane_events.min(lane_events);
        self.active_lanes += 1;
    }

    /// Retires `count > 0` lanes that each ran `lane_events` events.
    #[inline]
    pub(crate) fn lanes_retired(&mut self, count: u32, lane_events: u32) {
        self.sum_lane_events += u64::from(count) * u64::from(lane_events);
        self.min_lane_events = self.min_lane_events.min(lane_events);
        self.active_lanes += count;
    }

    /// Retires the warp: folds the scratch into the active bucket.
    /// `atomic_addrs` must already be sorted (the cost model sorts it).
    pub(crate) fn end_warp(
        &mut self,
        max_lane_events: u32,
        warp_size: usize,
        atomic_addrs: &[u64],
    ) {
        let active = self.active_lanes;
        let sum = self.sum_lane_events;
        let min = self.min_lane_events;
        // Coalescing: sorted run lengths over the warp's touched segments.
        self.warp_segs.sort_unstable();
        let mut coalesced = 0u64;
        let mut uncoalesced = 0u64;
        let mut i = 0usize;
        while i < self.warp_segs.len() {
            let mut j = i + 1;
            while j < self.warp_segs.len() && self.warp_segs[j] == self.warp_segs[i] {
                j += 1;
            }
            if j - i >= 2 {
                coalesced += 1;
            } else {
                uncoalesced += 1;
            }
            i = j;
        }
        // Atomic contention: deepest same-address run, plus the conflict
        // count the cost model charges (ops − distinct addresses).
        let mut max_run = 0u64;
        let mut run = 0u64;
        let mut distinct = 0u64;
        for k in 0..atomic_addrs.len() {
            if k > 0 && atomic_addrs[k] == atomic_addrs[k - 1] {
                run += 1;
            } else {
                run = 1;
                distinct += 1;
            }
            max_run = max_run.max(run);
        }

        let c = self.cur_mut();
        c.warp_execs += 1;
        c.active_lanes += u64::from(active);
        c.lane_slots += warp_size as u64;
        if active > 0 && min != max_lane_events {
            c.divergent_warps += 1;
        }
        c.divergence_stalls += u64::from(max_lane_events) * u64::from(active) - sum;
        c.mem_transactions += coalesced + uncoalesced;
        c.coalesced_transactions += coalesced;
        c.uncoalesced_transactions += uncoalesced;
        c.atomic_ops += atomic_addrs.len() as u64;
        c.atomic_conflicts += atomic_addrs.len() as u64 - distinct;
        c.max_contention_depth = c.max_contention_depth.max(max_run);
    }

    /// Surrenders the per-label buckets, dropping untouched ones (a block
    /// that labelled immediately leaves an all-zero `""` bucket behind).
    pub(crate) fn into_buckets(self) -> BlockBuckets {
        self.buckets
            .into_iter()
            .filter(|(_, c)| *c != Counters::default())
            .collect()
    }
}

/// Merges per-block buckets **in block-index order** into per-stage
/// profiles plus a launch total. Stage order is deterministic: block 0's
/// first-touch order, then labels first seen in later blocks.
pub(crate) fn reduce_blocks(blocks: Vec<BlockBuckets>) -> (Vec<StageProfile>, Counters) {
    let mut stages: Vec<StageProfile> = Vec::new();
    let mut total = Counters::default();
    for buckets in blocks {
        for (label, c) in buckets {
            total.merge(&c);
            match stages.iter_mut().find(|s| s.label == label) {
                Some(s) => s.counters.merge(&c),
                None => stages.push(StageProfile {
                    label: label.to_string(),
                    counters: c,
                    buffer_misses: Vec::new(),
                }),
            }
        }
    }
    (stages, total)
}

/// Replays the greedy block scheduler (first least-loaded SM wins, issue
/// order) to place each block on a timeline for the Chrome-trace sink.
/// `cycles_to_s` converts device cycles to seconds; `start_s` is the
/// simulated time the grid starts executing.
pub(crate) fn block_spans(
    block_cycles: &[f64],
    num_sms: usize,
    cycles_to_s: impl Fn(f64) -> f64,
    start_s: f64,
) -> Vec<BlockSpan> {
    let mut sm_load = vec![0.0f64; num_sms.max(1)];
    let mut spans = Vec::with_capacity(block_cycles.len());
    for (b, &c) in block_cycles.iter().enumerate() {
        let mut sm = 0usize;
        for (i, &load) in sm_load.iter().enumerate() {
            if load < sm_load[sm] {
                sm = i;
            }
        }
        spans.push(BlockSpan {
            block: b as u32,
            sm: sm as u32,
            start_s: start_s + cycles_to_s(sm_load[sm]),
            dur_s: cycles_to_s(c),
        });
        sm_load[sm] += c;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_labels_in_first_touch_order() {
        let mut p = BlockProfile::new();
        p.set_label("a");
        p.cur_mut().edges_scanned += 3;
        p.set_label("b");
        p.cur_mut().edges_scanned += 1;
        p.set_label("a");
        p.cur_mut().edges_scanned += 2;
        let buckets = p.into_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].0, "a");
        assert_eq!(buckets[0].1.edges_scanned, 5);
        assert_eq!(buckets[1].0, "b");
    }

    #[test]
    fn warp_retirement_classifies_coalescing_and_divergence() {
        let mut p = BlockProfile::new();
        p.set_label("k");
        p.begin_warp();
        // Lane 0: 3 events on segments 0,0,1; lane 1: 1 event on segment 0.
        p.touch_seg(0);
        p.touch_seg(0);
        p.touch_seg(1);
        p.lane_retired(3);
        p.touch_seg(0);
        p.lane_retired(1);
        p.end_warp(3, 4, &[10, 10, 12]);
        let c = p.into_buckets()[0].1;
        assert_eq!(c.warp_execs, 1);
        assert_eq!(c.active_lanes, 2);
        assert_eq!(c.lane_slots, 4);
        assert_eq!(c.divergent_warps, 1);
        // busiest 3 × active 2 − Σ 4 = 2 idle slots.
        assert_eq!(c.divergence_stalls, 2);
        // Segment 0 serviced 3 accesses (coalesced); segment 1 one.
        assert_eq!(c.mem_transactions, 2);
        assert_eq!(c.coalesced_transactions, 1);
        assert_eq!(c.uncoalesced_transactions, 1);
        assert_eq!(c.atomic_ops, 3);
        assert_eq!(c.atomic_conflicts, 1);
        assert_eq!(c.max_contention_depth, 2);
    }

    #[test]
    fn reduce_is_block_index_ordered() {
        let b0: BlockBuckets = vec![(
            "sp",
            Counters {
                edges_scanned: 4,
                ..Counters::default()
            },
        )];
        let b1: BlockBuckets = vec![
            (
                "dep",
                Counters {
                    edges_scanned: 1,
                    ..Counters::default()
                },
            ),
            (
                "sp",
                Counters {
                    edges_scanned: 2,
                    ..Counters::default()
                },
            ),
        ];
        let (stages, total) = reduce_blocks(vec![b0, b1]);
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].label, "sp");
        assert_eq!(stages[0].counters.edges_scanned, 6);
        assert_eq!(stages[1].label, "dep");
        assert_eq!(total.edges_scanned, 7);
    }

    #[test]
    fn block_spans_replay_greedy_scheduling() {
        let spans = block_spans(&[10.0, 10.0, 5.0], 2, |c| c, 1.0);
        assert_eq!(spans[0].sm, 0);
        assert_eq!(spans[1].sm, 1);
        // Block 2 lands on the first SM to free up — both free at 10.0,
        // the greedy scheduler takes the first.
        assert_eq!(spans[2].sm, 0);
        assert_eq!(spans[2].start_s, 11.0);
        assert_eq!(spans[2].dur_s, 5.0);
    }
}
