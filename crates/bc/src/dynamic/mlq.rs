//! Multi-level queue (`QQ[level]`) from Green et al., Algorithm 2.
//!
//! Brandes's static algorithm drains vertices in reverse-BFS order with a
//! stack. The *dynamic* dependency-accumulation stage cannot use a stack:
//! while level `i + 1` is being drained, previously-untouched predecessors
//! are discovered and inserted at level `i`, and a stack would pop them
//! before the rest of level `i + 1` — violating the level-order invariant.
//! The multi-level queue keeps one FIFO bucket per BFS depth and is drained
//! from the deepest bucket upward, so late insertions at shallower levels
//! are always processed after every deeper vertex.

/// A bucketed queue indexed by BFS level.
///
/// Levels are `0..num_levels`; each holds a FIFO of vertex ids.
#[derive(Debug, Clone)]
pub(super) struct MultiLevelQueue {
    levels: Vec<Vec<u32>>,
    /// Deepest level that has ever received an element since the last clear.
    max_occupied: usize,
}

impl MultiLevelQueue {
    /// Creates a queue with buckets for levels `0..num_levels`.
    ///
    /// For a graph of `n` vertices, `n` levels always suffice (a BFS tree's
    /// depth is at most `n - 1`).
    pub(super) fn new(num_levels: usize) -> Self {
        Self {
            levels: vec![Vec::new(); num_levels],
            max_occupied: 0,
        }
    }

    /// Enqueues vertex `v` at `level`.
    ///
    /// # Panics
    /// Panics if `level >= num_levels`.
    pub(super) fn enqueue(&mut self, level: usize, v: u32) {
        self.levels[level].push(v);
        self.max_occupied = self.max_occupied.max(level);
    }

    /// Returns the bucket at `level` (FIFO order), replacing it with the
    /// emptied `reuse` vector so draining allocates nothing. The caller can
    /// iterate the returned bucket while enqueueing into shallower levels.
    pub(super) fn swap_level(&mut self, level: usize, mut reuse: Vec<u32>) -> Vec<u32> {
        reuse.clear();
        std::mem::replace(&mut self.levels[level], reuse)
    }

    /// Deepest level that has received any element since the last
    /// [`clear`](MultiLevelQueue::clear) (0 if none have).
    pub(super) fn deepest_touched(&self) -> usize {
        self.max_occupied
    }

    /// Empties every bucket, retaining allocations.
    pub(super) fn clear(&mut self) {
        let hi = self.max_occupied.min(self.levels.len().saturating_sub(1));
        for bucket in &mut self.levels[..=hi] {
            bucket.clear();
        }
        self.max_occupied = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drains levels `deepest_touched()..=1` through `swap_level`, calling
    /// `visit(level, v, queue)` so a visit can enqueue at shallower levels.
    fn drain(q: &mut MultiLevelQueue, mut visit: impl FnMut(usize, u32, &mut MultiLevelQueue)) {
        let mut reuse = Vec::new();
        let mut level = q.deepest_touched();
        while level > 0 {
            let bucket = q.swap_level(level, reuse);
            for &v in &bucket {
                visit(level, v, q);
            }
            reuse = bucket;
            level -= 1;
        }
    }

    #[test]
    fn insertion_at_shallower_level_during_drain_is_seen() {
        // The property the MLQ exists for: a vertex enqueued at level i
        // while level i+1 drains must still be visited.
        let mut q = MultiLevelQueue::new(5);
        q.enqueue(3, 30);
        q.enqueue(2, 20);
        let mut order = Vec::new();
        drain(&mut q, |_, v, q| {
            order.push(v);
            if v == 30 {
                q.enqueue(2, 21);
            }
        });
        assert_eq!(order, [30, 20, 21]);
        // deepest_touched is a high-water mark, not current occupancy.
        assert_eq!(q.deepest_touched(), 3);
        q.clear();
        assert_eq!(q.deepest_touched(), 0);
    }

    proptest! {
        #[test]
        fn mlq_preserves_level_order_and_fifo(
            items in proptest::collection::vec((0usize..8, any::<u32>()), 0..100)
        ) {
            let mut q = MultiLevelQueue::new(8);
            for &(lvl, v) in &items {
                q.enqueue(lvl, v);
            }
            prop_assert_eq!(q.deepest_touched(), items.iter().map(|&(l, _)| l).max().unwrap_or(0));
            let mut seen: Vec<(usize, u32)> = Vec::new();
            drain(&mut q, |lvl, v, _| seen.push((lvl, v)));
            // Drained deepest-first; level 0 stays.
            prop_assert!(seen.windows(2).all(|w| w[0].0 >= w[1].0));
            // FIFO within each level.
            for lvl in 1..8 {
                let drained: Vec<u32> =
                    seen.iter().filter(|&&(l, _)| l == lvl).map(|&(_, v)| v).collect();
                let inserted: Vec<u32> =
                    items.iter().filter(|&&(l, _)| l == lvl).map(|&(_, v)| v).collect();
                prop_assert_eq!(drained, inserted, "level {}", lvl);
            }
            let level0: Vec<u32> =
                items.iter().filter(|&&(l, _)| l == 0).map(|&(_, v)| v).collect();
            prop_assert_eq!(q.swap_level(0, Vec::new()), level0);
        }
    }
}
