//! `SlackCsr` — a CSR-shaped adjacency store with per-row slack, built for
//! in-place streaming mutation (the GraphVine / PMA idea at its simplest):
//! every row owns a capacity slightly larger than its degree, insertions
//! shift within the row's slack, and removals tombstone their slot in
//! place. Both touch O(degree) memory instead of the O(E) a fresh CSR
//! snapshot costs, which is what makes the batch update path's graph
//! maintenance disappear from the serving critical path.
//!
//! # Layout
//!
//! Four parallel slot arrays, indexed by a *slot* id:
//!
//! * `row_start[v]..row_start[v+1]` — the slot capacity owned by row `v`;
//! * `row_len[v]` — the occupied prefix (live slots *and* tombstones);
//!   slots past the prefix are gaps;
//! * `adj[s]` — the neighbour stored in slot `s`, sorted by value across
//!   each row's occupied prefix (dead slots included), so the visible
//!   subsequence of any row is exactly the corresponding CSR row;
//! * `epochs[s]` — packed `(born, died)` visibility interval (below);
//! * `slot_tails[s]` — the row owning slot `s`, so edge-parallel kernels
//!   can recover the arc tail without a row search.
//!
//! # Epoch visibility (batch versioning)
//!
//! A fused batch stage applies every op's adjacency delta to *one* shared
//! store, then launches all work items together — yet item `j` must see
//! the graph exactly as it stood after op `j` committed. Each slot
//! carries a packed `u64` epoch `(born << 32) | died`; version `v` sees a
//! slot iff `born <= v < died`. Stage-start slots are `(0, MAX)`, op `j`
//! (1-based version `j + 1`) inserts at `(j + 1, MAX)` and removes by
//! setting `died = j + 1`, so the per-version views reproduce the
//! sequential commit order bit-for-bit. [`SlackCsr::settle`] normalizes
//! the stage afterwards: surviving insertions become `(0, MAX)`, removed
//! slots become persistent tombstones `(0, 0)` that kernels skip until a
//! deterministic compaction reclaims them. Gap slots are `(MAX, MAX)` —
//! visible to no version.
//!
//! # Determinism contract
//!
//! Every decision here — insert position, revival of a settled tombstone,
//! row growth, compaction — is a pure function of the op sequence and the
//! two layout parameters. No wall clock, no hashing, no allocation-
//! dependent choices: two engines fed the same stream hold byte-identical
//! stores, and [`SlackCsr::to_csr`] is byte-identical to
//! [`Csr::from_edge_list`] over the same edge set (the oracle the
//! proptests pin).

use crate::csr::Csr;
use crate::VertexId;

/// Per-row slack every engine builds its store with, percent of the
/// degree.
pub const DEFAULT_SLACK_PCT: u32 = 25;
/// Compaction threshold every engine builds its store with: compact when
/// tombstones reach this percent of the occupied slots.
pub const DEFAULT_COMPACT_PCT: u32 = 25;

/// Epoch of a settled live slot: `(born = 0, died = MAX)`.
pub const EPOCH_LIVE: u64 = u32::MAX as u64;
/// Epoch of a settled tombstone: `(0, 0)` — visible to no version.
pub const EPOCH_TOMB: u64 = 0;
/// Epoch of a gap slot past the occupied prefix: `(MAX, MAX)`.
pub const EPOCH_GAP: u64 = u64::MAX;

/// Packs a `(born, died)` visibility interval into one `u64`.
#[inline]
pub fn epoch_pack(born: u32, died: u32) -> u64 {
    (u64::from(born) << 32) | u64::from(died)
}

/// True when the slot with epoch `e` is visible to stage version `ver`.
#[inline]
pub fn epoch_visible(e: u64, ver: u32) -> bool {
    let born = (e >> 32) as u32;
    let died = e as u32;
    born <= ver && ver < died
}

/// Occupied-prefix length mask of the packed [`SlackCsr::row_meta`]
/// word (low 24 bits).
pub const ROW_LEN_MASK: u32 = (1 << 24) - 1;
/// The hard-dirty bit carried in [`SlackCsr::row_meta`]'s high bit: set
/// while the row holds a tombstone or a staged death, whose visibility
/// is *not* monotone in the version — every view must run the per-slot
/// epoch check. (Also set when a staged birth exceeds
/// [`STAGE_BORN_MAX`], since the device mirror carries each slot's
/// birth version in a single byte.)
pub const ROW_DIRTY_BIT: u32 = 1 << 31;
/// Largest staged birth version a row can carry and stay off the
/// hard-dirty path: the device mirror packs each slot's birth into the
/// top byte of its adjacency word, so insert-only rows are checked for
/// free on the read the scan already does. Stages longer than this
/// (engines version ops `1..=stage_len`) degrade those rows to exact
/// per-slot epoch checks — correct, just priced.
pub const STAGE_BORN_MAX: u32 = u8::MAX as u32;

/// One host-side mutation record, drained by the device mirror so it can
/// re-upload only what changed ([`SlackCsr::take_deltas`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlackDelta {
    /// Slots `lo..hi` of `row` changed (`adj` + `epochs`), along with the
    /// row's `row_meta` word.
    Slots {
        /// The row whose occupied prefix changed.
        row: VertexId,
        /// First changed slot.
        lo: u32,
        /// One past the last changed slot.
        hi: u32,
    },
    /// The whole layout changed (row growth or compaction): every array,
    /// including `row_start` and `slot_tails`, must be re-uploaded.
    Relayout,
}

/// CSR with per-row slack, tombstoned removals, and epoch-versioned slots.
#[derive(Debug, Clone)]
pub struct SlackCsr {
    row_start: Vec<u32>,
    row_len: Vec<u32>,
    row_dirty: Vec<bool>,
    adj: Vec<VertexId>,
    epochs: Vec<u64>,
    slot_tails: Vec<VertexId>,
    slack_pct: u32,
    compact_pct: u32,
    /// Whether mutation is allowed (false for the exact static layout).
    mutable: bool,
    /// Live directed arcs (including unsettled stage insertions).
    arcs: usize,
    /// Settled tombstone slots.
    dead: usize,
    /// Rows touched by versioned ops since the last [`SlackCsr::settle`].
    stage_rows: Vec<VertexId>,
    deltas: Vec<SlackDelta>,
    stat_slots_touched: u64,
    stat_relayouts: u64,
    stat_compactions: u64,
}

impl SlackCsr {
    /// Builds the store from a CSR snapshot with `slack_pct` percent
    /// extra capacity per row (plus one guaranteed gap slot) and
    /// compaction triggered at `compact_pct` percent tombstones.
    pub fn from_csr(csr: &Csr, slack_pct: u32, compact_pct: u32) -> Self {
        Self::build(csr, slack_pct, compact_pct, true)
    }

    /// Builds an *exact* (slack-free, immutable) layout: capacity equals
    /// degree for every row. The static-BC path uses this so a fresh
    /// source pass scans exactly the CSR's arcs; mutating it panics.
    pub fn from_csr_exact(csr: &Csr) -> Self {
        Self::build(csr, 0, DEFAULT_COMPACT_PCT, false)
    }

    fn build(csr: &Csr, slack_pct: u32, compact_pct: u32, mutable: bool) -> Self {
        let n = csr.vertex_count();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        for v in 0..n as VertexId {
            row_start.push(total);
            let len = csr.degree(v);
            let cap = if mutable {
                cap_for(len, slack_pct)
            } else {
                len
            };
            total += cap as u32;
        }
        row_start.push(total);
        let total = total as usize;
        let mut adj = vec![0; total];
        let mut epochs = vec![EPOCH_GAP; total];
        let mut slot_tails = vec![0; total];
        let mut row_len = vec![0u32; n];
        for v in 0..n as VertexId {
            let start = row_start[v as usize] as usize;
            let cap = row_start[v as usize + 1] as usize - start;
            let row = csr.neighbors(v);
            row_len[v as usize] = row.len() as u32;
            adj[start..start + row.len()].copy_from_slice(row);
            epochs[start..start + row.len()].fill(EPOCH_LIVE);
            slot_tails[start..start + cap].fill(v);
        }
        Self {
            row_start,
            row_len,
            row_dirty: vec![false; n],
            adj,
            epochs,
            slot_tails,
            slack_pct,
            compact_pct,
            mutable,
            arcs: csr.arc_count(),
            dead: 0,
            stage_rows: Vec::new(),
            deltas: Vec::new(),
            stat_slots_touched: 0,
            stat_relayouts: 0,
            stat_compactions: 0,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.row_len.len()
    }

    /// Total slot capacity (the bound edge-parallel kernels iterate).
    pub fn capacity(&self) -> usize {
        *self.row_start.last().unwrap_or(&0) as usize
    }

    /// Live directed arcs (2× the edge count, stage insertions included).
    pub fn arc_count(&self) -> usize {
        self.arcs
    }

    /// Settled tombstone slots awaiting compaction.
    pub fn dead_slots(&self) -> usize {
        self.dead
    }

    /// Per-row capacity offsets (`n + 1` entries).
    pub fn row_start(&self) -> &[u32] {
        &self.row_start
    }

    /// Slot neighbour values.
    pub fn adj(&self) -> &[VertexId] {
        &self.adj
    }

    /// Slot visibility epochs.
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// Owning row per slot.
    pub fn slot_tails(&self) -> &[VertexId] {
        &self.slot_tails
    }

    /// The packed per-row word kernels read: occupied-prefix length in
    /// the low [`ROW_LEN_MASK`] bits, and [`ROW_DIRTY_BIT`] while any
    /// occupied slot carries a tombstone, a staged death, or a staged
    /// birth past [`STAGE_BORN_MAX`]. A view needs the per-slot epoch
    /// check iff the hard bit is set; otherwise every slot's visibility
    /// rides in the byte-sized birth version the device mirror packs
    /// into the slot's adjacency word.
    pub fn row_meta(&self, v: VertexId) -> u32 {
        let len = self.row_len[v as usize];
        assert!(len <= ROW_LEN_MASK, "row degree overflows row_meta packing");
        if self.row_dirty[v as usize] {
            len | ROW_DIRTY_BIT
        } else {
            len
        }
    }

    /// Cumulative slots rewritten by deltas — the O(degree) maintenance
    /// traffic the bench compares against an O(E) rebuild.
    pub fn slots_touched(&self) -> u64 {
        self.stat_slots_touched
    }

    /// Layout rebuilds (row growth), cumulative.
    pub fn relayouts(&self) -> u64 {
        self.stat_relayouts
    }

    /// Tombstone-purging compactions, cumulative.
    pub fn compactions(&self) -> u64 {
        self.stat_compactions
    }

    /// Drains the mutation records accumulated since the last call (the
    /// device mirror's sync feed).
    pub fn take_deltas(&mut self) -> Vec<SlackDelta> {
        std::mem::take(&mut self.deltas)
    }

    /// The occupied slot range of row `v`.
    fn occupied(&self, v: VertexId) -> (usize, usize) {
        let start = self.row_start[v as usize] as usize;
        (start, start + self.row_len[v as usize] as usize)
    }

    /// First occupied slot of row `v` whose value is `>= w`.
    fn lower_bound(&self, v: VertexId, w: VertexId) -> usize {
        let (start, end) = self.occupied(v);
        start + self.adj[start..end].partition_point(|&x| x < w)
    }

    /// True when the settled store contains `{u, v}` (ignores unsettled
    /// stage epochs; callers on the staged path validate upstream).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v || u as usize >= self.vertex_count() || v as usize >= self.vertex_count() {
            return false;
        }
        let (_, end) = self.occupied(u);
        let mut s = self.lower_bound(u, v);
        while s < end && self.adj[s] == v {
            if self.epochs[s] as u32 == u32::MAX {
                return true;
            }
            s += 1;
        }
        false
    }

    /// The settled neighbours of `v`, in sorted order.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let (start, end) = self.occupied(v);
        (start..end)
            .filter(|&s| self.epochs[s] == EPOCH_LIVE)
            .map(|s| self.adj[s])
    }

    /// The neighbours of `v` at stage version `ver` (0 = stage start,
    /// `j + 1` = after the stage's op `j`), in sorted order.
    pub fn neighbors_at(&self, v: VertexId, ver: u32) -> impl Iterator<Item = VertexId> + '_ {
        let (start, end) = self.occupied(v);
        (start..end)
            .filter(move |&s| epoch_visible(self.epochs[s], ver))
            .map(|s| self.adj[s])
    }

    // -- settled (immediate) mutation --------------------------------

    /// Inserts `{u, v}` as a settled edge. Returns `false` (store
    /// unchanged) for self loops and edges already present.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.insert_half(u, v, 0);
        self.insert_half(v, u, 0);
        self.arcs += 2;
        self.maybe_compact();
        true
    }

    /// Removes `{u, v}` from the settled store (tombstoning both
    /// half-arcs). Returns `false` when the edge is not present.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        self.remove_half(u, v, None);
        self.remove_half(v, u, None);
        self.arcs -= 2;
        self.dead += 2;
        self.maybe_compact();
        true
    }

    // -- staged (versioned) mutation ---------------------------------

    /// Records the insertion of `{u, v}` by the stage op with 1-based
    /// version `ver`: versions `>= ver` see the edge, earlier versions do
    /// not. The batch must already be validated (no duplicates).
    pub fn insert_edge_versioned(&mut self, u: VertexId, v: VertexId, ver: u32) {
        debug_assert!(ver >= 1, "stage versions are 1-based");
        self.insert_half(u, v, ver);
        self.insert_half(v, u, ver);
        self.arcs += 2;
        self.stage_rows.push(u);
        self.stage_rows.push(v);
    }

    /// Records the removal of `{u, v}` by the stage op with 1-based
    /// version `ver`: versions `>= ver` no longer see the edge.
    pub fn remove_edge_versioned(&mut self, u: VertexId, v: VertexId, ver: u32) {
        debug_assert!(ver >= 1, "stage versions are 1-based");
        self.remove_half(u, v, Some(ver));
        self.remove_half(v, u, Some(ver));
        self.arcs -= 2;
        self.stage_rows.push(u);
        self.stage_rows.push(v);
    }

    /// Ends a fused stage: normalizes every epoch written since the last
    /// settle (surviving insertions become `EPOCH_LIVE`, removed slots
    /// become persistent tombstones), refreshes the per-row dirty bits,
    /// and runs the deterministic compaction check.
    pub fn settle(&mut self) {
        let mut rows = std::mem::take(&mut self.stage_rows);
        rows.sort_unstable();
        rows.dedup();
        for v in rows {
            let (start, end) = self.occupied(v);
            for s in start..end {
                let e = self.epochs[s];
                let died = e as u32;
                if died != u32::MAX {
                    // Removed at some stage version (or already a
                    // tombstone): persist as a tombstone.
                    if e != EPOCH_TOMB {
                        self.epochs[s] = EPOCH_TOMB;
                        self.dead += 1;
                    }
                } else if e != EPOCH_LIVE {
                    // Inserted this stage and still alive: settle.
                    self.epochs[s] = EPOCH_LIVE;
                }
            }
            self.refresh_row_flags(v);
            if end > start {
                self.push_slots_delta(v, start, end);
            }
        }
        self.maybe_compact();
    }

    // -- internals ---------------------------------------------------

    fn push_slots_delta(&mut self, row: VertexId, lo: usize, hi: usize) {
        self.deltas.push(SlackDelta::Slots {
            row,
            lo: lo as u32,
            hi: hi as u32,
        });
        self.stat_slots_touched += (hi - lo) as u64;
    }

    /// Inserts the half-arc `u -> w` with birth version `born` (0 =
    /// settled). Revives a settled tombstone of the same value in place
    /// when one exists; otherwise shifts the row's occupied suffix into
    /// its slack, growing the layout when the row is full.
    fn insert_half(&mut self, u: VertexId, w: VertexId, born: u32) {
        assert!(
            self.mutable,
            "SlackCsr::from_csr_exact layouts are immutable"
        );
        let (_, mut end) = self.occupied(u);
        let mut pos = self.lower_bound(u, w);
        // Revival: a settled tombstone of the same value keeps its slot.
        let mut probe = pos;
        while probe < end && self.adj[probe] == w {
            if self.epochs[probe] == EPOCH_TOMB {
                self.epochs[probe] = epoch_pack(born, u32::MAX);
                self.dead -= 1;
                self.refresh_row_flags(u);
                self.push_slots_delta(u, probe, probe + 1);
                return;
            }
            probe += 1;
        }
        let cap_end = self.row_start[u as usize + 1] as usize;
        if end == cap_end {
            // Row full: rebuild the layout with fresh slack. Slot ids
            // change, so recompute the insertion point.
            self.relayout(false);
            let (_, e) = self.occupied(u);
            debug_assert!(e < self.row_start[u as usize + 1] as usize);
            end = e;
            pos = self.lower_bound(u, w);
        }
        self.adj.copy_within(pos..end, pos + 1);
        self.epochs.copy_within(pos..end, pos + 1);
        self.adj[pos] = w;
        self.epochs[pos] = epoch_pack(born, u32::MAX);
        self.row_len[u as usize] += 1;
        self.refresh_row_flags(u);
        self.push_slots_delta(u, pos, end + 1);
    }

    /// Kills the half-arc `u -> w`: marks the slot dead at stage version
    /// `ver`, or as a settled tombstone when `ver` is `None`.
    fn remove_half(&mut self, u: VertexId, w: VertexId, ver: Option<u32>) {
        assert!(
            self.mutable,
            "SlackCsr::from_csr_exact layouts are immutable"
        );
        let (_, end) = self.occupied(u);
        let view = ver.map_or(u32::MAX, |v| v - 1);
        let mut s = self.lower_bound(u, w);
        while s < end && self.adj[s] == w {
            let e = self.epochs[s];
            let alive = match ver {
                // Staged removal: the slot the op's *pre*-view sees.
                Some(_) => epoch_visible(e, view) || (view == u32::MAX - 1 && e == EPOCH_LIVE),
                None => e == EPOCH_LIVE,
            };
            if alive {
                match ver {
                    Some(v) => {
                        let born = (e >> 32) as u32;
                        self.epochs[s] = epoch_pack(born, v);
                    }
                    None => {
                        self.epochs[s] = EPOCH_TOMB;
                    }
                }
                self.refresh_row_flags(u);
                self.push_slots_delta(u, s, s + 1);
                return;
            }
            s += 1;
        }
        panic!("remove_half: arc {u} -> {w} not present");
    }

    /// Recomputes row `v`'s hard-dirty flag from its epochs: set while
    /// any occupied slot carries a tombstone or staged death
    /// (`died != MAX`) or a staged birth past [`STAGE_BORN_MAX`] (too
    /// big for the byte the device mirror packs into adjacency words).
    /// One O(degree) scan after every mutation keeps the flag exactly
    /// consistent, a pure function of the row's current epochs.
    fn refresh_row_flags(&mut self, v: VertexId) {
        let (start, end) = self.occupied(v);
        self.row_dirty[v as usize] = self.epochs[start..end].iter().any(|&e| {
            e != EPOCH_LIVE && (e as u32 != u32::MAX || (e >> 32) as u32 > STAGE_BORN_MAX)
        });
    }

    /// Deterministic compaction trigger: purge tombstones once they make
    /// up at least `compact_pct` percent of the occupied slots.
    fn maybe_compact(&mut self) {
        if self.dead > 0 && self.dead * 100 >= self.compact_pct as usize * (self.arcs + self.dead) {
            self.relayout(true);
            self.stat_compactions += 1;
        }
    }

    /// Rebuilds the slot arrays with fresh slack. `purge` drops settled
    /// tombstones (compaction); otherwise every occupied slot survives
    /// verbatim — epochs included — so mid-stage views are preserved
    /// across row growth.
    fn relayout(&mut self, purge: bool) {
        let n = self.vertex_count();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut keep: Vec<(usize, usize)> = Vec::with_capacity(n);
        let mut total = 0u32;
        for v in 0..n as VertexId {
            let (start, end) = self.occupied(v);
            let len = if purge {
                (start..end)
                    .filter(|&s| self.epochs[s] != EPOCH_TOMB)
                    .count()
            } else {
                end - start
            };
            row_start.push(total);
            total += cap_for(len, self.slack_pct) as u32;
            keep.push((start, end));
        }
        row_start.push(total);
        let total = total as usize;
        let mut adj = vec![0; total];
        let mut epochs = vec![EPOCH_GAP; total];
        let mut slot_tails = vec![0; total];
        let mut row_len = vec![0u32; n];
        for v in 0..n as VertexId {
            let (old_start, old_end) = keep[v as usize];
            let new_start = row_start[v as usize] as usize;
            let cap = row_start[v as usize + 1] as usize - new_start;
            slot_tails[new_start..new_start + cap].fill(v);
            let mut at = new_start;
            for s in old_start..old_end {
                let e = self.epochs[s];
                if purge && e == EPOCH_TOMB {
                    continue;
                }
                adj[at] = self.adj[s];
                epochs[at] = e;
                at += 1;
            }
            row_len[v as usize] = (at - new_start) as u32;
        }
        self.row_start = row_start;
        self.row_len = row_len;
        self.adj = adj;
        self.epochs = epochs;
        self.slot_tails = slot_tails;
        for v in 0..n as VertexId {
            self.refresh_row_flags(v);
        }
        if purge {
            self.dead = 0;
        }
        self.deltas.clear();
        self.deltas.push(SlackDelta::Relayout);
        self.stat_relayouts += 1;
    }

    /// Canonicalizes the settled store into an immutable [`Csr`],
    /// byte-identical to [`Csr::from_edge_list`] over the same edges —
    /// the oracle form every equivalence check compares against. Not for
    /// the update hot path: this walks the whole store.
    pub fn to_csr(&self) -> Csr {
        debug_assert!(
            self.stage_rows.is_empty(),
            "to_csr on an unsettled store: call settle() first"
        );
        let n = self.vertex_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(self.arcs);
        offsets.push(0usize);
        for v in 0..n as VertexId {
            let (start, end) = self.occupied(v);
            for s in start..end {
                if self.epochs[s] == EPOCH_LIVE {
                    adj.push(self.adj[s]);
                }
            }
            offsets.push(adj.len());
        }
        Csr::from_sorted_parts(offsets, adj)
    }
}

/// Row capacity for an occupied length: the length, plus `slack_pct`
/// percent, plus one guaranteed gap slot (so a row can always absorb at
/// least one insertion before forcing a relayout).
fn cap_for(len: usize, slack_pct: u32) -> usize {
    len + len * slack_pct as usize / 100 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn csr_of(n: usize, pairs: &[(u32, u32)]) -> Csr {
        Csr::from_edge_list(&EdgeList::from_pairs(n, pairs.to_vec()))
    }

    #[test]
    fn from_csr_round_trips() {
        let csr = csr_of(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]);
        let slack = SlackCsr::from_csr(&csr, 25, 25);
        assert_eq!(slack.to_csr(), csr);
        assert_eq!(slack.arc_count(), csr.arc_count());
        assert!(slack.capacity() > csr.arc_count(), "rows carry slack");
    }

    #[test]
    fn settled_inserts_and_removes_match_csr_oracle() {
        let csr = csr_of(6, &[(0, 1), (2, 3)]);
        let mut slack = SlackCsr::from_csr(&csr, 25, 25);
        assert!(slack.insert_edge(1, 2));
        assert!(!slack.insert_edge(1, 2), "duplicate insert is a no-op");
        assert!(!slack.insert_edge(4, 4), "self loop is a no-op");
        assert!(slack.remove_edge(2, 3));
        assert!(!slack.remove_edge(2, 3), "removing twice is a no-op");
        assert!(slack.insert_edge(4, 5));
        let oracle = csr_of(6, &[(0, 1), (1, 2), (4, 5)]);
        assert_eq!(slack.to_csr(), oracle);
    }

    #[test]
    fn tombstone_revival_reuses_the_slot() {
        let csr = csr_of(4, &[(0, 1), (0, 2), (0, 3)]);
        // High compaction threshold so the tombstones stay in place.
        let mut slack = SlackCsr::from_csr(&csr, 25, 90);
        let cap = slack.capacity();
        assert!(slack.remove_edge(0, 2));
        assert_eq!(slack.dead_slots(), 2);
        assert!(slack.insert_edge(0, 2));
        assert_eq!(slack.dead_slots(), 0, "revival reclaims the tombstones");
        assert_eq!(slack.capacity(), cap, "no relayout needed");
        assert_eq!(slack.to_csr(), csr);
    }

    #[test]
    fn row_growth_relayouts_and_preserves_content() {
        let csr = csr_of(8, &[(0, 1)]);
        let mut slack = SlackCsr::from_csr(&csr, 0, 25);
        let before = slack.relayouts();
        for v in 2..8 {
            assert!(slack.insert_edge(0, v));
        }
        assert!(slack.relayouts() > before, "row 0 must have grown");
        let oracle = csr_of(8, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)]);
        assert_eq!(slack.to_csr(), oracle);
    }

    #[test]
    fn compaction_purges_tombstones_deterministically() {
        let csr = csr_of(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]);
        let mut slack = SlackCsr::from_csr(&csr, 25, 25);
        assert!(slack.remove_edge(0, 3));
        // 2 dead of 12 occupied is 16.7% < 25%: tombstones stay.
        assert_eq!(slack.dead_slots(), 2);
        assert!(slack.remove_edge(0, 4));
        // 4 dead, 8 live: 4/12 = 33% >= 25% -> compacted.
        assert_eq!(slack.dead_slots(), 0, "compaction must have fired");
        assert!(slack.compactions() >= 1);
        let oracle = csr_of(6, &[(0, 1), (0, 2), (0, 5), (1, 2)]);
        assert_eq!(slack.to_csr(), oracle);
    }

    #[test]
    fn versioned_stage_reproduces_per_op_views() {
        let csr = csr_of(5, &[(0, 1), (1, 2), (3, 4)]);
        let mut slack = SlackCsr::from_csr(&csr, 25, 25);
        // Stage: op 0 inserts (2,3); op 1 removes (0,1); op 2 removes and
        // op 3 re-inserts (2,3).
        slack.insert_edge_versioned(2, 3, 1);
        slack.remove_edge_versioned(0, 1, 2);
        slack.remove_edge_versioned(2, 3, 3);
        slack.insert_edge_versioned(2, 3, 4);
        let visible = |v, ver| slack.neighbors_at(v, ver).collect::<Vec<_>>();
        assert_eq!(visible(2, 0), vec![1], "stage start");
        assert_eq!(visible(2, 1), vec![1, 3], "after op 0");
        assert_eq!(visible(0, 1), vec![1], "op 1 not yet visible");
        assert_eq!(visible(0, 2), Vec::<u32>::new(), "after op 1");
        assert_eq!(visible(2, 3), vec![1], "after op 2");
        assert_eq!(visible(2, 4), vec![1, 3], "after op 3");
        slack.settle();
        let oracle = csr_of(5, &[(1, 2), (2, 3), (3, 4)]);
        assert_eq!(slack.to_csr(), oracle);
    }

    #[test]
    fn settle_marks_tombstoned_rows_dirty_and_clean_rows_fast() {
        let csr = csr_of(4, &[(0, 1), (2, 3)]);
        let mut slack = SlackCsr::from_csr(&csr, 25, 90);
        slack.insert_edge_versioned(1, 2, 1);
        assert_eq!(
            slack.row_meta(1) & ROW_DIRTY_BIT,
            0,
            "a staged birth alone is not hard-dirty"
        );
        slack.remove_edge_versioned(2, 3, 2);
        assert!(
            slack.row_meta(2) & ROW_DIRTY_BIT != 0,
            "a staged death is hard-dirty: visibility is not monotone"
        );
        slack.settle();
        assert_eq!(slack.row_meta(1), 2, "settled insert leaves the row clean");
        assert!(
            slack.row_meta(2) & ROW_DIRTY_BIT != 0,
            "tombstone keeps the row on the epoch-checked path"
        );
        assert_eq!(
            slack.row_meta(2) & ROW_LEN_MASK,
            2,
            "len counts the tombstone"
        );
    }

    #[test]
    fn row_dirty_flag_survives_relayout_and_gates_born_overflow() {
        let csr = csr_of(6, &[(0, 1), (0, 2)]);
        // Zero slack: row 0 (cap 3) overflows on the second staged insert,
        // forcing a mid-stage relayout that must preserve the soft flag.
        let mut slack = SlackCsr::from_csr(&csr, 0, 90);
        slack.insert_edge_versioned(0, 3, 1);
        slack.insert_edge_versioned(0, 4, 2);
        assert!(slack.relayouts() >= 1, "row 0 must have grown mid-stage");
        assert_eq!(
            slack.row_meta(0) & ROW_DIRTY_BIT,
            0,
            "insert-only row stays soft across the relayout"
        );
        // A staged birth too big for the device mirror's one-byte born
        // degrades its row to the epoch-checked path.
        slack.insert_edge_versioned(0, 5, STAGE_BORN_MAX + 1);
        assert!(
            slack.row_meta(0) & ROW_DIRTY_BIT != 0,
            "born past the byte clamp hard-dirties the row"
        );
        assert_eq!(slack.row_meta(3) & ROW_DIRTY_BIT, 0, "only on overflow");
        slack.settle();
        let oracle = csr_of(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        assert_eq!(slack.to_csr(), oracle);
    }

    #[test]
    fn deltas_cover_only_touched_slots() {
        let csr = csr_of(64, &(0..63).map(|v| (v, v + 1)).collect::<Vec<_>>());
        let mut slack = SlackCsr::from_csr(&csr, 25, 25);
        slack.take_deltas();
        let before = slack.slots_touched();
        slack.insert_edge_versioned(10, 40, 1);
        slack.settle();
        let deltas = slack.take_deltas();
        assert!(
            deltas
                .iter()
                .all(|d| matches!(d, SlackDelta::Slots { row, .. } if *row == 10 || *row == 40)),
            "only the endpoint rows may sync: {deltas:?}"
        );
        let touched = slack.slots_touched() - before;
        assert!(
            touched < slack.capacity() as u64 / 4,
            "O(degree) touch, not O(E): {touched} of {}",
            slack.capacity()
        );
    }

    #[test]
    #[should_panic(expected = "immutable")]
    fn exact_layout_rejects_mutation() {
        let csr = csr_of(3, &[(0, 1)]);
        let mut slack = SlackCsr::from_csr_exact(&csr);
        slack.insert_edge(1, 2);
    }
}
