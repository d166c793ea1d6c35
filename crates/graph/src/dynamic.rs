//! STINGER-lite: a blocked dynamic adjacency store.
//!
//! The paper excludes graph-update cost from its timings, pointing at
//! STINGER (Ediger et al., HPEC '12) for "dynamically updating graph data
//! structures at a small amortized cost". This module is that substrate: a
//! simplified STINGER keeping each vertex's neighbours in fixed-size blocks
//! drawn from a shared arena and chained by index, giving
//!
//! * O(1) amortized edge insertion (append to the tail block),
//! * O(degree) edge deletion (swap with the last entry),
//! * cache-friendly iteration (16 neighbours per block),
//! * block recycling through a free list.
//!
//! [`DynGraph`] is the store of the CPU reference engine, which the
//! equivalence proptests compare the GPU engines against. The GPU
//! engines keep one host graph, the [`SlackCsr`](crate::slack::SlackCsr)
//! store their kernels read, and keep it current with O(degree) deltas
//! per committed op (all structure maintenance stays outside timed
//! regions, matching the paper's methodology). Immutable [`Csr`]
//! snapshots remain the oracle form for equivalence checks.

use crate::csr::Csr;
use crate::edgelist::EdgeList;
use crate::VertexId;

/// Neighbours per block. STINGER uses larger blocks for NUMA machines; 16
/// keeps a block in one or two cache lines which suits this workload.
pub const BLOCK_SIZE: usize = 16;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Block {
    entries: [VertexId; BLOCK_SIZE],
    len: u8,
    next: u32,
}

impl Block {
    fn new() -> Self {
        Self {
            entries: [0; BLOCK_SIZE],
            len: 0,
            next: NONE,
        }
    }
}

/// One streaming mutation of the edge set.
///
/// A batch of these is the unit of work for the dynamic-BC engines'
/// `apply_batch`, which validate the whole batch before committing any
/// op and then commit the ops in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Insert the undirected edge `{u, v}`.
    Insert(VertexId, VertexId),
    /// Remove the undirected edge `{u, v}`.
    Remove(VertexId, VertexId),
}

impl EdgeOp {
    /// The `(u, v)` endpoint pair as submitted.
    pub fn endpoints(self) -> (VertexId, VertexId) {
        match self {
            EdgeOp::Insert(u, v) | EdgeOp::Remove(u, v) => (u, v),
        }
    }

    /// True for [`EdgeOp::Insert`].
    pub fn is_insert(self) -> bool {
        matches!(self, EdgeOp::Insert(..))
    }
}

impl std::fmt::Display for EdgeOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeOp::Insert(u, v) => write!(f, "insert({u}, {v})"),
            EdgeOp::Remove(u, v) => write!(f, "remove({u}, {v})"),
        }
    }
}

/// Why a batch was rejected by the engines' batch validation (the plan
/// layer's `validate_batch` in `dynbc-bc`).
///
/// The display strings keep the phrases the single-op engines always
/// panicked with ("self-loop", "already present", "not present") so
/// batch-of-one callers see unchanged diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOpError {
    /// Index of the offending op within the submitted batch.
    pub index: usize,
    /// The offending op.
    pub op: EdgeOp,
    /// What was wrong with it.
    pub kind: BatchOpErrorKind,
}

/// The specific rejection reason of a [`BatchOpError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOpErrorKind {
    /// `u == v`.
    SelfLoop,
    /// Insertion of an edge the graph already has.
    AlreadyPresent,
    /// Removal of an edge the graph does not have.
    NotPresent,
    /// An endpoint is not a vertex of the graph.
    OutOfRange,
}

impl std::fmt::Display for BatchOpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match (self.kind, self.op.is_insert()) {
            (BatchOpErrorKind::SelfLoop, true) => "self-loop insertion",
            (BatchOpErrorKind::SelfLoop, false) => "self-loop removal",
            (BatchOpErrorKind::AlreadyPresent, _) => "edge already present",
            (BatchOpErrorKind::NotPresent, _) => "edge not present",
            (BatchOpErrorKind::OutOfRange, _) => "endpoint out of range",
        };
        write!(f, "batch op {} ({}): {what}", self.index, self.op)
    }
}

impl std::error::Error for BatchOpError {}

/// A mutable simple undirected graph with blocked adjacency lists.
#[derive(Debug, Clone)]
pub struct DynGraph {
    heads: Vec<u32>,
    tails: Vec<u32>,
    deg: Vec<u32>,
    blocks: Vec<Block>,
    free: Vec<u32>,
    m: usize,
}

impl DynGraph {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            heads: vec![NONE; n],
            tails: vec![NONE; n],
            deg: vec![0; n],
            blocks: Vec::new(),
            free: Vec::new(),
            m: 0,
        }
    }

    /// Builds from a canonical edge list.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        let mut g = Self::new(el.vertex_count());
        for &(u, v) in el.edges() {
            let inserted = g.insert_edge(u, v);
            debug_assert!(inserted, "edge list must be canonical");
        }
        g
    }

    /// Builds from a CSR snapshot.
    pub fn from_csr(csr: &Csr) -> Self {
        let mut g = Self::new(csr.vertex_count());
        for (u, v) in csr.arcs() {
            if u < v {
                g.insert_edge(u, v);
            }
        }
        g
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.heads.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> u32 {
        self.deg[v as usize]
    }

    /// Iterates the neighbours of `v` in insertion order.
    pub fn neighbors(&self, v: VertexId) -> NeighborIter<'_> {
        NeighborIter {
            graph: self,
            block: self.heads[v as usize],
            pos: 0,
        }
    }

    /// True if the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        // Scan the lower-degree endpoint.
        let (a, b) = if self.deg[u as usize] <= self.deg[v as usize] {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).any(|w| w == b)
    }

    /// Inserts the undirected edge `{u, v}`.
    ///
    /// Returns `false` (and changes nothing) for self loops and duplicates.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        assert!(
            (u.max(v) as usize) < self.heads.len(),
            "endpoint out of range"
        );
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.append(u, v);
        self.append(v, u);
        self.m += 1;
        true
    }

    /// Removes the undirected edge `{u, v}`. Returns `false` if absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.has_edge(u, v) {
            return false;
        }
        self.detach(u, v);
        self.detach(v, u);
        self.m -= 1;
        true
    }

    /// Applies one [`EdgeOp`]. Returns `false` (changing nothing) exactly
    /// when the matching single-op mutator would: self loops, duplicate
    /// insertions, removals of absent edges.
    pub fn apply_op(&mut self, op: EdgeOp) -> bool {
        match op {
            EdgeOp::Insert(u, v) => self.insert_edge(u, v),
            EdgeOp::Remove(u, v) => self.remove_edge(u, v),
        }
    }

    /// Appends `w` to `v`'s list, allocating a tail block if needed.
    fn append(&mut self, v: VertexId, w: VertexId) {
        let vi = v as usize;
        let tail = self.tails[vi];
        let need_block = tail == NONE || self.blocks[tail as usize].len as usize == BLOCK_SIZE;
        if need_block {
            let idx = match self.free.pop() {
                Some(idx) => {
                    self.blocks[idx as usize] = Block::new();
                    idx
                }
                None => {
                    self.blocks.push(Block::new());
                    (self.blocks.len() - 1) as u32
                }
            };
            if tail == NONE {
                self.heads[vi] = idx;
            } else {
                self.blocks[tail as usize].next = idx;
            }
            self.tails[vi] = idx;
        }
        let tail = self.tails[vi] as usize;
        let block = &mut self.blocks[tail];
        block.entries[block.len as usize] = w;
        block.len += 1;
        self.deg[vi] += 1;
    }

    /// Removes `w` from `v`'s list by swapping in the globally-last entry.
    fn detach(&mut self, v: VertexId, w: VertexId) {
        let vi = v as usize;
        // Locate (block, slot) of w and of the last entry.
        let mut found: Option<(u32, usize)> = None;
        let mut prev_of_tail = NONE;
        let mut cursor = self.heads[vi];
        while cursor != NONE {
            let block = &self.blocks[cursor as usize];
            if found.is_none() {
                for i in 0..block.len as usize {
                    if block.entries[i] == w {
                        found = Some((cursor, i));
                        break;
                    }
                }
            }
            if block.next == NONE {
                break;
            }
            prev_of_tail = cursor;
            cursor = block.next;
        }
        let (fblock, fslot) = found.expect("detach: edge must exist (checked by caller)");
        let tail = self.tails[vi];
        debug_assert_eq!(tail, cursor, "tail pointer must match last chained block");
        let tail_len = self.blocks[tail as usize].len as usize;
        let last_val = self.blocks[tail as usize].entries[tail_len - 1];
        self.blocks[fblock as usize].entries[fslot] = last_val;
        // If the removed slot *was* the last entry, the write above was a
        // self-overwrite, which is harmless.
        self.blocks[tail as usize].len -= 1;
        if self.blocks[tail as usize].len == 0 {
            // Recycle the emptied tail block.
            self.free.push(tail);
            if prev_of_tail == NONE {
                self.heads[vi] = NONE;
                self.tails[vi] = NONE;
            } else {
                self.blocks[prev_of_tail as usize].next = NONE;
                self.tails[vi] = prev_of_tail;
            }
        }
        self.deg[vi] -= 1;
    }

    /// Snapshots the current graph as an immutable CSR.
    ///
    /// Built directly from the adjacency arena — degrees to offsets, one
    /// scatter pass, then a per-row sort — rather than round-tripping
    /// through a canonical [`EdgeList`] (which sorts all `m` pairs). The
    /// update engines no longer snapshot per op (they splice O(degree)
    /// deltas into a [`SlackCsr`](crate::slack::SlackCsr) store instead),
    /// so this full walk serves construction, reporting, and oracle
    /// recomputation only; the result is identical to
    /// `Csr::from_edge_list(&self.to_edge_list())`.
    pub fn to_csr(&self) -> Csr {
        let n = self.heads.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &self.deg {
            acc += d as usize;
            offsets.push(acc);
        }
        let mut adj = vec![0 as VertexId; acc];
        for v in 0..n {
            let row = &mut adj[offsets[v]..offsets[v + 1]];
            for (slot, w) in row.iter_mut().zip(self.neighbors(v as VertexId)) {
                *slot = w;
            }
            row.sort_unstable();
        }
        Csr::from_sorted_parts(offsets, adj)
    }

    /// Collects the current edges canonically.
    pub fn to_edge_list(&self) -> EdgeList {
        let mut pairs = Vec::with_capacity(self.m);
        for v in 0..self.heads.len() as VertexId {
            for w in self.neighbors(v) {
                if v < w {
                    pairs.push((v, w));
                }
            }
        }
        EdgeList::from_pairs(self.heads.len(), pairs)
    }

    /// Number of arena blocks currently allocated (live + free); exposed
    /// for storage tests and diagnostics.
    pub fn arena_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of recycled blocks awaiting reuse.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }
}

/// Iterator over a vertex's neighbours (insertion order).
pub struct NeighborIter<'a> {
    graph: &'a DynGraph,
    block: u32,
    pos: usize,
}

impl Iterator for NeighborIter<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        while self.block != NONE {
            let b = &self.graph.blocks[self.block as usize];
            if self.pos < b.len as usize {
                let out = b.entries[self.pos];
                self.pos += 1;
                return Some(out);
            }
            self.block = b.next;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_basicly() {
        let mut g = DynGraph::new(4);
        assert!(g.insert_edge(0, 1));
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(1, 0), "duplicate rejected");
        assert!(!g.insert_edge(2, 2), "self loop rejected");
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn neighbor_iteration_spans_blocks() {
        let n = BLOCK_SIZE * 3 + 5;
        let mut g = DynGraph::new(n + 1);
        for w in 1..=n as VertexId {
            g.insert_edge(0, w);
        }
        let neigh: Vec<_> = g.neighbors(0).collect();
        assert_eq!(neigh.len(), n);
        assert_eq!(neigh, (1..=n as VertexId).collect::<Vec<_>>());
        assert_eq!(g.degree(0) as usize, n);
    }

    #[test]
    fn remove_swaps_last_entry() {
        let mut g = DynGraph::new(5);
        for w in 1..5 {
            g.insert_edge(0, w);
        }
        assert!(g.remove_edge(0, 2));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(2), 0);
        let mut neigh: Vec<_> = g.neighbors(0).collect();
        neigh.sort_unstable();
        assert_eq!(neigh, [1, 3, 4]);
        assert!(!g.remove_edge(0, 2), "double remove fails");
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn blocks_are_recycled() {
        let mut g = DynGraph::new(2 + BLOCK_SIZE * 2);
        for w in 0..(BLOCK_SIZE as VertexId * 2) {
            g.insert_edge(0, w + 2);
        }
        let allocated = g.arena_blocks();
        for w in 0..(BLOCK_SIZE as VertexId * 2) {
            g.remove_edge(0, w + 2);
        }
        assert_eq!(g.degree(0), 0);
        assert!(g.free_blocks() > 0);
        // Reinserting reuses freed blocks instead of growing the arena.
        for w in 0..(BLOCK_SIZE as VertexId * 2) {
            g.insert_edge(0, w + 2);
        }
        assert_eq!(g.arena_blocks(), allocated);
    }

    #[test]
    fn csr_round_trip() {
        let el = EdgeList::from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let g = DynGraph::from_edge_list(&el);
        assert_eq!(g.to_edge_list(), el);
        let csr = g.to_csr();
        assert_eq!(csr.to_edge_list(), el);
        let g2 = DynGraph::from_csr(&csr);
        assert_eq!(g2.to_edge_list(), el);
    }

    #[test]
    fn direct_csr_build_matches_edge_list_path() {
        // `to_csr` bypasses the canonical edge-list round trip; the two
        // constructions must agree exactly (offsets and adjacency), also
        // after removals have shuffled the arena's insertion order.
        let mut g = DynGraph::new(12);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (0, 5),
            (1, 4),
            (2, 3),
            (3, 7),
            (5, 9),
            (8, 9),
            (4, 11),
        ] {
            g.insert_edge(u, v);
        }
        g.remove_edge(0, 2);
        g.insert_edge(2, 9);
        assert_eq!(g.to_csr(), Csr::from_edge_list(&g.to_edge_list()));
    }

    #[test]
    fn interleaved_insert_remove_matches_edge_list_model() {
        // Drive DynGraph and the simple EdgeList model with the same
        // pseudo-random operation stream; they must agree throughout.
        let n = 24usize;
        let mut g = DynGraph::new(n);
        let mut model = EdgeList::empty(n);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..2000 {
            let u = (next() % n as u64) as VertexId;
            let v = (next() % n as u64) as VertexId;
            if next() % 3 == 0 {
                let a = g.remove_edge(u, v);
                let b = model.remove_edges(&[(u, v)]) == 1;
                assert_eq!(a, b, "remove disagreement at step {step} ({u},{v})");
            } else {
                let a = g.insert_edge(u, v);
                let b = if u == v {
                    false
                } else {
                    model.insert_edge(u, v)
                };
                assert_eq!(a, b, "insert disagreement at step {step} ({u},{v})");
            }
            assert_eq!(g.edge_count(), model.edge_count());
        }
        assert_eq!(g.to_edge_list(), model);
    }
}
