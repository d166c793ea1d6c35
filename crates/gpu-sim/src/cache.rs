//! dynbc-memsim: the cache-hierarchy observability model (`DYNBC_MEMSIM=1`).
//!
//! Mirrors the shadow-collector design of the profiler and the
//! racechecker: each block optionally carries a boxed `BlockCache`
//! (`None` ⇒ one predictable branch per memory hook), fed
//! from the same `BlockCtx::touch` point the cost model and profiler
//! already share. The model is GPGPU-Sim/Accel-Sim-flavoured but
//! deliberately simple:
//!
//! * **Address decoding** — `GpuBuffer` allocations carry disjoint
//!   256-byte-aligned synthetic base addresses (see `mem.rs`), so
//!   `base + index × size_of::<T>()` decodes exactly like a device
//!   pointer: line id = `addr / line_bytes`, set = `line % sets`,
//!   tag = `line / sets`.
//! * **L1** — one private set-associative LRU tag array per *block*. The
//!   paper's kernels run one block per SM, so per-block equals the
//!   hardware's per-SM L1; it also keeps collection thread-free. One L1
//!   request is one 32-byte memory transaction — the same population
//!   `Counters::mem_transactions` counts, so `l1_hits + l1_misses` equals
//!   `mem_transactions` when both collectors run.
//! * **L2** — one shared, sectored tag array per device: 128-byte lines
//!   with four 32-byte sectors and a per-line validity mask. A request
//!   whose line is resident but whose sector is not counts as a
//!   *sector fill* (DRAM fetch without a line allocate). The L2 persists
//!   across launches, so cross-launch reuse (the thing CSR reordering
//!   changes) is visible.
//!
//! **Determinism contract.** L1 state is per-block, so any host-thread
//! interleaving produces the same per-block result. The shared L2 is
//! *not* probed during parallel execution: each block records its L1-miss
//! stream in execution order, and the launch reduction replays every
//! stream through the device's single L2 **in block-index order** — the
//! same merge order `profile::reduce_blocks` and the engines' `bc_delta`
//! slabs use. Reports are therefore bit-identical for any
//! `DYNBC_HOST_THREADS` value.
//!
//! The model is observability-only: it never feeds the cycle cost model,
//! so enabling it changes no simulated timing and no BC bit. What it
//! deliberately omits: miss latency and MSHRs (no timing), write-back
//! traffic (stores allocate like loads; no dirty state), inter-block L1
//! coherence (real GPU L1s are not coherent either), and TLBs.

use dynbc_prof::{CacheCounters, Counters, StageProfile};

/// L2 line size in bytes (four 32-byte sectors, Fermi-style).
pub const L2_LINE_BYTES: u64 = 128;

/// L2 sector size in bytes: the simulator's canonical 32-byte memory
/// transaction granularity (`addr >> 5` in the cost model).
pub const L2_SECTOR_BYTES: u64 = 32;

/// Geometry of the modeled cache hierarchy.
///
/// The default is Fermi/Tesla C2075-flavoured; tests and benches set
/// another geometry through `Instruments::cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// L1 capacity per SM (per block) in KiB.
    pub l1_kb: u32,
    /// L1 associativity in ways.
    pub l1_ways: u32,
    /// L1 line size in bytes (power of two, ≥ 32; default 32, the
    /// canonical transaction sector).
    pub l1_line: u32,
    /// Shared L2 capacity in KiB.
    pub l2_kb: u32,
    /// L2 associativity in ways.
    pub l2_ways: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            l1_kb: 16,
            l1_ways: 4,
            l1_line: 32,
            l2_kb: 768,
            l2_ways: 8,
        }
    }
}

impl CacheConfig {
    /// The Fermi prefer-L1 split: 48 KiB L1 (the `cudaFuncCachePreferL1`
    /// configuration of the C2075's 64 KiB per-SM SRAM), default L2. At
    /// the default 16 KiB a dynamic update's touched region overflows the
    /// L1 for both decompositions and their hit rates converge toward the
    /// compulsory-miss floor; at 48 KiB it fits, so the L1 hit rate shows
    /// the decomposition's locality.
    pub fn prefer_l1() -> Self {
        Self {
            l1_kb: 48,
            ..Self::default()
        }
    }

    fn l1_sets(&self) -> u64 {
        (u64::from(self.l1_kb) * 1024 / (u64::from(self.l1_line) * u64::from(self.l1_ways))).max(1)
    }

    fn l2_sets(&self) -> u64 {
        (u64::from(self.l2_kb) * 1024 / (L2_LINE_BYTES * u64::from(self.l2_ways))).max(1)
    }
}

/// Outcome of one tag-array probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    Hit,
    /// Line allocated; `true` when a valid line was evicted for it.
    Miss(bool),
}

/// A set-associative LRU tag array (no data, tags only).
#[derive(Debug)]
struct TagArray {
    sets: u64,
    ways: usize,
    /// `sets × ways` slots; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags` (monotone per-array tick).
    stamps: Vec<u64>,
    tick: u64,
}

const INVALID: u64 = u64::MAX;

impl TagArray {
    fn new(sets: u64, ways: u32) -> Self {
        let ways = ways.max(1) as usize;
        let slots = usize::try_from(sets).unwrap_or(usize::MAX / ways) * ways;
        Self {
            sets: sets.max(1),
            ways,
            tags: vec![INVALID; slots],
            stamps: vec![0; slots],
            tick: 0,
        }
    }

    /// Probes `line`, allocating on miss. Returns the slot index probed
    /// alongside the outcome (sectored callers keep per-slot state).
    fn access(&mut self, line: u64) -> (Probe, usize) {
        self.tick += 1;
        let set = (line % self.sets) as usize;
        let tag = line / self.sets;
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(w) = slots.iter().position(|&t| t == tag) {
            self.stamps[base + w] = self.tick;
            return (Probe::Hit, base + w);
        }
        // Miss: fill the invalid way if any, else evict the LRU way.
        let victim = match slots.iter().position(|&t| t == INVALID) {
            Some(w) => (w, false),
            None => {
                let mut w = 0usize;
                for i in 1..self.ways {
                    if self.stamps[base + i] < self.stamps[base + w] {
                        w = i;
                    }
                }
                (w, true)
            }
        };
        self.tags[base + victim.0] = tag;
        self.stamps[base + victim.0] = self.tick;
        (Probe::Miss(victim.1), base + victim.0)
    }
}

/// The device's shared L2: a sectored tag array (128-byte lines, 32-byte
/// sectors). Owned by `Gpu`, persists across launches, and is only ever
/// probed single-threaded during launch reduction.
#[derive(Debug)]
pub(crate) struct L2Cache {
    /// The geometry this tag array was built for.
    pub(crate) cfg: CacheConfig,
    tags: TagArray,
    /// Per-slot sector-validity masks (bit = 32-byte sector in the line).
    masks: Vec<u8>,
}

/// Outcome of one L2 sector request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L2Outcome {
    Hit,
    SectorFill,
    Miss { evicted: bool },
}

impl L2Cache {
    pub(crate) fn new(cfg: &CacheConfig) -> Self {
        let tags = TagArray::new(cfg.l2_sets(), cfg.l2_ways);
        let slots = tags.tags.len();
        Self {
            cfg: *cfg,
            tags,
            masks: vec![0; slots],
        }
    }

    /// Probes one 32-byte sector (`addr / 32`).
    fn access_sector(&mut self, sector: u64) -> L2Outcome {
        let line = sector / (L2_LINE_BYTES / L2_SECTOR_BYTES);
        let bit = 1u8 << (sector % (L2_LINE_BYTES / L2_SECTOR_BYTES));
        match self.tags.access(line) {
            (Probe::Hit, slot) => {
                if self.masks[slot] & bit != 0 {
                    L2Outcome::Hit
                } else {
                    self.masks[slot] |= bit;
                    L2Outcome::SectorFill
                }
            }
            (Probe::Miss(evicted), slot) => {
                self.masks[slot] = bit;
                L2Outcome::Miss { evicted }
            }
        }
    }
}

/// One per-label collection bucket: `(label, L1 counters, per-buffer L1
/// misses)`, kept in first-touch order, mirroring `BlockProfile`.
type Bucket = (&'static str, CacheCounters, Vec<(&'static str, u64)>);

/// Per-block shadow cache collector (lives behind `Option<Box<...>>` in
/// `BlockCtx`; absent ⇒ the memory hook costs one predictable branch).
#[derive(Debug)]
pub(crate) struct BlockCache {
    l1_line: u64,
    l1: TagArray,
    buckets: Vec<Bucket>,
    cur: usize,
    /// L1-miss stream in execution order: `(l1 line id, bucket index)`.
    /// Replayed through the shared L2 at reduction, in block-index order.
    misses: Vec<(u64, u32)>,
}

/// What a finished block hands back for the launch's L2 replay.
#[derive(Debug)]
pub(crate) struct BlockCacheOut {
    buckets: Vec<Bucket>,
    misses: Vec<(u64, u32)>,
}

impl BlockCache {
    pub(crate) fn new(cfg: &CacheConfig) -> Self {
        Self {
            l1_line: u64::from(cfg.l1_line),
            l1: TagArray::new(cfg.l1_sets(), cfg.l1_ways),
            buckets: vec![("", CacheCounters::default(), Vec::new())],
            cur: 0,
            misses: Vec::new(),
        }
    }

    /// Switches the active bucket (kernel-phase label changed).
    pub(crate) fn set_label(&mut self, label: &'static str) {
        if self.buckets[self.cur].0 == label {
            return;
        }
        self.cur = match self.buckets.iter().position(|(l, _, _)| *l == label) {
            Some(i) => i,
            None => {
                self.buckets
                    .push((label, CacheCounters::default(), Vec::new()));
                self.buckets.len() - 1
            }
        };
    }

    /// One 32-byte memory transaction against the named buffer. Called
    /// from `BlockCtx::touch` exactly when the cost model charges a new
    /// segment, so L1 requests equal `Counters::mem_transactions`.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64, buffer: &'static str) {
        let line = addr / self.l1_line;
        let bucket = &mut self.buckets[self.cur];
        match self.l1.access(line).0 {
            Probe::Hit => bucket.1.l1_hits += 1,
            Probe::Miss(evicted) => {
                bucket.1.l1_misses += 1;
                if evicted {
                    bucket.1.l1_evictions += 1;
                }
                match bucket.2.iter_mut().find(|(n, _)| *n == buffer) {
                    Some((_, m)) => *m += 1,
                    None => bucket.2.push((buffer, 1)),
                }
                self.misses.push((line, self.cur as u32));
            }
        }
    }

    /// Surrenders the per-label buckets and the L1-miss stream, dropping
    /// untouched buckets (mirrors `BlockProfile::into_buckets`). Bucket
    /// indices in the miss stream are remapped to the retained buckets.
    pub(crate) fn finish(self) -> BlockCacheOut {
        let mut remap = vec![u32::MAX; self.buckets.len()];
        let mut buckets = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.into_iter().enumerate() {
            if !b.1.is_empty() {
                remap[i] = buckets.len() as u32;
                buckets.push(b);
            }
        }
        let misses = self
            .misses
            .into_iter()
            .map(|(line, b)| (line, remap[b as usize]))
            .collect();
        BlockCacheOut { buckets, misses }
    }
}

/// Folds per-block cache results into the launch's stage profiles and
/// total, replaying every block's L1-miss stream through the device's
/// shared L2 **in block-index order** (the determinism contract).
///
/// Stages are matched by label (the cache collector follows the same
/// `BlockCtx::label` stream as the profiler); a label the profiler never
/// saw gets a counters-empty stage appended.
pub(crate) fn fold_into_stages(
    blocks: Vec<BlockCacheOut>,
    cfg: &CacheConfig,
    l2: &mut L2Cache,
    stages: &mut Vec<StageProfile>,
    total: &mut Counters,
) {
    let sectors_per_l1_line = (u64::from(cfg.l1_line) / L2_SECTOR_BYTES).max(1);
    for block in blocks {
        // L1 counters and per-buffer misses merge like profile buckets.
        for (label, c, buffers) in &block.buckets {
            total.cache.merge(c);
            let stage = stage_mut(stages, label);
            stage.counters.cache.merge(c);
            for (name, m) in buffers {
                match stage.buffer_misses.iter_mut().find(|(n, _)| n == name) {
                    Some((_, dst)) => *dst += m,
                    None => stage.buffer_misses.push((name.to_string(), *m)),
                }
            }
        }
        // L2 replay: each missed L1 line requests its 32-byte sectors.
        for (line, bucket) in block.misses {
            let label = block.buckets[bucket as usize].0;
            let mut c = CacheCounters::default();
            for s in 0..sectors_per_l1_line {
                match l2.access_sector(line * sectors_per_l1_line + s) {
                    L2Outcome::Hit => c.l2_hits += 1,
                    L2Outcome::SectorFill => c.l2_sector_fills += 1,
                    L2Outcome::Miss { evicted } => {
                        c.l2_misses += 1;
                        if evicted {
                            c.l2_evictions += 1;
                        }
                    }
                }
            }
            total.cache.merge(&c);
            stage_mut(stages, label).counters.cache.merge(&c);
        }
    }
}

fn stage_mut<'a>(stages: &'a mut Vec<StageProfile>, label: &'static str) -> &'a mut StageProfile {
    if let Some(i) = stages.iter().position(|s| s.label == label) {
        return &mut stages[i];
    }
    stages.push(StageProfile {
        label: label.to_string(),
        counters: Counters::default(),
        buffer_misses: Vec::new(),
    });
    stages.last_mut().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A geometry small enough to force evictions with a handful of lines:
    /// 2-way L1 with 2 sets (4 lines), 2-way L2 with 2 sets (4 lines).
    fn tiny() -> CacheConfig {
        CacheConfig {
            l1_kb: 1,
            l1_ways: 2,
            l1_line: 32,
            l2_kb: 1,
            l2_ways: 2,
        }
    }

    fn tiny_l1() -> TagArray {
        // 4 sets when l1_kb=1: 1024 / (32 × 2) = 16 sets. Build directly
        // for precise set control instead.
        TagArray::new(2, 2)
    }

    #[test]
    fn tag_array_lru_evicts_least_recent_way() {
        let mut t = tiny_l1();
        // Lines 0, 2, 4 all map to set 0 (line % 2 == 0).
        assert_eq!(t.access(0).0, Probe::Miss(false));
        assert_eq!(t.access(2).0, Probe::Miss(false));
        assert_eq!(t.access(0).0, Probe::Hit, "0 still resident");
        // Set full; 4 must evict the LRU way, which is 2 (0 was re-used).
        assert_eq!(t.access(4).0, Probe::Miss(true));
        assert_eq!(t.access(0).0, Probe::Hit, "MRU line 0 survived");
        assert_eq!(t.access(2).0, Probe::Miss(true), "LRU line 2 was evicted");
    }

    #[test]
    fn tag_array_sets_are_independent() {
        let mut t = tiny_l1();
        assert_eq!(t.access(1).0, Probe::Miss(false));
        assert_eq!(t.access(3).0, Probe::Miss(false));
        // Set 1 is full, set 0 untouched: line 0 fills without eviction.
        assert_eq!(t.access(0).0, Probe::Miss(false));
        assert_eq!(t.access(1).0, Probe::Hit);
    }

    #[test]
    fn l2_sector_fill_vs_line_miss() {
        let mut l2 = L2Cache::new(&tiny());
        // Sectors 0 and 1 share a 128-byte line (4 sectors per line).
        assert_eq!(l2.access_sector(0), L2Outcome::Miss { evicted: false });
        assert_eq!(
            l2.access_sector(1),
            L2Outcome::SectorFill,
            "line resident, sector absent"
        );
        assert_eq!(l2.access_sector(1), L2Outcome::Hit);
        assert_eq!(l2.access_sector(0), L2Outcome::Hit);
        // Sector 4 starts line 1: a fresh miss, not a fill.
        assert_eq!(l2.access_sector(4), L2Outcome::Miss { evicted: false });
    }

    #[test]
    fn l2_eviction_resets_sector_mask() {
        // 1 KiB, 2-way L2 ⇒ 1024/(128×2) = 4 sets.
        let mut l2 = L2Cache::new(&tiny());
        let sets = 4u64;
        let spl = L2_LINE_BYTES / L2_SECTOR_BYTES;
        // Three lines in set 0: lines 0, 4, 8 (line % 4 == 0).
        assert_eq!(l2.access_sector(0), L2Outcome::Miss { evicted: false });
        assert_eq!(
            l2.access_sector(sets * spl),
            L2Outcome::Miss { evicted: false }
        );
        assert_eq!(
            l2.access_sector(2 * sets * spl),
            L2Outcome::Miss { evicted: true },
            "set full: LRU line evicted"
        );
        // The evicted line 0 must re-miss, and only the sector that was
        // filled in line 8 is valid there.
        assert_eq!(l2.access_sector(0), L2Outcome::Miss { evicted: true });
    }

    #[test]
    fn block_cache_buckets_and_miss_stream_follow_labels() {
        let cfg = tiny();
        let mut b = BlockCache::new(&cfg);
        b.set_label("sp");
        b.access(0, "adj");
        b.access(0, "adj"); // same line: L1 hit, no new miss record
        b.set_label("dep");
        b.access(64, "delta");
        let out = b.finish();
        assert_eq!(out.buckets.len(), 2);
        assert_eq!(out.buckets[0].0, "sp");
        assert_eq!(out.buckets[0].1.l1_hits, 1);
        assert_eq!(out.buckets[0].1.l1_misses, 1);
        assert_eq!(out.buckets[0].2, vec![("adj", 1)]);
        assert_eq!(out.buckets[1].2, vec![("delta", 1)]);
        assert_eq!(out.misses, vec![(0, 0), (2, 1)]);
    }

    #[test]
    fn fold_replays_l2_in_block_index_order() {
        let cfg = tiny();
        let mut l2 = L2Cache::new(&cfg);
        let mk = |line: u64| {
            let mut b = BlockCache::new(&cfg);
            b.set_label("sp");
            b.access(line * 32, "adj");
            b.finish()
        };
        // Block 0 misses sector 0; block 1 misses sector 1 (same L2 line):
        // replayed in block order, block 1's request is a sector fill.
        let mut stages = Vec::new();
        let mut total = Counters::default();
        fold_into_stages(vec![mk(0), mk(1)], &cfg, &mut l2, &mut stages, &mut total);
        assert_eq!(total.cache.l1_misses, 2);
        assert_eq!(total.cache.l2_misses, 1);
        assert_eq!(total.cache.l2_sector_fills, 1);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].label, "sp");
        assert_eq!(stages[0].buffer_misses, vec![("adj".to_string(), 2)]);
        assert_eq!(
            total.cache.l2_requests(),
            total.cache.l1_misses,
            "every L1 miss is exactly one L2 request at 32 B lines"
        );
    }

    #[test]
    fn default_config_is_fermi_flavoured() {
        let d = CacheConfig::default();
        assert_eq!(d.l1_line, 32, "canonical transaction sector");
        assert_eq!(d.l1_sets(), 128); // 16 KiB / (32 B × 4)
        assert_eq!(d.l2_sets(), 768); // 768 KiB / (128 B × 8)
    }
}
