//! dynbc-memsim: the cache-hierarchy observability model (`DYNBC_MEMSIM=1`).
//!
//! Memsim implies profiling and rides in the profiler's per-block
//! collector (see [`crate::profile`]): the collector owns the block's L1
//! (`BlockCache`), fed from the same `BlockCtx::touch` point the cost
//! model and profiler already share, and the L1's counts and per-buffer
//! misses go into the collector's per-label buckets. The model is
//! GPGPU-Sim/Accel-Sim-flavoured but deliberately simple:
//!
//! * **Address decoding** — `GpuBuffer` allocations carry disjoint
//!   256-byte-aligned synthetic base addresses (see `mem.rs`), so
//!   `base + index × size_of::<T>()` decodes exactly like a device
//!   pointer: line id = `addr / line_bytes`, set = `line % sets`,
//!   tag = `line / sets`.
//! * **L1** — one private set-associative LRU tag array per *block*. The
//!   paper's kernels run one block per SM, so per-block equals the
//!   hardware's per-SM L1; it also keeps collection thread-free. One L1
//!   request is one 32-byte memory transaction — the population the cost
//!   model's `mem_segments` counts, so `l1_hits + l1_misses` equals
//!   `stats.mem_segments` in every profile bucket.
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
//! stream through the device's single L2 **in block-index order**, as
//! part of the profile's block-index-ordered reduction — the same merge
//! order the engines' `bc_delta` slabs use. Reports are therefore bit-identical for any
//! `DYNBC_HOST_THREADS` value.
//!
//! The model is observability-only: it never feeds the cycle cost model,
//! so enabling it changes no simulated timing and no BC bit. What it
//! deliberately omits: miss latency and MSHRs (no timing), write-back
//! traffic (stores allocate like loads; no dirty state), inter-block L1
//! coherence (real GPU L1s are not coherent either), and TLBs.

use crate::profile::CacheCounters;

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

/// A block's private L1 (memsim) and the stream of its misses, for the
/// launch's L2 replay. Its counts go into the profiler's active bucket
/// (see [`crate::profile`]), which lends it the bucket's index for the
/// stream.
#[derive(Debug)]
pub(crate) struct BlockCache {
    l1_line: u64,
    l1: TagArray,
    /// L1-miss stream in execution order: `(l1 line id, bucket index)`.
    /// Replayed through the shared L2 at reduction, in block-index order.
    misses: Vec<(u64, u32)>,
}

impl BlockCache {
    pub(crate) fn new(cfg: &CacheConfig) -> Self {
        Self {
            l1_line: u64::from(cfg.l1_line),
            l1: TagArray::new(cfg.l1_sets(), cfg.l1_ways),
            misses: Vec::new(),
        }
    }

    /// One 32-byte memory transaction at `addr`, made while profile
    /// bucket `bucket` is active and counted into its `counts`. Called
    /// exactly when the cost model charges a new segment, so L1 requests
    /// equal `stats.mem_segments`. Returns `true` on an L1 miss.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64, bucket: u32, counts: &mut CacheCounters) -> bool {
        let line = addr / self.l1_line;
        match self.l1.access(line).0 {
            Probe::Hit => {
                counts.l1_hits += 1;
                false
            }
            Probe::Miss(evicted) => {
                counts.l1_misses += 1;
                if evicted {
                    counts.l1_evictions += 1;
                }
                self.misses.push((line, bucket));
                true
            }
        }
    }

    /// Surrenders the L1-miss stream.
    pub(crate) fn into_misses(self) -> Vec<(u64, u32)> {
        self.misses
    }
}

impl L2Cache {
    /// Replays one L1 miss of line `line` (an `l1_line`-byte line id):
    /// each of its 32-byte sectors is one L2 request.
    pub(crate) fn replay_miss(&mut self, line: u64) -> CacheCounters {
        let sectors = (u64::from(self.cfg.l1_line) / L2_SECTOR_BYTES).max(1);
        let mut c = CacheCounters::default();
        for s in 0..sectors {
            match self.access_sector(line * sectors + s) {
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
        c
    }
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
    fn block_cache_counts_requests_and_streams_misses() {
        let mut b = BlockCache::new(&tiny());
        let mut c = CacheCounters::default();
        assert!(b.access(0, 1, &mut c));
        assert!(!b.access(0, 1, &mut c), "same line: an L1 hit");
        assert!(b.access(64, 2, &mut c));
        assert_eq!((c.l1_hits, c.l1_misses), (1, 2));
        assert_eq!(b.into_misses(), vec![(0, 1), (2, 2)]);
    }

    #[test]
    fn replayed_miss_requests_every_sector_of_a_wide_l1_line() {
        // 128-byte L1 lines: one miss is four 32-byte L2 requests, the
        // first a line miss and the rest sector fills.
        let mut l2 = L2Cache::new(&CacheConfig {
            l1_line: 128,
            ..tiny()
        });
        let c = l2.replay_miss(1);
        assert_eq!((c.l2_misses, c.l2_sector_fills, c.l2_hits), (1, 3, 0));
        assert_eq!(l2.replay_miss(1).l2_hits, 4);
    }

    #[test]
    fn default_config_is_fermi_flavoured() {
        let d = CacheConfig::default();
        assert_eq!(d.l1_line, 32, "canonical transaction sector");
        assert_eq!(d.l1_sets(), 128); // 16 KiB / (32 B × 4)
        assert_eq!(d.l2_sets(), 768); // 768 KiB / (128 B × 8)
    }
}
