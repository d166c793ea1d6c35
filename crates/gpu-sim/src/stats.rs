//! Execution counters surfaced by the simulator.

/// Raw work counters accumulated while a kernel (or a whole experiment)
/// runs. These are the quantities the paper's analysis reasons about:
/// warp executions map to issued work, segments to memory traffic, atomics
/// and conflicts to serialization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Warps executed (one per `warp_size` chunk of a `parallel_for`).
    pub warp_execs: u64,
    /// Lane events: memory accesses plus explicit compute units.
    pub lane_events: u64,
    /// Distinct 32-byte memory segments touched, per warp (the
    /// transaction count a coalescing memory controller would issue).
    pub mem_segments: u64,
    /// Atomic operations performed.
    pub atomics: u64,
    /// Same-address atomic conflicts within a warp (serialized retries).
    pub atomic_conflicts: u64,
    /// Block-wide barriers executed.
    pub barriers: u64,
}

impl KernelStats {
    /// Component-wise accumulation.
    pub fn add(&mut self, other: &KernelStats) {
        self.warp_execs += other.warp_execs;
        self.lane_events += other.lane_events;
        self.mem_segments += other.mem_segments;
        self.atomics += other.atomics;
        self.atomic_conflicts += other.atomic_conflicts;
        self.barriers += other.barriers;
    }

    /// What the counters gained since `earlier`, a snapshot of the same
    /// accumulating counters.
    pub(crate) fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            warp_execs: self.warp_execs - earlier.warp_execs,
            lane_events: self.lane_events - earlier.lane_events,
            mem_segments: self.mem_segments - earlier.mem_segments,
            atomics: self.atomics - earlier.atomics,
            atomic_conflicts: self.atomic_conflicts - earlier.atomic_conflicts,
            barriers: self.barriers - earlier.barriers,
        }
    }

    /// Bytes of DRAM traffic implied by the segment count.
    pub fn traffic_bytes(&self) -> u64 {
        self.mem_segments * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_component_wise() {
        let mut a = KernelStats {
            warp_execs: 1,
            lane_events: 2,
            mem_segments: 3,
            atomics: 4,
            atomic_conflicts: 5,
            barriers: 6,
        };
        a.add(&a.clone());
        assert_eq!(a.warp_execs, 2);
        assert_eq!(a.barriers, 12);
        assert_eq!(a.traffic_bytes(), 6 * 32);
    }
}
