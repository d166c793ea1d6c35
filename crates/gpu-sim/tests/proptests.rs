//! Property tests for the SIMT machine model: cost accounting must obey
//! its structural bounds for any access pattern, and functional results
//! must never depend on cost parameters.

use dynbc_gpusim::{BlockCtx, DeviceConfig, Gpu};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// An arbitrary access script: per lane-item, a list of buffer indices.
fn arb_pattern() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..256, 0..8), 0..40)
}

fn run_pattern(dev: DeviceConfig, pattern: &[Vec<usize>]) -> (f64, dynbc_gpusim::KernelStats) {
    let mut gpu = Gpu::new(dev);
    let buf = gpu.alloc::<u32>(256, 0);
    let report = gpu.launch(1, |block: &mut BlockCtx, _| {
        block.parallel_for(pattern.len(), |lane, i| {
            for &idx in &pattern[i] {
                lane.read(&buf, idx);
            }
        });
        block.barrier();
    });
    (report.makespan_cycles, report.stats)
}

/// A 32-lane device: the warp width whose per-warp segment dedup the
/// engines' kernels run on.
fn wide_device() -> DeviceConfig {
    DeviceConfig {
        warp_size: 32,
        threads_per_block: 64,
        ..DeviceConfig::test_tiny()
    }
}

/// Element counts of the script buffers: `u8`, `u32` and `f64`.
const LENS: [usize; 3] = [512, 256, 128];
/// Element widths in bytes, in the same order.
const WIDTHS: [usize; 3] = [1, 4, 8];
/// Lane strides of a script operation: broadcast, coalesced, and
/// strided past one or more segments.
const STRIDES: [usize; 7] = [0, 1, 2, 3, 7, 16, 33];

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Read,
    Write,
    Atomic,
    Compute(u32),
}

/// One operation of a per-lane script. Lane `l` runs it only when
/// `l % every == 0` (so lanes diverge and their touch ordinals shift), on
/// element `(base + l * stride) % LENS[buf]` of buffer `buf`.
#[derive(Debug, Clone, Copy)]
struct LaneOp {
    kind: OpKind,
    buf: usize,
    base: usize,
    stride: usize,
    every: usize,
}

impl LaneOp {
    fn index(&self, lane: usize) -> usize {
        (self.base + lane * self.stride) % LENS[self.buf]
    }
}

/// One step of a single-block kernel.
#[derive(Debug, Clone)]
enum Step {
    ParallelFor {
        lanes: usize,
        ops: Vec<LaneOp>,
    },
    Scalar {
        buf: usize,
        index: usize,
        write: bool,
    },
    Barrier,
}

fn arb_lane_op() -> impl Strategy<Value = LaneOp> {
    (
        (0u8..4, 0usize..3, 0usize..512),
        (0usize..STRIDES.len(), 1usize..4, 1u32..4),
    )
        .prop_map(|((kind, buf, base), (stride, every, units))| LaneOp {
            kind: match kind {
                0 => OpKind::Read,
                1 => OpKind::Write,
                2 => OpKind::Atomic,
                _ => OpKind::Compute(units),
            },
            buf,
            base,
            stride: STRIDES[stride],
            every,
        })
}

fn arb_program() -> impl Strategy<Value = Vec<Step>> {
    // Four parallel_fors, two scalar accesses and one barrier in seven.
    let step = (
        (0u8..7, 0usize..100),
        proptest::collection::vec(arb_lane_op(), 0..10),
        (0usize..3, 0usize..512, any::<bool>()),
    )
        .prop_map(|((tag, lanes), ops, (buf, index, write))| match tag {
            0..=3 => Step::ParallelFor { lanes, ops },
            4 | 5 => Step::Scalar {
                buf,
                index: index % LENS[buf],
                write,
            },
            _ => Step::Barrier,
        });
    proptest::collection::vec(step, 0..8)
}

/// Final contents of the script buffers, `f64`s as bits.
type Buffers = (Vec<u8>, Vec<u32>, Vec<u64>);

/// Runs `program` as one block on [`wide_device`] with every instrument
/// pinned off, or with profiling and memsim pinned on. Returns the launch
/// report and the final buffer contents.
fn run_program(program: &[Step], instrumented: bool) -> (dynbc_gpusim::LaunchReport, Buffers) {
    let mut gpu = Gpu::new(wide_device());
    let ins = gpu.instruments_mut();
    ins.host_threads = 1;
    ins.racecheck = false;
    ins.telemetry = false;
    ins.profiling = instrumented;
    ins.memsim = instrumented;
    let b8 = gpu.alloc::<u8>(LENS[0], 0);
    let b32 = gpu.alloc::<u32>(LENS[1], 0);
    let b64 = gpu.alloc::<f64>(LENS[2], 0.0);
    let report = gpu.launch(1, |block: &mut BlockCtx, _| {
        for step in program {
            match *step {
                Step::ParallelFor { lanes, ref ops } => block.parallel_for(lanes, |lane, l| {
                    for op in ops.iter().filter(|op| l % op.every == 0) {
                        let i = op.index(l);
                        match (op.kind, op.buf) {
                            (OpKind::Compute(units), _) => lane.compute(units),
                            (OpKind::Read, 0) => drop(lane.read(&b8, i)),
                            (OpKind::Read, 1) => drop(lane.read(&b32, i)),
                            (OpKind::Read, _) => drop(lane.read(&b64, i)),
                            (OpKind::Write, 0) => lane.write(&b8, i, l as u8),
                            (OpKind::Write, 1) => lane.write(&b32, i, l as u32),
                            (OpKind::Write, _) => lane.write(&b64, i, l as f64),
                            (OpKind::Atomic, 0) => drop(lane.atomic_cas_u8(&b8, i, 0, 1)),
                            (OpKind::Atomic, 1) => drop(lane.atomic_add_u32(&b32, i, 1)),
                            (OpKind::Atomic, _) => drop(lane.atomic_add_f64(&b64, i, 0.5)),
                        }
                    }
                }),
                Step::Scalar { buf, index, write } => match (buf, write) {
                    (0, false) => drop(block.read_scalar(&b8, index)),
                    (1, false) => drop(block.read_scalar(&b32, index)),
                    (_, false) => drop(block.read_scalar(&b64, index)),
                    (0, true) => block.write_scalar(&b8, index, 9),
                    (1, true) => block.write_scalar(&b32, index, 9),
                    (_, true) => block.write_scalar(&b64, index, 9.0),
                },
                Step::Barrier => block.barrier(),
            }
        }
    });
    let f64_bits = b64.to_vec().into_iter().map(f64::to_bits).collect();
    (report, (b8.to_vec(), b32.to_vec(), f64_bits))
}

/// The cost model's accumulators, replayed without the interpreter in
/// the order `BlockCtx` updates them.
#[derive(Default)]
struct Charge {
    lane_events: u64,
    segments: u64,
    conflicts: u64,
    compute: f64,
    mem: f64,
    atomic: f64,
    committed: f64,
}

impl Charge {
    /// Charges one warp: its distinct segments, atomic targets and
    /// busiest lane.
    fn warp(
        &mut self,
        dev: &DeviceConfig,
        segs: &BTreeSet<(usize, usize)>,
        atomics: &mut Vec<(usize, usize)>,
        max: u32,
    ) {
        self.compute += dev.warp_base_cycles + dev.event_instr_cycles * f64::from(max);
        for _ in segs {
            self.mem += dev.seg_cycles;
        }
        self.segments += segs.len() as u64;
        if !atomics.is_empty() {
            let n = atomics.len() as u64;
            atomics.sort_unstable();
            atomics.dedup();
            let c = n - atomics.len() as u64;
            self.atomic += n as f64 * dev.atomic_cycles + c as f64 * dev.atomic_conflict_cycles;
            self.conflicts += c;
        }
    }

    fn commit(&mut self) {
        self.committed += self.compute.max(self.mem) + self.atomic;
        (self.compute, self.mem, self.atomic) = (0.0, 0.0, 0.0);
    }
}

/// What the cost model charges for `program` on `dev`, computed without
/// the interpreter: per warp, a `BTreeSet` of `(buffer, 32-byte segment)`
/// keys (buffers are disjoint and 256-byte aligned, so these are exactly
/// the distinct segments) and the sorted atomic targets. A one-block
/// launch's makespan is its block's committed cycles.
fn oracle(dev: &DeviceConfig, program: &[Step]) -> Charge {
    let mut charge = Charge::default();
    let seg = |buf: usize, i: usize| (buf, (i * WIDTHS[buf]) >> 5);
    for step in program {
        match step {
            Step::ParallelFor { lanes, ops } => {
                for first in (0..*lanes).step_by(dev.warp_size) {
                    let (mut segs, mut atomics, mut max) = (BTreeSet::new(), Vec::new(), 0u32);
                    for l in first..(first + dev.warp_size).min(*lanes) {
                        let mut events = 0u32;
                        for op in ops.iter().filter(|op| l % op.every == 0) {
                            let i = op.index(l);
                            match op.kind {
                                OpKind::Compute(units) => events += units,
                                kind => {
                                    events += 1;
                                    segs.insert(seg(op.buf, i));
                                    if matches!(kind, OpKind::Atomic) {
                                        atomics.push((op.buf, i));
                                    }
                                }
                            }
                        }
                        charge.lane_events += u64::from(events);
                        max = max.max(events);
                    }
                    charge.warp(dev, &segs, &mut atomics, max);
                }
            }
            Step::Scalar { buf, index, .. } => {
                charge.lane_events += 1;
                charge.warp(
                    dev,
                    &BTreeSet::from([seg(*buf, *index)]),
                    &mut Vec::new(),
                    1,
                );
            }
            Step::Barrier => {
                charge.commit();
                charge.committed += dev.barrier_cycles;
            }
        }
    }
    charge.commit();
    charge
}

proptest! {
    #[test]
    fn charges_match_the_btreeset_oracle_with_instruments_on_and_off(program in arb_program()) {
        let dev = wide_device();
        let want = oracle(&dev, &program);
        let (plain, plain_buffers) = run_program(&program, false);
        prop_assert_eq!(plain.stats.lane_events, want.lane_events);
        prop_assert_eq!(plain.stats.mem_segments, want.segments, "per-warp distinct-segment count");
        prop_assert_eq!(plain.stats.atomic_conflicts, want.conflicts);
        prop_assert_eq!(plain.makespan_cycles.to_bits(), want.committed.to_bits());
        // The instrumented run charges through the set on every access;
        // it must charge, and compute, exactly what the memo path did.
        let (instrumented, instrumented_buffers) = run_program(&program, true);
        prop_assert_eq!(instrumented.stats, plain.stats);
        prop_assert_eq!(
            instrumented.makespan_cycles.to_bits(),
            plain.makespan_cycles.to_bits()
        );
        prop_assert_eq!(instrumented_buffers, plain_buffers);
    }

    #[test]
    fn warp_count_is_ceiling_of_items_over_warp_size(n in 0usize..200) {
        let dev = DeviceConfig::test_tiny();
        let mut gpu = Gpu::new(dev);
        let buf = gpu.alloc::<u32>(1, 0);
        let report = gpu.launch(1, |block, _| {
            block.parallel_for(n, |lane, _| {
                lane.read(&buf, 0);
            });
        });
        prop_assert_eq!(report.stats.warp_execs as usize, n.div_ceil(dev.warp_size));
    }

    #[test]
    fn cycles_are_monotone_in_work(pattern in arb_pattern()) {
        // Appending more work can never reduce the makespan.
        let dev = DeviceConfig::test_tiny();
        let (base, _) = run_pattern(dev, &pattern);
        let mut bigger = pattern.clone();
        bigger.push(vec![0, 32, 64]);
        let (more, _) = run_pattern(dev, &bigger);
        prop_assert!(more >= base, "work grew but cycles shrank: {} -> {}", base, more);
    }

    #[test]
    fn functional_results_are_device_independent(
        adds in proptest::collection::vec((0usize..64, 1u32..5), 0..80)
    ) {
        let run = |dev: DeviceConfig| {
            let mut gpu = Gpu::new(dev);
            let buf = gpu.alloc::<u32>(64, 0);
            gpu.launch(2, |block, b| {
                block.parallel_for(adds.len(), |lane, i| {
                    if i % 2 == b {
                        let (idx, v) = adds[i];
                        lane.atomic_add_u32(&buf, idx, v);
                    }
                });
            });
            buf.to_vec()
        };
        prop_assert_eq!(run(DeviceConfig::test_tiny()), run(DeviceConfig::tesla_c2075()));
    }

    #[test]
    fn atomic_adds_total_correctly_under_any_interleaving(
        adds in proptest::collection::vec(0usize..16, 0..120)
    ) {
        let mut gpu = Gpu::new(DeviceConfig::test_tiny());
        let buf = gpu.alloc::<u32>(16, 0);
        let report = gpu.launch(3, |block, _| {
            block.parallel_for(adds.len(), |lane, i| {
                lane.atomic_add_u32(&buf, adds[i], 1);
            });
        });
        let got = buf.to_vec();
        for (slot, &value) in got.iter().enumerate() {
            let expect = adds.iter().filter(|&&a| a == slot).count() as u32;
            // Three blocks each applied the full pattern.
            prop_assert_eq!(value, 3 * expect, "slot {}", slot);
        }
        prop_assert_eq!(report.stats.atomics as usize, 3 * adds.len());
    }

    #[test]
    fn makespan_lies_between_max_and_sum_of_blocks(
        block_work in proptest::collection::vec(1usize..30, 1..20)
    ) {
        let dev = DeviceConfig::test_tiny(); // 2 SMs
        let mut gpu = Gpu::new(dev);
        let buf = gpu.alloc::<u32>(4096, 0);
        let report = gpu.launch(block_work.len(), |block, b| {
            block.parallel_for(block_work[b], |lane, i| {
                lane.read(&buf, (b * 131 + i * 37) % 4096);
            });
        });
        let max = report
            .block_cycles
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        let sum: f64 = report.block_cycles.iter().sum();
        prop_assert!(report.makespan_cycles >= max - 1e-9);
        prop_assert!(report.makespan_cycles <= sum + 1e-9);
        // With 2 SMs, greedy scheduling is within 2x of the lower bound
        // max(max, sum/2).
        let lb = max.max(sum / 2.0);
        prop_assert!(report.makespan_cycles <= 2.0 * lb + 1e-9);
    }

    #[test]
    fn barrier_intervals_sum_to_total(groups in proptest::collection::vec(0usize..20, 1..6)) {
        // Running G groups separated by barriers must cost the same as
        // the sum of G single-group launches minus the repeated launch
        // fixed costs — i.e. interval accounting is additive.
        let dev = DeviceConfig::test_tiny();
        let combined = {
            let mut gpu = Gpu::new(dev);
            let buf = gpu.alloc::<u32>(1024, 0);
            let r = gpu.launch(1, |block, _| {
                for (g, &n) in groups.iter().enumerate() {
                    block.parallel_for(n, |lane, i| {
                        lane.read(&buf, (g * 97 + i) % 1024);
                    });
                    block.barrier();
                }
            });
            r.makespan_cycles
        };
        let mut separate = 0.0;
        for (g, &n) in groups.iter().enumerate() {
            let mut gpu = Gpu::new(dev);
            let buf = gpu.alloc::<u32>(1024, 0);
            let r = gpu.launch(1, |block, _| {
                block.parallel_for(n, |lane, i| {
                    lane.read(&buf, (g * 97 + i) % 1024);
                });
                block.barrier();
            });
            separate += r.makespan_cycles;
        }
        prop_assert!((combined - separate).abs() < 1e-6);
    }
}
