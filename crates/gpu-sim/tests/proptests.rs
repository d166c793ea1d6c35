//! Property tests for the SIMT machine model: cost accounting must obey
//! its structural bounds for any access pattern, and functional results
//! must never depend on cost parameters.

use dynbc_gpusim::{BlockCtx, CacheConfig, Col, DeviceConfig, Gpu, Lane, ProfileReport, Sweep};
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// How a uniform lane of a sweep step touches one column.
#[derive(Debug, Clone, Copy)]
enum ColKind {
    Read,
    /// Writes the same value in every lane.
    Fill(u8),
    /// Writes what the lane read from the latest earlier read column on
    /// the same buffer.
    Copy,
}

/// One column of a sweep step: lane `v` touches `buf[base + v]`, with
/// `base` reduced so that every lane is in bounds.
#[derive(Debug, Clone, Copy)]
struct SweepCol {
    kind: ColKind,
    buf: usize,
    base: usize,
}

/// A sweep column that passed [`sweep_columns`]: its in-bounds base, and
/// for a copy the index of its source column.
#[derive(Debug, Clone, Copy)]
struct PlacedCol {
    kind: ColKind,
    buf: usize,
    base: usize,
    src: usize,
}

impl PlacedCol {
    fn writes(&self) -> bool {
        !matches!(self.kind, ColKind::Read)
    }
}

/// The columns of a `lanes`-wide sweep that `Sweep` accepts, in order:
/// in bounds for every lane, a copy only from an earlier read of its own
/// buffer, and no written column overlapping another on its buffer.
fn sweep_columns(lanes: usize, cols: &[SweepCol]) -> Vec<PlacedCol> {
    let mut placed: Vec<PlacedCol> = Vec::new();
    for c in cols {
        let Some(room) = (LENS[c.buf] + 1).checked_sub(lanes) else {
            continue;
        };
        let base = c.base % room;
        let src = placed
            .iter()
            .rposition(|p| p.buf == c.buf && matches!(p.kind, ColKind::Read));
        let col = PlacedCol {
            kind: c.kind,
            buf: c.buf,
            base,
            src: src.unwrap_or(usize::MAX),
        };
        if matches!(c.kind, ColKind::Copy) && src.is_none() {
            continue;
        }
        let clash = lanes > 0
            && placed.iter().any(|p| {
                p.buf == c.buf
                    && (p.writes() || col.writes())
                    && p.base < base + lanes
                    && base < p.base + lanes
            });
        if !clash {
            placed.push(col);
        }
    }
    placed
}

/// One step of a single-block kernel.
#[derive(Debug, Clone)]
enum Step {
    ParallelFor {
        lanes: usize,
        ops: Vec<LaneOp>,
    },
    /// A sweep whose lane `l` diverges when `l % every == phase` and then
    /// runs `ops` as a `ParallelFor` lane would.
    Sweep {
        lanes: usize,
        cols: Vec<SweepCol>,
        every: usize,
        phase: usize,
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

fn arb_sweep_col() -> impl Strategy<Value = SweepCol> {
    (0u8..3, any::<u8>(), 0usize..3, 0usize..512).prop_map(|(kind, value, buf, base)| SweepCol {
        kind: match kind {
            0 => ColKind::Read,
            1 => ColKind::Fill(value),
            _ => ColKind::Copy,
        },
        buf,
        base,
    })
}

fn arb_program() -> impl Strategy<Value = Vec<Step>> {
    // Four parallel_fors, three sweeps, two scalar accesses and one
    // barrier in ten. Sweeps stay under 70 lanes so that two columns fit
    // side by side in the 128-element `f64` buffer.
    let step = (
        (0u8..10, 0usize..100),
        proptest::collection::vec(arb_lane_op(), 0..10),
        (0usize..3, 0usize..512, any::<bool>()),
        (
            proptest::collection::vec(arb_sweep_col(), 0..7),
            1usize..80,
            0usize..80,
        ),
    )
        .prop_map(
            |((tag, lanes), ops, (buf, index, write), (cols, every, phase))| match tag {
                0..=3 => Step::ParallelFor { lanes, ops },
                4..=6 => Step::Sweep {
                    // Lane counts 0 and 1 come up often enough to pin.
                    lanes: if lanes < 10 { lanes % 2 } else { lanes % 70 },
                    cols,
                    every,
                    phase: phase % every,
                    ops,
                },
                7 | 8 => Step::Scalar {
                    buf,
                    index: index % LENS[buf],
                    write,
                },
                _ => Step::Barrier,
            },
        );
    proptest::collection::vec(step, 0..8)
}

/// Final contents of the script buffers, `f64`s as bits.
type Buffers = (Vec<u8>, Vec<u32>, Vec<u64>);

/// The instrument configurations a program runs under.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// Every instrument pinned off.
    Plain,
    /// Profiling and memsim pinned on.
    Instrumented,
    /// Checked execution (racecheck), findings returned, not asserted.
    Checked,
}

/// What a program run leaves behind: the launch report, the final buffer
/// contents, the profile (empty unless instrumented) and the racecheck
/// report (empty unless checked).
struct Outcome {
    report: dynbc_gpusim::LaunchReport,
    buffers: Buffers,
    profile: ProfileReport,
    check: String,
}

/// The three script buffers of a program run.
struct Bufs {
    b8: dynbc_gpusim::GpuBuffer<u8>,
    b32: dynbc_gpusim::GpuBuffer<u32>,
    b64: dynbc_gpusim::GpuBuffer<f64>,
}

impl Bufs {
    /// Runs the script operations of lane `l`.
    fn lane_ops(&self, lane: &mut Lane<'_>, l: usize, ops: &[LaneOp]) {
        let (b8, b32, b64) = (&self.b8, &self.b32, &self.b64);
        for op in ops.iter().filter(|op| l.is_multiple_of(op.every)) {
            let i = op.index(l);
            match (op.kind, op.buf) {
                (OpKind::Compute(units), _) => lane.compute(units),
                (OpKind::Read, 0) => drop(lane.read(b8, i)),
                (OpKind::Read, 1) => drop(lane.read(b32, i)),
                (OpKind::Read, _) => drop(lane.read(b64, i)),
                (OpKind::Write, 0) => lane.write(b8, i, l as u8),
                (OpKind::Write, 1) => lane.write(b32, i, l as u32),
                (OpKind::Write, _) => lane.write(b64, i, l as f64),
                (OpKind::Atomic, 0) => drop(lane.atomic_cas_u8(b8, i, 0, 1)),
                (OpKind::Atomic, 1) => drop(lane.atomic_add_u32(b32, i, 1)),
                (OpKind::Atomic, _) => drop(lane.atomic_add_f64(b64, i, 0.5)),
            }
        }
    }

    /// The uniform lane `l` of a sweep, run as a closure: the lane loop
    /// the sweep must be indistinguishable from.
    fn uniform_lane(&self, lane: &mut Lane<'_>, l: usize, cols: &[PlacedCol]) {
        let mut read = vec![0u64; cols.len()];
        for (c, col) in cols.iter().enumerate() {
            let i = col.base + l;
            let copied = || read[col.src];
            match (col.kind, col.buf) {
                (ColKind::Read, 0) => read[c] = u64::from(lane.read(&self.b8, i)),
                (ColKind::Read, 1) => read[c] = u64::from(lane.read(&self.b32, i)),
                (ColKind::Read, _) => read[c] = lane.read(&self.b64, i).to_bits(),
                (ColKind::Fill(v), 0) => lane.write(&self.b8, i, v),
                (ColKind::Fill(v), 1) => lane.write(&self.b32, i, fill_u32(v)),
                (ColKind::Fill(v), _) => lane.write(&self.b64, i, fill_f64(v)),
                (ColKind::Copy, 0) => lane.write(&self.b8, i, copied() as u8),
                (ColKind::Copy, 1) => lane.write(&self.b32, i, copied() as u32),
                (ColKind::Copy, _) => lane.write(&self.b64, i, f64::from_bits(copied())),
            }
        }
    }

    /// The sweep description of `cols`.
    fn sweep(&self, lanes: usize, cols: &[PlacedCol]) -> Sweep<'_> {
        let mut sweep = Sweep::new(lanes);
        let mut reads8 = Vec::new();
        let mut reads32 = Vec::new();
        let mut reads64 = Vec::new();
        for (c, col) in cols.iter().enumerate() {
            let i = col.base;
            match (col.kind, col.buf) {
                (ColKind::Read, 0) => reads8.push((c, sweep.read(&self.b8, i))),
                (ColKind::Read, 1) => reads32.push((c, sweep.read(&self.b32, i))),
                (ColKind::Read, _) => reads64.push((c, sweep.read(&self.b64, i))),
                (ColKind::Fill(v), 0) => sweep.fill(&self.b8, i, v),
                (ColKind::Fill(v), 1) => sweep.fill(&self.b32, i, fill_u32(v)),
                (ColKind::Fill(v), _) => sweep.fill(&self.b64, i, fill_f64(v)),
                (ColKind::Copy, 0) => sweep.copy(&self.b8, i, read_col(&reads8, col.src)),
                (ColKind::Copy, 1) => sweep.copy(&self.b32, i, read_col(&reads32, col.src)),
                (ColKind::Copy, _) => sweep.copy(&self.b64, i, read_col(&reads64, col.src)),
            }
        }
        sweep
    }
}

/// The read column of `reads` that sweep column `src` made.
fn read_col<'a, T: Copy>(reads: &[(usize, Col<'a, T>)], src: usize) -> Col<'a, T> {
    reads.iter().find(|&&(c, _)| c == src).unwrap().1
}

fn fill_u32(v: u8) -> u32 {
    u32::from(v) * 0x0101_0101
}

fn fill_f64(v: u8) -> f64 {
    f64::from(v) + 0.25
}

/// Runs `program` as one block on [`wide_device`] under `run`, with every
/// other instrument pinned off. `lane_loop` runs each sweep step as a
/// `parallel_for` whose closure also makes the uniform lanes' accesses,
/// the reference a sweep must reproduce.
fn run_program(program: &[Step], run: Run, lane_loop: bool) -> Outcome {
    let mut gpu = Gpu::new(wide_device());
    let ins = gpu.instruments_mut();
    ins.host_threads = 1;
    ins.racecheck = false;
    ins.profiling = matches!(run, Run::Instrumented);
    ins.memsim = matches!(run, Run::Instrumented);
    // An L1 and L2 far smaller than the script buffers: hits, misses and
    // evictions then depend on the order of the L1 requests, not just on
    // which segments were requested.
    ins.cache = CacheConfig {
        l1_kb: 1,
        l1_ways: 2,
        l1_line: 32,
        l2_kb: 1,
        l2_ways: 2,
    };
    let bufs = Bufs {
        b8: gpu.alloc::<u8>(LENS[0], 0).named("b8"),
        b32: gpu.alloc::<u32>(LENS[1], 0).named("b32"),
        b64: gpu.alloc::<f64>(LENS[2], 0.0).named("b64"),
    };
    let (b8, b32, b64) = (&bufs.b8, &bufs.b32, &bufs.b64);
    let kernel = |block: &mut BlockCtx, _| {
        for step in program {
            match *step {
                Step::ParallelFor { lanes, ref ops } => {
                    block.parallel_for(lanes, |lane, l| bufs.lane_ops(lane, l, ops));
                }
                Step::Sweep {
                    lanes,
                    ref cols,
                    every,
                    phase,
                    ref ops,
                } => {
                    let cols = sweep_columns(lanes, cols);
                    let diverges = |l: usize| l % every == phase;
                    if lane_loop {
                        block.parallel_for(lanes, |lane, l| {
                            if diverges(l) {
                                bufs.lane_ops(lane, l, ops);
                            } else {
                                bufs.uniform_lane(lane, l, &cols);
                            }
                        });
                    } else {
                        let sweep = bufs.sweep(lanes, &cols);
                        block.sweep(&sweep, diverges, |lane, l| bufs.lane_ops(lane, l, ops));
                    }
                }
                Step::Scalar { buf, index, write } => match (buf, write) {
                    (0, false) => drop(block.read_scalar(b8, index)),
                    (1, false) => drop(block.read_scalar(b32, index)),
                    (_, false) => drop(block.read_scalar(b64, index)),
                    (0, true) => block.write_scalar(b8, index, 9),
                    (1, true) => block.write_scalar(b32, index, 9),
                    (_, true) => block.write_scalar(b64, index, 9.0),
                },
                Step::Barrier => block.barrier(),
            }
        }
    };
    let (report, check) = match run {
        Run::Checked => {
            let (report, check) = gpu.launch_checked("program", 1, kernel);
            (report, check.to_string())
        }
        Run::Plain | Run::Instrumented => (gpu.launch(1, kernel), String::new()),
    };
    let f64_bits = b64.to_vec().into_iter().map(f64::to_bits).collect();
    Outcome {
        report,
        buffers: (b8.to_vec(), b32.to_vec(), f64_bits),
        profile: gpu.take_profile_report(),
        check,
    }
}

/// The cost model's accumulators, replayed without the interpreter in
/// the order `BlockCtx` updates them.
#[derive(Default)]
struct Charge {
    lane_events: u64,
    segments: u64,
    conflicts: u64,
    /// Segments that two or more of a warp's lane accesses touched,
    /// summed over warps (the profiler's coalesced transactions).
    coalesced: u64,
    /// Longest same-address atomic run in any one warp (the profiler's
    /// contention depth).
    depth: u64,
    compute: f64,
    mem: f64,
    atomic: f64,
    committed: f64,
}

impl Charge {
    /// Charges one warp: its distinct segments (with the lane accesses
    /// each serviced), atomic targets and busiest lane.
    fn warp(
        &mut self,
        dev: &DeviceConfig,
        segs: &Segments,
        atomics: &mut Vec<(usize, usize)>,
        max: u32,
    ) {
        self.compute += dev.warp_base_cycles + dev.event_instr_cycles * f64::from(max);
        for _ in segs.keys() {
            self.mem += dev.seg_cycles;
        }
        self.segments += segs.len() as u64;
        self.coalesced += segs.values().filter(|&&accesses| accesses >= 2).count() as u64;
        if !atomics.is_empty() {
            let n = atomics.len() as u64;
            atomics.sort_unstable();
            let mut run = 0u64;
            for (k, target) in atomics.iter().enumerate() {
                run = if k > 0 && atomics[k - 1] == *target {
                    run + 1
                } else {
                    1
                };
                self.depth = self.depth.max(run);
            }
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

/// A warp's touched `(buffer, 32-byte segment)` keys, each with the number
/// of lane accesses that touched it.
type Segments = BTreeMap<(usize, usize), u64>;

/// Notes one lane access to element `i` of script buffer `buf`.
fn touch(segs: &mut Segments, buf: usize, i: usize) {
    *segs.entry(seg(buf, i)).or_default() += 1;
}

/// The `(buffer, 32-byte segment)` key of element `i` of script buffer
/// `buf` (buffers are disjoint and 256-byte aligned, so these keys are
/// exactly the distinct segments).
fn seg(buf: usize, i: usize) -> (usize, usize) {
    (buf, (i * WIDTHS[buf]) >> 5)
}

/// Adds lane `l`'s script segments and atomic targets to its warp's;
/// returns the lane's event count.
fn lane_charge(
    ops: &[LaneOp],
    l: usize,
    segs: &mut Segments,
    atomics: &mut Vec<(usize, usize)>,
) -> u32 {
    let mut events = 0u32;
    for op in ops.iter().filter(|op| l.is_multiple_of(op.every)) {
        let i = op.index(l);
        match op.kind {
            OpKind::Compute(units) => events += units,
            kind => {
                events += 1;
                touch(segs, op.buf, i);
                if matches!(kind, OpKind::Atomic) {
                    atomics.push((op.buf, i));
                }
            }
        }
    }
    events
}

/// What the cost model charges for `program` on `dev`, computed without
/// the interpreter: per warp, a `BTreeMap` from `(buffer, 32-byte segment)`
/// keys (buffers are disjoint and 256-byte aligned, so these are exactly
/// the distinct segments) to the lane accesses that touched them, and the
/// sorted atomic targets. A one-block
/// launch's makespan is its block's committed cycles.
fn oracle(dev: &DeviceConfig, program: &[Step]) -> Charge {
    let mut charge = Charge::default();
    for step in program {
        match step {
            Step::ParallelFor { lanes, ops } => {
                for first in (0..*lanes).step_by(dev.warp_size) {
                    let (mut segs, mut atomics, mut max) = (Segments::new(), Vec::new(), 0u32);
                    for l in first..(first + dev.warp_size).min(*lanes) {
                        let events = lane_charge(ops, l, &mut segs, &mut atomics);
                        charge.lane_events += u64::from(events);
                        max = max.max(events);
                    }
                    charge.warp(dev, &segs, &mut atomics, max);
                }
            }
            Step::Sweep {
                lanes,
                cols,
                every,
                phase,
                ops,
            } => {
                let cols = sweep_columns(*lanes, cols);
                for first in (0..*lanes).step_by(dev.warp_size) {
                    let (mut segs, mut atomics, mut max) = (Segments::new(), Vec::new(), 0u32);
                    for l in first..(first + dev.warp_size).min(*lanes) {
                        let events = if l % every == *phase {
                            lane_charge(ops, l, &mut segs, &mut atomics)
                        } else {
                            for col in &cols {
                                touch(&mut segs, col.buf, col.base + l);
                            }
                            cols.len() as u32
                        };
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
                    &Segments::from([(seg(*buf, *index), 1)]),
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
        let plain = run_program(&program, Run::Plain, false);
        prop_assert_eq!(plain.report.stats.lane_events, want.lane_events);
        prop_assert_eq!(
            plain.report.stats.mem_segments,
            want.segments,
            "per-warp distinct-segment count"
        );
        prop_assert_eq!(plain.report.stats.atomic_conflicts, want.conflicts);
        prop_assert_eq!(plain.report.makespan_cycles.to_bits(), want.committed.to_bits());
        // The instrumented run charges through the set on every access,
        // and the checked run records every access; both must charge, and
        // compute, exactly what the plain run did. Each must also match a
        // run with every sweep unrolled into a lane loop: same profile
        // (memsim's L1 requests in lane-major order included) and the same
        // racecheck report.
        for run in [Run::Plain, Run::Instrumented, Run::Checked] {
            let swept = run_program(&program, run, false);
            let looped = run_program(&program, run, true);
            for got in [&swept, &looped] {
                prop_assert_eq!(got.report.stats, plain.report.stats, "{:?}", run);
                prop_assert_eq!(
                    got.report.makespan_cycles.to_bits(),
                    plain.report.makespan_cycles.to_bits(),
                    "{:?}",
                    run
                );
                prop_assert_eq!(&got.buffers, &plain.buffers, "{:?}", run);
            }
            prop_assert_eq!(&swept.profile, &looped.profile, "{:?}", run);
            if matches!(run, Run::Instrumented) {
                // The profile's own tallies: coalesced transactions and
                // the deepest same-address atomic run.
                let total = swept.profile.total();
                prop_assert_eq!(total.coalesced_transactions, want.coalesced);
                prop_assert_eq!(total.max_contention_depth, want.depth);
            }
            prop_assert_eq!(&swept.check, &looped.check, "{:?}", run);
        }
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
