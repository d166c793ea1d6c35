//! `dynbc-racecheck`: shadow-state analysis for checked kernel execution.
//!
//! The simulator's host-parallel launch path is sound only under the
//! sharing contract documented in [`crate::mem`]: concurrent blocks touch
//! plain cells disjointly, contended cells go through one self-commuting
//! atomic op kind per launch. That contract was previously *documented but
//! unchecked* — exactly the class of bug `cuda-memcheck --tool racecheck`
//! exists for on real hardware. This module is the equivalent for the
//! simulator: when a launch runs in checked mode
//! ([`Gpu::launch_checked`](crate::Gpu::launch_checked) or
//! `DYNBC_RACECHECK=1`), every [`Lane`](crate::block::Lane) and scalar
//! access is recorded into a per-block shadow log (buffer, index, op kind,
//! lane, barrier epoch), the logs are merged in block-index order, and a
//! per-cell analysis reports four diagnostic classes:
//!
//! * **data race** — a plain write concurrent with any other plain access
//!   to the same cell: across lanes of one `parallel_for` (nothing inside
//!   a `parallel_for` orders its lanes short of [`Lane::barrier`]), or
//!   across blocks anywhere in the launch (no inter-block sync exists);
//! * **atomic-contract violation** — the [`crate::mem`] contract: atomic
//!   and plain access to one cell from different blocks, or two different
//!   atomic op kinds on one cell from different blocks;
//! * **barrier divergence** — a [`Lane::barrier`] not reached the same
//!   number of times by every lane of a `parallel_for` (a real GPU
//!   deadlocks; unchecked mode panics);
//! * **out-of-bounds** — a lane access past the end of a buffer, reported
//!   with buffer name and index (the faulting op is suppressed so the
//!   analysis can keep going and report every OOB site in the launch).
//!
//! # Concurrency model
//!
//! Within a block the simulator executes lanes sequentially and documents
//! that parallelism is *modeled, never raced* — but the kernels are ports
//! of CUDA kernels, so the checker applies CUDA's ordering instead: lanes
//! of one `parallel_for` invocation are mutually concurrent (separated
//! only by [`Lane::barrier`] phases), while scalar accesses and the
//! boundary between two `parallel_for` calls are block-uniform program
//! points and therefore ordered. Across blocks, nothing is ordered.
//!
//! The paper's kernels contain *deliberate* benign races (same-value
//! test-then-set on the `t` flags, duplicate frontier relocation writes);
//! CUDA expresses those with `volatile` accesses, and so does the
//! simulator: [`Lane::write_volatile`]/[`Lane::read_volatile`] are exempt
//! from intra-block hazard reporting but still participate in cross-block
//! checks, where no annotation can make a plain race safe.
//!
//! [`Lane::barrier`]: crate::block::Lane::barrier
//! [`Lane::write_volatile`]: crate::block::Lane::write_volatile
//! [`Lane::read_volatile`]: crate::block::Lane::read_volatile

use crate::device::DeviceConfig;
use std::collections::HashMap;
use std::fmt;

/// Lane id recorded for `read_scalar`/`write_scalar` traffic, which is a
/// block-uniform program point rather than a concurrent lane.
pub(crate) const SCALAR_LANE: u32 = u32::MAX;

/// Cap on materialized diagnostics per launch; everything past it is
/// counted in [`CheckReport::suppressed`].
const MAX_DIAGNOSTICS: usize = 64;

/// Per-cell, per-region retention for intra-block hazard pairing. Two
/// entries with distinct lanes already witness any later conflict; a few
/// more keep mixed-phase fixtures honest.
const KEEP: usize = 4;

/// Which atomic read-modify-write touched a cell. The sharing contract
/// allows exactly one kind per contended cell per launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// `atomicAdd` on a `u32` cell.
    AddU32,
    /// CAS-loop `atomicAdd` on an `f64` cell.
    AddF64,
    /// `atomicMax` on a `u32` cell.
    MaxU32,
    /// `atomicMin` on a `u32` cell.
    MinU32,
    /// `atomicCAS` on a `u32` cell.
    CasU32,
    /// `atomicCAS` on a `u8` cell.
    CasU8,
}

impl AtomicKind {
    fn name(self) -> &'static str {
        match self {
            AtomicKind::AddU32 => "atomic_add_u32",
            AtomicKind::AddF64 => "atomic_add_f64",
            AtomicKind::MaxU32 => "atomic_max_u32",
            AtomicKind::MinU32 => "atomic_min_u32",
            AtomicKind::CasU32 => "atomic_cas_u32",
            AtomicKind::CasU8 => "atomic_cas_u8",
        }
    }
}

/// How a recorded access touched its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain lane (or scalar) read.
    Read,
    /// Plain lane (or scalar) write.
    Write,
    /// Volatile-annotated read: exempt from intra-block hazards.
    VolatileRead,
    /// Volatile-annotated write: a paper-proven benign race; exempt from
    /// intra-block hazards, still a write for cross-block analysis.
    VolatileWrite,
    /// Atomic read-modify-write of the given kind.
    Atomic(AtomicKind),
}

impl AccessKind {
    fn describe(self) -> &'static str {
        match self {
            AccessKind::Read => "plain read",
            AccessKind::Write => "plain write",
            AccessKind::VolatileRead => "volatile read",
            AccessKind::VolatileWrite => "volatile write",
            AccessKind::Atomic(k) => k.name(),
        }
    }
}

/// One recorded device-memory access (shadow-state entry).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccessRecord {
    pub base: u64,
    pub index: u32,
    pub kind: AccessKind,
    /// Item index within the `parallel_for`, or [`SCALAR_LANE`].
    pub lane: u32,
    /// Program region within the block: bumped at every `parallel_for`
    /// boundary and every block barrier. Accesses in different regions of
    /// one block are ordered.
    pub region: u32,
    /// [`Lane::barrier`](crate::block::Lane::barrier) count of this lane at
    /// access time; lanes in the same region but different phases are
    /// ordered.
    pub phase: u32,
    /// Block-level `barrier()` epoch at access time (reporting context).
    pub epoch: u32,
    pub label: &'static str,
    /// Raw bits of the written value (same-value write-write races are
    /// downgraded to warnings, matching the paper's benign-race argument).
    pub value: u64,
}

/// An out-of-bounds access caught (and suppressed) in checked mode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OobRecord {
    pub base: u64,
    pub index: usize,
    pub len: usize,
    pub lane: u32,
    pub kind: AccessKind,
    pub label: &'static str,
}

/// A `parallel_for` whose lanes disagreed on how many lane barriers they
/// reached.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DivergenceRecord {
    pub lane: u32,
    pub got: u32,
    pub expected: u32,
    pub label: &'static str,
}

/// Per-block shadow log filled by the instrumentation hooks in
/// [`crate::block`] and analyzed after the launch.
#[derive(Debug)]
pub(crate) struct Recorder {
    pub block: usize,
    pub accesses: Vec<AccessRecord>,
    /// `(base, name, len)` of every buffer this block touched.
    pub buffers: Vec<(u64, &'static str, usize)>,
    pub oob: Vec<OobRecord>,
    pub divergence: Vec<DivergenceRecord>,
    /// Base of the most recently noted buffer: kernels hammer one buffer
    /// for long runs, so this turns `note_buffer`'s per-access linear
    /// scan into a single compare on the happy path.
    last_base: u64,
}

/// Access-log capacity reserved up front: checked runs of the BC kernels
/// log thousands of accesses per block, and growing the vec inside the
/// per-access hot path is a measurable share of racecheck's overhead.
const ACCESS_LOG_RESERVE: usize = 4096;

impl Recorder {
    pub(crate) fn new(block: usize) -> Self {
        Self {
            block,
            accesses: Vec::with_capacity(ACCESS_LOG_RESERVE),
            buffers: Vec::with_capacity(16),
            oob: Vec::new(),
            divergence: Vec::new(),
            last_base: u64::MAX,
        }
    }

    #[inline]
    pub(crate) fn note_buffer(&mut self, base: u64, name: &'static str, len: usize) {
        if base == self.last_base {
            return;
        }
        self.last_base = base;
        if !self.buffers.iter().any(|&(b, _, _)| b == base) {
            self.buffers.push((base, name, len));
        }
    }
}

/// Diagnostic classes, one per failure mode of the sharing contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagClass {
    /// Plain write concurrent with another plain access to the same cell.
    DataRace,
    /// Atomic+plain mixing or mixed atomic op kinds across blocks.
    AtomicContract,
    /// A lane barrier not reached uniformly by all lanes of a block.
    BarrierDivergence,
    /// Buffer access past the end of the allocation.
    OutOfBounds,
}

impl DiagClass {
    fn bit(self) -> u8 {
        match self {
            DiagClass::DataRace => 1,
            DiagClass::AtomicContract => 2,
            DiagClass::BarrierDivergence => 4,
            DiagClass::OutOfBounds => 8,
        }
    }
}

impl fmt::Display for DiagClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DiagClass::DataRace => "data-race",
            DiagClass::AtomicContract => "atomic-contract",
            DiagClass::BarrierDivergence => "barrier-divergence",
            DiagClass::OutOfBounds => "out-of-bounds",
        })
    }
}

/// How bad a diagnostic is. Same-value write-write races are warnings
/// (benign on the hardware the paper targets); everything else is an
/// error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but provably value-preserving.
    Warning,
    /// A genuine contract violation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the checker, with everything needed to locate it:
/// kernel, per-kernel label, buffer, cell index, and the offending
/// blocks/lanes.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Failure class.
    pub class: DiagClass,
    /// Error or (benign same-value race) warning.
    pub severity: Severity,
    /// Launch name (from [`Gpu::launch_named`](crate::Gpu::launch_named)).
    pub kernel: String,
    /// Kernel-phase label ([`BlockCtx::label`](crate::BlockCtx::label)) at
    /// the *second* (conflicting) access.
    pub label: &'static str,
    /// Buffer name, when the diagnostic concerns a cell.
    pub buffer: Option<&'static str>,
    /// Cell index within the buffer, when applicable.
    pub index: Option<usize>,
    /// Blocks involved, first-seen order.
    pub blocks: Vec<usize>,
    /// Lanes involved ([`u32::MAX`] = scalar context), first-seen order.
    pub lanes: Vec<u32>,
    /// Human-readable account of the conflicting pair.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} in `{}`", self.severity, self.class, self.kernel)?;
        if !self.label.is_empty() {
            write!(f, " ({})", self.label)?;
        }
        if let (Some(buf), Some(i)) = (self.buffer, self.index) {
            write!(f, " on `{buf}`[{i}]")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The result of analyzing one checked launch.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Launch name the diagnostics belong to.
    pub kernel: String,
    /// Findings, in deterministic block-index/program order, capped at an
    /// internal limit (see [`CheckReport::suppressed`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Total device-memory accesses recorded.
    pub accesses: u64,
    /// Distinct cells touched.
    pub cells: usize,
    /// Diagnostics dropped past the cap (all treated as errors).
    pub suppressed: usize,
}

impl CheckReport {
    /// True when the launch produced no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.suppressed == 0
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// True when any error-severity finding (or overflow) exists.
    pub fn has_errors(&self) -> bool {
        self.suppressed > 0 || self.errors().next().is_some()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "racecheck[{}]: {} diagnostic(s) ({} error(s), {} warning(s), {} suppressed) \
             over {} access(es) / {} cell(s)",
            self.kernel,
            self.diagnostics.len(),
            self.errors().count(),
            self.warnings().count(),
            self.suppressed,
            self.accesses,
            self.cells,
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// One prior toucher of a cell, kept for cross-block pairing.
#[derive(Debug, Clone, Copy)]
struct Touch {
    block: u32,
    lane: u32,
    label: &'static str,
    kind: AccessKind,
}

/// First two touches with *distinct blocks* — enough to witness any
/// cross-block conflict against a later access.
#[derive(Debug, Default, Clone, Copy)]
struct BlockPair {
    a: Option<Touch>,
    b: Option<Touch>,
}

impl BlockPair {
    fn add(&mut self, t: Touch) {
        match (self.a, self.b) {
            (None, _) => self.a = Some(t),
            (Some(x), None) if x.block != t.block => self.b = Some(t),
            _ => {}
        }
    }

    fn other_than(&self, block: u32) -> Option<Touch> {
        [self.a, self.b]
            .into_iter()
            .flatten()
            .find(|t| t.block != block)
    }
}

/// Per-cell shadow state: a region-local window for intra-block hazards
/// plus launch-wide per-block summaries for cross-block analysis.
#[derive(Debug)]
struct CellState {
    /// `(block, region)` the intra-block window belongs to.
    region_key: (u32, u32),
    /// Plain non-volatile reads in the window: `(lane, phase, label)`.
    reads: Vec<(u32, u32, &'static str)>,
    /// Plain non-volatile writes: `(lane, phase, value, label)`.
    writes: Vec<(u32, u32, u64, &'static str)>,
    /// Atomics: `(lane, phase, label)`.
    atomics: Vec<(u32, u32, &'static str)>,
    /// Launch-wide: blocks that wrote (plain or volatile).
    wr_blocks: BlockPair,
    /// Launch-wide: blocks that read (plain or volatile).
    rd_blocks: BlockPair,
    /// Launch-wide: blocks that issued atomics.
    at_blocks: BlockPair,
    /// First atomic kind seen, and the first *different* kind.
    kind_a: Option<(AtomicKind, Touch)>,
    kind_b: Option<(AtomicKind, Touch)>,
    /// Classes already reported for this cell (dedup bitmask).
    reported: u8,
}

impl CellState {
    fn new(block: u32, region: u32) -> Self {
        Self {
            region_key: (block, region),
            reads: Vec::new(),
            writes: Vec::new(),
            atomics: Vec::new(),
            wr_blocks: BlockPair::default(),
            rd_blocks: BlockPair::default(),
            at_blocks: BlockPair::default(),
            kind_a: None,
            kind_b: None,
            reported: 0,
        }
    }
}

/// Diagnostic accumulator with the materialization cap.
struct Sink {
    diagnostics: Vec<Diagnostic>,
    suppressed: usize,
}

impl Sink {
    fn push(&mut self, d: Diagnostic) {
        if self.diagnostics.len() < MAX_DIAGNOSTICS {
            self.diagnostics.push(d);
        } else {
            self.suppressed += 1;
        }
    }
}

fn lane_str(dev: &DeviceConfig, lane: u32) -> String {
    if lane == SCALAR_LANE {
        "scalar ctx".to_string()
    } else {
        format!("lane {lane} (warp {})", dev.warp_of(lane))
    }
}

/// Analyzes the merged per-block shadow logs of one launch. Logs arrive in
/// block-index order and are scanned in program order, so the report is
/// deterministic for any host-thread count.
pub(crate) fn analyze(kernel: &str, dev: &DeviceConfig, recs: &[Recorder]) -> CheckReport {
    let mut buffers: HashMap<u64, (&'static str, usize)> = HashMap::new();
    for rec in recs {
        for &(base, name, len) in &rec.buffers {
            buffers.entry(base).or_insert((name, len));
        }
    }
    let buf_name = |base: u64| buffers.get(&base).map_or("?", |&(n, _)| n);

    let mut cells: HashMap<(u64, u32), CellState> = HashMap::new();
    let mut sink = Sink {
        diagnostics: Vec::new(),
        suppressed: 0,
    };
    let mut accesses = 0u64;

    for rec in recs {
        let block = rec.block as u32;

        for d in &rec.divergence {
            sink.push(Diagnostic {
                class: DiagClass::BarrierDivergence,
                severity: Severity::Error,
                kernel: kernel.to_string(),
                label: d.label,
                buffer: None,
                index: None,
                blocks: vec![rec.block],
                lanes: vec![d.lane],
                message: format!(
                    "{} reached {} lane-barrier(s) where earlier lanes of block {} reached {} \
                     — a real GPU would deadlock",
                    lane_str(dev, d.lane),
                    d.got,
                    rec.block,
                    d.expected
                ),
            });
        }

        for o in &rec.oob {
            accesses += 1;
            sink.push(Diagnostic {
                class: DiagClass::OutOfBounds,
                severity: Severity::Error,
                kernel: kernel.to_string(),
                label: o.label,
                buffer: Some(buf_name(o.base)),
                index: Some(o.index),
                blocks: vec![rec.block],
                lanes: vec![o.lane],
                message: format!(
                    "{} of index {} in block {} by {}, but `{}` has only {} element(s) \
                     (operation suppressed)",
                    o.kind.describe(),
                    o.index,
                    rec.block,
                    lane_str(dev, o.lane),
                    buf_name(o.base),
                    o.len
                ),
            });
        }

        for a in &rec.accesses {
            accesses += 1;
            let cell = cells
                .entry((a.base, a.index))
                .or_insert_with(|| CellState::new(block, a.region));

            // Entering a new ordered program region resets the intra-block
            // hazard window; launch-wide summaries persist.
            if cell.region_key != (block, a.region) {
                cell.region_key = (block, a.region);
                cell.reads.clear();
                cell.writes.clear();
                cell.atomics.clear();
            }

            let name = buf_name(a.base);
            let idx = a.index as usize;

            // --- Intra-block hazards: same region, same phase, other lane.
            let conflict_read = |c: &CellState| {
                c.reads
                    .iter()
                    .copied()
                    .find(|&(l, p, _)| l != a.lane && p == a.phase)
            };
            let conflict_write = |c: &CellState| {
                c.writes
                    .iter()
                    .copied()
                    .find(|&(l, p, _, _)| l != a.lane && p == a.phase)
            };
            let conflict_atomic = |c: &CellState| {
                c.atomics
                    .iter()
                    .copied()
                    .find(|&(l, p, _)| l != a.lane && p == a.phase)
            };
            match a.kind {
                AccessKind::Write => {
                    if cell.reported & DiagClass::DataRace.bit() == 0 {
                        if let Some((l, _, lb)) = conflict_read(cell) {
                            cell.reported |= DiagClass::DataRace.bit();
                            sink.push(intra_diag(
                                kernel,
                                dev,
                                DiagClass::DataRace,
                                Severity::Error,
                                a,
                                name,
                                idx,
                                rec.block,
                                l,
                                lb,
                                "plain write races with earlier plain read",
                            ));
                        } else if let Some((l, _, v, lb)) = conflict_write(cell) {
                            let (sev, what) = if v == a.value {
                                (
                                    Severity::Warning,
                                    "same-value write-write race (benign on the paper's hardware)",
                                )
                            } else {
                                (Severity::Error, "write-write race with differing values")
                            };
                            cell.reported |= DiagClass::DataRace.bit();
                            sink.push(intra_diag(
                                kernel,
                                dev,
                                DiagClass::DataRace,
                                sev,
                                a,
                                name,
                                idx,
                                rec.block,
                                l,
                                lb,
                                what,
                            ));
                        }
                    }
                    if cell.reported & DiagClass::AtomicContract.bit() == 0 {
                        if let Some((l, _, lb)) = conflict_atomic(cell) {
                            cell.reported |= DiagClass::AtomicContract.bit();
                            sink.push(intra_diag(
                                kernel,
                                dev,
                                DiagClass::AtomicContract,
                                Severity::Error,
                                a,
                                name,
                                idx,
                                rec.block,
                                l,
                                lb,
                                "plain write races with earlier atomic",
                            ));
                        }
                    }
                }
                AccessKind::Read => {
                    if cell.reported & DiagClass::DataRace.bit() == 0 {
                        if let Some((l, _, _, lb)) = conflict_write(cell) {
                            cell.reported |= DiagClass::DataRace.bit();
                            sink.push(intra_diag(
                                kernel,
                                dev,
                                DiagClass::DataRace,
                                Severity::Error,
                                a,
                                name,
                                idx,
                                rec.block,
                                l,
                                lb,
                                "plain read races with earlier plain write",
                            ));
                        }
                    }
                }
                AccessKind::Atomic(_) => {
                    if cell.reported & DiagClass::AtomicContract.bit() == 0 {
                        if let Some((l, _, _, lb)) = conflict_write(cell) {
                            cell.reported |= DiagClass::AtomicContract.bit();
                            sink.push(intra_diag(
                                kernel,
                                dev,
                                DiagClass::AtomicContract,
                                Severity::Error,
                                a,
                                name,
                                idx,
                                rec.block,
                                l,
                                lb,
                                "atomic races with earlier plain write",
                            ));
                        }
                    }
                }
                AccessKind::VolatileRead | AccessKind::VolatileWrite => {}
            }

            // Update the intra-block window (bounded retention).
            match a.kind {
                AccessKind::Read => {
                    if cell.reads.len() < KEEP
                        && !cell
                            .reads
                            .iter()
                            .any(|&(l, p, _)| l == a.lane && p == a.phase)
                    {
                        cell.reads.push((a.lane, a.phase, a.label));
                    }
                }
                AccessKind::Write => {
                    if cell.writes.len() < KEEP {
                        cell.writes.push((a.lane, a.phase, a.value, a.label));
                    }
                }
                AccessKind::Atomic(_) => {
                    if cell.atomics.len() < KEEP
                        && !cell
                            .atomics
                            .iter()
                            .any(|&(l, p, _)| l == a.lane && p == a.phase)
                    {
                        cell.atomics.push((a.lane, a.phase, a.label));
                    }
                }
                AccessKind::VolatileRead | AccessKind::VolatileWrite => {}
            }

            // --- Cross-block hazards: any other block, no ordering exists.
            let touch = Touch {
                block,
                lane: a.lane,
                label: a.label,
                kind: a.kind,
            };
            let is_write = matches!(a.kind, AccessKind::Write | AccessKind::VolatileWrite);
            let is_read = matches!(a.kind, AccessKind::Read | AccessKind::VolatileRead);
            if is_write {
                if cell.reported & DiagClass::DataRace.bit() == 0 {
                    if let Some(o) = cell
                        .wr_blocks
                        .other_than(block)
                        .or_else(|| cell.rd_blocks.other_than(block))
                    {
                        cell.reported |= DiagClass::DataRace.bit();
                        sink.push(cross_diag(
                            kernel,
                            dev,
                            DiagClass::DataRace,
                            a,
                            name,
                            idx,
                            rec.block,
                            o,
                        ));
                    }
                }
                if cell.reported & DiagClass::AtomicContract.bit() == 0 {
                    if let Some(o) = cell.at_blocks.other_than(block) {
                        cell.reported |= DiagClass::AtomicContract.bit();
                        sink.push(cross_diag(
                            kernel,
                            dev,
                            DiagClass::AtomicContract,
                            a,
                            name,
                            idx,
                            rec.block,
                            o,
                        ));
                    }
                }
            } else if is_read {
                if cell.reported & DiagClass::DataRace.bit() == 0 {
                    if let Some(o) = cell.wr_blocks.other_than(block) {
                        cell.reported |= DiagClass::DataRace.bit();
                        sink.push(cross_diag(
                            kernel,
                            dev,
                            DiagClass::DataRace,
                            a,
                            name,
                            idx,
                            rec.block,
                            o,
                        ));
                    }
                }
                if cell.reported & DiagClass::AtomicContract.bit() == 0 {
                    if let Some(o) = cell.at_blocks.other_than(block) {
                        cell.reported |= DiagClass::AtomicContract.bit();
                        sink.push(cross_diag(
                            kernel,
                            dev,
                            DiagClass::AtomicContract,
                            a,
                            name,
                            idx,
                            rec.block,
                            o,
                        ));
                    }
                }
            } else if let AccessKind::Atomic(k) = a.kind {
                if cell.reported & DiagClass::AtomicContract.bit() == 0 {
                    if let Some(o) = cell
                        .wr_blocks
                        .other_than(block)
                        .or_else(|| cell.rd_blocks.other_than(block))
                    {
                        cell.reported |= DiagClass::AtomicContract.bit();
                        sink.push(cross_diag(
                            kernel,
                            dev,
                            DiagClass::AtomicContract,
                            a,
                            name,
                            idx,
                            rec.block,
                            o,
                        ));
                    }
                }
                match (cell.kind_a, cell.kind_b) {
                    (None, _) => cell.kind_a = Some((k, touch)),
                    (Some((ka, _)), None) if ka != k => cell.kind_b = Some((k, touch)),
                    _ => {}
                }
            }

            // Mixed atomic kinds become a violation once atomics span two
            // blocks (within one block they execute sequentially).
            if cell.reported & DiagClass::AtomicContract.bit() == 0 {
                if let (Some((ka, ta)), Some((kb, tb))) = (cell.kind_a, cell.kind_b) {
                    let multi_block = matches!(a.kind, AccessKind::Atomic(_))
                        && cell.at_blocks.other_than(block).is_some();
                    if multi_block {
                        cell.reported |= DiagClass::AtomicContract.bit();
                        sink.push(Diagnostic {
                            class: DiagClass::AtomicContract,
                            severity: Severity::Error,
                            kernel: kernel.to_string(),
                            label: a.label,
                            buffer: Some(name),
                            index: Some(idx),
                            blocks: vec![ta.block as usize, tb.block as usize],
                            lanes: vec![ta.lane, tb.lane],
                            message: format!(
                                "mixed atomic op kinds on one contended cell: {} (block {}, {}) \
                                 vs {} (block {}, {}) — order-dependent on real hardware",
                                ka.name(),
                                ta.block,
                                lane_str(dev, ta.lane),
                                kb.name(),
                                tb.block,
                                lane_str(dev, tb.lane)
                            ),
                        });
                    }
                }
            }

            // Update launch-wide summaries.
            if is_write {
                cell.wr_blocks.add(touch);
            } else if is_read {
                cell.rd_blocks.add(touch);
            } else {
                cell.at_blocks.add(touch);
            }
        }
    }

    CheckReport {
        kernel: kernel.to_string(),
        diagnostics: sink.diagnostics,
        accesses,
        cells: cells.len(),
        suppressed: sink.suppressed,
    }
}

#[allow(clippy::too_many_arguments)]
fn intra_diag(
    kernel: &str,
    dev: &DeviceConfig,
    class: DiagClass,
    severity: Severity,
    a: &AccessRecord,
    buffer: &'static str,
    index: usize,
    block: usize,
    other_lane: u32,
    other_label: &'static str,
    what: &str,
) -> Diagnostic {
    Diagnostic {
        class,
        severity,
        kernel: kernel.to_string(),
        label: a.label,
        buffer: Some(buffer),
        index: Some(index),
        blocks: vec![block],
        lanes: vec![other_lane, a.lane],
        message: format!(
            "{what}: {} by {} vs {} by {} in block {block}, same parallel_for, \
             no lane barrier between them (epoch {})",
            a.kind.describe(),
            lane_str(dev, a.lane),
            if other_label.is_empty() {
                "access"
            } else {
                other_label
            },
            lane_str(dev, other_lane),
            a.epoch
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn cross_diag(
    kernel: &str,
    dev: &DeviceConfig,
    class: DiagClass,
    a: &AccessRecord,
    buffer: &'static str,
    index: usize,
    block: usize,
    other: Touch,
) -> Diagnostic {
    Diagnostic {
        class,
        severity: Severity::Error,
        kernel: kernel.to_string(),
        label: a.label,
        buffer: Some(buffer),
        index: Some(index),
        blocks: vec![other.block as usize, block],
        lanes: vec![other.lane, a.lane],
        message: format!(
            "{} by block {block} {} conflicts with {} by block {} {}{} — \
             blocks of one launch are never ordered",
            a.kind.describe(),
            lane_str(dev, a.lane),
            other.kind.describe(),
            other.block,
            lane_str(dev, other.lane),
            if other.label.is_empty() {
                String::new()
            } else {
                format!(" in {}", other.label)
            }
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Sweep;
    use crate::grid::Gpu;

    fn gpu() -> Gpu {
        let mut g = Gpu::new(DeviceConfig::test_tiny());
        g.instruments_mut().racecheck = false;
        g
    }

    fn classes(report: &CheckReport) -> Vec<DiagClass> {
        report.diagnostics.iter().map(|d| d.class).collect()
    }

    #[test]
    fn intra_block_read_write_race_is_reported_with_context() {
        let mut g = gpu();
        let cells = g.alloc::<u32>(8, 0).named("cells");
        let (_, check) = g.launch_checked("racy", 1, |block, _| {
            block.parallel_for(4, |lane, i| {
                // Every lane reads cell 3; lane 2 also writes it.
                lane.read(&cells, 3);
                if i == 2 {
                    lane.write(&cells, 3, 9);
                }
            });
        });
        assert!(check.has_errors());
        let d = check.errors().next().expect("a data race");
        assert_eq!(d.class, DiagClass::DataRace);
        assert_eq!(d.kernel, "racy");
        assert_eq!(d.buffer, Some("cells"));
        assert_eq!(d.index, Some(3));
        assert!(d.lanes.contains(&2), "offending lane listed: {:?}", d.lanes);
        let text = d.to_string();
        assert!(
            text.contains("`cells`[3]"),
            "display locates the cell: {text}"
        );
    }

    #[test]
    fn sweeps_of_two_blocks_over_overlapping_columns_race() {
        let run = |stride: usize| {
            let mut g = gpu();
            let cells = g.alloc::<u32>(16, 0).named("col");
            let (_, check) = g.launch_checked("sweeps", 2, |block, b| {
                let mut sweep = Sweep::new(8);
                sweep.fill(&cells, stride * b, b as u32);
                block.sweep(&sweep, |_| false, |_, _| {});
            });
            check
        };
        // Block 1's uniform lane 0 writes the cell block 0's lane 4 wrote.
        let check = run(4);
        let d = check.errors().next().expect("cross-block race");
        assert_eq!(d.class, DiagClass::DataRace);
        assert_eq!(d.buffer, Some("col"));
        assert_eq!(d.index, Some(4));
        assert_eq!(d.blocks, [0, 1]);
        assert_eq!(d.lanes, [4, 0]);
        assert_eq!(check.accesses, 16, "one record per uniform lane access");
        assert!(run(8).is_clean(), "disjoint columns do not race");
    }

    #[test]
    fn same_value_waw_is_warning_differing_values_error() {
        let mut g = gpu();
        let cells = g.alloc::<u32>(4, 0).named("flags");
        let (_, check) = g.launch_checked("benign", 1, |block, _| {
            block.parallel_for(4, |lane, _| {
                lane.write(&cells, 0, 7); // all lanes agree on the value
            });
        });
        assert!(!check.has_errors(), "same-value WAW must not be an error");
        assert_eq!(check.warnings().count(), 1);
        assert_eq!(check.warnings().next().unwrap().class, DiagClass::DataRace);

        let (_, check) = g.launch_checked("hostile", 1, |block, _| {
            block.parallel_for(4, |lane, i| {
                lane.write(&cells, 0, i as u32); // values differ per lane
            });
        });
        assert!(check.has_errors(), "differing-value WAW is a real race");
    }

    #[test]
    fn volatile_annotation_silences_intra_block_but_not_cross_block() {
        let mut g = gpu();
        let cells = g.alloc::<u32>(4, 0).named("t");
        let (_, check) = g.launch_checked("volatile_ok", 1, |block, _| {
            block.parallel_for(4, |lane, _| {
                // The kernels' benign test-then-set idiom.
                if lane.read(&cells, 1) == 0 {
                    lane.write_volatile(&cells, 1, 5);
                }
            });
        });
        assert!(check.is_clean(), "declared benign race reported: {check}");

        // The same write shared across blocks stays a hard race: no
        // annotation makes unsynchronized inter-block sharing safe.
        let (_, check) = g.launch_checked("volatile_cross", 2, |block, b| {
            block.parallel_for(1, |lane, _| {
                if b == 0 {
                    lane.write_volatile(&cells, 2, 1);
                } else {
                    lane.read(&cells, 2);
                }
            });
        });
        assert!(check.has_errors());
        assert!(classes(&check).contains(&DiagClass::DataRace));
        let d = check.errors().next().unwrap();
        assert_eq!(d.blocks.len(), 2, "both blocks identified: {:?}", d.blocks);
    }

    #[test]
    fn scalar_then_lane_access_is_ordered() {
        // Scalar writes are block-uniform program points: seeding a queue
        // head then reading it from every lane of the next parallel_for is
        // the kernels' standard shape and must stay clean.
        let mut g = gpu();
        let cells = g.alloc::<u32>(4, 0).named("lens");
        let (_, check) = g.launch_checked("scalar_ok", 1, |block, _| {
            block.write_scalar(&cells, 0, 3);
            block.parallel_for(4, |lane, _| {
                lane.read(&cells, 0);
            });
            block.barrier();
            block.write_scalar(&cells, 0, 0);
        });
        assert!(check.is_clean(), "{check}");
    }

    #[test]
    fn lane_barrier_phases_order_accesses() {
        let mut g = gpu();
        let cells = g.alloc::<u32>(4, 0).named("stage");
        let (_, check) = g.launch_checked("phased", 1, |block, _| {
            block.parallel_for(4, |lane, i| {
                if i == 0 {
                    lane.write(&cells, 0, 1);
                }
                lane.barrier(); // separates the write from the reads
                lane.read(&cells, 0);
            });
        });
        assert!(check.is_clean(), "barrier-separated phases raced: {check}");
    }

    #[test]
    fn atomic_mixed_with_plain_write_is_contract_violation() {
        let mut g = gpu();
        let cells = g.alloc::<u32>(4, 0).named("acc");
        let (_, check) = g.launch_checked("mixed", 1, |block, _| {
            block.parallel_for(4, |lane, i| {
                if i == 0 {
                    lane.write(&cells, 2, 1);
                } else {
                    lane.atomic_add_u32(&cells, 2, 1);
                }
            });
        });
        assert!(check.has_errors());
        assert!(classes(&check).contains(&DiagClass::AtomicContract));
    }

    #[test]
    fn cross_block_atomic_kinds_must_match() {
        let mut g = gpu();
        let cells = g.alloc::<u32>(4, 0).named("counter");
        // Same op kind from every block: self-commuting, allowed.
        let (_, check) = g.launch_checked("uniform", 2, |block, _| {
            block.parallel_for(2, |lane, _| {
                lane.atomic_add_u32(&cells, 0, 1);
            });
        });
        assert!(check.is_clean(), "uniform atomics flagged: {check}");
        // add vs max on one cell from different blocks: order-dependent.
        let (_, check) = g.launch_checked("disagree", 2, |block, b| {
            block.parallel_for(2, |lane, _| {
                if b == 0 {
                    lane.atomic_add_u32(&cells, 1, 1);
                } else {
                    lane.atomic_max_u32(&cells, 1, 9);
                }
            });
        });
        assert!(check.has_errors());
        let d = check.errors().next().unwrap();
        assert_eq!(d.class, DiagClass::AtomicContract);
        assert!(
            d.message.contains("atomic_add_u32") && d.message.contains("atomic_max_u32"),
            "names both kinds: {}",
            d.message
        );
    }

    #[test]
    fn barrier_divergence_reports_checked_and_panics_unchecked() {
        let mut g = gpu();
        let cells = g.alloc::<u32>(4, 0).named("x");
        let (_, check) = g.launch_checked("diverge", 1, |block, _| {
            block.parallel_for(4, |lane, i| {
                lane.read(&cells, i);
                if i % 2 == 0 {
                    lane.barrier(); // half the lanes never arrive
                }
            });
        });
        assert!(check.has_errors());
        let d = check.errors().next().unwrap();
        assert_eq!(d.class, DiagClass::BarrierDivergence);

        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.launch(1, |block, _| {
                block.parallel_for(4, |lane, i| {
                    lane.read(&cells, i);
                    if i % 2 == 0 {
                        lane.barrier();
                    }
                });
            });
        }));
        assert!(
            panicked.is_err(),
            "unchecked divergence models the deadlock"
        );
    }

    #[test]
    fn out_of_bounds_is_reported_and_suppressed() {
        let mut g = gpu();
        let cells = g.upload::<u32>(vec![11, 22]).named("short");
        let (_, check) = g.launch_checked("oob", 1, |block, _| {
            block.parallel_for(1, |lane, _| {
                lane.write(&cells, 7, 99); // past the end: suppressed
                lane.read(&cells, 1); // in bounds
            });
        });
        assert!(check.has_errors());
        let d = check.errors().next().unwrap();
        assert_eq!(d.class, DiagClass::OutOfBounds);
        assert_eq!(d.buffer, Some("short"));
        assert_eq!(d.index, Some(7));
        assert_eq!(cells.to_vec(), [11, 22], "faulting write must not land");
    }

    #[test]
    fn checked_mode_is_cost_and_result_neutral() {
        let run = |checked: bool| {
            let mut g = gpu();
            let buf = g.alloc::<f64>(32, 0.0).named("acc");
            let r = if checked {
                g.launch_checked("k", 3, |block, b| {
                    block.parallel_for(16, |lane, i| {
                        lane.atomic_add_f64(&buf, (b * 7 + i) % 32, 0.5);
                    });
                    block.barrier();
                })
                .0
            } else {
                g.launch(3, |block, b| {
                    block.parallel_for(16, |lane, i| {
                        lane.atomic_add_f64(&buf, (b * 7 + i) % 32, 0.5);
                    });
                    block.barrier();
                })
            };
            (r.seconds.to_bits(), r.stats, buf.to_vec())
        };
        let (s0, st0, v0) = run(false);
        let (s1, st1, v1) = run(true);
        assert_eq!(s0, s1, "checked launch must not change simulated time");
        assert_eq!(st0, st1);
        assert_eq!(v0, v1);
    }

    #[test]
    fn launch_named_panics_on_errors_and_counts_warnings() {
        let mut g = gpu();
        g.instruments_mut().racecheck = true;
        let cells = g.alloc::<u32>(4, 0).named("w");
        g.launch_named("benign", 1, |block, _| {
            block.parallel_for(4, |lane, _| {
                lane.write(&cells, 0, 1); // same-value WAW: warning only
            });
        });
        assert_eq!(g.check_warnings(), 1);
        assert_eq!(g.checked_launches(), 1);
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.launch_named("hostile", 1, |block, _| {
                block.parallel_for(4, |lane, i| {
                    lane.write(&cells, 1, i as u32);
                });
            });
        }));
        assert!(hit.is_err(), "error diagnostics must fail the launch");
    }

    #[test]
    fn reports_are_deterministic_across_host_thread_counts() {
        let run = |threads: usize| {
            let mut g = gpu();
            g.instruments_mut().host_threads = threads;
            let cells = g.alloc::<u32>(8, 0).named("shared");
            let (_, check) = g.launch_checked("racy", 4, |block, b| {
                block.parallel_for(2, |lane, i| {
                    lane.write(&cells, (b + i) % 3, b as u32);
                });
            });
            check.to_string()
        };
        let base = run(1);
        assert!(base.contains("data-race"));
        for threads in [2, 8] {
            assert_eq!(base, run(threads), "{threads} host threads");
        }
    }
}
