//! Kernel launches and block-to-SM scheduling.
//!
//! A [`Gpu`] owns a device description and a simulated clock. Each
//! [`Gpu::launch`] runs `num_blocks` block closures, then schedules the
//! measured block times onto the device's SMs with the hardware's greedy
//! block scheduler: each block goes to the SM that frees up first. Kernel
//! time is the makespan plus a fixed launch overhead.
//!
//! # Host-parallel execution, bit-identical results
//!
//! Simulated blocks are independent interpreter runs, so `launch` fans
//! them out over real host threads (`DYNBC_HOST_THREADS`, default = the
//! machine's available cores, `1` = the legacy sequential path). The
//! setting is a cap: a launch never uses more workers than the host has
//! cores or the grid has blocks, and grids under [`PARALLEL_MIN_BLOCKS`]
//! run inline — fanning out work that cannot amortize a thread spawn
//! only adds wall time. Workers
//! self-schedule chunks of block ids from an atomic counter; each block
//! produces its own `(cycles, KernelStats)` pair, and the results are
//! **reduced serially in block-index order** — exactly the order the
//! sequential loop used. Because per-block cost accounting is local to the
//! block's `BlockCtx` and the engines keep cross-block float traffic in
//! per-block slabs, every output (simulated seconds, stats, buffer
//! contents) is bit-identical for any thread count.
//!
//! This scheduling model is what makes Figure 1 reproducible: with fewer
//! blocks than SMs the device is underutilized; at exactly one block per
//! SM throughput peaks; beyond that, blocks queue behind one another on
//! the saturated memory bus ("the memory bus will become saturated", as
//! the paper puts it), so extra blocks only rebalance — they cannot add
//! bandwidth.

use crate::block::{BlockCtx, SegTable};
use crate::cache::{CacheConfig, L2Cache};
use crate::checker::{self, CheckReport, Recorder};
use crate::device::DeviceConfig;
use crate::instruments::{host_cores, Instruments};
use crate::mem::{GpuBuffer, FIRST_BASE};
use crate::profile::{self, BlockBuckets, BlockSpan, LaunchProfile, ProfileReport};
use crate::stats::KernelStats;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Outcome of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Simulated kernel time in seconds (makespan + launch overhead).
    pub seconds: f64,
    /// Makespan over SMs, in device cycles.
    pub makespan_cycles: f64,
    /// Per-block cycle counts, in block-id order.
    pub block_cycles: Vec<f64>,
    /// Work counters summed over all blocks.
    pub stats: KernelStats,
}

/// Lightweight record of one kernel launch for telemetry span logs: just
/// the timeline placement, no counters. Collected when
/// [`Instruments::telemetry`] is on (far cheaper than full profiling) and
/// drained by the engines into their lifecycle traces.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSpan {
    /// Kernel name as passed to `launch_named`/`launch_checked`.
    pub kernel: String,
    /// Ordinal of this launch on its `Gpu` (0-based).
    pub index: u64,
    /// Grid size in blocks.
    pub num_blocks: usize,
    /// Simulated clock when the launch started (seconds).
    pub start_s: f64,
    /// Simulated duration (makespan + launch overhead, seconds).
    pub dur_s: f64,
    /// Host wall-clock duration of the launch, seconds (nondeterministic).
    pub wall_s: f64,
}

/// What one finished block hands back to the launch reducer: cycles,
/// work counters, and the optional checked-mode / profiling shadow logs.
pub(crate) type BlockOut = (
    f64,
    KernelStats,
    Option<Box<Recorder>>,
    Option<BlockBuckets>,
);

/// Grids smaller than this run inline on the calling thread even when more
/// host threads are available: below it the work cannot amortize even one
/// thread spawn, so fanning out only adds wall time. Results are identical
/// either way (the reduction order is block-index order regardless).
pub const PARALLEL_MIN_BLOCKS: usize = 8;

/// A simulated GPU with an accumulating clock.
#[derive(Debug)]
pub struct Gpu {
    dev: DeviceConfig,
    elapsed_s: f64,
    total_stats: KernelStats,
    launches: u64,
    instruments: Instruments,
    host_cores: usize,
    check_warnings: u64,
    checked_launches: u64,
    profile: ProfileReport,
    launch_spans: Vec<LaunchSpan>,
    /// The device's shared L2 tag array: created on the first memsim
    /// launch, persists across launches (cross-launch locality is the
    /// point), only ever probed single-threaded during launch reduction.
    /// Rebuilt cold when a launch finds the geometry changed.
    l2: Option<Box<L2Cache>>,
    /// Next free synthetic address of this device's address space.
    next_base: u64,
    /// One per-warp segment table per host worker, lent to the worker's
    /// blocks in turn and kept across launches.
    seg_tables: Vec<SegTable>,
}

impl Gpu {
    /// Creates a device with the clock at zero and its instruments read
    /// from the environment ([`Instruments::from_env`]).
    pub fn new(dev: DeviceConfig) -> Self {
        Self {
            dev,
            elapsed_s: 0.0,
            total_stats: KernelStats::default(),
            launches: 0,
            instruments: Instruments::from_env(),
            host_cores: host_cores(),
            check_warnings: 0,
            checked_launches: 0,
            profile: ProfileReport::new(),
            launch_spans: Vec::new(),
            l2: None,
            next_base: FIRST_BASE,
            seg_tables: Vec::new(),
        }
    }

    /// Allocates a buffer of `len` copies of `init` in this device's
    /// address space. Addresses are handed out in allocation order from a
    /// per-device counter, so coalescing and the memsim cache sets depend
    /// only on what this device allocated, never on other devices or
    /// threads in the process. A buffer belongs to the device that
    /// allocated it: launch it only on that device.
    pub fn alloc<T: Copy>(&mut self, len: usize, init: T) -> GpuBuffer<T> {
        self.upload(vec![init; len])
    }

    /// Allocates a buffer holding `data` in this device's address space
    /// (see [`Gpu::alloc`]).
    pub fn upload<T: Copy>(&mut self, data: Vec<T>) -> GpuBuffer<T> {
        GpuBuffer::place(data, &mut self.next_base)
    }

    /// The instrumentation switches subsequent launches run under.
    pub fn instruments(&self) -> Instruments {
        self.instruments
    }

    /// Changes the instrumentation switches for subsequent launches.
    pub fn instruments_mut(&mut self) -> &mut Instruments {
        &mut self.instruments
    }

    /// Host workers a launch or a native stage may fan out over: the
    /// [`Instruments::host_threads`] cap, clamped to the host's cores
    /// (oversubscribing a smaller host only adds spawn and
    /// context-switch overhead for zero parallelism) and to at least 1.
    pub fn host_workers(&self) -> usize {
        self.instruments.host_threads.clamp(1, self.host_cores)
    }

    /// Warning-severity diagnostics accumulated across checked launches
    /// (errors panic instead).
    pub fn check_warnings(&self) -> u64 {
        self.check_warnings
    }

    /// Number of launches that ran under the checker.
    pub fn checked_launches(&self) -> u64 {
        self.checked_launches
    }

    /// The profiles accumulated by launches that ran with profiling on
    /// (empty otherwise). Bit-identical for any `DYNBC_HOST_THREADS`
    /// value: per-block counters reduce in block-index order.
    pub fn profile_report(&self) -> &ProfileReport {
        &self.profile
    }

    /// Drains the accumulated profiles, leaving an empty report behind
    /// (harnesses profile one phase, take the report, and continue).
    pub fn take_profile_report(&mut self) -> ProfileReport {
        std::mem::take(&mut self.profile)
    }

    /// Launch spans accumulated since the last drain (empty unless
    /// [`Instruments::telemetry`] is on).
    pub fn launch_spans(&self) -> &[LaunchSpan] {
        &self.launch_spans
    }

    /// Drains the accumulated launch spans (engines drain once per
    /// pipeline stage to nest them under the stage's span).
    pub fn take_launch_spans(&mut self) -> Vec<LaunchSpan> {
        std::mem::take(&mut self.launch_spans)
    }

    /// The device configuration.
    pub fn device(&self) -> &DeviceConfig {
        &self.dev
    }

    /// Launches a kernel over `num_blocks` blocks; `f(block, block_id)` is
    /// the kernel body. Returns the launch's cost report and advances the
    /// simulated clock.
    ///
    /// Blocks run concurrently on up to [`Gpu::host_workers`] host
    /// threads; the closure therefore gets `&self`-style shared access
    /// (`Fn + Sync`) and all cross-block buffer traffic must follow the
    /// [`crate::mem`] sharing contract. Per-block results are reduced in
    /// block-index order, so the report is bit-identical for any thread
    /// count.
    pub fn launch<F>(&mut self, num_blocks: usize, f: F) -> LaunchReport
    where
        F: Fn(&mut BlockCtx, usize) + Sync,
    {
        self.launch_named("kernel", num_blocks, f)
    }

    /// [`Gpu::launch`] with a kernel name threaded into diagnostics. In
    /// checked mode ([`Instruments::racecheck`]) the
    /// launch runs under the racecheck analysis and **panics with the full
    /// report** on any error-severity diagnostic; warnings accumulate in
    /// [`Gpu::check_warnings`]. Unchecked, the name is free.
    pub fn launch_named<F>(&mut self, name: &str, num_blocks: usize, f: F) -> LaunchReport
    where
        F: Fn(&mut BlockCtx, usize) + Sync,
    {
        if self.instruments.racecheck {
            let (report, check) = self.launch_checked(name, num_blocks, f);
            self.check_warnings += check.warnings().count() as u64;
            assert!(!check.has_errors(), "DYNBC_RACECHECK failed:\n{check}");
            report
        } else {
            self.run_launch(name, num_blocks, false, &f).0
        }
    }

    /// Runs the kernel in checked mode unconditionally and returns the
    /// analysis alongside the launch report (never panics on findings —
    /// the caller owns the verdict; fixtures assert on the report).
    /// Simulated seconds, stats and buffer contents are identical to an
    /// unchecked launch of the same kernel.
    pub fn launch_checked<F>(
        &mut self,
        name: &str,
        num_blocks: usize,
        f: F,
    ) -> (LaunchReport, CheckReport)
    where
        F: Fn(&mut BlockCtx, usize) + Sync,
    {
        let (report, recorders) = self.run_launch(name, num_blocks, true, &f);
        let check = checker::analyze(name, &self.dev, &recorders);
        self.checked_launches += 1;
        (report, check)
    }

    /// Shared launch body; `record` selects checked execution, the
    /// instruments select counter collection and the memsim cache model
    /// (which implies profiling — memsim counters ride in the launch
    /// profile). Shadow logs, counter buckets and cache streams come back
    /// in block-index order, matching the reduction order.
    fn run_launch<F>(
        &mut self,
        name: &str,
        num_blocks: usize,
        record: bool,
        f: &F,
    ) -> (LaunchReport, Vec<Recorder>)
    where
        F: Fn(&mut BlockCtx, usize) + Sync,
    {
        let Instruments {
            profiling,
            memsim: cached,
            telemetry: span_log,
            cache: cfg,
            ..
        } = self.instruments;
        let profiled = profiling || cached;
        let cache_cfg = cached.then_some(cfg);
        // Grids under `PARALLEL_MIN_BLOCKS` run inline on one worker: the
        // sequential path that documents the reduction order.
        let workers = if num_blocks < PARALLEL_MIN_BLOCKS {
            1
        } else {
            self.host_workers().min(num_blocks)
        };
        // Wall timing only when something records it (profiling or the
        // telemetry span log): the disabled path stays branch-predictable
        // with no clock syscalls.
        // dynbc-lint: allow(no-wall-clock) — wall_s feeds the profile/span sinks only; simulated seconds come from the cost model
        let wall_t = (profiled || span_log).then(std::time::Instant::now);
        let run = BlockRun {
            dev: self.dev,
            record,
            profiled,
            cache: cache_cfg,
        };
        let per_block: Vec<BlockOut> = fan_out(num_blocks, self.seg_tables(workers), |segs, b| {
            run.block(f, b, segs)
        });

        let mut block_cycles = Vec::with_capacity(num_blocks);
        let mut stats = KernelStats::default();
        let mut recorders = Vec::new();
        let mut block_buckets: Vec<BlockBuckets> = Vec::new();
        for (cycles, block_stats, recorder, buckets) in per_block {
            block_cycles.push(cycles);
            stats.add(&block_stats);
            if let Some(r) = recorder {
                recorders.push(*r);
            }
            if let Some(bk) = buckets {
                block_buckets.push(bk);
            }
        }
        let (placement, makespan_cycles) = schedule(&block_cycles, self.dev.num_sms);
        let seconds = self.dev.cycles_to_seconds(makespan_cycles) + self.dev.launch_overhead_s;
        let wall_s = wall_t.map_or(0.0, |t| t.elapsed().as_secs_f64());
        if span_log {
            self.launch_spans.push(LaunchSpan {
                kernel: name.to_string(),
                index: self.launches,
                num_blocks,
                start_s: self.elapsed_s,
                dur_s: seconds,
                wall_s,
            });
        }
        if profiled {
            // Memsim's shared-L2 replay runs inside the reduction:
            // single-threaded, against the device's persistent L2. A
            // geometry change since the last memsim launch starts a cold
            // L2 of the new shape.
            let l2 = match &mut self.l2 {
                _ if !cached => None,
                Some(l2) if l2.cfg == cfg => Some(&mut **l2),
                slot => Some(&mut **slot.insert(Box::new(L2Cache::new(&cfg)))),
            };
            // Per-block buckets arrive (and merge, and replay their L1
            // misses) in block-index order — the same contract that makes
            // `bc_delta` reduction exact — so this profile is
            // bit-identical for any host-thread count.
            let (stages, total) = profile::reduce_blocks(block_buckets, l2);
            // The scheduler's placement, on the timeline from the moment
            // the grid starts executing.
            let grid_start_s = self.elapsed_s + self.dev.launch_overhead_s;
            let blocks = placement
                .iter()
                .zip(&block_cycles)
                .enumerate()
                .map(|(b, (&(sm, start), &c))| BlockSpan {
                    block: b as u32,
                    sm,
                    start_s: grid_start_s + self.dev.cycles_to_seconds(start),
                    dur_s: self.dev.cycles_to_seconds(c),
                })
                .collect();
            self.profile.launches.push(LaunchProfile {
                kernel: name.to_string(),
                index: self.launches,
                num_blocks,
                start_s: self.elapsed_s,
                seconds,
                stages,
                total,
                blocks,
                wall_s,
            });
        }
        self.elapsed_s += seconds;
        self.total_stats.add(&stats);
        self.launches += 1;
        (
            LaunchReport {
                seconds,
                makespan_cycles,
                block_cycles,
                stats,
            },
            recorders,
        )
    }

    /// The segment tables of the first `workers` host workers, each
    /// covering every address allocated so far. A table missing or lost
    /// to a panicking kernel is rebuilt here.
    fn seg_tables(&mut self, workers: usize) -> &mut [SegTable] {
        if self.seg_tables.len() < workers {
            self.seg_tables.resize_with(workers, SegTable::default);
        }
        let tables = &mut self.seg_tables[..workers];
        for segs in tables.iter_mut() {
            segs.cover(self.next_base);
        }
        tables
    }

    /// Simulated seconds elapsed across all launches since the last reset.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_s
    }

    /// Resets the clock (not the cumulative stats).
    pub fn reset_clock(&mut self) {
        self.elapsed_s = 0.0;
    }

    /// Work counters across all launches.
    pub fn total_stats(&self) -> &KernelStats {
        &self.total_stats
    }

    /// Number of kernel launches performed.
    pub fn launches(&self) -> u64 {
        self.launches
    }
}

/// What every block of one launch runs under.
#[derive(Clone, Copy)]
struct BlockRun {
    dev: DeviceConfig,
    record: bool,
    profiled: bool,
    cache: Option<CacheConfig>,
}

impl BlockRun {
    /// Runs block `b` of kernel `f` on a worker's segment table, which the
    /// block borrows for its warps and hands back for the worker's next
    /// block. A kernel that panics takes the table with it.
    fn block<F: Fn(&mut BlockCtx, usize)>(self, f: &F, b: usize, segs: &mut SegTable) -> BlockOut {
        let table = std::mem::take(segs);
        let mut ctx = BlockCtx::new(self.dev, b, self.record, self.profiled, self.cache, table);
        f(&mut ctx, b);
        let (out, table) = ctx.finish_full();
        *segs = table;
        out
    }
}

/// Runs `task(worker, i)` for every task `i` in `0..tasks`, one host
/// worker per element of `workers` (its private state: a segment table
/// for a launch, nothing for a native stage), and returns the results in
/// task order.
///
/// One worker runs every task inline, in order, on the calling thread.
/// Otherwise the caller is worker 0 and only `workers.len() - 1` scoped
/// threads are spawned, so the minimum useful fan-out (2 workers) pays
/// for a single spawn instead of two spawns plus an idle caller. Workers
/// claim chunks of task ids from a shared atomic counter (self-scheduling,
/// so stragglers rebalance) and the results are reassembled in task
/// order: whichever worker ran a task, the caller sees the same vector.
/// A panicking task panics the call, once every worker has stopped.
pub fn fan_out<S, R, F>(tasks: usize, workers: &mut [S], task: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let (own, others) = workers.split_first_mut().expect("at least one worker");
    if others.is_empty() {
        return (0..tasks).map(|i| task(own, i)).collect();
    }
    // Chunked claims amortize counter traffic; sizing for ~4 claims per
    // worker keeps long-tailed tasks balanced without turning the counter
    // into a hotspot on huge grids.
    let chunk = (tasks / ((others.len() + 1) * 4)).max(1);
    let next = AtomicUsize::new(0);
    let worker = |state: &mut S| {
        let mut out: Vec<(usize, R)> = Vec::new();
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= tasks {
                break;
            }
            for i in start..(start + chunk).min(tasks) {
                out.push((i, task(state, i)));
            }
        }
        out
    };
    let worker = &worker;
    let mut slots: Vec<Option<R>> = Vec::with_capacity(tasks);
    slots.resize_with(tasks, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = others
            .iter_mut()
            .map(|state| scope.spawn(move || worker(state)))
            .collect();
        // The caller works too; if its share panics, leaving the scope
        // joins the spawned workers before the panic propagates.
        for (i, result) in worker(own) {
            slots[i] = Some(result);
        }
        for handle in handles {
            match handle.join() {
                Ok(results) => {
                    for (i, result) in results {
                        slots[i] = Some(result);
                    }
                }
                // As on one worker: a panicking task (e.g. a kernel's
                // queue-overflow assert) panics the call.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every task claimed exactly once"))
        .collect()
}

/// Greedy list scheduling: each block (in issue order) is placed on the SM
/// with the least accumulated work, the first such SM on a tie — the
/// behaviour of the hardware block dispatcher under the memory-bound
/// assumption that co-resident blocks time-share an SM's bandwidth rather
/// than multiply it. Returns each block's `(sm, start)` placement in
/// device cycles (block-id order) and the makespan.
fn schedule(block_cycles: &[f64], num_sms: usize) -> (Vec<(u32, f64)>, f64) {
    let mut sm_load = vec![0.0f64; num_sms.max(1)];
    let placement = block_cycles
        .iter()
        .map(|&c| {
            let (sm, load) = sm_load
                .iter_mut()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN loads"))
                .expect("at least one SM");
            let start = *load;
            *load += c;
            (sm as u32, start)
        })
        .collect();
    (placement, sm_load.iter().copied().fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_tiny())
    }

    fn gpu_on(threads: usize) -> Gpu {
        let mut g = gpu();
        g.instruments_mut().host_threads = threads;
        g
    }

    #[test]
    fn launch_runs_every_block() {
        let mut g = gpu();
        let buf = g.alloc::<u32>(4, 0);
        let r = g.launch(4, |block, b| {
            block.parallel_for(1, |lane, _| {
                lane.atomic_add_u32(&buf, b % 4, 1);
            });
        });
        assert_eq!(buf.to_vec(), [1, 1, 1, 1]);
        assert_eq!(r.block_cycles.len(), 4);
        assert_eq!(g.launches(), 1);
    }

    #[test]
    fn schedule_places_each_block_on_the_first_least_loaded_sm() {
        // 4 equal blocks on 2 SMs: makespan = 2 blocks' cycles.
        let cycles = vec![10.0, 10.0, 10.0, 10.0];
        assert_eq!(schedule(&cycles, 2).1, 20.0);
        // 2 blocks on 2 SMs: one each.
        assert_eq!(schedule(&cycles[..2], 2).1, 10.0);
        // Greedy handles imbalance: big block first, the rest pack.
        assert_eq!(schedule(&[30.0, 10.0, 10.0, 10.0], 2).1, 30.0);
        // Block 2 lands on the first SM to free up — both free at 10.0,
        // the scheduler takes the first — and starts when it frees.
        let (placement, makespan) = schedule(&[10.0, 10.0, 5.0], 2);
        assert_eq!(placement, [(0, 0.0), (1, 0.0), (0, 10.0)]);
        assert_eq!(makespan, 15.0);
    }

    #[test]
    fn more_blocks_than_sms_do_not_speed_up_fixed_work() {
        // Fixed total work split into B equal blocks, B varied.
        let dev = DeviceConfig::test_tiny(); // 2 SMs
        let total = 120.0;
        let time = |b: usize| {
            let per = total / b as f64;
            schedule(&vec![per; b], dev.num_sms).1
        };
        assert!(time(2) < time(1), "2 blocks beat 1");
        // Beyond num_sms, no further gain (equal split keeps makespan flat).
        assert!((time(4) - time(2)).abs() < 1e-9);
        assert!((time(8) - time(2)).abs() < 1e-9);
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let mut g = gpu();
        let buf = g.alloc::<u32>(8, 0);
        g.launch(1, |block, _| {
            block.parallel_for(8, |lane, i| {
                lane.read(&buf, i);
            });
        });
        let t1 = g.elapsed_seconds();
        assert!(t1 > 0.0);
        g.launch(1, |block, _| {
            block.parallel_for(8, |lane, i| {
                lane.read(&buf, i);
            });
        });
        assert!(g.elapsed_seconds() > t1);
        g.reset_clock();
        assert_eq!(g.elapsed_seconds(), 0.0);
        assert!(g.total_stats().lane_events >= 16, "stats survive reset");
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let mut g = gpu();
        let r = g.launch(0, |_, _| {});
        assert_eq!(r.makespan_cycles, 0.0);
        assert!((r.seconds - g.device().launch_overhead_s).abs() < 1e-15);
    }

    #[test]
    fn deterministic_replay() {
        // Replays must agree run-to-run AND across host thread counts:
        // the reduction happens in block-index order regardless of which
        // host thread executed a block.
        let run = |threads: usize| {
            let mut g = gpu_on(threads);
            let buf = g.alloc::<f64>(64, 0.0);
            let r = g.launch(3, |block, b| {
                block.parallel_for(64, |lane, i| {
                    lane.atomic_add_f64(&buf, (i * (b + 1)) % 64, 0.5);
                });
                block.barrier();
            });
            (r.makespan_cycles, buf.to_vec())
        };
        let (c1, v1) = run(1);
        let (c2, v2) = run(1);
        assert_eq!(c1, c2);
        assert_eq!(v1, v2);
        for threads in [2, 8] {
            let (ct, vt) = run(threads);
            assert_eq!(c1.to_bits(), ct.to_bits(), "{threads} threads: cycles");
            // 0.5-unit adds are exact in binary, so even the contended f64
            // cells must come out bit-identical.
            let b1: Vec<u64> = v1.iter().map(|x| x.to_bits()).collect();
            let bt: Vec<u64> = vt.iter().map(|x| x.to_bits()).collect();
            assert_eq!(b1, bt, "{threads} threads: buffer contents");
        }
    }

    #[test]
    fn parallel_launch_is_bit_identical_across_thread_counts() {
        // A mixed kernel exercising every access type: per-block rows via
        // plain writes, contended u32 atomics (one op kind per buffer —
        // add and max each commute with themselves, but not with each
        // other), barriers, and uneven per-block work (so self-scheduling
        // actually interleaves).
        let run = |threads: usize| {
            let mut g = gpu_on(threads);
            let rows = g.alloc::<u32>(16 * 64, 0);
            let counts = g.alloc::<u32>(32, 0);
            let maxes = g.alloc::<u32>(32, 0);
            let hist = g.alloc::<u32>(16, 0);
            let mut reports = Vec::new();
            for round in 0..3usize {
                let r = g.launch(16, |block, b| {
                    let work = 8 + (b * 7 + round) % 29;
                    block.parallel_for(work, |lane, i| {
                        lane.write(&rows, b * 64 + i % 64, (b * 1000 + i) as u32);
                        lane.atomic_add_u32(&counts, (b + i) % 32, 1);
                        lane.atomic_max_u32(&maxes, i % 32, (b * i) as u32);
                    });
                    block.barrier();
                    block.parallel_for(4, |lane, i| {
                        let v = lane.read(&rows, b * 64 + i);
                        lane.atomic_add_u32(&hist, (v as usize) % 16, 1);
                    });
                });
                reports.push((r.seconds.to_bits(), r.makespan_cycles.to_bits(), r.stats));
            }
            (
                reports,
                g.elapsed_seconds().to_bits(),
                *g.total_stats(),
                rows.to_vec(),
                counts.to_vec(),
                maxes.to_vec(),
                hist.to_vec(),
            )
        };
        let baseline = run(1);
        for threads in [2, 8] {
            let got = run(threads);
            assert_eq!(baseline.0, got.0, "{threads} threads: per-launch reports");
            assert_eq!(baseline.1, got.1, "{threads} threads: elapsed seconds");
            assert_eq!(baseline.2, got.2, "{threads} threads: total stats");
            assert_eq!(baseline.3, got.3, "{threads} threads: row buffer");
            assert_eq!(baseline.4, got.4, "{threads} threads: add-contended buffer");
            assert_eq!(baseline.5, got.5, "{threads} threads: max-contended buffer");
            assert_eq!(baseline.6, got.6, "{threads} threads: histogram");
        }
    }

    #[test]
    fn forced_worker_fanout_matches_sequential_launch() {
        // `launch` clamps its worker count to the host's cores, so on a
        // small CI machine the tests above may never leave the inline
        // path. Drive the fan-out directly to keep it covered everywhere.
        // Each of the 4 workers runs several blocks on one segment table,
        // and the blocks read overlapping segments of `shared`, so a table
        // left dirty by an earlier block would drop some of them.
        const BLOCKS: usize = 16;
        fn kernel<'a>(
            buf: &'a GpuBuffer<u32>,
            hist: &'a GpuBuffer<u32>,
            shared: &'a GpuBuffer<u32>,
            first: usize,
        ) -> impl Fn(&mut BlockCtx, usize) + Sync + 'a {
            move |block, b| {
                let b = first + b;
                let work = 5 + (b * 3) % 11;
                block.parallel_for(work, |lane, i| {
                    lane.write(buf, b * 32 + i, (b * 100 + i) as u32);
                    lane.read(shared, (b * 5 + i * 9) % shared.len());
                    lane.atomic_add_u32(hist, i % 8, 1);
                });
            }
        }
        let buffers = |g: &mut Gpu| {
            (
                g.alloc::<u32>(BLOCKS * 32, 0),
                g.alloc::<u32>(8, 0),
                g.alloc::<u32>(96, 0),
            )
        };
        let mut seq_gpu = gpu_on(1);
        let (seq_buf, seq_hist, seq_shared) = buffers(&mut seq_gpu);
        let seq = seq_gpu.launch(BLOCKS, kernel(&seq_buf, &seq_hist, &seq_shared, 0));

        let mut par_gpu = gpu();
        let (par_buf, par_hist, par_shared) = buffers(&mut par_gpu);
        let f = kernel(&par_buf, &par_hist, &par_shared, 0);
        let run = BlockRun {
            dev: par_gpu.dev,
            record: false,
            profiled: false,
            cache: None,
        };
        let per_block = fan_out(BLOCKS, par_gpu.seg_tables(4), |segs, b| {
            run.block(&f, b, segs)
        });
        let cycles: Vec<f64> = per_block.iter().map(|(c, _, _, _)| *c).collect();
        let stats: Vec<KernelStats> = per_block.iter().map(|(_, s, _, _)| *s).collect();
        assert_eq!(seq.block_cycles, cycles, "per-block cycles");
        assert_eq!(seq_buf.to_vec(), par_buf.to_vec(), "row buffer");
        assert_eq!(seq_hist.to_vec(), par_hist.to_vec(), "histogram");

        // Each block alone on a fresh device: its stats owe nothing to
        // the blocks a table served before it.
        for (b, got) in stats.iter().enumerate() {
            let mut solo_gpu = gpu_on(1);
            let (buf, hist, shared) = buffers(&mut solo_gpu);
            let solo = solo_gpu.launch(1, kernel(&buf, &hist, &shared, b));
            assert_eq!(solo.stats, *got, "block {b} stats");
        }
    }

    #[test]
    fn worker_count_is_clamped_to_one_and_the_host_cores() {
        assert_eq!(gpu_on(0).host_workers(), 1);
        assert_eq!(gpu_on(1).host_workers(), 1);
        assert_eq!(gpu_on(usize::MAX).host_workers(), host_cores());
    }

    #[test]
    fn more_threads_than_blocks_is_fine() {
        let mut g = gpu_on(64);
        let buf = g.alloc::<u32>(3, 0);
        let r = g.launch(3, |block, b| {
            block.parallel_for(1, |lane, _| {
                lane.write(&buf, b, b as u32 + 1);
            });
        });
        assert_eq!(buf.to_vec(), [1, 2, 3]);
        assert_eq!(r.block_cycles.len(), 3);
    }

    #[test]
    fn kernel_panic_propagates_from_worker_threads() {
        let result = std::panic::catch_unwind(|| {
            let mut g = gpu_on(4);
            g.launch(8, |_, b| {
                if b == 5 {
                    panic!("kernel assert fired in block {b}");
                }
            });
        });
        assert!(result.is_err(), "worker panic must fail the launch");
    }
}
