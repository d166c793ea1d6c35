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

use crate::block::BlockCtx;
use crate::cache::{self, BlockCacheOut, CacheConfig, L2Cache};
use crate::checker::{self, CheckReport, Recorder};
use crate::device::DeviceConfig;
use crate::mem::{GpuBuffer, FIRST_BASE};
use crate::profile::{self, BlockBuckets};
use crate::stats::KernelStats;
use dynbc_prof::{LaunchProfile, ProfileReport};
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
/// [`Gpu::set_span_log`] is on (far cheaper than full profiling) and
/// drained by the engines into their lifecycle traces.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSpan {
    /// Kernel name as passed to `launch_named`/`launch_profiled`.
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
type BlockOut = (
    f64,
    KernelStats,
    Option<Box<Recorder>>,
    Option<BlockBuckets>,
    Option<BlockCacheOut>,
);

pub use crate::knob::HOST_THREADS_ENV;

/// Grids smaller than this run inline on the calling thread even when more
/// host threads are available: below it the work cannot amortize even one
/// thread spawn, so fanning out only adds wall time. Results are identical
/// either way (the reduction order is block-index order regardless).
pub const PARALLEL_MIN_BLOCKS: usize = 8;

pub use crate::knob::RACECHECK_ENV;

/// Resolves the checked-execution default from [`RACECHECK_ENV`] (what
/// [`Gpu::new`] uses; public so harnesses can report the setting).
pub fn racecheck_from_env() -> bool {
    crate::knob::flag_from_env(RACECHECK_ENV)
}

pub use crate::knob::PROFILE_ENV;

/// Resolves the profiling default from [`PROFILE_ENV`] (what [`Gpu::new`]
/// uses; public so harnesses can report the setting).
pub fn profile_from_env() -> bool {
    crate::knob::flag_from_env(PROFILE_ENV)
}

pub use crate::knob::TELEMETRY_ENV;

/// Resolves the telemetry default from [`TELEMETRY_ENV`] (what [`Gpu::new`]
/// and the engines use; public so harnesses can report the setting).
pub fn telemetry_from_env() -> bool {
    crate::knob::flag_from_env(TELEMETRY_ENV)
}

pub use crate::knob::MEMSIM_ENV;

/// Resolves the memsim default from [`MEMSIM_ENV`] (what [`Gpu::new`]
/// uses; public so harnesses can report the setting).
pub fn memsim_from_env() -> bool {
    crate::knob::flag_from_env(MEMSIM_ENV)
}

/// Resolves the effective host-thread count from [`HOST_THREADS_ENV`]
/// (what [`Gpu::new`] uses; public so harnesses can report the setting).
pub fn host_threads_from_env() -> usize {
    let requested = crate::knob::parse_from_env(HOST_THREADS_ENV, 0usize);
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// A simulated GPU with an accumulating clock.
#[derive(Debug)]
pub struct Gpu {
    dev: DeviceConfig,
    elapsed_s: f64,
    total_stats: KernelStats,
    launches: u64,
    host_threads: usize,
    host_cores: usize,
    racecheck: bool,
    check_warnings: u64,
    checked_launches: u64,
    profiling: bool,
    profile: ProfileReport,
    span_log: bool,
    launch_spans: Vec<LaunchSpan>,
    memsim: bool,
    cache_cfg: CacheConfig,
    /// The device's shared L2 tag array: created on the first memsim
    /// launch, persists across launches (cross-launch locality is the
    /// point), only ever probed single-threaded during launch reduction.
    l2: Option<Box<L2Cache>>,
    /// Next free synthetic address of this device's address space.
    next_base: u64,
}

impl Gpu {
    /// Creates a device with the clock at zero. The host-thread count is
    /// read from [`HOST_THREADS_ENV`] (default: available cores) and the
    /// checked-execution default from [`RACECHECK_ENV`].
    pub fn new(dev: DeviceConfig) -> Self {
        Self {
            dev,
            elapsed_s: 0.0,
            total_stats: KernelStats::default(),
            launches: 0,
            host_threads: host_threads_from_env(),
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            racecheck: racecheck_from_env(),
            check_warnings: 0,
            checked_launches: 0,
            profiling: profile_from_env(),
            profile: ProfileReport::new(),
            span_log: telemetry_from_env(),
            launch_spans: Vec::new(),
            memsim: memsim_from_env(),
            cache_cfg: CacheConfig::from_env(),
            l2: None,
            next_base: FIRST_BASE,
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

    /// Builder-style override of checked execution (see
    /// [`Gpu::set_racecheck`]). Prefer this over mutating the environment
    /// in tests: process-global env writes race between test threads.
    pub fn with_racecheck(mut self, on: bool) -> Self {
        self.set_racecheck(on);
        self
    }

    /// Enables/disables checked execution for subsequent launches. When
    /// on, every [`Gpu::launch`]/[`Gpu::launch_named`] records shadow
    /// state, panics with the full [`CheckReport`] if any error-severity
    /// diagnostic fires, and accumulates warnings into
    /// [`Gpu::check_warnings`]. Results (simulated seconds, stats, buffer
    /// contents) are unaffected; only host wall-clock pays.
    pub fn set_racecheck(&mut self, on: bool) {
        self.racecheck = on;
    }

    /// True when launches run in checked mode.
    pub fn racecheck(&self) -> bool {
        self.racecheck
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

    /// Builder-style override of profiled execution (see
    /// [`Gpu::set_profiling`]). Prefer this over mutating the environment
    /// in tests: process-global env writes race between test threads.
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.set_profiling(on);
        self
    }

    /// Enables/disables profiled execution for subsequent launches. When
    /// on, every launch collects a [`LaunchProfile`] (per-stage hardware
    /// counters plus the block timeline) into [`Gpu::profile_report`].
    /// Results (simulated seconds, stats, buffer contents) are unaffected;
    /// only host wall-clock pays. When off, the collection hooks are
    /// no-ops: one predictable branch per access, no allocation.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// True when launches run under the profiler.
    pub fn profiling(&self) -> bool {
        self.profiling
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

    /// Builder-style override of the memsim cache model (see
    /// [`Gpu::set_memsim`]). Prefer this over mutating the environment
    /// in tests: process-global env writes race between test threads.
    pub fn with_memsim(mut self, on: bool) -> Self {
        self.set_memsim(on);
        self
    }

    /// Enables/disables the cache-hierarchy model for subsequent launches.
    /// When on, every launch is profiled (memsim counters ride in the
    /// [`LaunchProfile`]) and additionally runs the L1/L2 tag-array model:
    /// per-block L1s during execution, one shared per-device L2 replayed
    /// in block-index order at reduction. Results (simulated seconds,
    /// stats, buffer contents) are unaffected — the model is
    /// observability-only and never feeds the cost clock. When off, the
    /// hook is one predictable branch per memory transaction.
    pub fn set_memsim(&mut self, on: bool) {
        self.memsim = on;
    }

    /// True when launches run under the cache-hierarchy model.
    pub fn memsim(&self) -> bool {
        self.memsim
    }

    /// Builder-style override of the modeled cache geometry (see
    /// [`Gpu::set_cache_config`]).
    pub fn with_cache_config(mut self, cfg: CacheConfig) -> Self {
        self.set_cache_config(cfg);
        self
    }

    /// Replaces the modeled cache geometry (default: the `DYNBC_L1_*`/
    /// `DYNBC_L2_*` knobs) and discards the device's accumulated L2 state.
    /// Prefer this over mutating the environment in tests: process-global
    /// env writes race between test threads.
    pub fn set_cache_config(&mut self, cfg: CacheConfig) {
        self.cache_cfg = cfg;
        self.l2 = None;
    }

    /// The modeled cache geometry.
    pub fn cache_config(&self) -> CacheConfig {
        self.cache_cfg
    }

    /// Builder-style override of the launch span log (see
    /// [`Gpu::set_span_log`]). Prefer this over mutating the environment
    /// in tests: process-global env writes race between test threads.
    pub fn with_span_log(mut self, on: bool) -> Self {
        self.set_span_log(on);
        self
    }

    /// Enables/disables the telemetry span log for subsequent launches.
    /// When on, every launch appends a [`LaunchSpan`] (timeline placement
    /// plus wall time — no counters, far cheaper than full profiling) for
    /// the engines to drain into their lifecycle traces. Results are
    /// unaffected; when off the hook is one predictable branch, no
    /// allocation.
    pub fn set_span_log(&mut self, on: bool) {
        self.span_log = on;
    }

    /// True when launches append to the span log.
    pub fn span_log(&self) -> bool {
        self.span_log
    }

    /// Launch spans accumulated since the last drain (empty unless
    /// [`Gpu::set_span_log`] is on).
    pub fn launch_spans(&self) -> &[LaunchSpan] {
        &self.launch_spans
    }

    /// Drains the accumulated launch spans (engines drain once per
    /// pipeline stage to nest them under the stage's span).
    pub fn take_launch_spans(&mut self) -> Vec<LaunchSpan> {
        std::mem::take(&mut self.launch_spans)
    }

    /// Builder-style override of the host-thread count (clamped to ≥ 1).
    /// Prefer this over mutating the environment in tests: process-global
    /// env writes race between test threads.
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.set_host_threads(threads);
        self
    }

    /// Sets the host-thread count for subsequent launches (clamped to ≥ 1).
    ///
    /// The count is a *cap*, not a demand: a launch never runs more
    /// workers than the machine has cores (oversubscribing a smaller host
    /// only adds spawn and context-switch overhead for zero parallelism)
    /// nor more than it has blocks, and grids under
    /// [`PARALLEL_MIN_BLOCKS`] run inline on the calling thread. Results
    /// are bit-identical for every setting either way.
    pub fn set_host_threads(&mut self, threads: usize) {
        self.host_threads = threads.max(1);
    }

    /// Host-thread cap for launches (see [`Gpu::set_host_threads`]).
    /// Never affects results, only wall-clock.
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// The device configuration.
    pub fn device(&self) -> &DeviceConfig {
        &self.dev
    }

    /// Launches a kernel over `num_blocks` blocks; `f(block, block_id)` is
    /// the kernel body. Returns the launch's cost report and advances the
    /// simulated clock.
    ///
    /// Blocks run concurrently on up to [`Gpu::host_threads`] host
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
    /// checked mode (`DYNBC_RACECHECK=1` or [`Gpu::set_racecheck`]) the
    /// launch runs under the racecheck analysis and **panics with the full
    /// report** on any error-severity diagnostic; warnings accumulate in
    /// [`Gpu::check_warnings`]. Unchecked, the name is free.
    pub fn launch_named<F>(&mut self, name: &str, num_blocks: usize, f: F) -> LaunchReport
    where
        F: Fn(&mut BlockCtx, usize) + Sync,
    {
        if self.racecheck {
            let (report, check) = self.launch_checked(name, num_blocks, f);
            self.check_warnings += check.warnings().count() as u64;
            assert!(!check.has_errors(), "DYNBC_RACECHECK failed:\n{check}");
            report
        } else {
            self.run_launch(name, num_blocks, false, self.profiling, self.memsim, &f)
                .0
        }
    }

    /// Runs the kernel with profiling unconditionally on and returns the
    /// launch's [`LaunchProfile`] alongside the cost report. The profile
    /// is *also* appended to [`Gpu::profile_report`]. Simulated seconds,
    /// stats and buffer contents are identical to an unprofiled launch;
    /// counters are bit-identical for any `DYNBC_HOST_THREADS` value.
    pub fn launch_profiled<F>(
        &mut self,
        name: &str,
        num_blocks: usize,
        f: F,
    ) -> (LaunchReport, LaunchProfile)
    where
        F: Fn(&mut BlockCtx, usize) + Sync,
    {
        let (report, _) = self.run_launch(name, num_blocks, false, true, self.memsim, &f);
        let prof = self
            .profile
            .launches
            .last()
            .cloned()
            .expect("profiled launch records a profile");
        (report, prof)
    }

    /// Runs the kernel with the cache-hierarchy model (and therefore
    /// profiling) unconditionally on and returns the launch's
    /// [`LaunchProfile`] — its `total.cache` and per-stage `buffer_misses`
    /// carry the memsim data — alongside the cost report. The profile is
    /// *also* appended to [`Gpu::profile_report`]. Simulated seconds,
    /// stats and buffer contents are identical to an unmodeled launch;
    /// counters are bit-identical for any `DYNBC_HOST_THREADS` value.
    pub fn launch_memsim<F>(
        &mut self,
        name: &str,
        num_blocks: usize,
        f: F,
    ) -> (LaunchReport, LaunchProfile)
    where
        F: Fn(&mut BlockCtx, usize) + Sync,
    {
        let (report, _) = self.run_launch(name, num_blocks, false, true, true, &f);
        let prof = self
            .profile
            .launches
            .last()
            .cloned()
            .expect("memsim launch records a profile");
        (report, prof)
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
        let (report, recorders) =
            self.run_launch(name, num_blocks, true, self.profiling, self.memsim, &f);
        let check = checker::analyze(name, &self.dev, &recorders);
        self.checked_launches += 1;
        (report, check)
    }

    /// Shared launch body; `record` selects checked execution, `profiled`
    /// counter collection, `cached` the memsim cache model (which implies
    /// `profiled` — memsim counters ride in the launch profile). Shadow
    /// logs, counter buckets and cache streams come back in block-index
    /// order, matching the reduction order.
    fn run_launch<F>(
        &mut self,
        name: &str,
        num_blocks: usize,
        record: bool,
        profiled: bool,
        cached: bool,
        f: &F,
    ) -> (LaunchReport, Vec<Recorder>)
    where
        F: Fn(&mut BlockCtx, usize) + Sync,
    {
        let profiled = profiled || cached;
        let cache_cfg = cached.then_some(self.cache_cfg);
        let threads = self
            .host_threads
            .min(self.host_cores)
            .min(num_blocks.max(1));
        // Wall timing only when something records it (profiling or the
        // telemetry span log): the disabled path stays branch-predictable
        // with no clock syscalls.
        // dynbc-lint: allow(no-wall-clock) — wall_s feeds the profile/span sinks only; simulated seconds come from the cost model
        let wall_t = (profiled || self.span_log).then(std::time::Instant::now);
        let per_block: Vec<BlockOut> = if threads <= 1 || num_blocks < PARALLEL_MIN_BLOCKS {
            // Legacy sequential path: also the fallback that documents the
            // reduction order the parallel path must reproduce.
            (0..num_blocks)
                .map(|b| {
                    let mut ctx = BlockCtx::new(self.dev, b, record, profiled, cache_cfg);
                    f(&mut ctx, b);
                    ctx.finish_full()
                })
                .collect()
        } else {
            self.run_blocks_parallel(num_blocks, threads, record, profiled, cache_cfg, f)
        };

        let mut block_cycles = Vec::with_capacity(num_blocks);
        let mut stats = KernelStats::default();
        let mut recorders = Vec::new();
        let mut block_buckets: Vec<BlockBuckets> = Vec::new();
        let mut block_caches: Vec<BlockCacheOut> = Vec::new();
        for (cycles, block_stats, recorder, buckets, cache_out) in per_block {
            block_cycles.push(cycles);
            stats.add(&block_stats);
            if let Some(r) = recorder {
                recorders.push(*r);
            }
            if let Some(bk) = buckets {
                block_buckets.push(bk);
            }
            if let Some(c) = cache_out {
                block_caches.push(c);
            }
        }
        let makespan_cycles = schedule_makespan(&block_cycles, self.dev.num_sms);
        let seconds = self.dev.cycles_to_seconds(makespan_cycles) + self.dev.launch_overhead_s;
        let wall_s = wall_t.map_or(0.0, |t| t.elapsed().as_secs_f64());
        if self.span_log {
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
            // Per-block buckets arrive (and merge) in block-index order —
            // the same contract that makes `bc_delta` reduction exact —
            // so this profile is bit-identical for any host-thread count.
            let (mut stages, mut total) = profile::reduce_blocks(block_buckets);
            if cached {
                // Memsim's shared-L2 replay: single-threaded, block-index
                // order, against the device's persistent L2 — deterministic
                // for any host-thread count, like every reduction here.
                let cfg = self.cache_cfg;
                let l2 = self.l2.get_or_insert_with(|| Box::new(L2Cache::new(&cfg)));
                cache::fold_into_stages(block_caches, &cfg, l2, &mut stages, &mut total);
            }
            let blocks = profile::block_spans(
                &block_cycles,
                self.dev.num_sms,
                |c| self.dev.cycles_to_seconds(c),
                self.elapsed_s + self.dev.launch_overhead_s,
            );
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

    /// Fans `num_blocks` block interpreters over `threads` host threads.
    /// The calling thread is worker 0 and only `threads - 1` scoped
    /// threads are spawned, so the minimum useful setting (2 threads) pays
    /// for a single spawn instead of two spawns plus an idle caller.
    /// Workers claim chunks of block ids from a shared atomic counter
    /// (self-scheduling, so stragglers rebalance) and return `(block_id,
    /// result)` pairs; the caller reassembles them into block-index order.
    fn run_blocks_parallel<F>(
        &self,
        num_blocks: usize,
        threads: usize,
        record: bool,
        profiled: bool,
        cache_cfg: Option<CacheConfig>,
        f: &F,
    ) -> Vec<BlockOut>
    where
        F: Fn(&mut BlockCtx, usize) + Sync,
    {
        // Chunked claims amortize counter traffic; sizing for ~4 claims
        // per worker keeps long-tailed blocks balanced without turning the
        // counter into a hotspot on huge grids.
        let chunk = (num_blocks / (threads * 4)).max(1);
        let next = AtomicUsize::new(0);
        let dev = self.dev;
        let worker = || {
            let mut out: Vec<(usize, BlockOut)> = Vec::new();
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= num_blocks {
                    break;
                }
                for b in start..(start + chunk).min(num_blocks) {
                    let mut ctx = BlockCtx::new(dev, b, record, profiled, cache_cfg);
                    f(&mut ctx, b);
                    out.push((b, ctx.finish_full()));
                }
            }
            out
        };
        let mut slots: Vec<Option<BlockOut>> = Vec::with_capacity(num_blocks);
        slots.resize_with(num_blocks, || None);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
            // The caller works too; if its share panics, leaving the scope
            // joins the spawned workers before the panic propagates.
            for (b, result) in worker() {
                slots[b] = Some(result);
            }
            for handle in handles {
                match handle.join() {
                    Ok(results) => {
                        for (b, result) in results {
                            slots[b] = Some(result);
                        }
                    }
                    // Preserve the sequential path's behaviour: a panicking
                    // kernel (e.g. a queue-overflow assert) panics the launch.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        slots
            .into_iter()
            .map(|slot| slot.expect("every block id claimed exactly once"))
            .collect()
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

/// Greedy list scheduling: each block (in issue order) is placed on the SM
/// with the least accumulated work — the behaviour of the hardware block
/// dispatcher under the memory-bound assumption that co-resident blocks
/// time-share an SM's bandwidth rather than multiply it.
fn schedule_makespan(block_cycles: &[f64], num_sms: usize) -> f64 {
    let mut sm_load = vec![0.0f64; num_sms.max(1)];
    for &c in block_cycles {
        let min = sm_load
            .iter_mut()
            .min_by(|a, b| a.partial_cmp(b).expect("no NaN loads"))
            .expect("at least one SM");
        *min += c;
    }
    sm_load.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_tiny())
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
    fn makespan_is_balanced_over_sms() {
        // 4 equal blocks on 2 SMs: makespan = 2 blocks' cycles.
        let cycles = vec![10.0, 10.0, 10.0, 10.0];
        assert_eq!(schedule_makespan(&cycles, 2), 20.0);
        // 2 blocks on 2 SMs: one each.
        assert_eq!(schedule_makespan(&cycles[..2], 2), 10.0);
        // Greedy handles imbalance: big block first, the rest pack.
        assert_eq!(schedule_makespan(&[30.0, 10.0, 10.0, 10.0], 2), 30.0);
    }

    #[test]
    fn more_blocks_than_sms_do_not_speed_up_fixed_work() {
        // Fixed total work split into B equal blocks, B varied.
        let dev = DeviceConfig::test_tiny(); // 2 SMs
        let total = 120.0;
        let time = |b: usize| {
            let per = total / b as f64;
            schedule_makespan(&vec![per; b], dev.num_sms)
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
            let mut g = gpu().with_host_threads(threads);
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
            let mut g = Gpu::new(DeviceConfig::test_tiny()).with_host_threads(threads);
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
        const BLOCKS: usize = 16;
        fn kernel<'a>(
            buf: &'a GpuBuffer<u32>,
            hist: &'a GpuBuffer<u32>,
        ) -> impl Fn(&mut BlockCtx, usize) + Sync + 'a {
            move |block, b| {
                let work = 5 + (b * 3) % 11;
                block.parallel_for(work, |lane, i| {
                    lane.write(buf, b * 32 + i, (b * 100 + i) as u32);
                    lane.atomic_add_u32(hist, i % 8, 1);
                });
            }
        }
        let mut seq_gpu = gpu().with_host_threads(1);
        let seq_buf = seq_gpu.alloc::<u32>(BLOCKS * 32, 0);
        let seq_hist = seq_gpu.alloc::<u32>(8, 0);
        let seq = seq_gpu.launch(BLOCKS, kernel(&seq_buf, &seq_hist));

        let mut par_gpu = gpu();
        let par_buf = par_gpu.alloc::<u32>(BLOCKS * 32, 0);
        let par_hist = par_gpu.alloc::<u32>(8, 0);
        let f = kernel(&par_buf, &par_hist);
        let per_block = par_gpu.run_blocks_parallel(BLOCKS, 4, false, false, None, &f);
        let cycles: Vec<f64> = per_block.iter().map(|(c, _, _, _, _)| *c).collect();
        assert_eq!(seq.block_cycles, cycles, "per-block cycles");
        assert_eq!(seq_buf.to_vec(), par_buf.to_vec(), "row buffer");
        assert_eq!(seq_hist.to_vec(), par_hist.to_vec(), "histogram");
    }

    #[test]
    fn thread_count_is_clamped_and_reported() {
        let g = gpu().with_host_threads(0);
        assert_eq!(g.host_threads(), 1);
        let g = gpu().with_host_threads(6);
        assert_eq!(g.host_threads(), 6);
    }

    #[test]
    fn more_threads_than_blocks_is_fine() {
        let mut g = gpu().with_host_threads(64);
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
            let mut g = gpu().with_host_threads(4);
            g.launch(8, |_, b| {
                if b == 5 {
                    panic!("kernel assert fired in block {b}");
                }
            });
        });
        assert!(result.is_err(), "worker panic must fail the launch");
    }
}
