//! The simulator's one instrumentation switch set.
//!
//! Every [`Gpu`](crate::Gpu) owns an [`Instruments`] value, read once
//! from the environment at construction and changed afterwards through
//! [`Gpu::instruments_mut`](crate::Gpu::instruments_mut). No switch
//! changes a result: simulated seconds, stats and buffer contents are
//! bit-identical with any instrument on or off and for any host-thread
//! count; only host wall-clock pays.

use crate::cache::CacheConfig;
use crate::knob::{self, HOST_THREADS_ENV, MEMSIM_ENV, PROFILE_ENV, RACECHECK_ENV, TELEMETRY_ENV};

/// The instrumentation switches of one simulated device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Instruments {
    /// Host-thread cap for launches. A launch never runs more workers
    /// than the machine has cores or the grid has blocks, and grids under
    /// [`PARALLEL_MIN_BLOCKS`](crate::grid::PARALLEL_MIN_BLOCKS) run
    /// inline; `0` and `1` both mean the sequential path.
    pub host_threads: usize,
    /// Checked (racecheck) execution: every launch records shadow state
    /// and panics with the full [`CheckReport`](crate::CheckReport) on an
    /// error-severity diagnostic; warnings accumulate in
    /// [`Gpu::check_warnings`](crate::Gpu::check_warnings).
    pub racecheck: bool,
    /// Profiled execution: every launch appends a
    /// [`LaunchProfile`](crate::LaunchProfile) (per-stage counters plus
    /// the block timeline) to [`Gpu::profile_report`](crate::Gpu::profile_report).
    pub profiling: bool,
    /// The cache-hierarchy model: per-block L1s during execution, one
    /// persistent per-device L2 replayed in block-index order at
    /// reduction. Implies profiling; the cache counters ride in each
    /// launch's profile and never feed the cost clock.
    pub memsim: bool,
    /// The telemetry span log: every launch appends a
    /// [`LaunchSpan`](crate::LaunchSpan) for the engines to drain into
    /// their lifecycle traces (engines also key their telemetry
    /// collectors on it).
    pub telemetry: bool,
    /// The modeled cache geometry. Changing it takes effect at the next
    /// memsim launch, which rebuilds the persistent L2 cold.
    pub cache: CacheConfig,
}

impl Instruments {
    /// Reads the switches from `DYNBC_HOST_THREADS` (unset, `0` or
    /// unparsable: the machine's available cores), `DYNBC_RACECHECK`,
    /// `DYNBC_PROFILE`, `DYNBC_MEMSIM` and `DYNBC_TELEMETRY` (the
    /// [`knob::flag_from_env`] grammar), with the default cache geometry.
    /// The workspace's only reader of those five variables.
    pub fn from_env() -> Self {
        let threads = knob::parse_from_env(HOST_THREADS_ENV, 0usize);
        Self {
            host_threads: if threads == 0 { host_cores() } else { threads },
            racecheck: knob::flag_from_env(RACECHECK_ENV),
            profiling: knob::flag_from_env(PROFILE_ENV),
            memsim: knob::flag_from_env(MEMSIM_ENV),
            telemetry: knob::flag_from_env(TELEMETRY_ENV),
            cache: CacheConfig::default(),
        }
    }
}

/// The machine's available cores (1 when they cannot be determined).
pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
