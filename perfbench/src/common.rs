//! Pieces every workload shares: engine construction with every knob
//! pinned, the audited-partition replay, and the correctness oracles.

use dynbc_bc::brandes::brandes_state;
use dynbc_bc::gpu::{Backend, GpuDynamicBc, Parallelism};
use dynbc_bc::{BatchResult, InsertionCase};
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::{Csr, EdgeList, EdgeOp, VertexId};
use dynbc_serve::ServeConfig;

use crate::inputs::Inputs;
use crate::loadgen::now;
use crate::stats::median;
use crate::trace::{EngineSplit, Tracer};

/// Run options from the command line and the host.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Host cores, capped at 2, for the traced hybrid-versus-native replay.
    pub cores: usize,
}

/// Host threads of every engine whose time the end-to-end metrics report.
/// On the two-vCPU reference host a two-thread simulator moved by about
/// 10% between back-to-back runs where one thread repeated within 1%, and
/// a two-thread native engine beside the shard worker and the load
/// generator was no faster and much less steady.
pub const HOST_THREADS: usize = 1;

/// Shard settings, pinned: the default batch cap, and a queue small enough
/// that a flood meets backpressure.
pub const SERVE: ServeConfig = ServeConfig {
    queue_cap: 256,
    batch_max: 64,
    telemetry: false,
};

/// Top-k size of every read.
pub const TOP_K: usize = 10;

/// Relative tolerance of a BC score against a from-scratch recomputation
/// (the same one `dynbc_bench`'s drivers use).
pub const BRANDES_TOL: f64 = 1e-6;

/// An engine with every instrumentation switch off and the backend and
/// host threads pinned.
pub fn engine(inputs: &Inputs, par: Parallelism, backend: Backend, threads: usize) -> GpuDynamicBc {
    let mut e = GpuDynamicBc::new(
        &inputs.start,
        &inputs.sources,
        DeviceConfig::tesla_c2075(),
        par,
    )
    .with_backend(backend);
    e.set_host_threads(threads);
    e.set_telemetry(false);
    e.set_profiling(false);
    e.set_racecheck(false);
    e.set_memsim(false);
    e
}

/// Median wall seconds of `reps` Brandes seedings and of `reps` engine
/// constructions (which include a seeding) on the workload's start graph.
pub fn setup_parts(
    inputs: &Inputs,
    par: Parallelism,
    backend: Backend,
    threads: usize,
    reps: usize,
) -> (f64, f64) {
    let mut brandes = Vec::new();
    let mut new = Vec::new();
    for _ in 0..reps {
        let t = now();
        std::hint::black_box(brandes_state(
            &Csr::from_edge_list(&inputs.start),
            &inputs.sources,
        ));
        brandes.push(t.elapsed().as_secs_f64());
        let t = now();
        std::hint::black_box(engine(inputs, par, backend, threads));
        new.push(t.elapsed().as_secs_f64());
    }
    (median(&brandes).unwrap_or(0.0), median(&new).unwrap_or(0.0))
}

/// One replay of a batch partition on a raw engine.
#[derive(Debug)]
pub struct Replay {
    pub engine: GpuDynamicBc,
    pub scores: Vec<f64>,
    /// Wall seconds of each `apply_batch`.
    pub apply_s: Vec<f64>,
    /// Wall seconds of each `bc_scores` after a batch.
    pub scores_s: Vec<f64>,
    pub results: Vec<BatchResult>,
    /// Engine span wall time by layer (telemetry on only).
    pub split: EngineSplit,
}

impl Replay {
    pub fn total_apply_s(&self) -> f64 {
        self.apply_s.iter().sum()
    }
}

/// Applies `ops` to `engine` in batches of `widths`, the way the shard
/// did: `apply_batch`, then `bc_scores`. With telemetry on, the engine's
/// spans of each batch nest under the benchmark's `engine.apply_batch`
/// span, whose trace id is the batch's epoch.
pub fn replay(
    mut engine: GpuDynamicBc,
    ops: &[EdgeOp],
    widths: &[usize],
    tracer: &mut Tracer,
) -> Replay {
    let telemetry = engine.telemetry();
    let mut apply_s = Vec::with_capacity(widths.len());
    let mut scores_s = Vec::with_capacity(widths.len());
    let mut results = Vec::with_capacity(widths.len());
    let mut split = EngineSplit::default();
    let mut scores = engine.bc_scores();
    let mut off = 0;
    for (i, &w) in widths.iter().enumerate() {
        tracer.set_trace(i as u64 + 1);
        let t0 = now();
        let res = engine.apply_batch(&ops[off..off + w]);
        let t1 = now();
        let id = tracer.span("engine.apply_batch", None, t0, t1);
        if telemetry {
            if let Some(tel) = engine.take_telemetry_report() {
                split.add(&tracer.nest_engine_spans(id, t0, tel.trace().spans()));
            }
        }
        let t2 = now();
        scores = engine.bc_scores();
        let t3 = now();
        tracer.span("engine.bc_scores", None, t2, t3);
        apply_s.push((t1 - t0).as_secs_f64());
        scores_s.push((t3 - t2).as_secs_f64());
        results.push(res);
        off += w;
    }
    Replay {
        engine,
        scores,
        apply_s,
        scores_s,
        results,
        split,
    }
}

/// Case 2 and Case 3 (op × source) items, and the touched fraction of
/// every work-requiring item, over a run of batch results.
pub fn case_stats(results: &[BatchResult], n: usize) -> (u64, u64, Vec<f64>) {
    let (mut c2, mut c3, mut touched) = (0, 0, Vec::new());
    for r in results {
        let c = r.cases();
        c2 += c.adjacent;
        c3 += c.distant;
        for op in &r.per_op {
            for s in &op.per_source {
                if s.case != InsertionCase::Same {
                    touched.push(s.touched as f64 / n as f64);
                }
            }
        }
    }
    (c2, c3, touched)
}

/// BC from scratch on `graph` for `sources`.
pub fn oracle_bc(graph: &EdgeList, sources: &[VertexId]) -> Vec<f64> {
    brandes_state(&Csr::from_edge_list(graph), sources).bc
}

/// First vertex whose score is off the oracle by more than [`BRANDES_TOL`].
pub fn first_mismatch(got: &[f64], want: &[f64]) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(&g, &w)| (g - w).abs() > BRANDES_TOL * w.abs().max(1.0))
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}
