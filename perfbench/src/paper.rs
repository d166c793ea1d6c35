//! paper-insert: the paper's Section IV protocol on `Backend::Simulator`.
//! Removed edges are re-inserted one op per batch on a node-parallel
//! engine by a closed-loop client: it applies an insert and downloads the
//! scores, at which point the update is visible, then reads the scores
//! again as a reader would. A prefix of the inserts also runs on an
//! edge-parallel engine. The only workload that runs the SIMT interpreter
//! (`gpusim`) and the frontier pipeline (`ds`).

use dynbc_bc::gpu::{Backend, Parallelism};
use dynbc_bc::BatchResult;

use crate::common::{
    case_stats, engine, first_mismatch, oracle_bc, replay, same_bits, setup_parts, Opts,
    HOST_THREADS,
};
use crate::inputs::{self, Inputs};
use crate::loadgen::now;
use crate::report::{ratio, Outcome};
use crate::stats::{median, percentile, samples_needed};
use crate::trace::{self_time_check, Tracer};

/// Inserts per second of `--seconds`: one takes about 17 ms on the
/// reference host.
const INSERTS_PER_SECOND: f64 = 40.0;
/// Engine set-ups timed before the inserts and again after them, besides
/// the one that runs the inserts.
const SETUP_REPS: usize = 5;
/// Inserts also run on the edge-parallel engine, and replayed to check
/// that scores and simulated time repeat.
const EDGE_PREFIX: usize = 8;
/// Inserts the traced run replays with engine telemetry and with the
/// profiler.
const TRACE_PREFIX: usize = 64;

pub fn run(opts: &Opts, tracer: &mut Tracer, out: &mut Outcome) {
    let edges = ((INSERTS_PER_SECOND * opts.seconds) as usize).max(samples_needed(90.0));
    let inputs = &inputs::paper(opts.seed, edges);
    let ops = &inputs.stream;
    let n = ops.len();
    let oracle = oracle_bc(&inputs.end, &inputs.sources);
    let new_engine = |par| engine(inputs, par, Backend::Simulator, HOST_THREADS);

    let time_setups = |setup_s: &mut Vec<f64>| {
        for _ in 0..SETUP_REPS {
            let t = now();
            std::hint::black_box(new_engine(Parallelism::Node));
            setup_s.push(t.elapsed().as_secs_f64());
        }
    };
    let mut setup_s = Vec::new();
    time_setups(&mut setup_s);
    let t = now();
    let mut node = new_engine(Parallelism::Node);
    let t1 = now();
    setup_s.push((t1 - t).as_secs_f64());
    tracer.span("setup.engine", None, t, t1);

    // The node-parallel leg, one insert per batch.
    let (mut visible_s, mut apply_s, mut scores_s, mut read_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut results = Vec::with_capacity(n);
    let mut prefix = (Vec::new(), 0.0);
    let mut scores = Vec::new();
    let mut torn_reads = 0;
    for (i, &op) in ops.iter().enumerate() {
        tracer.set_trace(i as u64 + 1);
        let t0 = now();
        results.push(node.apply_batch(&[op]));
        let t1 = now();
        scores = node.bc_scores();
        let t2 = now();
        let again = node.bc_scores();
        let t3 = now();
        let id = tracer.span("client.insert", None, t0, t2);
        tracer.span("engine.apply_batch", id, t0, t1);
        tracer.span("engine.bc_scores", id, t1, t2);
        tracer.span("client.read", None, t2, t3);
        visible_s.push((t2 - t0).as_secs_f64());
        apply_s.push((t1 - t0).as_secs_f64());
        scores_s.push((t2 - t1).as_secs_f64());
        read_s.push((t3 - t2).as_secs_f64());
        if !same_bits(&scores, &again) {
            torn_reads += 1;
        }
        if i + 1 == EDGE_PREFIX {
            prefix = (scores.clone(), node.elapsed_seconds());
        }
    }
    out.attempted += n as u64;
    let model = node.elapsed_seconds();
    time_setups(&mut setup_s);

    let ms = |v: Option<f64>| v.map_or(0.0, |x| x * 1e3);
    let us = |v: Option<f64>| v.map_or(0.0, |x| x * 1e6);
    out.set("setup_s", median(&setup_s).unwrap_or(0.0));
    out.set("visible_p50_ms", ms(median(&visible_s)));
    out.set("visible_p90_ms", ms(percentile(&visible_s, 90.0)));
    out.set("visible_p99_ms", ms(percentile(&visible_s, 99.0)));
    out.set("ingest_ops_per_s", ratio(n as f64, visible_s.iter().sum()));
    out.set("read_p50_us", us(median(&read_s)));
    out.set("read_p90_us", us(percentile(&read_s, 90.0)));
    out.set("read_p99_us", us(percentile(&read_s, 99.0)));
    out.set("engine.apply_ms_p50", ms(median(&apply_s)));
    out.set("engine.apply_ms_p99", ms(percentile(&apply_s, 99.0)));
    out.set("engine.scores_us_p50", us(median(&scores_s)));
    out.set(
        "sim_node_inserts_per_s",
        ratio(n as f64, apply_s.iter().sum()),
    );
    out.set("model_us_per_insert_node", model / n as f64 * 1e6);
    let (c2, c3, touched) = case_stats(&results, inputs.start.vertex_count());
    out.set("bc.case2_items", c2 as f64);
    out.set("bc.case3_items", c3 as f64);
    out.set("bc.touched_frac_p50", median(&touched).unwrap_or(0.0));
    out.note(format!(
        "{n} inserts, one per batch; edge-parallel leg {EDGE_PREFIX} inserts"
    ));

    out.check(torn_reads == 0, || {
        format!("{torn_reads} reads differed from the scores just downloaded")
    });
    out.check(first_mismatch(&scores, &oracle).is_none(), || {
        "final scores differ from Brandes from scratch".to_string()
    });
    edge_leg(inputs, opts, &results[..EDGE_PREFIX], &prefix, out);
    if opts.traced {
        traced_prefix(inputs, tracer, out);
        let (brandes, new) = setup_parts(
            inputs,
            Parallelism::Node,
            Backend::Simulator,
            HOST_THREADS,
            3,
        );
        out.set("setup.brandes_s", brandes);
        out.set("setup.engine_new_s", new);
    }
}

/// The first inserts on an edge-parallel engine, and again on a fresh
/// node-parallel one. The node replay must repeat the node leg exactly
/// (scores and simulated time); the edge leg must agree with it on the
/// case tallies and on the scores within tolerance. Both report their
/// simulator counters over this common prefix; traced runs also count
/// their launches from engine telemetry spans.
fn edge_leg(
    inputs: &Inputs,
    opts: &Opts,
    node_results: &[BatchResult],
    (node_scores, node_model): &(Vec<f64>, f64),
    out: &mut Outcome,
) {
    let prefix = &inputs.stream[..EDGE_PREFIX];
    let widths = vec![1; EDGE_PREFIX];
    let leg = |par| {
        let mut e = engine(inputs, par, Backend::Simulator, HOST_THREADS);
        e.set_telemetry(opts.traced);
        replay(e, prefix, &widths, &mut Tracer::off())
    };
    let (node, edge) = (leg(Parallelism::Node), leg(Parallelism::Edge));
    out.attempted += 2 * EDGE_PREFIX as u64;
    out.check(
        same_bits(&node.scores, node_scores)
            && node.engine.elapsed_seconds().to_bits() == node_model.to_bits(),
        || {
            "a node-parallel replay did not repeat the node leg's scores and simulated time"
                .to_string()
        },
    );
    let cases_agree = node_results
        .iter()
        .zip(&edge.results)
        .all(|(a, b)| a.cases() == b.cases());
    out.check(
        cases_agree && first_mismatch(&edge.scores, node_scores).is_none(),
        || "node- and edge-parallel legs disagree on the common prefix".to_string(),
    );
    out.set(
        "sim_edge_inserts_per_s",
        EDGE_PREFIX as f64 / edge.total_apply_s(),
    );
    out.set(
        "model_us_per_insert_edge",
        edge.engine.elapsed_seconds() / EDGE_PREFIX as f64 * 1e6,
    );
    let (n, e) = (node.engine.total_stats(), edge.engine.total_stats());
    out.set("gpusim.node.launches", node.split.launch_s.len() as f64);
    out.set("gpusim.node.lane_events", n.lane_events as f64);
    out.set("gpusim.node.mem_segments", n.mem_segments as f64);
    out.set("gpusim.node.atomic_conflicts", n.atomic_conflicts as f64);
    out.set("gpusim.edge.launches", edge.split.launch_s.len() as f64);
    out.set("gpusim.edge.lane_events", e.lane_events as f64);
    out.set("gpusim.edge.mem_segments", e.mem_segments as f64);
    out.set("gpusim.edge.atomic_conflicts", e.atomic_conflicts as f64);
}

/// Traced runs only: the first inserts replayed on fresh engines, once
/// plain, once with engine telemetry (layer split, launch wall times,
/// tracing overhead) and once with the profiler (frontier queue and dedup
/// volume).
fn traced_prefix(inputs: &Inputs, tracer: &mut Tracer, out: &mut Outcome) {
    let ops = &inputs.stream[..TRACE_PREFIX.min(inputs.stream.len())];
    let widths = vec![1; ops.len()];
    let plain = replay(
        engine(inputs, Parallelism::Node, Backend::Simulator, HOST_THREADS),
        ops,
        &widths,
        &mut Tracer::off(),
    );
    let mut e = engine(inputs, Parallelism::Node, Backend::Simulator, HOST_THREADS);
    e.set_telemetry(true);
    let traced = replay(e, ops, &widths, tracer);
    let apply = traced.total_apply_s();
    let split = &traced.split;
    let lane_events = traced.engine.total_stats().lane_events;
    out.set(
        "engine.stages_per_batch",
        ratio(split.stages as f64, widths.len() as f64),
    );
    out.set("plan.validate_share", ratio(split.validate_s, apply));
    out.set("plan.plan_share", ratio(split.plan_s, apply));
    out.set("gpusim.stage_share", ratio(split.stage_s, apply));
    out.set("engine.commit_share", ratio(split.commit_s, apply));
    let (uncovered, ok) = self_time_check(split, apply);
    out.set("engine.uncovered_share", uncovered);
    out.check(ok, || {
        format!("engine spans leave {uncovered:.3} of traced apply wall uncovered")
    });
    out.set(
        "trace.overhead_frac",
        ratio(apply, plain.total_apply_s()) - 1.0,
    );
    out.set(
        "gpusim.launch_wall_ms_p50",
        median(&split.launch_s).unwrap_or(0.0) * 1e3,
    );
    out.set(
        "gpusim.host_ns_per_lane_event",
        ratio(split.launch_s.iter().sum::<f64>() * 1e9, lane_events as f64),
    );

    let mut e = engine(inputs, Parallelism::Node, Backend::Simulator, HOST_THREADS);
    e.set_profiling(true);
    let mut profiled = replay(e, ops, &widths, &mut Tracer::off());
    out.check(same_bits(&profiled.scores, &traced.scores), || {
        "profiling changed the replayed scores".to_string()
    });
    let total = profiled.engine.take_profile_report().total();
    out.set("ds.queue_pushes", total.queue_pushes as f64);
    out.set("ds.dedup_ops", total.dedup_ops as f64);
}
