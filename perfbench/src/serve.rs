//! serve-churn: one shard over a node-parallel native engine, fed by one
//! load generator thread in two phases.
//!
//! Phase A sends the first fifth of the stream open loop at a fixed rate
//! and gives the due-to-visible latencies; while it waits between sends,
//! the generator also times top-k reads. Phase B floods the rest, four
//! times as many ops, as fast as backpressure allows and gives ingest
//! throughput. The final served scores are checked bit for bit
//! against a raw engine replaying the shard's audited batch partition, and
//! within tolerance against Brandes from scratch.

use dynbc_bc::gpu::{Backend, Parallelism};
use dynbc_serve::{family, Shard, ShardEngine};
use dynbc_telemetry::Registry;

use crate::common::{
    case_stats, engine, first_mismatch, oracle_bc, replay, same_bits, setup_parts, Opts, Replay,
    HOST_THREADS, SERVE, TOP_K,
};
use crate::inputs::{self, Inputs};
use crate::loadgen::{flood, now, open_loop, read_once, visible_latencies, Clock, Reads, Watcher};
use crate::report::{ratio, Outcome};
use crate::stats::{median, percentile, samples_needed};
use crate::trace::{self_time_check, Tracer};

/// Phase A send rate, ops/s: about a twentieth of what the shard commits
/// on the reference host, so that ops seldom queue (see NOTES.md).
const RATE: f64 = 25.0;
/// Top-k reads the generator makes during phase A.
const READS: usize = 2000;
/// Set-ups timed before the stream and again after it, besides the one
/// that serves it: a slow patch of the host at either end moves their
/// median little.
const SETUP_REPS: usize = 5;

/// Seconds the shard worker has spent committing: `apply_batch` plus
/// snapshot publication, from its commit-wall histogram.
fn commit_seconds(shard: &Shard) -> f64 {
    let mut reg = Registry::new();
    family::define_serve_families(&mut reg);
    shard.fill_registry(&mut reg, &[]);
    reg.histogram(family::COMMIT_WALL).map_or(0.0, |h| h.sum())
}

pub fn run(opts: &Opts, tracer: &mut Tracer, out: &mut Outcome) {
    // Phase A lasts about half the run. Phase B floods four times as many
    // ops, several seconds of work, so that its throughput averages over
    // many batches and many kinds of op.
    let pa = ((RATE * opts.seconds / 2.0) as usize).max(samples_needed(90.0));
    let inputs = &inputs::churn(opts.seed, 5 * pa / 2);
    let ops = &inputs.stream;
    let total = ops.len() as u64;
    let oracle = oracle_bc(&inputs.end, &inputs.sources);
    let serve_engine = || {
        ShardEngine::gpu(engine(
            inputs,
            Parallelism::Node,
            Backend::Native,
            HOST_THREADS,
        ))
    };
    let time_setups = |setup_s: &mut Vec<f64>| {
        for _ in 0..SETUP_REPS {
            let t = now();
            let shard = Shard::spawn(serve_engine(), &SERVE);
            setup_s.push(t.elapsed().as_secs_f64());
            shard.shutdown();
        }
    };
    let mut setup_s = Vec::new();
    time_setups(&mut setup_s);

    let clock = Clock::start();
    let t = now();
    let shard = Shard::spawn(serve_engine(), &SERVE);
    let t1 = now();
    setup_s.push((t1 - t).as_secs_f64());
    tracer.span("setup.shard", None, t, t1);

    let mut watcher = Watcher::new(&shard);
    let mut reads = Reads::default();
    let mut cursor = shard.reader();
    let mut last_epoch = 0;
    // The generator reads while it waits for the next due time, spread
    // evenly over phase A.
    let per_gap = READS.div_ceil(pa);
    let mut read = |i: usize, tracer: &mut Tracer| {
        let more = reads.read_s.len() < ((i + 1) * per_gap).min(READS);
        if more {
            read_once(&mut cursor, TOP_K, &mut last_epoch, &mut reads, tracer);
        }
        more
    };
    let a_start = clock.now();
    let a = open_loop(
        &shard,
        &ops[..pa],
        0,
        RATE,
        &mut watcher,
        &clock,
        tracer,
        &mut read,
    );
    watcher.wait_for(pa as u64, &clock);
    let a_end = watcher.seen.last().map_or(a_start, |s| s.at);
    let commit_a = commit_seconds(&shard);
    let b_start = clock.now();
    let b = flood(&shard, &ops[pa..], pa as u64, &mut watcher, &clock, tracer);
    watcher.wait_for(total, &clock);
    let b_end = watcher.seen.last().map_or(b_start, |s| s.at);
    let commit_b = commit_seconds(&shard) - commit_a;
    let (served, last) = shard.shutdown();
    drop(served);
    time_setups(&mut setup_s);

    // Latencies, throughput and the audited batch partition.
    let visible_s: Vec<f64> = visible_latencies(0, &a.due, &watcher.seen)
        .into_iter()
        .flatten()
        .collect();
    let never = (pa - visible_s.len()) as u64 + total.saturating_sub(watcher.applied());
    let widths = watcher.widths();
    let epochs_a = watcher
        .seen
        .iter()
        .filter(|s| s.ops_applied <= pa as u64)
        .count();
    let epochs_b = widths.len() - epochs_a;
    let submit_s: Vec<f64> = a.submit_s.iter().chain(&b.submit_s).copied().collect();
    let backpressure = a.backpressure + b.backpressure;
    out.attempted += total;
    out.failed += never + a.refused + b.refused;
    let seen = watcher.seen.clone();
    tracer.map_traces("serve.submit", |op| {
        seen.iter()
            .find(|s| s.ops_applied > op)
            .map_or(0, |s| s.epoch)
    });

    let ms = |v: Option<f64>| v.map_or(0.0, |x| x * 1e3);
    let us = |v: Option<f64>| v.map_or(0.0, |x| x * 1e6);
    out.set("setup_s", median(&setup_s).unwrap_or(0.0));
    out.set("visible_p50_ms", ms(median(&visible_s)));
    out.set("visible_p90_ms", ms(percentile(&visible_s, 90.0)));
    out.set("visible_p99_ms", ms(percentile(&visible_s, 99.0)));
    out.set(
        "ingest_ops_per_s",
        ratio((total - pa as u64) as f64, b_end - b_start),
    );
    out.set("read_p50_us", us(median(&reads.read_s)));
    out.set("read_p90_us", us(percentile(&reads.read_s, 90.0)));
    out.set("read_p99_us", us(percentile(&reads.read_s, 99.0)));
    out.set("serve.submit_us_p99", us(percentile(&submit_s, 99.0)));
    out.set(
        "serve.backpressure_frac",
        ratio(
            backpressure as f64,
            (backpressure + submit_s.len() as u64) as f64,
        ),
    );
    out.set(
        "serve.batch_width_mean.a",
        ratio(pa as f64, epochs_a as f64),
    );
    out.set(
        "serve.batch_width_mean.b",
        ratio((total - pa as u64) as f64, epochs_b as f64),
    );
    out.set("serve.epochs.a", epochs_a as f64);
    out.set("serve.epochs.b", epochs_b as f64);
    out.set("serve.worker_busy_frac.a", ratio(commit_a, a_end - a_start));
    out.set("serve.worker_busy_frac.b", ratio(commit_b, b_end - b_start));
    out.set("serve.topk_us_p50", us(median(&reads.topk_s)));
    out.set("loadgen.late_ms_p99", ms(percentile(&a.late, 99.0)));
    out.note(format!(
        "{total} ops ({pa} open loop at {RATE} ops/s, the rest flooded); {} visible-latency and {} read samples; generator late p50 {:.3} ms",
        visible_s.len(),
        reads.read_s.len(),
        ms(median(&a.late))
    ));

    // Verification: the audited partition replayed on a raw engine, and
    // Brandes from scratch.
    out.check(reads.bad == 0, || {
        format!("{} reads broke an invariant", reads.bad)
    });
    out.check(last.ops_applied() == total, || {
        format!(
            "final snapshot covers {} of {total} ops",
            last.ops_applied()
        )
    });
    let native = replay(
        engine(inputs, Parallelism::Node, Backend::Native, HOST_THREADS),
        ops,
        &widths,
        &mut Tracer::off(),
    );
    out.check(same_bits(last.scores(), &native.scores), || {
        "served scores differ from a raw replay of the shard's partition".to_string()
    });
    out.check(first_mismatch(last.scores(), &oracle).is_none(), || {
        "served scores differ from Brandes from scratch".to_string()
    });
    out.set("engine.apply_ms_p50", ms(median(&native.apply_s)));
    out.set("engine.apply_ms_p99", ms(percentile(&native.apply_s, 99.0)));
    out.set("engine.scores_us_p50", us(median(&native.scores_s)));
    let (c2, c3, touched) = case_stats(&native.results, inputs.start.vertex_count());
    out.set("bc.case2_items", c2 as f64);
    out.set("bc.case3_items", c3 as f64);
    out.set("bc.touched_frac_p50", median(&touched).unwrap_or(0.0));
    if opts.traced {
        engine_layers(inputs, opts, &widths, &native, tracer, out);
        let (brandes, new) =
            setup_parts(inputs, Parallelism::Node, Backend::Native, HOST_THREADS, 3);
        out.set("setup.brandes_s", brandes);
        out.set("setup.engine_new_s", new);
    }
}

/// Traced runs only: the engine-layer split from a replay with engine
/// telemetry on, and the hybrid router beside native on the same
/// partition.
fn engine_layers(
    inputs: &Inputs,
    opts: &Opts,
    widths: &[usize],
    native: &Replay,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut e = engine(inputs, Parallelism::Node, Backend::Native, HOST_THREADS);
    e.set_telemetry(true);
    let traced = replay(e, &inputs.stream, widths, tracer);
    out.check(same_bits(&traced.scores, &native.scores), || {
        "engine telemetry changed the replayed scores".to_string()
    });
    let apply = traced.total_apply_s();
    let split = &traced.split;
    out.set(
        "engine.stages_per_batch",
        ratio(split.stages as f64, widths.len() as f64),
    );
    out.set("plan.validate_share", ratio(split.validate_s, apply));
    out.set("plan.plan_share", ratio(split.plan_s, apply));
    out.set("native.stage_share", ratio(split.stage_s, apply));
    out.set("engine.commit_share", ratio(split.commit_s, apply));
    let (uncovered, ok) = self_time_check(split, apply);
    out.set("engine.uncovered_share", uncovered);
    out.check(ok, || {
        format!("engine spans leave {uncovered:.3} of traced apply wall uncovered")
    });
    out.set(
        "trace.overhead_frac",
        ratio(apply, native.total_apply_s()) - 1.0,
    );

    // Side by side on the same partition, both fanning out over the host's
    // cores: the router chooses between one and `cores` workers per stage.
    let mut side = |backend| {
        let r = replay(
            engine(inputs, Parallelism::Node, backend, opts.cores),
            &inputs.stream,
            widths,
            &mut Tracer::off(),
        );
        out.check(same_bits(&r.scores, &native.scores), || {
            format!("{backend} replay differs from the served scores")
        });
        r
    };
    let (multi, hybrid) = (side(Backend::Native), side(Backend::Hybrid));
    out.set("engine.native_replay_s", multi.total_apply_s());
    out.set("engine.hybrid_replay_s", hybrid.total_apply_s());
    out.set(
        "engine.native_apply_ms_p50",
        median(&multi.apply_s).unwrap_or(0.0) * 1e3,
    );
    out.set(
        "engine.hybrid_apply_ms_p50",
        median(&hybrid.apply_s).unwrap_or(0.0) * 1e3,
    );
}
