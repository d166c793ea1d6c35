//! Criterion microbenches of the substrate layers: graph traversal,
//! Brandes passes, a dynamic update, the host-parallel launch path of
//! the simulator itself, and what engine telemetry costs a replayed
//! update stream.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dynbc_bc::brandes::{sample_sources, source_pass};
use dynbc_bc::dynamic::CpuDynamicBc;
use dynbc_bc::gpu::{Backend, GpuDynamicBc, Parallelism};
use dynbc_bench::{stream, HarnessReport};
use dynbc_gpusim::{DeviceConfig, Gpu, Instruments};
use dynbc_graph::algo::bfs;
use dynbc_graph::{gen, Csr, EdgeList, EdgeOp, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn bench_graph(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let el = gen::ws(&mut rng, 10_000, 5, 0.1);
    let csr = Csr::from_edge_list(&el);
    c.bench_function("bfs_smallworld_10k", |b| b.iter(|| black_box(bfs(&csr, 0))));
    c.bench_function("brandes_source_pass_10k", |b| {
        b.iter(|| black_box(source_pass(&csr, 17)))
    });
}

fn bench_dynamic_update(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let el = gen::ba(&mut rng, 4_000, 5);
    let sources = sample_sources(&mut rng, 4_000, 16);
    // Pick a fresh edge to insert on every iteration via cloning the
    // prepared engine (clone cost is excluded by iter_batched).
    let engine = CpuDynamicBc::new(&el, &sources);
    let (u, v) = {
        loop {
            let a = rng.gen_range(0..4000u32);
            let b = rng.gen_range(0..4000u32);
            if a != b && !engine.graph().has_edge(a, b) {
                break (a, b);
            }
        }
    };
    c.bench_function("cpu_dynamic_insert_ba4k_k16", |b| {
        b.iter_batched(
            || engine.clone(),
            |mut e| black_box(e.insert_edge(u, v)),
            BatchSize::LargeInput,
        )
    });
}

/// One fixed launch for the scaling sweep: 56 blocks = four full waves on
/// the C2075's 14 SMs, each block hashing its own 512-element row and then
/// folding it into a small contended histogram (add-only, so the result is
/// thread-count invariant). Returns everything the simulator produced so
/// the sweep can assert bit-identity while it measures wall time.
fn scaling_launch(threads: usize) -> (f64, Vec<u32>, Vec<u32>) {
    scaling_launch_mode(threads, false)
}

/// [`scaling_launch`] with the racecheck analysis toggled explicitly —
/// the checked/unchecked pair the `racecheck_overhead` harness compares.
fn scaling_launch_mode(threads: usize, racecheck: bool) -> (f64, Vec<u32>, Vec<u32>) {
    scaling_launch_blocks(threads, racecheck, 56)
}

/// [`scaling_launch_mode`] at an explicit block count. 56 blocks is the
/// four-wave sweep launch; 14 blocks (one wave on the C2075) is the
/// small same-host calibration launch `bench_racecheck_overhead` uses
/// to price checked execution on the machine actually running.
fn scaling_launch_blocks(
    threads: usize,
    racecheck: bool,
    blocks: usize,
) -> (f64, Vec<u32>, Vec<u32>) {
    let gpu = c2075_with(|i| {
        i.host_threads = threads;
        i.racecheck = racecheck;
    });
    scaling_launch_on(gpu, blocks).0
}

/// A Tesla C2075 device whose instruments `set` adjusts.
fn c2075_with(set: impl FnOnce(&mut Instruments)) -> Gpu {
    let mut gpu = Gpu::new(DeviceConfig::tesla_c2075());
    set(gpu.instruments_mut());
    gpu
}

/// Runs the fixed hash-and-histogram launch over `blocks` blocks on a
/// pre-configured simulator, returning the produced results plus the
/// simulator itself (so callers can inspect its profile report).
fn scaling_launch_on(mut g: Gpu, blocks: usize) -> ((f64, Vec<u32>, Vec<u32>), Gpu) {
    const ROW: usize = 512;
    let rows = g.alloc::<u32>(blocks * ROW, 1);
    let hist = g.alloc::<u32>(64, 0);
    let r = g.launch(blocks, |block, b| {
        block.parallel_for(ROW, |lane, i| {
            let idx = b * ROW + i;
            let mut v = lane.read(&rows, idx) ^ (b * ROW + i) as u32;
            for _ in 0..32 {
                v = v.wrapping_mul(1664525).wrapping_add(1013904223);
            }
            lane.compute(8);
            lane.write(&rows, idx, v);
        });
        block.barrier();
        block.parallel_for(ROW, |lane, i| {
            let v = lane.read(&rows, b * ROW + i);
            lane.atomic_add_u32(&hist, (v as usize) % 64, 1);
        });
    });
    ((r.seconds, rows.to_vec(), hist.to_vec()), g)
}

fn bench_launch_scaling(c: &mut Criterion) {
    let baseline = scaling_launch(1);
    let mut report = HarnessReport::new("launch_scaling");
    let mut wall_1thread = f64::NAN;
    for threads in [1usize, 2, 4, 8] {
        // Every thread count must reproduce the sequential run bit-for-bit
        // (simulated seconds and all buffer contents).
        let got = scaling_launch(threads);
        assert_eq!(
            got.0.to_bits(),
            baseline.0.to_bits(),
            "{threads} threads: seconds"
        );
        assert_eq!(got.1, baseline.1, "{threads} threads: rows");
        assert_eq!(got.2, baseline.2, "{threads} threads: histogram");

        // Manual timing loop feeding BENCH_dynbc.json (Criterion's numbers
        // only go to stdout).
        let iters = 12;
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(scaling_launch(threads));
        }
        let wall = t0.elapsed().as_secs_f64() / iters as f64;
        if threads == 1 {
            wall_1thread = wall;
        }
        report.push_row("blocks56", &format!("{threads} host threads"), got.0, wall);
        report.annotate("host_threads", threads as f64);
        report.annotate("speedup_vs_1_thread", wall_1thread / wall);

        c.bench_function(&format!("launch_scaling_56blocks_t{threads}"), |b| {
            b.iter(|| black_box(scaling_launch(threads)))
        });
    }
    report.write_default();
}

/// Minimum-over-`iters` wall seconds of `run` (one untimed warm-up).
fn min_wall(iters: usize, mut run: impl FnMut()) -> f64 {
    run(); // warm-up, untimed
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Wall-clock cost of checked (racecheck) execution on the same fixed
/// launch `bench_launch_scaling` sweeps. Checked mode must not change any
/// result bit — only how long the host takes to produce it — so the two
/// runs are first compared bit-for-bit and then timed.
fn bench_racecheck_overhead(c: &mut Criterion) {
    let unchecked = scaling_launch_mode(1, false);
    let checked = scaling_launch_mode(1, true);
    assert_eq!(
        checked.0.to_bits(),
        unchecked.0.to_bits(),
        "checked seconds must match unchecked"
    );
    assert_eq!(checked.1, unchecked.1, "checked rows must match unchecked");
    assert_eq!(
        checked.2, unchecked.2,
        "checked histogram must match unchecked"
    );

    let mut report = HarnessReport::new("racecheck_overhead");
    let mut wall_unchecked = f64::NAN;
    let mut min_unchecked = f64::NAN;
    let mut overhead = f64::NAN;
    for (engine, racecheck) in [("unchecked", false), ("checked", true)] {
        let iters = 8;
        black_box(scaling_launch_mode(1, racecheck)); // warm-up, untimed
        let mut walls = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            black_box(scaling_launch_mode(1, racecheck));
            walls.push(t0.elapsed().as_secs_f64());
        }
        let wall = walls.iter().sum::<f64>() / iters as f64;
        let wall_min = walls.iter().copied().fold(f64::INFINITY, f64::min);
        if !racecheck {
            wall_unchecked = wall;
            min_unchecked = wall_min;
        } else {
            // Noise-robust ratio: minimum over iterations on both sides
            // (the means can swing a few x on a loaded host).
            overhead = wall_min / min_unchecked;
        }
        report.push_row("blocks56", engine, unchecked.0, wall);
        report.annotate("overhead_vs_unchecked", wall / wall_unchecked);
        report.annotate("min_overhead_vs_unchecked", wall_min / min_unchecked);

        c.bench_function(&format!("racecheck_overhead_56blocks_{engine}"), |b| {
            b.iter(|| black_box(scaling_launch_mode(1, racecheck)))
        });
    }
    // Budget for checked mode, calibrated on this host rather than as an
    // absolute multiplier (an absolute 25x budget failed at pristine HEAD
    // on slow machines — the checked/unchecked ratio is host-dependent):
    // price the ratio on a one-wave 14-block launch of the same kernel,
    // then require the 56-block sweep to stay within 3x of it — the
    // analysis must scale with the work, not superlinearly in blocks.
    // (The observed 56-vs-14-block ratio sits below 2.5x even on a
    // loaded single-core host, so 3x leaves jitter headroom while
    // still flagging a blow-up in the per-block cost of the checker.)
    // The absolute 25x stays as a floor so sub-measurable calibration
    // ratios on fast hosts cannot turn jitter into failures.
    let calib_unchecked = min_wall(8, || {
        black_box(scaling_launch_blocks(1, false, 14));
    });
    let calib_checked = min_wall(8, || {
        black_box(scaling_launch_blocks(1, true, 14));
    });
    let calib = calib_checked / calib_unchecked;
    let budget = (3.0 * calib).max(25.0);
    report.annotate("calibration_overhead_14blocks", calib);
    report.annotate("budget", budget);
    println!(
        "bench racecheck_overhead 56 blocks {overhead:.1}x, 14-block calibration \
         {calib:.1}x, budget {budget:.1}x"
    );
    assert!(
        overhead <= budget,
        "racecheck overhead {overhead:.1}x exceeds the calibrated budget {budget:.1}x \
         (14-block same-host ratio {calib:.1}x)"
    );
    report.write_default();
}

/// The fixed update stream `bench_telemetry_overhead` replays: a
/// 400-vertex small-world graph, 16 sources, and 16 single-op batches
/// that remove 8 random edges, each re-added two events later.
fn telemetry_stream() -> (EdgeList, Vec<VertexId>, Vec<EdgeOp>) {
    let mut rng = StdRng::seed_from_u64(6);
    let el = gen::ws(&mut rng, 400, 3, 0.1);
    let sources = sample_sources(&mut rng, 400, 16);
    let ops = stream::interleaved(&el, 8, 2, &stream::spanning_forest_tabu(&el), &mut rng);
    (el, sources, ops)
}

/// Replays `ops` one per batch through a fresh one-host-thread,
/// node-parallel simulator engine with telemetry set to `telemetry`
/// (`None`: the default), timing only the replay. Returns its wall and
/// model seconds, the final BC bits and the batches telemetry recorded.
fn telemetry_replay(
    (el, sources, ops): &(EdgeList, Vec<VertexId>, Vec<EdgeOp>),
    telemetry: Option<bool>,
) -> (f64, f64, Vec<u64>, Option<u64>) {
    let mut e = GpuDynamicBc::new(el, sources, DeviceConfig::tesla_c2075(), Parallelism::Node)
        .with_backend(Backend::Simulator);
    e.set_host_threads(1);
    if let Some(on) = telemetry {
        e.set_telemetry(on);
    }
    let t0 = Instant::now();
    let model: f64 = ops
        .iter()
        .map(|&op| e.apply_batch(&[op]).model_seconds)
        .sum();
    let wall = t0.elapsed().as_secs_f64();
    let bits = e.bc_scores().iter().map(|x| x.to_bits()).collect();
    (wall, model, bits, e.telemetry_report().map(|t| t.updates()))
}

/// Wall-clock cost of engine telemetry on a replayed update stream
/// through `GpuDynamicBc::apply_batch` on the simulator: `baseline`
/// never touches the switch, `disabled` turns it off explicitly (the
/// production path), `enabled` records every batch's spans and metrics.
/// Telemetry changes no result, so the modes are first compared
/// bit-for-bit, then timed.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let stream = telemetry_stream();
    let (_, base_model, base_bits, _) = telemetry_replay(&stream, None);
    for (on, updates) in [(false, None), (true, Some(stream.2.len() as u64))] {
        let (_, model, bits, recorded) = telemetry_replay(&stream, Some(on));
        assert_eq!(
            model.to_bits(),
            base_model.to_bits(),
            "telemetry={on}: seconds"
        );
        assert_eq!(bits, base_bits, "telemetry={on}: BC bits");
        assert_eq!(recorded, updates, "telemetry={on}: recorded batches");
    }

    // Three modes share one interleaved timing loop, so load spikes hit
    // all of them equally.
    let modes = [
        ("baseline", None),
        ("disabled", Some(false)),
        ("enabled", Some(true)),
    ];
    let mut walls = [const { Vec::new() }; 3];
    for round in 0..=12 {
        for (m, &(_, telemetry)) in modes.iter().enumerate() {
            let wall = telemetry_replay(&stream, telemetry).0;
            if round > 0 {
                walls[m].push(wall); // round 0 is the untimed warm-up
            }
        }
    }
    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
    let min = |w: &[f64]| w.iter().copied().fold(f64::INFINITY, f64::min);
    let mut report = HarnessReport::new("telemetry_overhead");
    let min_ratios = walls.each_ref().map(|w| min(w) / min(&walls[0]));
    for (m, &(engine, telemetry)) in modes.iter().enumerate() {
        report.push_row("ws400_k16_16ops", engine, base_model, mean(&walls[m]));
        report.annotate("overhead_vs_baseline", mean(&walls[m]) / mean(&walls[0]));
        report.annotate("min_overhead_vs_baseline", min_ratios[m]);
        c.bench_function(&format!("telemetry_overhead_ws400_{engine}"), |b| {
            b.iter(|| black_box(telemetry_replay(&stream, telemetry)))
        });
    }
    // Budgets on the noise-robust minimum-over-rounds ratios: disabled
    // adds a few predictable branches per batch, enabled a few clock
    // reads and span pushes per stage and one metrics record per batch.
    assert!(
        min_ratios[1] <= 1.10,
        "disabled-telemetry overhead {:.3}x exceeds the 1.10x budget",
        min_ratios[1]
    );
    assert!(
        min_ratios[2] <= 3.0,
        "enabled-telemetry overhead {:.3}x exceeds the 3x budget",
        min_ratios[2]
    );
    report.write_default();
}

/// [`scaling_launch`] with the dynbc-memsim cache model toggled
/// explicitly — the disabled/enabled pair `bench_memsim_overhead`
/// compares (at an explicit block count so the 14-block same-host
/// calibration can share it).
fn scaling_launch_with_memsim(memsim: bool, blocks: usize) -> (f64, Vec<u32>, Vec<u32>) {
    let gpu = c2075_with(|i| {
        i.host_threads = 1;
        i.memsim = memsim;
    });
    scaling_launch_on(gpu, blocks).0
}

/// Wall-clock cost of the dynbc-memsim cache-hierarchy model on the same
/// fixed launch. Three interleaved modes as in `bench_telemetry_overhead`:
/// `baseline` never touches the knob, `disabled` sets it off explicitly
/// (one predictable branch per memory access), `enabled` drives every
/// 32 B transaction through the L1/L2 tag arrays. The model is
/// observability-only — simulated seconds and buffer contents are first
/// compared bit-for-bit, and a profiled memsim-off run must serialize
/// byte-identically to a profiled run on a simulator without the knob.
fn bench_memsim_overhead(c: &mut Criterion) {
    let baseline = scaling_launch_mode(1, false);
    for memsim in [false, true] {
        let got = scaling_launch_with_memsim(memsim, 56);
        assert_eq!(
            got.0.to_bits(),
            baseline.0.to_bits(),
            "memsim={memsim}: seconds"
        );
        assert_eq!(got.1, baseline.1, "memsim={memsim}: rows");
        assert_eq!(got.2, baseline.2, "memsim={memsim}: histogram");
    }
    // Byte-identical existing reports when off: a profiled memsim-off
    // simulator serializes exactly what a plain profiled one does.
    let profiled = |memsim: Option<bool>| {
        let g = c2075_with(|i| {
            if let Some(on) = memsim {
                i.memsim = on;
            }
            i.profiling = true;
        });
        scaling_launch_on(g, 56).1.take_profile_report()
    };
    let (plain, off) = (profiled(None), profiled(Some(false)));
    assert_eq!(plain, off);
    assert_eq!(plain.to_json(), off.to_json());

    type Mode = (&'static str, fn() -> (f64, Vec<u32>, Vec<u32>));
    let modes: [Mode; 3] = [
        ("baseline", || scaling_launch_mode(1, false)),
        ("disabled", || scaling_launch_with_memsim(false, 56)),
        ("enabled", || scaling_launch_with_memsim(true, 56)),
    ];
    let iters = 12;
    let mut walls = [const { Vec::new() }; 3];
    for (_, run) in &modes {
        black_box(run()); // warm-up, untimed
    }
    for _ in 0..iters {
        for (m, (_, run)) in modes.iter().enumerate() {
            let t0 = Instant::now();
            black_box(run());
            walls[m].push(t0.elapsed().as_secs_f64());
        }
    }
    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
    let min = |w: &[f64]| w.iter().copied().fold(f64::INFINITY, f64::min);
    let (base_mean, base_min) = (mean(&walls[0]), min(&walls[0]));

    let mut report = HarnessReport::new("memsim_overhead");
    let mut min_ratios = [f64::NAN; 3];
    for (m, (engine, run)) in modes.iter().enumerate() {
        min_ratios[m] = min(&walls[m]) / base_min;
        report.push_row("blocks56", engine, baseline.0, mean(&walls[m]));
        report.annotate("overhead_vs_baseline", mean(&walls[m]) / base_mean);
        report.annotate("min_overhead_vs_baseline", min_ratios[m]);
        c.bench_function(&format!("memsim_overhead_56blocks_{engine}"), |b| {
            b.iter(|| black_box(run()))
        });
    }
    // Budgets. Disabled is one predictable branch per access: the flat
    // 1.10x cap every off-by-default layer gets. Enabled probes two tag
    // arrays per transaction, so its budget is calibrated on this host
    // (as in `bench_racecheck_overhead`): price the enabled/baseline
    // ratio on a one-wave 14-block launch, then require the 56-block
    // sweep to stay within 3x of it — the model must scale with the
    // traffic, not superlinearly in blocks. A 15x absolute floor keeps
    // sub-measurable calibration ratios on fast hosts from turning
    // jitter into failures.
    let calib_base = min_wall(8, || {
        black_box(scaling_launch_with_memsim(false, 14));
    });
    let calib_enabled = min_wall(8, || {
        black_box(scaling_launch_with_memsim(true, 14));
    });
    let calib = calib_enabled / calib_base;
    let budget = (3.0 * calib).max(15.0);
    report.annotate("calibration_overhead_14blocks", calib);
    report.annotate("budget", budget);
    println!(
        "bench memsim_overhead 56 blocks disabled {:.3}x enabled {:.1}x, 14-block \
         calibration {calib:.1}x, budget {budget:.1}x",
        min_ratios[1], min_ratios[2]
    );
    assert!(
        min_ratios[1] <= 1.10,
        "disabled-memsim overhead {:.3}x exceeds the 1.10x budget",
        min_ratios[1]
    );
    assert!(
        min_ratios[2] <= budget,
        "enabled-memsim overhead {:.1}x exceeds the calibrated budget {budget:.1}x \
         (14-block same-host ratio {calib:.1}x)",
        min_ratios[2]
    );
    report.write_default();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_graph, bench_dynamic_update,
        bench_launch_scaling, bench_racecheck_overhead,
        bench_telemetry_overhead, bench_memsim_overhead
}
criterion_main!(benches);
