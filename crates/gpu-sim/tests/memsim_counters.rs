//! Unit tests for dynbc-memsim: hand-built kernels with known cache
//! footprints (L1 request population, L2 sectoring, cross-launch reuse,
//! evictions under a tiny geometry), plus the determinism contract (a
//! memsim report is bit-identical for any host-thread count) and the
//! no-op-when-off guarantee (reports without memsim carry no cache
//! fields at all).

use dynbc_gpusim::{BlockCtx, CacheConfig, DeviceConfig, Gpu, GpuBuffer, ProfileReport};

/// A tiny test device with the cache model on.
fn memsim_gpu() -> Gpu {
    let mut gpu = Gpu::new(DeviceConfig::test_tiny());
    gpu.instruments_mut().memsim = true;
    gpu
}

#[test]
fn l1_requests_equal_mem_transactions() {
    let mut gpu = memsim_gpu();
    let buf = gpu.alloc::<u32>(4096, 0);
    gpu.launch_named("scan", 4, |block, b| {
        block.parallel_for(256, |lane, i| {
            lane.read(&buf, (i * (b + 3)) % 4096);
        });
        block.barrier();
    });
    let c = gpu.profile_report().launches.last().unwrap().total;
    assert!(c.mem_transactions > 0);
    assert_eq!(
        c.cache.l1_requests(),
        c.mem_transactions,
        "one L1 request per 32-byte transaction the cost model charges"
    );
    // Every L1 miss requests exactly one 32 B L2 sector at the default
    // 32 B L1 line.
    assert_eq!(c.cache.l2_requests(), c.cache.l1_misses);
}

#[test]
fn l2_persists_across_launches_and_sectors_fill() {
    let mut gpu = memsim_gpu();
    gpu.instruments_mut().profiling = true;
    // 1024 u32 = 4 KiB = 128 sectors = 32 L2 lines. One block per
    // launch; with warp size 4, two consecutive warps share each sector.
    let buf = gpu.alloc::<u32>(1024, 0);
    let kernel = |block: &mut dynbc_gpusim::BlockCtx, _b: usize| {
        block.parallel_for(1024, |lane, i| {
            lane.read(&buf, i);
        });
        block.barrier();
    };
    gpu.launch_named("first", 1, kernel);
    gpu.launch_named("second", 1, kernel);
    let report = gpu.take_profile_report();
    let first = &report.launches[0].total.cache;
    let second = &report.launches[1].total.cache;
    // Launch 1: each sector missed by its first warp, hit by its second.
    assert_eq!(first.l1_misses, 128);
    assert_eq!(first.l1_hits, 128);
    // Cold L2: 32 line misses, then 3 sector fills per 128 B line.
    assert_eq!(first.l2_misses, 32);
    assert_eq!(first.l2_sector_fills, 96);
    assert_eq!(first.l2_hits, 0);
    // Launch 2: L1 is fresh (per launch), but the shared L2 kept every
    // sector — the cross-launch reuse CSR reordering optimizes for.
    assert_eq!(second.l1_misses, 128);
    assert_eq!(second.l2_hits, 128);
    assert_eq!(second.l2_misses, 0);
    assert_eq!(second.l2_sector_fills, 0);
    // Per-buffer attribution names the unnamed buffer's default.
    assert_eq!(
        report.buffer_totals(),
        vec![("unnamed".to_string(), 256)],
        "all L1 misses attribute to the one buffer"
    );
}

#[test]
fn tiny_geometry_forces_l1_and_l2_evictions() {
    // 1 KiB 2-way L1 (16 sets, 32 lines) and 1 KiB 2-way L2 (4 sets,
    // 8 lines): a 64-line working set thrashes both.
    let mut gpu = memsim_gpu();
    gpu.instruments_mut().cache = CacheConfig {
        l1_kb: 1,
        l1_ways: 2,
        l1_line: 32,
        l2_kb: 1,
        l2_ways: 2,
    };
    gpu.instruments_mut().profiling = true;
    let buf = gpu.alloc::<u32>(4096, 0);
    gpu.launch_named("thrash", 1, |block, _| {
        // Two passes over 64 distinct sectors (stride 8 u32 = 32 B).
        for _pass in 0..2 {
            block.parallel_for(64, |lane, i| {
                lane.read(&buf, i * 8);
            });
            block.barrier();
        }
    });
    let c = gpu.take_profile_report().total().cache;
    assert!(c.l1_evictions > 0, "64 lines cannot fit 32 L1 slots: {c:?}");
    assert!(
        c.l2_evictions > 0,
        "64 sectors span 16 L2 lines > 8 slots: {c:?}"
    );
    assert!(
        c.l1_hit_rate() < 0.5,
        "thrashing working set must mostly miss: {}",
        c.l1_hit_rate()
    );
}

#[test]
fn changing_the_cache_geometry_rebuilds_the_persistent_l2() {
    let small_l2 = CacheConfig {
        l2_kb: 2,
        l2_ways: 4,
        ..CacheConfig::default()
    };
    fn kernel(buf: &GpuBuffer<u32>) -> impl Fn(&mut BlockCtx, usize) + Sync + '_ {
        move |block, _b| {
            block.parallel_for(256, |lane, i| {
                lane.read(buf, i);
            });
            block.barrier();
        }
    }
    let mut gpu = memsim_gpu();
    let buf = gpu.alloc::<u32>(256, 0);
    gpu.launch_named("warm", 1, kernel(&buf));
    // A new geometry on a warm device: the next launch starts a cold L2
    // of the new shape.
    gpu.instruments_mut().cache = small_l2;
    gpu.launch_named("cold", 1, kernel(&buf));
    let report = gpu.take_profile_report();
    assert_eq!(
        report.launches[1].total.cache.l2_hits, 0,
        "reconfigured L2 must start cold"
    );
    // ... and counts exactly what a fresh device of that geometry counts.
    let mut fresh = memsim_gpu();
    fresh.instruments_mut().cache = small_l2;
    let fresh_buf = fresh.alloc::<u32>(256, 0);
    fresh.launch_named("cold", 1, kernel(&fresh_buf));
    assert_eq!(
        report.launches[1].total.cache,
        fresh.take_profile_report().launches[0].total.cache
    );
}

#[test]
fn reports_without_memsim_carry_no_cache_fields() {
    let mut gpu = Gpu::new(DeviceConfig::test_tiny());
    // Pinned, so a `DYNBC_MEMSIM` in the environment cannot turn it on.
    let ins = gpu.instruments_mut();
    ins.profiling = true;
    ins.memsim = false;
    let buf = gpu.alloc::<u32>(256, 0);
    gpu.launch_named("plain", 2, |block, _| {
        block.parallel_for(64, |lane, i| {
            lane.read(&buf, i);
        });
        block.barrier();
    });
    let report = gpu.take_profile_report();
    assert!(report.total().cache.is_empty());
    assert!(report.buffer_totals().is_empty());
    // The serialized sinks are byte-identical to a build without memsim:
    // no cache keys appear anywhere.
    let json = report.to_json();
    assert!(!json.contains("\"cache\""), "{json}");
    assert!(!json.contains("buffer_misses"), "{json}");
}

/// A multi-block kernel with block-dependent footprints (the
/// `profile_counters` determinism fixture, with memsim on).
fn run_at(threads: usize) -> ProfileReport {
    let mut gpu = Gpu::new(DeviceConfig::test_tiny());
    let ins = gpu.instruments_mut();
    ins.host_threads = threads;
    ins.profiling = true;
    ins.memsim = true;
    let buf = gpu.alloc::<u32>(4096, 0).named("adj");
    let acc = gpu.alloc::<u32>(8, 0).named("bc");
    for round in 0..3usize {
        let (buf, acc) = (&buf, &acc);
        gpu.launch_named("varied", 8, move |block, b| {
            block.label("scan");
            block.parallel_for(4 + b * 3 + round, |lane, i| {
                lane.read(buf, (i * (b + 1)) % 4096);
            });
            block.barrier();
            block.label("contend");
            block.parallel_for(4, |lane, _| {
                lane.atomic_add_u32(acc, b % 8, 1);
            });
            block.barrier();
        });
    }
    gpu.take_profile_report()
}

#[test]
fn memsim_report_is_bit_identical_across_host_threads() {
    let baseline = run_at(1);
    assert!(
        !baseline.total().cache.is_empty(),
        "fixture must exercise the cache model"
    );
    assert!(!baseline.buffer_totals().is_empty());
    for threads in [2usize, 8] {
        let got = run_at(threads);
        assert_eq!(
            baseline, got,
            "memsim report must not depend on host-thread count ({threads} threads)"
        );
    }
    // And the serialized report is therefore byte-identical too.
    assert_eq!(baseline.to_json(), run_at(8).to_json());
}
