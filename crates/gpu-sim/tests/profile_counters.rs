//! Unit tests for the profiling subsystem: hand-built kernels with known
//! divergence, coalescing, and contention footprints, plus the
//! determinism contract (a [`ProfileReport`] is bit-identical for any
//! host-thread count, like every other simulator output).

use dynbc_gpusim::{DeviceConfig, Gpu, GpuBuffer, ProfileReport};

/// A profiled single-block launch on the tiny test device (warp size 4)
/// over a zeroed `len`-element `u32` buffer.
fn profiled<F>(len: usize, f: F) -> ProfileReport
where
    F: Fn(&mut dynbc_gpusim::BlockCtx, usize, &GpuBuffer<u32>) + Sync,
{
    let mut gpu = Gpu::new(DeviceConfig::test_tiny());
    gpu.instruments_mut().profiling = true;
    let buf = gpu.alloc(len, 0);
    gpu.launch_named("test", 1, |block, b| f(block, b, &buf));
    gpu.take_profile_report()
}

#[test]
fn coalesced_warp_is_one_coalesced_transaction() {
    let report = profiled(8, |block, _, buf| {
        // 4 consecutive u32 = 16 bytes: one 32-byte segment serving all
        // four lanes (buffer bases are 256-aligned).
        block.parallel_for(4, |lane, i| {
            lane.read(buf, i);
        });
        block.barrier();
    });
    let c = report.total();
    assert_eq!(c.mem_transactions, 1);
    assert_eq!(c.coalesced_transactions, 1);
    assert_eq!(c.uncoalesced_transactions, 0);
    assert!((c.coalesced_fraction() - 1.0).abs() < 1e-12);
}

#[test]
fn scattered_warp_is_all_uncoalesced_transactions() {
    let report = profiled(1024, |block, _, buf| {
        // Stride 32 elements = 128 bytes: every lane its own segment.
        block.parallel_for(4, |lane, i| {
            lane.read(buf, i * 32);
        });
        block.barrier();
    });
    let c = report.total();
    assert_eq!(c.mem_transactions, 4);
    assert_eq!(c.coalesced_transactions, 0);
    assert_eq!(c.uncoalesced_transactions, 4);
    assert_eq!(c.coalesced_fraction(), 0.0);
}

#[test]
fn imbalanced_warp_counts_divergence_and_stalls() {
    let report = profiled(256, |block, _, buf| {
        // Lane 0 retires 3 events, lanes 1–3 retire 1: a divergent warp
        // with 3×4 − (3+1+1+1) = 6 idle lane-event slots.
        block.parallel_for(4, |lane, i| {
            if i == 0 {
                lane.read(buf, 0);
                lane.read(buf, 16);
                lane.read(buf, 32);
            } else {
                lane.read(buf, i);
            }
        });
        block.barrier();
    });
    let c = report.total();
    assert_eq!(c.warp_execs, 1);
    assert_eq!(c.active_lanes, 4);
    assert_eq!(c.lane_slots, 4);
    assert_eq!(c.divergent_warps, 1);
    assert_eq!(c.divergence_stalls, 6);
    assert!((c.occupancy() - 1.0).abs() < 1e-12);
}

#[test]
fn uniform_warp_has_no_divergence_and_partial_warp_dilutes_occupancy() {
    let report = profiled(64, |block, _, buf| {
        // 6 items on warp size 4: a full warp plus a 2-lane warp. Both
        // are uniform (1 event per lane), so no divergence; occupancy is
        // 6 active lanes over 8 lane slots.
        block.parallel_for(6, |lane, i| {
            lane.read(buf, i);
        });
        block.barrier();
    });
    let c = report.total();
    assert_eq!(c.warp_execs, 2);
    assert_eq!(c.active_lanes, 6);
    assert_eq!(c.lane_slots, 8);
    assert_eq!(c.divergent_warps, 0);
    assert_eq!(c.divergence_stalls, 0);
    assert!((c.occupancy() - 0.75).abs() < 1e-12);
}

#[test]
fn same_address_atomics_count_conflicts_and_contention_depth() {
    let report = profiled(4, |block, _, buf| {
        // All 4 lanes bump one counter: 4 ops, 3 serialization conflicts,
        // pile-up depth 4.
        block.parallel_for(4, |lane, _| {
            lane.atomic_add_u32(buf, 0, 1);
        });
        block.barrier();
    });
    let c = report.total();
    assert_eq!(c.atomic_ops, 4);
    assert_eq!(c.atomic_conflicts, 3);
    assert_eq!(c.max_contention_depth, 4);
}

#[test]
fn distinct_address_atomics_do_not_conflict() {
    let report = profiled(4, |block, _, buf| {
        block.parallel_for(4, |lane, i| {
            lane.atomic_add_u32(buf, i, 1);
        });
        block.barrier();
    });
    let c = report.total();
    assert_eq!(c.atomic_ops, 4);
    assert_eq!(c.atomic_conflicts, 0);
    assert_eq!(c.max_contention_depth, 1);
}

#[test]
fn semantic_annotations_accumulate_and_derive_futile_ratio() {
    let report = profiled(64, |block, _, buf| {
        block.parallel_for(8, |lane, i| {
            lane.read(buf, i);
            lane.prof_edges_scanned(4);
            lane.prof_edges_passed(1);
            lane.prof_queue_push(1);
            lane.prof_dedup_ops(2);
        });
        block.barrier();
    });
    let c = report.total();
    assert_eq!(c.edges_scanned, 32);
    assert_eq!(c.edges_passed, 8);
    assert_eq!(c.queue_pushes, 8);
    assert_eq!(c.dedup_ops, 16);
    assert!((c.futile_edge_ratio() - 0.75).abs() < 1e-12);
}

#[test]
fn stage_labels_partition_counters_in_first_touch_order() {
    let report = profiled(64, |block, _, buf| {
        block.label("stage_a");
        block.parallel_for(4, |lane, i| {
            lane.read(buf, i);
            lane.prof_edges_scanned(1);
        });
        block.barrier();
        block.label("stage_b");
        block.parallel_for(8, |lane, i| {
            lane.read(buf, i);
        });
        block.barrier();
    });
    assert_eq!(report.launches.len(), 1);
    let stages = &report.launches[0].stages;
    assert_eq!(stages.len(), 2);
    assert_eq!(stages[0].label, "stage_a");
    assert_eq!(stages[1].label, "stage_b");
    assert_eq!(stages[0].counters.edges_scanned, 4);
    assert_eq!(stages[0].counters.active_lanes, 4);
    assert_eq!(stages[1].counters.edges_scanned, 0);
    assert_eq!(stages[1].counters.active_lanes, 8);
    // The launch total is the sum over stages.
    let t = report.total();
    assert_eq!(t.active_lanes, 12);
    assert_eq!(t.barriers, 2);
}

#[test]
fn profiling_switch_records_each_launch_and_unprofiled_runs_record_nothing() {
    let mut gpu = Gpu::new(DeviceConfig::test_tiny());
    let buf = gpu.alloc::<u32>(64, 0);
    // Pinned off (memsim implies profiling), so `DYNBC_PROFILE` or
    // `DYNBC_MEMSIM` in the environment cannot turn recording on.
    let ins = gpu.instruments_mut();
    ins.profiling = false;
    ins.memsim = false;
    // Unprofiled launch: no entries accumulate.
    gpu.launch_named("plain", 2, |block, _| {
        block.parallel_for(4, |lane, i| {
            lane.read(&buf, i);
        });
        block.barrier();
    });
    assert!(gpu.profile_report().launches.is_empty());
    // Profiled launch: its LaunchProfile is the report's last entry.
    gpu.instruments_mut().profiling = true;
    gpu.launch_named("profiled", 2, |block, _| {
        block.parallel_for(4, |lane, i| {
            lane.read(&buf, i);
        });
        block.barrier();
    });
    let launch = gpu.profile_report().launches.last().unwrap().clone();
    assert_eq!(launch.kernel, "profiled");
    assert_eq!(launch.num_blocks, 2);
    let report = gpu.take_profile_report();
    assert_eq!(report.launches.len(), 1);
    assert_eq!(report.launches[0], launch);
    assert!(gpu.profile_report().launches.is_empty(), "take drains");
}

/// A multi-block kernel with block-dependent work (different per-block
/// counter footprints), run at several host-thread counts.
fn run_at(threads: usize) -> ProfileReport {
    let mut gpu = Gpu::new(DeviceConfig::test_tiny());
    gpu.instruments_mut().host_threads = threads;
    gpu.instruments_mut().profiling = true;
    let buf = gpu.alloc::<u32>(4096, 0);
    let acc = gpu.alloc::<u32>(8, 0);
    for round in 0..3usize {
        let (buf, acc) = (&buf, &acc);
        gpu.launch_named("varied", 8, move |block, b| {
            block.label("scan");
            block.parallel_for(4 + b * 3 + round, |lane, i| {
                lane.read(buf, (i * (b + 1)) % 4096);
                lane.prof_edges_scanned(1);
                if i % 2 == 0 {
                    lane.prof_edges_passed(1);
                }
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
fn profile_report_is_bit_identical_across_host_threads() {
    let baseline = run_at(1);
    assert_eq!(baseline.launches.len(), 3);
    for threads in [2usize, 8] {
        let got = run_at(threads);
        assert_eq!(
            baseline, got,
            "ProfileReport must not depend on host-thread count ({threads} threads)"
        );
    }
    // And the serialized report is therefore byte-identical too.
    assert_eq!(baseline.to_json(), run_at(8).to_json());
}
