//! The `dynbc-racecheck` tier: memcheck/racecheck-style checked execution.
//!
//! Two halves, mirroring how `cuda-memcheck --tool racecheck` earns its
//! keep on real hardware:
//!
//! 1. **Deliberately broken fixtures** prove each diagnostic class fires
//!    and carries enough context to act on (kernel name, buffer name, cell
//!    index, offending blocks/lanes): data races (intra-block and
//!    cross-block), sharing-contract violations (atomic+plain mixing,
//!    mixed atomic op kinds across blocks), barrier divergence, and
//!    out-of-bounds indexing.
//! 2. **Clean-run gates** execute every shipped BC kernel — static Brandes
//!    in both decompositions, the full mixed insert/delete streams (Case
//!    2/3 insertions, D2/D3 deletions, both decompositions, both dedup
//!    strategies), and the multi-SM path — under the checker and demand
//!    zero diagnostics of any severity.
//!
//! Run via `cargo test racecheck` (the verify script also sets
//! `DYNBC_RACECHECK=1` so the env plumbing is exercised; the tests
//! themselves opt in programmatically and pass either way).

use dynbc::bc::gpu::DedupStrategy;
use dynbc::gpusim::{DeviceConfig, DiagClass, Gpu};
use dynbc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn gpu() -> Gpu {
    // Fixtures assert on reports, so launches must not panic on errors:
    // force the env default off regardless of DYNBC_RACECHECK.
    let mut g = Gpu::new(DeviceConfig::test_tiny());
    g.instruments_mut().racecheck = false;
    g
}

// ---------------------------------------------------------------------------
// Negative fixtures: each diagnostic class must fire, with context.
// ---------------------------------------------------------------------------

#[test]
fn racecheck_flags_intra_block_data_race() {
    let mut g = gpu();
    let cells = g.alloc::<u32>(16, 0).named("frontier");
    let (_, check) = g.launch_checked("bad_frontier", 1, |block, _| {
        block.label("fixture::scatter");
        block.parallel_for(8, |lane, i| {
            // Every lane writes its own value to one shared cell.
            lane.write(&cells, 5, i as u32);
        });
    });
    assert!(check.has_errors());
    let d = check.errors().next().expect("diagnostic");
    assert_eq!(d.class, DiagClass::DataRace);
    assert_eq!(d.kernel, "bad_frontier");
    assert_eq!(d.label, "fixture::scatter");
    assert_eq!(d.buffer, Some("frontier"));
    assert_eq!(d.index, Some(5));
    assert_eq!(d.lanes.len(), 2, "the conflicting pair: {:?}", d.lanes);
}

#[test]
fn racecheck_flags_cross_block_data_race() {
    let mut g = gpu();
    let cells = g.alloc::<f64>(8, 0.0).named("bc");
    // The bug the bc_delta slab exists to prevent: blocks writing one
    // shared BC array directly.
    let (_, check) = g.launch_checked("direct_bc_commit", 2, |block, b| {
        block.parallel_for(4, |lane, i| {
            lane.write(&cells, i, (b * 10 + i) as f64);
        });
    });
    assert!(check.has_errors());
    let d = check
        .errors()
        .find(|d| d.class == DiagClass::DataRace)
        .expect("cross-block race");
    assert_eq!(d.buffer, Some("bc"));
    assert_eq!(d.blocks.len(), 2, "both blocks named: {:?}", d.blocks);
    assert!(d.message.contains("never ordered"), "{}", d.message);
}

#[test]
fn racecheck_flags_atomic_plain_mixing_across_blocks() {
    let mut g = gpu();
    let cells = g.alloc::<u32>(4, 0).named("qlen");
    let (_, check) = g.launch_checked("mixed_access", 2, |block, b| {
        block.parallel_for(2, |lane, _| {
            if b == 0 {
                lane.atomic_add_u32(&cells, 0, 1);
            } else {
                lane.read(&cells, 0); // unsynchronized spy on a contended cell
            }
        });
    });
    assert!(check.has_errors());
    let d = check.errors().next().unwrap();
    assert_eq!(d.class, DiagClass::AtomicContract);
    assert_eq!(d.buffer, Some("qlen"));
    assert_eq!(d.index, Some(0));
}

#[test]
fn racecheck_flags_mixed_atomic_op_kinds() {
    let mut g = gpu();
    let cells = g.alloc::<u32>(4, 0).named("depth");
    // atomicAdd and atomicMax both commute with themselves but not with
    // each other: from different blocks the final value is order-dependent.
    let (_, check) = g.launch_checked("kind_clash", 2, |block, b| {
        block.parallel_for(2, |lane, _| {
            if b == 0 {
                lane.atomic_add_u32(&cells, 1, 3);
            } else {
                lane.atomic_max_u32(&cells, 1, 100);
            }
        });
    });
    assert!(check.has_errors());
    let d = check.errors().next().unwrap();
    assert_eq!(d.class, DiagClass::AtomicContract);
    assert!(
        d.message.contains("atomic_add_u32") && d.message.contains("atomic_max_u32"),
        "both op kinds named: {}",
        d.message
    );
}

#[test]
fn racecheck_flags_barrier_divergence() {
    let mut g = gpu();
    let cells = g.alloc::<u32>(8, 0).named("x");
    let kernel = |block: &mut dynbc::gpusim::BlockCtx, _b: usize| {
        block.parallel_for(4, |lane, i| {
            lane.read(&cells, i);
            if i >= 2 {
                lane.barrier(); // only half the lanes arrive
            }
        });
    };
    // Checked: structured report.
    let (_, check) = g.launch_checked("diverging", 1, kernel);
    assert!(check.has_errors());
    let d = check.errors().next().unwrap();
    assert_eq!(d.class, DiagClass::BarrierDivergence);
    assert!(d.message.contains("deadlock"), "{}", d.message);
    // Unchecked: the simulator models the hang as a panic.
    let hung = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        g.launch(1, kernel);
    }));
    assert!(hung.is_err(), "unchecked divergence must fail the launch");
}

#[test]
fn racecheck_flags_out_of_bounds_with_buffer_and_index() {
    let mut g = gpu();
    let short = g.upload::<u32>(vec![1, 2, 3]).named("adj");
    let (_, check) = g.launch_checked("walks_off_end", 1, |block, _| {
        block.parallel_for(2, |lane, i| {
            lane.write(&short, 3 + i, 77); // both lanes past the end
        });
    });
    assert!(check.has_errors());
    let oob: Vec<_> = check
        .errors()
        .filter(|d| d.class == DiagClass::OutOfBounds)
        .collect();
    assert_eq!(oob.len(), 2, "every OOB site reported, not just the first");
    assert_eq!(oob[0].buffer, Some("adj"));
    assert_eq!(oob[0].index, Some(3));
    assert_eq!(oob[1].index, Some(4));
    assert_eq!(short.to_vec(), [1, 2, 3], "suppressed writes never land");
}

#[test]
fn racecheck_same_value_waw_is_a_warning_not_an_error() {
    // The paper's benign-race shape, unannotated: flagged, but only as a
    // warning (the write is provably value-preserving).
    let mut g = gpu();
    g.instruments_mut().racecheck = true;
    let cells = g.alloc::<u32>(4, 0).named("t");
    g.launch_named("test_then_set", 1, |block, _| {
        block.parallel_for(4, |lane, _| {
            lane.write(&cells, 0, 1);
        });
    });
    assert_eq!(g.check_warnings(), 1);
    assert_eq!(g.checked_launches(), 1);
}

#[test]
fn racecheck_volatile_declares_benign_races_clean() {
    let mut g = gpu();
    let cells = g.alloc::<u32>(4, 0).named("t");
    let (_, check) = g.launch_checked("declared_benign", 1, |block, _| {
        block.parallel_for(4, |lane, _| {
            if lane.read(&cells, 0) == 0 {
                lane.write_volatile(&cells, 0, 1);
            }
        });
    });
    assert!(check.is_clean(), "{check}");
    assert_eq!(cells.to_vec()[0], 1);
}

#[test]
fn racecheck_env_opt_in_reaches_new_devices() {
    // Whatever the switch variables say right now, Gpu::new must agree
    // with the documented parse (no env mutation here: that would race
    // with parallel tests).
    let expect = dynbc::gpusim::Instruments::from_env();
    assert_eq!(Gpu::new(DeviceConfig::test_tiny()).instruments(), expect);
}

// ---------------------------------------------------------------------------
// Clean-run gates: every shipped BC kernel under the checker.
// ---------------------------------------------------------------------------

#[test]
fn racecheck_clean_static_brandes_both_parallelisms() {
    let mut rng = StdRng::seed_from_u64(404);
    let el = dynbc::graph::gen::er(&mut rng, 36, 80);
    let csr = Csr::from_edge_list(&el);
    let sources: Vec<VertexId> = (0..36).step_by(3).collect();
    for par in [Parallelism::Node, Parallelism::Edge] {
        let (report, check) = dynbc::bc::gpu::static_bc_gpu_checked(
            DeviceConfig::test_tiny(),
            &csr,
            &sources,
            par,
            2,
        );
        assert!(check.is_clean(), "static {par}: {check}");
        assert!(check.accesses > 0, "static {par}: checker saw no traffic");
        // Checked execution must not perturb results.
        let unchecked = static_bc_gpu(DeviceConfig::test_tiny(), &csr, &sources, par, 2);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&report.bc),
            bits(&unchecked.bc),
            "static {par}: scores"
        );
        assert_eq!(
            report.seconds.to_bits(),
            unchecked.seconds.to_bits(),
            "static {par}: simulated time"
        );
    }
}

/// Drives the determinism suite's 50-event mixed insert/delete stream with
/// every launch checked; any error diagnostic panics inside
/// `launch_named`, and the warning tally must end at zero.
fn checked_mixed_stream(par: Parallelism, dedup: DedupStrategy, graph_seed: u64, stream_seed: u64) {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    let el = dynbc::graph::gen::er(&mut rng, 30, 60);
    let sources = sample_sources(&mut rng, 30, 6);
    let mut eng =
        GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), par).with_dedup_strategy(dedup);
    eng.set_racecheck(true);
    let n = el.vertex_count() as u32;
    let mut rng = StdRng::seed_from_u64(stream_seed);
    let mut done = 0;
    while done < 50 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        if eng.graph().has_edge(a, b) {
            eng.remove_edge(a, b);
        } else {
            eng.insert_edge(a, b);
        }
        done += 1;
    }
    assert!(eng.checked_launches() > 0, "stream never hit the checker");
    assert_eq!(
        eng.racecheck_warnings(),
        0,
        "{par}/{dedup:?}: shipped kernels must run warning-free"
    );
    // The checked stream must land on the same state a fresh Brandes does.
    let csr = eng.graph().to_csr();
    let st = eng.state_snapshot();
    let fresh = dynbc::bc::brandes::brandes_state(&csr, &st.sources);
    for v in 0..st.n {
        assert!(
            (st.bc[v] - fresh.bc[v]).abs() < 1e-6,
            "{par}/{dedup:?}: BC[{v}] drifted under checking"
        );
    }
}

#[test]
fn racecheck_clean_mixed_stream_node_sortscan() {
    checked_mixed_stream(Parallelism::Node, DedupStrategy::SortScan, 2014, 0xD15EA5E);
}

#[test]
fn racecheck_clean_mixed_stream_node_atomiccas() {
    checked_mixed_stream(Parallelism::Node, DedupStrategy::AtomicCas, 2014, 0xD15EA5E);
}

#[test]
fn racecheck_clean_mixed_stream_edge() {
    checked_mixed_stream(Parallelism::Edge, DedupStrategy::SortScan, 1414, 0xBADC0DE);
}

/// Case D3's incremental repair under the checker, on the node-parallel
/// path with both dedup strategies. Removing `(0, 1)` loses the subtree
/// `{1, 2, 3}` from source 0, settled from boundary neighbours at two
/// levels; removing the bridge `(8, 9)` then cuts `{9, 10}` off.
#[test]
fn racecheck_clean_d3_lost_subtree_and_disconnection() {
    let el = EdgeList::from_pairs(
        11,
        [
            (0, 1),
            (1, 2),
            (1, 3),
            (0, 4),
            (4, 5),
            (2, 5),
            (0, 6),
            (6, 7),
            (7, 8),
            (3, 8),
            (8, 9),
            (9, 10),
        ],
    );
    for dedup in [DedupStrategy::SortScan, DedupStrategy::AtomicCas] {
        let mut eng = GpuDynamicBc::new(&el, &[0, 5, 10], DeviceConfig::test_tiny(), {
            Parallelism::Node
        })
        .with_dedup_strategy(dedup);
        eng.set_racecheck(true);
        assert!(eng.remove_edge(0, 1).cases.distant >= 1);
        assert!(eng.remove_edge(8, 9).cases.distant >= 1);
        assert!(eng.checked_launches() > 0, "stream never hit the checker");
        assert_eq!(eng.racecheck_warnings(), 0, "{dedup:?}: D3 warnings");
        let st = eng.state_snapshot();
        assert_eq!(st.d[0][1..4], [4, 3, 4], "{dedup:?}: lost subtree levels");
        assert_eq!(st.d[0][9], u32::MAX, "{dedup:?}: cut-off vertex");
        let fresh = dynbc::bc::brandes::brandes_state(&eng.graph().to_csr(), &st.sources);
        for v in 0..st.n {
            assert!(
                (st.bc[v] - fresh.bc[v]).abs() < 1e-6,
                "{dedup:?}: BC[{v}] drifted under checking"
            );
        }
    }
}

#[test]
fn racecheck_clean_force_general_stream() {
    // The ablation path: Case 2 insertions routed through the Case 3
    // relocation machinery.
    let mut rng = StdRng::seed_from_u64(99);
    let el = dynbc::graph::gen::ws(&mut rng, 24, 2, 0.3);
    let sources = sample_sources(&mut rng, 24, 4);
    for par in [Parallelism::Node, Parallelism::Edge] {
        let mut eng = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), par)
            .with_force_general(true);
        eng.set_racecheck(true);
        let mut done = 0;
        let mut rng = StdRng::seed_from_u64(7);
        while done < 10 {
            let a = rng.gen_range(0..24u32);
            let b = rng.gen_range(0..24u32);
            if a == b || eng.graph().has_edge(a, b) {
                continue;
            }
            eng.insert_edge(a, b);
            done += 1;
        }
        assert_eq!(eng.racecheck_warnings(), 0, "{par}: force-general warnings");
    }
}

#[test]
fn racecheck_clean_multi_sm_path() {
    // `test_tiny` has two SMs, so every fused grid spreads its blocks over
    // both; a mixed stream exercises the cross-SM paths of every kernel.
    let mut rng = StdRng::seed_from_u64(5150);
    let el = dynbc::graph::gen::er(&mut rng, 24, 50);
    let sources = sample_sources(&mut rng, 24, 8);
    let mut eng = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node);
    eng.set_racecheck(true);
    let mut rng = StdRng::seed_from_u64(31);
    let mut done = 0;
    while done < 12 {
        let a = rng.gen_range(0..24u32);
        let b = rng.gen_range(0..24u32);
        if a == b {
            continue;
        }
        if eng.graph().has_edge(a, b) {
            eng.remove_edge(a, b);
        } else {
            eng.insert_edge(a, b);
        }
        done += 1;
    }
    assert_eq!(eng.racecheck_warnings(), 0, "multi-SM stream warnings");
}

#[test]
fn racecheck_checked_stream_is_cost_and_state_neutral() {
    // Checked execution observes; it must never perturb the simulation.
    let run = |checked: bool| {
        let mut rng = StdRng::seed_from_u64(606);
        let el = dynbc::graph::gen::er(&mut rng, 22, 44);
        let sources = sample_sources(&mut rng, 22, 4);
        let mut eng =
            GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node);
        eng.set_racecheck(checked);
        let mut rng = StdRng::seed_from_u64(17);
        let mut done = 0;
        while done < 12 {
            let a = rng.gen_range(0..22u32);
            let b = rng.gen_range(0..22u32);
            if a == b {
                continue;
            }
            if eng.graph().has_edge(a, b) {
                eng.remove_edge(a, b);
            } else {
                eng.insert_edge(a, b);
            }
            done += 1;
        }
        let st = eng.state_snapshot();
        let bc_bits: Vec<u64> = st.bc.iter().map(|x| x.to_bits()).collect();
        (eng.elapsed_seconds().to_bits(), bc_bits)
    };
    let (t0, bc0) = run(false);
    let (t1, bc1) = run(true);
    assert_eq!(t0, t1, "checked mode changed simulated seconds");
    assert_eq!(bc0, bc1, "checked mode changed BC bits");
}
