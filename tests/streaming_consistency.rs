//! Property tests: any engine, any graph family, any insertion stream —
//! the incrementally-maintained state must equal a from-scratch Brandes
//! run after every step.

use dynbc::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a random graph from a randomly chosen family.
fn family_graph(family: u8, n: usize, seed: u64) -> EdgeList {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 5 {
        0 => dynbc::graph::gen::er(&mut rng, n, n * 3 / 2),
        1 => dynbc::graph::gen::ba(&mut rng, n, 3),
        2 => dynbc::graph::gen::ws(&mut rng, n, 2, 0.2),
        3 => dynbc::graph::gen::geometric(&mut rng, n, 0.1),
        // Sparse ER: lots of small components → merge-heavy streams.
        _ => dynbc::graph::gen::er(&mut rng, n, n / 3),
    }
}

fn random_stream(el: &EdgeList, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = el.vertex_count() as u32;
    let mut graph = el.clone();
    let mut out = Vec::with_capacity(count);
    let mut guard = 0;
    while out.len() < count && guard < 10_000 {
        guard += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && graph.insert_edge(u, v) {
            out.push((u, v));
        }
    }
    out
}

fn assert_state_matches(state: &BcState, csr: &Csr, ctx: &str) {
    let fresh = dynbc::bc::brandes::brandes_state(csr, &state.sources);
    for i in 0..state.sources.len() {
        prop_assert_eq_stub(&state.d[i], &fresh.d[i], ctx, "d");
        for v in 0..state.n {
            assert!(
                (state.sigma[i][v] - fresh.sigma[i][v]).abs() < 1e-6,
                "{ctx}: sigma[{i}][{v}]"
            );
            assert!(
                (state.delta[i][v] - fresh.delta[i][v]).abs() < 1e-6,
                "{ctx}: delta[{i}][{v}]: {} vs {}",
                state.delta[i][v],
                fresh.delta[i][v]
            );
        }
    }
    for v in 0..state.n {
        assert!(
            (state.bc[v] - fresh.bc[v]).abs() < 1e-6,
            "{ctx}: bc[{v}]: {} vs {}",
            state.bc[v],
            fresh.bc[v]
        );
    }
}

fn prop_assert_eq_stub(a: &[u32], b: &[u32], ctx: &str, what: &str) {
    assert_eq!(a, b, "{ctx}: {what} mismatch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cpu_engine_tracks_brandes(
        family in 0u8..5,
        n in 12usize..40,
        k in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let el = family_graph(family, n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let sources = sample_sources(&mut rng, el.vertex_count(), k);
        let stream = random_stream(&el, 6, seed ^ 0xF00D);
        let mut engine = CpuDynamicBc::new(&el, &sources);
        for (step, &(u, v)) in stream.iter().enumerate() {
            engine.insert_edge(u, v);
            assert_state_matches(
                engine.state(),
                &engine.graph().to_csr(),
                &format!("cpu family={family} seed={seed} step={step}"),
            );
        }
    }

    #[test]
    fn gpu_engines_track_brandes(
        family in 0u8..5,
        n in 12usize..32,
        seed in 0u64..1_000_000,
        edge_par in proptest::bool::ANY,
    ) {
        let el = family_graph(family, n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1111);
        let sources = sample_sources(&mut rng, el.vertex_count(), 4);
        let stream = random_stream(&el, 4, seed ^ 0x2222);
        let par = if edge_par { Parallelism::Edge } else { Parallelism::Node };
        let mut engine = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), par);
        for &(u, v) in &stream {
            engine.insert_edge(u, v);
        }
        // The oracle graph comes from the stream, not the engine's store.
        let mut after = el.clone();
        for &(u, v) in &stream {
            after.insert_edge(u, v);
        }
        let snapshot = engine.state_snapshot();
        assert_state_matches(
            &snapshot,
            &Csr::from_edge_list(&after),
            &format!("gpu-{par} family={family} n={n} seed={seed}"),
        );
    }

    #[test]
    fn cpu_and_gpu_agree_on_everything(
        family in 0u8..5,
        n in 12usize..28,
        seed in 0u64..1_000_000,
    ) {
        let el = family_graph(family, n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3333);
        let sources = sample_sources(&mut rng, el.vertex_count(), 4);
        let stream = random_stream(&el, 5, seed ^ 0x4444);
        let mut cpu = CpuDynamicBc::new(&el, &sources);
        let mut gpu = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node);
        for &(u, v) in &stream {
            let rc = cpu.insert_edge(u, v);
            let rg = gpu.insert_edge(u, v);
            prop_assert_eq!(rc.cases, rg.cases, "case tallies differ on ({},{})", u, v);
            // The touched sets are defined identically on both engines.
            for (oc, og) in rc.per_source.iter().zip(&rg.per_source) {
                prop_assert_eq!(oc.case, og.case);
                prop_assert_eq!(oc.touched, og.touched, "touched differs on ({},{})", u, v);
            }
        }
        let gs = gpu.state_snapshot();
        for v in 0..el.vertex_count() {
            prop_assert!((cpu.state().bc[v] - gs.bc[v]).abs() < 1e-6);
        }
    }
}
