//! Concurrent snapshot-consistency stress tier.
//!
//! N reader threads race a shard's writer over a deterministic stream.
//! The contract under test: every snapshot any reader observes is
//! **bit-identical** to a sequential one-op-at-a-time oracle at the same
//! stream prefix, and the epochs one reader observes are monotone.
//! Batching must not be able to leak: per the batch-partition contract
//! (DESIGN §4e), `apply_batch` of any prefix split is bit-identical to
//! one-at-a-time application — removals included — so the oracle
//! indexes by `ops_applied` regardless of how the worker batched.
//!
//! Runs the CPU engine and the GPU engine at 1, 2, and 8 host threads
//! (host-thread count must not affect published bits either) on an
//! insert stream, and both engines on an interleaved removal/re-addition
//! stream.

use std::sync::Arc;

use dynbc_bc::gpu::{Backend, GpuDynamicBc, Parallelism};
use dynbc_bc::CpuDynamicBc;
use dynbc_bench::stream;
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::{gen, EdgeList, EdgeOp, VertexId};
use dynbc_serve::{ServeConfig, Shard, ShardEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ring of `n` vertices — every chord insertion below is then valid.
fn ring(n: u32) -> EdgeList {
    EdgeList::from_pairs(n as usize, (0..n).map(|u| (u, (u + 1) % n)))
}

/// A deterministic stream of chord insertions into the ring (stride
/// walk, no duplicates, no ring edges).
fn chord_stream(n: u32, count: usize) -> Vec<EdgeOp> {
    let mut ops = Vec::with_capacity(count);
    let mut u = 0u32;
    let mut stride = 2u32;
    let mut have = std::collections::BTreeSet::new();
    while ops.len() < count {
        let v = (u + stride) % n;
        let key = (u.min(v), u.max(v));
        let ring_edge = (key.1 - key.0 == 1) || (key.0 == 0 && key.1 == n - 1);
        if u != v && !ring_edge && have.insert(key) {
            ops.push(EdgeOp::Insert(key.0, key.1));
        }
        u = (u + 1) % n;
        if u == 0 {
            stride += 1;
            assert!(stride < n, "stream longer than the chord supply");
        }
    }
    ops
}

/// Scores after each prefix of `ops`, applied one at a time on a fresh
/// engine of the same kind as `mk` builds.
fn oracle_prefixes(mk: &dyn Fn() -> ShardEngine, ops: &[EdgeOp]) -> Vec<Vec<f64>> {
    let mut engine = mk();
    let mut prefixes = Vec::with_capacity(ops.len() + 1);
    prefixes.push(engine.scores());
    for &op in ops {
        match &mut engine {
            ShardEngine::Cpu(e) => {
                e.apply_batch(&[op]);
            }
            ShardEngine::Gpu(e) => {
                e.apply_batch(&[op]);
            }
        }
        prefixes.push(engine.scores());
    }
    prefixes
}

/// The stress harness: `readers` threads poll the snapshot chain while
/// the main thread submits `ops`; every observation is checked against
/// `prefixes` and for epoch monotonicity.
fn race_readers_against_writer(mk: &dyn Fn() -> ShardEngine, ops: &[EdgeOp], readers: usize) {
    let prefixes = Arc::new(oracle_prefixes(mk, ops));
    let total = ops.len() as u64;

    let cfg = ServeConfig {
        queue_cap: 8, // small queue: exercise backpressure under load
        batch_max: 7, // odd width: commits land on varied prefixes
        telemetry: false,
    };
    let shard = Shard::spawn(mk(), &cfg);

    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let mut reader = shard.reader();
            let prefixes = Arc::clone(&prefixes);
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut observed = 0usize;
                loop {
                    let snap = reader.latest().clone();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epochs ran backwards: {} after {last_epoch}",
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    let at = snap.ops_applied() as usize;
                    assert_eq!(
                        snap.scores(),
                        &prefixes[at][..],
                        "snapshot at prefix {at} diverged from the sequential oracle"
                    );
                    observed += 1;
                    if snap.ops_applied() == total {
                        return observed;
                    }
                    // Single-core hosts: give the writer room to run.
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    for &op in ops {
        loop {
            match shard.submit(op) {
                Ok(()) => break,
                Err(e) => {
                    assert_eq!(e, dynbc_serve::SubmitError::Backpressure);
                    std::thread::yield_now();
                }
            }
        }
    }
    for h in handles {
        let observed = h.join().expect("reader panicked");
        assert!(observed >= 1);
    }
    let (_engine, last) = shard.shutdown();
    assert_eq!(last.ops_applied(), total);
    assert_eq!(last.scores(), &prefixes[ops.len()][..]);
}

fn cpu_engine() -> ShardEngine {
    let el = ring(24);
    let sources: Vec<VertexId> = (0..24).collect();
    ShardEngine::cpu(CpuDynamicBc::new(&el, &sources))
}

fn gpu_engine(host_threads: usize) -> ShardEngine {
    let el = ring(24);
    let sources: Vec<VertexId> = (0..24).step_by(2).collect();
    ShardEngine::gpu(
        GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node)
            .with_host_threads(host_threads),
    )
}

#[test]
fn cpu_shard_snapshots_match_oracle_under_reader_race() {
    race_readers_against_writer(&cpu_engine, &chord_stream(24, 40), 4);
}

#[test]
fn gpu_shard_snapshots_match_oracle_at_1_host_thread() {
    race_readers_against_writer(&|| gpu_engine(1), &chord_stream(24, 40), 2);
}

#[test]
fn gpu_shard_snapshots_match_oracle_at_2_host_threads() {
    race_readers_against_writer(&|| gpu_engine(2), &chord_stream(24, 40), 2);
}

#[test]
fn gpu_shard_snapshots_match_oracle_at_8_host_threads() {
    race_readers_against_writer(&|| gpu_engine(8), &chord_stream(24, 40), 2);
}

/// A BA(60, 3) graph, its sources, and an interleaved removal/re-addition
/// stream over it (spanning-forest tabu, lag 4): the serving
/// benchmark's churn shape, small enough for a stress test.
fn churn() -> (EdgeList, Vec<VertexId>, Vec<EdgeOp>) {
    let mut rng = StdRng::seed_from_u64(20140519);
    let el = gen::ba(&mut rng, 60, 3);
    let tabu = stream::spanning_forest_tabu(&el);
    let ops = stream::interleaved(&el, 30, 4, &tabu, &mut rng);
    (el, (0..60).step_by(3).collect(), ops)
}

#[test]
fn gpu_shard_churn_snapshots_match_oracle() {
    let (el, sources, ops) = churn();
    for backend in [Backend::Simulator, Backend::Native] {
        let mk = || {
            ShardEngine::gpu(
                GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node)
                    .with_backend(backend)
                    .with_host_threads(2),
            )
        };
        race_readers_against_writer(&mk, &ops, 2);
    }
}

#[test]
fn cpu_shard_churn_snapshots_match_oracle() {
    let (el, sources, ops) = churn();
    race_readers_against_writer(
        &|| ShardEngine::cpu(CpuDynamicBc::new(&el, &sources)),
        &ops,
        2,
    );
}

#[test]
fn gpu_bits_are_identical_across_host_thread_counts() {
    // The oracle itself must not depend on host threads: same stream,
    // same bits at every prefix for 1/2/8 threads.
    let ops = chord_stream(24, 40);
    let p1 = oracle_prefixes(&|| gpu_engine(1), &ops);
    let p2 = oracle_prefixes(&|| gpu_engine(2), &ops);
    let p8 = oracle_prefixes(&|| gpu_engine(8), &ops);
    assert_eq!(p1, p2);
    assert_eq!(p1, p8);
}
