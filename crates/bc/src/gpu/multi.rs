//! Multi-GPU dynamic BC — the paper's first future-work item.
//!
//! "Further performance improvements can be attained with multi-GPU,
//! heterogeneous, or distributed implementations of this algorithm. The
//! vast amount of coarse-grained parallelism that exists should allow for
//! excellent strong scaling."
//!
//! The coarse grain is the *source vertex*: per-source updates never
//! communicate (only the final BC accumulation does), so a D-device
//! system partitions the k sources round-robin, replicates the graph, and
//! reduces per-device partial BC vectors on the host when scores are
//! read. Per-update simulated time is the slowest device's time — the
//! honest strong-scaling number, which degrades exactly when source
//! workloads are skewed (one device drawing the heavy Case 3 sources).

use super::engine::{GpuDynamicBc, Parallelism};
use super::exec::Backend;
use crate::dynamic::result::{BatchResult, UpdateResult};
use crate::obs::batch_observation;
use dynbc_gpusim::{CacheCounters, DeviceConfig, Instruments, ProfileReport};
use dynbc_graph::{EdgeList, EdgeOp, SlackCsr, VertexId};
use dynbc_telemetry::{Span, Telemetry};

/// Dynamic BC across several (simulated) GPUs.
#[derive(Debug)]
pub struct MultiGpuDynamicBc {
    devices: Vec<GpuDynamicBc>,
    telemetry: Option<Box<Telemetry>>,
}

impl MultiGpuDynamicBc {
    /// Builds a `num_devices`-GPU engine, partitioning `sources`
    /// round-robin. Every device holds the whole graph (the replication
    /// model the paper's future-work sketch implies).
    pub fn new(
        el: &EdgeList,
        sources: &[VertexId],
        device: DeviceConfig,
        par: Parallelism,
        num_devices: usize,
    ) -> Self {
        assert!(num_devices >= 1, "need at least one device");
        assert!(!sources.is_empty(), "need at least one source to partition");
        let devices = (0..num_devices.min(sources.len()))
            .map(|d| {
                let mine: Vec<VertexId> = sources
                    .iter()
                    .copied()
                    .skip(d)
                    .step_by(num_devices)
                    .collect();
                // Telemetry stays at the multi-engine level: per-device
                // collectors would double-count every update (see
                // `set_telemetry`).
                let mut dev = GpuDynamicBc::new(el, &mine, device, par);
                dev.set_telemetry(false);
                dev
            })
            .collect();
        Self {
            devices,
            telemetry: Instruments::from_env()
                .telemetry
                .then(|| Box::new(Telemetry::new())),
        }
    }

    /// Applies `f` to every device, in device-index order.
    fn each(&mut self, f: impl FnMut(&mut GpuDynamicBc)) {
        self.devices.iter_mut().for_each(f);
    }

    /// Pins the host-thread count on every simulated device (results are
    /// bit-identical for any value; see [`GpuDynamicBc::set_host_threads`]).
    pub fn set_host_threads(&mut self, threads: usize) {
        self.each(|d| d.set_host_threads(threads));
    }

    /// Enables/disables checked (racecheck) execution on every device.
    pub fn set_racecheck(&mut self, on: bool) {
        self.each(|d| d.set_racecheck(on));
    }

    /// Enables/disables profiled execution on every device (see
    /// [`GpuDynamicBc::set_profiling`]).
    pub fn set_profiling(&mut self, on: bool) {
        self.each(|d| d.set_profiling(on));
    }

    /// Enables/disables the memsim cache-hierarchy model on every device
    /// (see [`GpuDynamicBc::set_memsim`]); each device models its own L1s
    /// and shared L2.
    pub fn set_memsim(&mut self, on: bool) {
        self.each(|d| d.set_memsim(on));
    }

    /// Selects the execution backend on every device (see
    /// [`GpuDynamicBc::set_backend`]); results are bit-identical across
    /// backends.
    pub fn set_backend(&mut self, backend: Backend) {
        self.each(|d| d.set_backend(backend));
    }

    /// Warning-severity racecheck diagnostics summed over all devices.
    pub fn racecheck_warnings(&self) -> u64 {
        self.devices
            .iter()
            .map(GpuDynamicBc::racecheck_warnings)
            .sum()
    }

    /// Enables/disables engine-level telemetry.
    ///
    /// Deliberately *not* forwarded to the per-device engines: the batch
    /// is one logical update, so the multi engine records it once —
    /// makespan latency, summed case tallies, per-device utilization
    /// gauges, and one `device[d]` span per device, merged in
    /// device-index order so everything model-clocked stays bit-identical
    /// for any `DYNBC_HOST_THREADS`.
    pub fn set_telemetry(&mut self, on: bool) {
        if on {
            if self.telemetry.is_none() {
                self.telemetry = Some(Box::new(Telemetry::new()));
            }
        } else {
            self.telemetry = None;
        }
    }

    /// True when batches record telemetry.
    pub fn telemetry(&self) -> bool {
        self.telemetry.is_some()
    }

    /// The telemetry accumulated by batches applied with telemetry on.
    pub fn telemetry_report(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Drains the accumulated telemetry, leaving a fresh collector behind.
    pub fn take_telemetry_report(&mut self) -> Option<Telemetry> {
        self.telemetry.as_mut().map(|t| std::mem::take(&mut **t))
    }

    /// Number of participating devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The shared graph (every replica is identical; the first is
    /// authoritative).
    pub fn graph(&self) -> &SlackCsr {
        self.devices[0].graph()
    }

    /// Inserts `{u, v}` on every device. The reported `model_seconds` is
    /// the *makespan* — devices run concurrently and the update completes
    /// when the slowest finishes.
    ///
    /// A batch-of-one wrapper around [`MultiGpuDynamicBc::apply_batch`].
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> UpdateResult {
        self.apply_batch(&[EdgeOp::Insert(u, v)])
            .into_update_result()
    }

    /// Removes `{u, v}` on every device (makespan semantics as above).
    ///
    /// A batch-of-one wrapper around [`MultiGpuDynamicBc::apply_batch`].
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> UpdateResult {
        self.apply_batch(&[EdgeOp::Remove(u, v)])
            .into_update_result()
    }

    /// Applies a batch of edge mutations on every device (each runs the
    /// fused pipeline over its own source partition; see
    /// [`GpuDynamicBc::apply_batch`]).
    ///
    /// Per-op outcomes are merged across devices: case tallies add, and
    /// per-source details concatenate in device order — the same order
    /// single-op updates have always reported. `model_seconds` is the
    /// whole-batch makespan over devices.
    ///
    /// # Panics
    /// Panics (before touching any device state) if any op has an
    /// out-of-range endpoint, is a self loop, a duplicate insertion, or a
    /// removal of an absent edge.
    pub fn apply_batch(&mut self, batch: &[EdgeOp]) -> BatchResult {
        // dynbc-lint: allow(no-wall-clock) — wall_s is an observability-only telemetry field; no model result reads it
        let wall_start = std::time::Instant::now();
        let tel_on = self.telemetry.is_some();
        let clock_before = self.elapsed_seconds();
        let prof_before: Vec<usize> = if tel_on {
            self.devices
                .iter()
                .map(|d| d.profile_report().launches.len())
                .collect()
        } else {
            Vec::new()
        };
        let mut per_op = Vec::new();
        let mut makespan = 0.0f64;
        let mut dev_times: Vec<(f64, f64)> = Vec::new();
        for dev in &mut self.devices {
            let r = dev.apply_batch(batch);
            makespan = makespan.max(r.model_seconds);
            if tel_on {
                dev_times.push((r.model_seconds, r.wall_seconds));
            }
            if per_op.is_empty() {
                per_op = r.per_op;
            } else {
                for (acc, dr) in per_op.iter_mut().zip(r.per_op) {
                    debug_assert_eq!(acc.op, dr.op);
                    acc.cases.add(&dr.cases);
                    acc.per_source.extend(dr.per_source);
                }
            }
        }
        let wall_seconds = wall_start.elapsed().as_secs_f64();
        if tel_on {
            // Queue/dedup volume and cache counters: kernel-annotated
            // profiler counters from the launches this batch added, summed
            // in device-index order.
            let mut cache = CacheCounters::default();
            let (queue_ops, dedup_ops) =
                self.devices
                    .iter()
                    .zip(&prof_before)
                    .fold((0, 0), |(q, d), (dev, &before)| {
                        dev.profile_report().launches[before..]
                            .iter()
                            .fold((q, d), |(q, d), l| {
                                cache.merge(&l.total.cache);
                                (q + l.total.queue_pushes, d + l.total.dedup_ops)
                            })
                    });
            let n = self.devices[0].graph().vertex_count();
            let tel = self.telemetry.as_deref_mut().expect("tel_on");
            tel.push_span(
                Span::new("update", 0, clock_before, makespan)
                    .wall(wall_seconds)
                    .arg("ops", batch.len() as f64)
                    .arg("devices", dev_times.len() as f64),
            );
            for (d, &(model_s, wall_s)) in dev_times.iter().enumerate() {
                tel.push_span(
                    Span::new(format!("device[{d}]"), 1, clock_before, model_s)
                        .wall(wall_s)
                        .on_track(d as u32 + 1),
                );
                let util = if makespan > 0.0 {
                    model_s / makespan
                } else {
                    0.0
                };
                tel.set_device_utilization(d, util);
            }
            tel.record_update(&batch_observation(
                &per_op,
                n,
                makespan,
                wall_seconds,
                queue_ops,
                dedup_ops,
                cache,
            ));
        }
        BatchResult {
            per_op,
            model_seconds: makespan,
            wall_seconds,
        }
    }

    /// Gathers the global BC scores: the host-side reduction, in device
    /// order, over the per-device partial vectors — an O(n) download per
    /// device (untimed staging, like all host↔device transfers in this
    /// workspace).
    pub fn bc(&self) -> Vec<f64> {
        let n = self.devices[0].graph().vertex_count();
        let mut bc = vec![0.0f64; n];
        for dev in &self.devices {
            for (acc, x) in bc.iter_mut().zip(dev.bc_scores()) {
                *acc += x;
            }
        }
        bc
    }

    /// Cumulative simulated seconds, makespan-style: the maximum over
    /// devices (they run concurrently).
    pub fn elapsed_seconds(&self) -> f64 {
        self.devices
            .iter()
            .map(GpuDynamicBc::elapsed_seconds)
            .fold(0.0, f64::max)
    }

    /// Merges the per-device profiles into one report, **in device-index
    /// order** (the only aggregation a sum-type counter set admits, and
    /// deterministic for any host-thread count because each device's own
    /// report already is).
    pub fn profile_report(&self) -> ProfileReport {
        let mut merged = ProfileReport::new();
        for dev in &self.devices {
            merged.merge(dev.profile_report());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::{brandes_approx, sample_sources};
    use dynbc_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn multi_gpu_matches_single_gpu_scores() {
        let mut rng = StdRng::seed_from_u64(8);
        let el = gen::ws(&mut rng, 120, 3, 0.2);
        let sources = sample_sources(&mut rng, 120, 12);
        let mut single =
            GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node);
        let mut multi = MultiGpuDynamicBc::new(
            &el,
            &sources,
            DeviceConfig::test_tiny(),
            Parallelism::Node,
            3,
        );
        for (u, v) in [(0u32, 60u32), (10, 110), (33, 77), (5, 119)] {
            if single.graph().has_edge(u, v) {
                continue;
            }
            let rs = single.insert_edge(u, v);
            let rm = multi.insert_edge(u, v);
            assert_eq!(rs.cases, rm.cases, "case tallies must be partition-blind");
        }
        let a = single.state_snapshot().bc;
        let b = multi.bc();
        for v in 0..120 {
            assert!((a[v] - b[v]).abs() < 1e-9, "BC[{v}] differs across layouts");
        }
    }

    #[test]
    fn multi_gpu_matches_fresh_brandes_after_mixed_stream() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 80;
        let el = gen::ba(&mut rng, n, 3);
        let sources = sample_sources(&mut rng, n, 10);
        let mut multi = MultiGpuDynamicBc::new(
            &el,
            &sources,
            DeviceConfig::test_tiny(),
            Parallelism::Node,
            4,
        );
        for _ in 0..10 {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a == b {
                continue;
            }
            if multi.graph().has_edge(a, b) {
                multi.remove_edge(a, b);
            } else {
                multi.insert_edge(a, b);
            }
        }
        let fresh = brandes_approx(&multi.graph().to_csr(), &sources);
        let got = multi.bc();
        for v in 0..n {
            assert!((got[v] - fresh[v]).abs() < 1e-6, "BC[{v}]");
        }
    }

    #[test]
    fn strong_scaling_reduces_update_time() {
        let mut rng = StdRng::seed_from_u64(99);
        let el = gen::geometric(&mut rng, 900, 0.05);
        let sources = sample_sources(&mut rng, 900, 96);
        let time_with = |d: usize| {
            let mut eng = MultiGpuDynamicBc::new(
                &el,
                &sources,
                DeviceConfig::tesla_c2075(),
                Parallelism::Node,
                d,
            );
            // Strong scaling is a model-clock claim: pin the simulator.
            eng.set_backend(Backend::Simulator);
            let mut rng = StdRng::seed_from_u64(5);
            let mut total = 0.0;
            let mut done = 0;
            while done < 4 {
                let a = rng.gen_range(0..900u32);
                let b = rng.gen_range(0..900u32);
                if a == b || eng.graph().has_edge(a, b) {
                    continue;
                }
                total += eng.insert_edge(a, b).model_seconds;
                done += 1;
            }
            total
        };
        let t1 = time_with(1);
        let t4 = time_with(4);
        // Ideal strong scaling would be 0.25x; queue quantization over 14
        // SMs, fixed launch overhead, and heavy-source skew push it up —
        // but it must remain a clear win.
        assert!(
            t4 < t1 * 0.55,
            "4 devices should cut update time well below 1 device: {t1} -> {t4}"
        );
    }

    #[test]
    fn out_of_range_endpoint_panics_before_state_change() {
        let el = EdgeList::from_pairs(5, [(0, 1), (1, 2)]);
        let mut multi = MultiGpuDynamicBc::new(
            &el,
            &[0, 2, 4],
            DeviceConfig::test_tiny(),
            Parallelism::Node,
            3,
        );
        let bc = multi.bc();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            multi.apply_batch(&[EdgeOp::Insert(2, 3), EdgeOp::Insert(5, 0)])
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("out of range"), "{msg}");
        for dev in &multi.devices {
            assert_eq!(dev.graph().to_csr(), dynbc_graph::Csr::from_edge_list(&el));
        }
        assert_eq!(multi.bc(), bc);
    }

    #[test]
    fn device_count_clamps_to_source_count() {
        let el = EdgeList::from_pairs(8, [(0, 1), (1, 2), (2, 3)]);
        let multi = MultiGpuDynamicBc::new(
            &el,
            &[0, 2],
            DeviceConfig::test_tiny(),
            Parallelism::Node,
            16,
        );
        assert_eq!(multi.device_count(), 2);
    }
}
