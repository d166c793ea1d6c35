//! Static (from-scratch) GPU betweenness centrality.
//!
//! Two roles in the paper's evaluation:
//!
//! * **Figure 1** — static BC is the workload whose speedup is measured
//!   against the number of thread blocks, establishing "one block per SM"
//!   as the right configuration;
//! * **Table III** — "full recomputation of the analytic on the GPU" is
//!   the baseline every dynamic update is compared to.
//!
//! Both fine-grained decompositions are provided, after Jia et al.'s
//! edge/node comparison. Unlike the dynamic node kernels (which follow
//! the paper's sort-based duplicate removal), static discovery uses the
//! classic `atomicCAS(d[w], ∞, depth+1)` gate: a from-scratch BFS visits
//! every vertex, where CAS discovery is the established approach and
//! duplicate-tolerant queues would be pure overhead.

use super::buffers::{ScratchBuffers, SlackGraphBuffers, SLOT_Q2LEN, SLOT_QLEN, SLOT_QQLEN};
use super::engine::Parallelism;
use super::kernels::GraphView;
use dynbc_gpusim::{BlockCtx, CheckReport, DeviceConfig, Gpu, KernelStats};
use dynbc_graph::{Csr, SlackCsr, VertexId};

const INF: u32 = u32::MAX;

/// Result of a static GPU BC run.
#[derive(Debug, Clone)]
pub struct StaticBcReport {
    /// BC scores accumulated over the requested sources.
    pub bc: Vec<f64>,
    /// Simulated kernel seconds.
    pub seconds: f64,
    /// Work counters.
    pub stats: KernelStats,
    /// Per-block cycle counts (Fig. 1 uses the makespan behaviour).
    pub block_cycles: Vec<f64>,
}

/// Runs (approximate) static BC over `sources` with `num_blocks` thread
/// blocks on `device`. Exact BC is `sources = 0..n`. Host threads come
/// from `DYNBC_HOST_THREADS` (the report is bit-identical either way).
pub fn static_bc_gpu(
    device: DeviceConfig,
    csr: &Csr,
    sources: &[VertexId],
    par: Parallelism,
    num_blocks: usize,
) -> StaticBcReport {
    static_bc_gpu_on(device, csr, sources, par, num_blocks, None)
}

/// [`static_bc_gpu`] with an explicit host-thread count (`None` = read
/// `DYNBC_HOST_THREADS`). Results never depend on `host_threads`; the
/// knob only affects wall-clock time.
pub fn static_bc_gpu_on(
    device: DeviceConfig,
    csr: &Csr,
    sources: &[VertexId],
    par: Parallelism,
    num_blocks: usize,
    host_threads: Option<usize>,
) -> StaticBcReport {
    static_bc_core(device, csr, sources, par, num_blocks, host_threads, false).0
}

/// [`static_bc_gpu`] run unconditionally under the racecheck analysis:
/// returns the BC report alongside the checker's findings instead of
/// panicking on them (the caller owns the verdict). Costs and scores are
/// bit-identical to the unchecked run.
pub fn static_bc_gpu_checked(
    device: DeviceConfig,
    csr: &Csr,
    sources: &[VertexId],
    par: Parallelism,
    num_blocks: usize,
) -> (StaticBcReport, CheckReport) {
    let (report, check) = static_bc_core(device, csr, sources, par, num_blocks, None, true);
    (report, check.expect("checked run always yields a report"))
}

fn static_bc_core(
    device: DeviceConfig,
    csr: &Csr,
    sources: &[VertexId],
    par: Parallelism,
    num_blocks: usize,
    host_threads: Option<usize>,
    checked: bool,
) -> (StaticBcReport, Option<CheckReport>) {
    assert!(num_blocks >= 1, "need at least one block");
    let n = csr.vertex_count();
    let mut gpu = Gpu::new(device);
    if let Some(threads) = host_threads {
        gpu.instruments_mut().host_threads = threads;
    }
    // A slack-free immutable layout: capacity equals the arc count, so
    // the edge-parallel scans touch exactly the CSR's arcs and node rows
    // are all clean (no epoch checks).
    let slack = SlackCsr::from_csr_exact(csr);
    let store = SlackGraphBuffers::from_slack(&mut gpu, &slack);
    let g = GraphView::settled(&store);
    // CAS-gated discovery never duplicates queue entries, so queue rows of
    // width ~n suffice (ScratchBuffers rounds up internally).
    let scr = ScratchBuffers::new(&mut gpu, num_blocks, n, 0);
    let bc = gpu.alloc(n, 0.0f64).named("bc");
    let body = |block: &mut BlockCtx, b: usize| {
        for (si, &s) in sources.iter().enumerate() {
            if si % num_blocks != b {
                continue;
            }
            match par {
                Parallelism::Node => static_source_node(block, g, &scr, b, b, s),
                Parallelism::Edge => static_source_edge(block, g, &scr, b, b, s),
            }
        }
    };
    let (report, check) = if checked {
        let (r, c) = gpu.launch_checked("static_bc", num_blocks, body);
        (r, Some(c))
    } else {
        (gpu.launch_named("static_bc", num_blocks, body), None)
    };
    // Deterministic reduction: per-block BC contributions were staged in
    // the `bc_delta` slab; apply them serially in block-index order.
    scr.drain_bc_delta_into(&bc, num_blocks);
    (
        StaticBcReport {
            bc: bc.to_vec(),
            seconds: report.seconds,
            stats: report.stats,
            block_cycles: report.block_cycles,
        },
        check,
    )
}

/// Per-source init: `d ← ∞`, `σ ← 0`, `δ ← 0`, then seed the source.
pub(crate) fn static_init(
    block: &mut BlockCtx,
    g: GraphView<'_>,
    scr: &ScratchBuffers,
    slot: usize,
    s: u32,
) {
    block.label("static::init");
    let row = scr.row(slot);
    block.parallel_for(g.store.n, |lane, v| {
        lane.write(&scr.d_hat, row + v, INF);
        lane.write(&scr.sigma_hat, row + v, 0.0);
        lane.write(&scr.delta_hat, row + v, 0.0);
    });
    block.barrier();
    block.write_scalar(&scr.d_hat, row + s as usize, 0);
    block.write_scalar(&scr.sigma_hat, row + s as usize, 1.0);
}

/// Final per-source accumulation of dependencies toward the global BC
/// array — staged in the `bc_delta` slab row `bc_slot` so the caller can
/// reduce across rows in a fixed order (bit-determinism under
/// host-parallel execution). `bc_slot` equals the block slot for static
/// runs; the dynamic batch dispatcher passes per-*(op, block)* rows.
fn static_accumulate_bc(
    block: &mut BlockCtx,
    g: GraphView<'_>,
    scr: &ScratchBuffers,
    slot: usize,
    bc_slot: usize,
    s: u32,
) {
    block.label("static::accumulate_bc");
    let row = scr.row(slot);
    let brow = scr.bc_row(bc_slot);
    block.parallel_for(g.store.n, |lane, v| {
        if v != s as usize && lane.read(&scr.d_hat, row + v) != INF {
            let del = lane.read(&scr.delta_hat, row + v);
            lane.atomic_add_f64(&scr.bc_delta, brow + v, del);
        }
    });
    block.barrier();
}

/// One source, node-parallel: frontier queues with CAS discovery, then a
/// level-filtered dependency sweep over the discovery order `QQ`.
pub(crate) fn static_source_node(
    block: &mut BlockCtx,
    g: GraphView<'_>,
    scr: &ScratchBuffers,
    slot: usize,
    bc_slot: usize,
    s: u32,
) {
    static_init(block, g, scr, slot, s);
    block.label("static::node");
    let row = scr.row(slot);
    let qrow = scr.qrow(slot);
    let lrow = scr.lens_row(slot);
    block.write_scalar(&scr.q, qrow, s);
    block.write_scalar(&scr.qq, qrow, s);
    block.write_scalar(&scr.lens, lrow + SLOT_QLEN, 1);
    block.write_scalar(&scr.lens, lrow + SLOT_Q2LEN, 0);
    block.write_scalar(&scr.lens, lrow + SLOT_QQLEN, 1);
    let mut depth = 0u32;
    loop {
        let q_len = block.read_scalar(&scr.lens, lrow + SLOT_QLEN) as usize;
        block.parallel_for(q_len, |lane, tid| {
            let v = lane.read(&scr.q, qrow + tid);
            let sig_v = lane.read(&scr.sigma_hat, row + v as usize);
            let (start, end, check) = g.row(lane, v);
            for e in start..end {
                lane.prof_edges_scanned(1);
                let Some(w) = g.slot(lane, &check, e) else {
                    continue;
                };
                let w = w as usize;
                let old = lane.atomic_cas_u32(&scr.d_hat, row + w, INF, depth + 1);
                if old == INF {
                    let i = lane.atomic_add_u32(&scr.lens, lrow + SLOT_Q2LEN, 1);
                    lane.write(&scr.q2, qrow + i as usize, w as u32);
                    lane.prof_queue_push(1);
                }
                if old == INF || old == depth + 1 {
                    lane.prof_edges_passed(1);
                    lane.atomic_add_f64(&scr.sigma_hat, row + w, sig_v);
                }
            }
        });
        block.barrier();
        let found = block.read_scalar(&scr.lens, lrow + SLOT_Q2LEN) as usize;
        if found == 0 {
            break;
        }
        let qq_len = block.read_scalar(&scr.lens, lrow + SLOT_QQLEN) as usize;
        assert!(qq_len + found <= scr.qw, "static frontier overflow");
        block.parallel_for(found, |lane, i| {
            let v = lane.read(&scr.q2, qrow + i);
            lane.write(&scr.q, qrow + i, v);
            lane.write(&scr.qq, qrow + qq_len + i, v);
            lane.prof_queue_push(2);
        });
        block.barrier();
        block.write_scalar(&scr.lens, lrow + SLOT_QLEN, found as u32);
        block.write_scalar(&scr.lens, lrow + SLOT_QQLEN, (qq_len + found) as u32);
        block.write_scalar(&scr.lens, lrow + SLOT_Q2LEN, 0);
        depth += 1;
    }
    // Dependency accumulation over QQ, deepest level first.
    let qq_len = block.read_scalar(&scr.lens, lrow + SLOT_QQLEN) as usize;
    while depth > 0 {
        block.parallel_for(qq_len, |lane, tid| {
            let w = lane.read(&scr.qq, qrow + tid) as usize;
            if lane.read(&scr.d_hat, row + w) != depth {
                return;
            }
            let sig_w = lane.read(&scr.sigma_hat, row + w);
            let del_w = lane.read(&scr.delta_hat, row + w);
            let (start, end, check) = g.row(lane, w as u32);
            for e in start..end {
                lane.prof_edges_scanned(1);
                let Some(v) = g.slot(lane, &check, e) else {
                    continue;
                };
                let v = v as usize;
                if lane.read(&scr.d_hat, row + v) == depth - 1 {
                    lane.prof_edges_passed(1);
                    lane.compute(2);
                    let sig_v = lane.read(&scr.sigma_hat, row + v);
                    lane.atomic_add_f64(&scr.delta_hat, row + v, sig_v / sig_w * (1.0 + del_w));
                }
            }
        });
        block.barrier();
        depth -= 1;
    }
    static_accumulate_bc(block, g, scr, slot, bc_slot, s);
}

/// One source, edge-parallel (Jia et al.): scan all arcs every level in
/// both sweeps.
pub(crate) fn static_source_edge(
    block: &mut BlockCtx,
    g: GraphView<'_>,
    scr: &ScratchBuffers,
    slot: usize,
    bc_slot: usize,
    s: u32,
) {
    static_init(block, g, scr, slot, s);
    block.label("static::edge");
    let row = scr.row(slot);
    let capacity = g.store.capacity;
    let mut depth = 0u32;
    loop {
        let mut done = true;
        block.parallel_for(capacity, |lane, e| {
            lane.prof_edges_scanned(1);
            if !g.live(lane, e) {
                return;
            }
            let v = lane.read(&g.store.slot_tails, e) as usize;
            if lane.read(&scr.d_hat, row + v) != depth {
                return;
            }
            let w = g.neighbour(lane, e) as usize;
            let old = lane.atomic_cas_u32(&scr.d_hat, row + w, INF, depth + 1);
            if old == INF {
                done = false;
            }
            if old == INF || old == depth + 1 {
                lane.prof_edges_passed(1);
                let sig_v = lane.read(&scr.sigma_hat, row + v);
                lane.atomic_add_f64(&scr.sigma_hat, row + w, sig_v);
            }
        });
        block.barrier();
        if done {
            break;
        }
        depth += 1;
    }
    while depth > 0 {
        block.parallel_for(capacity, |lane, e| {
            lane.prof_edges_scanned(1);
            if !g.live(lane, e) {
                return;
            }
            let w = lane.read(&g.store.slot_tails, e) as usize;
            if lane.read(&scr.d_hat, row + w) != depth {
                return;
            }
            let v = g.neighbour(lane, e) as usize;
            if lane.read(&scr.d_hat, row + v) == depth - 1 {
                lane.prof_edges_passed(1);
                lane.compute(2);
                let sig_v = lane.read(&scr.sigma_hat, row + v);
                let sig_w = lane.read(&scr.sigma_hat, row + w);
                let del_w = lane.read(&scr.delta_hat, row + w);
                lane.atomic_add_f64(&scr.delta_hat, row + v, sig_v / sig_w * (1.0 + del_w));
            }
        });
        block.barrier();
        depth -= 1;
    }
    static_accumulate_bc(block, g, scr, slot, bc_slot, s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::{brandes_approx, brandes_exact};
    use dynbc_graph::{gen, EdgeList};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check(csr: &Csr, sources: &[u32], par: Parallelism, blocks: usize) {
        let report = static_bc_gpu(DeviceConfig::test_tiny(), csr, sources, par, blocks);
        let expect = brandes_approx(csr, sources);
        for (v, &want) in expect.iter().enumerate() {
            assert!(
                (report.bc[v] - want).abs() < 1e-9,
                "{par:?} blocks={blocks}: BC[{v}] = {} vs {want}",
                report.bc[v]
            );
        }
        assert!(report.seconds > 0.0);
    }

    #[test]
    fn node_matches_brandes_on_small_graphs() {
        let el = EdgeList::from_pairs(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]);
        let csr = Csr::from_edge_list(&el);
        check(&csr, &[0, 1, 2, 3, 4, 5], Parallelism::Node, 2);
    }

    #[test]
    fn edge_matches_brandes_on_small_graphs() {
        let el = EdgeList::from_pairs(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]);
        let csr = Csr::from_edge_list(&el);
        check(&csr, &[0, 1, 2, 3, 4, 5], Parallelism::Edge, 2);
    }

    #[test]
    fn both_match_on_random_graphs_any_block_count() {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let el = gen::er(&mut rng, 40, 70);
            let csr = Csr::from_edge_list(&el);
            let sources: Vec<u32> = (0..40).step_by(3).collect();
            for blocks in [1, 3, 7] {
                check(&csr, &sources, Parallelism::Node, blocks);
                check(&csr, &sources, Parallelism::Edge, blocks);
            }
        }
    }

    #[test]
    fn exact_static_on_disconnected_graph() {
        let el = EdgeList::from_pairs(5, [(0, 1), (1, 2)]);
        let csr = Csr::from_edge_list(&el);
        let all: Vec<u32> = (0..5).collect();
        let report = static_bc_gpu(DeviceConfig::test_tiny(), &csr, &all, Parallelism::Node, 2);
        let expect = brandes_exact(&csr);
        for (v, &want) in expect.iter().enumerate() {
            assert!((report.bc[v] - want).abs() < 1e-9, "BC[{v}]");
        }
    }

    #[test]
    fn edge_variant_generates_more_traffic_than_node() {
        // The paper's central claim, at static-BC scale: edge-parallel
        // scans all arcs every level and must move more memory.
        let mut rng = StdRng::seed_from_u64(9);
        let el = gen::geometric(&mut rng, 400, 0.05);
        let csr = Csr::from_edge_list(&el);
        let sources: Vec<u32> = (0..20).collect();
        let node = static_bc_gpu(
            DeviceConfig::test_tiny(),
            &csr,
            &sources,
            Parallelism::Node,
            2,
        );
        let edge = static_bc_gpu(
            DeviceConfig::test_tiny(),
            &csr,
            &sources,
            Parallelism::Edge,
            2,
        );
        assert!(
            edge.stats.mem_segments > node.stats.mem_segments,
            "edge {} vs node {} segments",
            edge.stats.mem_segments,
            node.stats.mem_segments
        );
        assert!(edge.seconds > node.seconds);
    }
}
