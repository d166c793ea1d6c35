//! Node-parallel Case 2 kernels (Algorithms 5 and 7).
//!
//! One thread per *frontier vertex*: work-efficient by construction. The
//! shortest-path stage drives explicit queues `Q`/`Q2` with sort-based
//! duplicate removal; the dependency stage rescans the level-ordered `QQ`
//! array each depth, filtering by `d[w] = current_depth` — the "small
//! amount of extra work" the paper accepts in exchange for never touching
//! vertices outside the update's footprint.
//!
//! Both kernels are generic over the [`Exec`]utor, so the simulator and
//! the native backend run these bodies.

use super::common::{advance_no_dedup, dedup_and_advance};
use super::{push_q2, Ctx, Exec, Gate, KernelLane, LevelOf};
use crate::gpu::buffers::{SLOT_Q2LEN, SLOT_QLEN, SLOT_QQLEN, T_DOWN, T_UP};
use crate::gpu::engine::DedupStrategy;

/// Algorithm 5: node-parallel shortest-path recount. Returns the deepest
/// touched level (the starting depth for dependency accumulation —
/// Algorithm 5's closing `atomicMax` computes exactly this).
///
/// `dedup` selects how duplicate frontier entries are avoided: the
/// paper's sort/flag/scan pipeline behind a [`Gate::TestAndSet`]
/// discovery, or the [`Gate::Cas`] gate on `t[w]` it argues against
/// (kept for the ablation study).
pub fn sp_node<X: Exec>(ex: &mut X, ctx: &Ctx<'_>, dedup: DedupStrategy) -> u32 {
    ex.label("case2_node::sp");
    // Seed: Q = QQ = [u_low] (lines 3–7).
    let u_low = ctx.u_low;
    let d_low = ex.read_scalar(&ctx.st.d, ctx.kn(u_low));
    ex.write_scalar(&ctx.scr.q, ctx.qi(0), u_low);
    ex.write_scalar(&ctx.scr.qq, ctx.qi(0), u_low);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN), 1);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 0);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN), 1);
    let gate = match dedup {
        DedupStrategy::SortScan => Gate::TestAndSet,
        DedupStrategy::AtomicCas => Gate::Cas,
    };

    let mut depth = d_low; // shared current_depth
    loop {
        let q_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN)) as usize;
        ex.parallel_for(q_len, |lane, tid| {
            let v = lane.read(&ctx.scr.q, ctx.qi(tid));
            let sig_hat_v = lane.read(&ctx.scr.sigma_hat, ctx.sn(v));
            let sig_v = lane.read(&ctx.st.sigma, ctx.kn(v));
            let push = sig_hat_v - sig_v;
            let (start, end, check) = ctx.g.row(lane, v);
            for e in start..end {
                lane.prof_edges_scanned(1);
                let Some(w) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                if lane.read(&ctx.st.d, ctx.kn(w)) == depth + 1 {
                    lane.prof_edges_passed(1);
                    if lane.claim(ctx, w, T_DOWN, gate) {
                        push_q2(lane, ctx, w);
                    }
                    lane.atomic_add_f64(&ctx.scr.sigma_hat, ctx.sn(w), push);
                }
            }
        });
        ex.barrier();
        let found = match dedup {
            DedupStrategy::SortScan => dedup_and_advance(ex, ctx),
            DedupStrategy::AtomicCas => advance_no_dedup(ex, ctx),
        };
        if found == 0 {
            break;
        }
        depth += 1;
    }
    depth
}

/// Algorithm 7: node-parallel dependency accumulation, starting at
/// `deepest` and walking toward the source. Newly discovered
/// ("up") predecessors are appended to `QQ` and participate in later
/// (shallower) iterations.
pub fn dep_node<X: Exec>(ex: &mut X, ctx: &Ctx<'_>, deepest: u32) {
    ex.label("case2_node::dep");
    let u_high = ctx.u_high;
    let u_low = ctx.u_low;
    let mut levels = X::Levels::from(LevelOf::D);
    let mut depth = deepest;
    while depth > 0 {
        let qq_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN)) as usize;
        ex.for_level(&mut levels, ctx, qq_len, depth, |lane, w| {
            let sig_hat_w = lane.read(&ctx.scr.sigma_hat, ctx.sn(w));
            let del_hat_w = lane.read(&ctx.scr.delta_hat, ctx.sn(w));
            let sig_w = lane.read(&ctx.st.sigma, ctx.kn(w));
            let del_w = lane.read(&ctx.st.delta, ctx.kn(w));
            let (start, end, check) = ctx.g.row(lane, w);
            for e in start..end {
                lane.prof_edges_scanned(1);
                let Some(v) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                if lane.read(&ctx.st.d, ctx.kn(v)) != depth - 1 {
                    continue;
                }
                lane.prof_edges_passed(1);
                let mut dsv = 0.0;
                // First toucher seeds δ̂[v] with the old dependency and
                // publishes v for shallower iterations.
                if lane.claim(ctx, v, T_UP, Gate::Cas) {
                    // dynbc-lint: allow(float-accumulation) — lane-local accumulator over the fixed adjacency order; single writer, drained via bc_delta
                    dsv += lane.read(&ctx.st.delta, ctx.kn(v));
                    let i = lane.atomic_add_u32(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 1);
                    assert!(qq_len + (i as usize) < ctx.scr.qw, "QQ overflow");
                    lane.write(&ctx.scr.qq, ctx.qi(qq_len + i as usize), v);
                    lane.prof_queue_push(1);
                }
                lane.compute(2); // the divide + multiply-add below
                                 // dynbc-lint: allow(float-accumulation) — lane-local accumulator over the fixed adjacency order; single writer, drained via bc_delta
                dsv += lane.read(&ctx.scr.sigma_hat, ctx.sn(v)) / sig_hat_w * (1.0 + del_hat_w);
                if lane.read(&ctx.scr.t, ctx.sn(v)) == T_UP && !(v == u_high && w == u_low) {
                    lane.compute(2);
                    dsv -= lane.read(&ctx.st.sigma, ctx.kn(v)) / sig_w * (1.0 + del_w);
                }
                lane.atomic_add_f64(&ctx.scr.delta_hat, ctx.sn(v), dsv);
            }
        });
        ex.barrier();
        // Lines 18–19: absorb the vertices discovered this round.
        let added = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN));
        ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN), qq_len as u32 + added);
        ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 0);
        depth -= 1;
    }
}
