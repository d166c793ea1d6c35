//! Node-parallel Case 3 kernels — our generalization of Algorithms 5/7 to
//! insertions that change distances (`|Δd| > 1`, including component
//! merges).
//!
//! Three phases, mirroring the sequential engine in
//! `dynamic::cpu::case3_update`:
//!
//! 1. **Relocate + recount** — a level-synchronous sweep from `u_low`'s
//!    new level. Each frontier vertex *pulls* its σ̂ fresh from its
//!    new-level predecessors (pull is idempotent, so relocated vertices
//!    that appear in stale queue entries are simply skipped), then
//!    relocates farther neighbours to `level + 1` and marks same-level
//!    successors `down`.
//! 2. **Mark** — closure of dependency changes over *both* DAGs: a
//!    predecessor in the new DAG gains/changes a term, a predecessor in
//!    the old DAG loses one (the relocated-vertex case a new-DAG-only walk
//!    would miss). Discovered vertices are appended to `QQ`; the deepest
//!    new level among them is tracked with `atomicMax` (an `up` vertex can
//!    sit *deeper* than every `down` vertex).
//! 3. **Pull sweep** — dependency accumulation by decreasing new level,
//!    recomputing each touched vertex's δ̂ from scratch out of its
//!    new-DAG successors. No add/subtract bookkeeping: that is only sound
//!    when levels are static.
//!
//! All three are generic over the [`Exec`]utor, so the simulator and the
//! native backend run these bodies.

use super::common::{advance, dedup_and_advance};
use super::{push_q2, Ctx, Exec, Gate, KernelLane, LevelOf};
use crate::gpu::buffers::{
    SLOT_DEPTH, SLOT_Q2LEN, SLOT_QLEN, SLOT_QQLEN, T_DOWN, T_UNTOUCHED, T_UP,
};

/// Phase 1: relocation + σ̂ recount. Returns the deepest down-level.
pub fn phase1_node<X: Exec>(ex: &mut X, ctx: &Ctx<'_>) -> u32 {
    ex.label("case3_node::phase1");
    let u_low = ctx.u_low;
    let start = ex.read_scalar(&ctx.scr.d_hat, ctx.sn(u_low));
    ex.write_scalar(&ctx.scr.q, ctx.qi(0), u_low);
    ex.write_scalar(&ctx.scr.qq, ctx.qi(0), u_low);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN), 1);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 0);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN), 1);

    let mut level = start;
    let mut deepest = start;
    loop {
        let q_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN)) as usize;
        // Pull pass: recount σ̂ for the (final-position) frontier.
        ex.parallel_for(q_len, |lane, tid| {
            let v = lane.read(&ctx.scr.q, ctx.qi(tid));
            if lane.read(&ctx.scr.d_hat, ctx.sn(v)) != level {
                return; // stale entry from before a relocation
            }
            let (start_e, end_e, check) = ctx.g.row(lane, v);
            let mut sig = 0.0;
            for e in start_e..end_e {
                lane.prof_edges_scanned(1);
                let Some(x) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                if lane.d_hat(ctx, x) == level - 1 {
                    lane.prof_edges_passed(1);
                    // Untouched x: σ̂ = σ from init. Touched x: final, its
                    // level is fully drained.
                    // dynbc-lint: allow(float-accumulation) — lane-local accumulator over the fixed adjacency order; single writer, drained via bc_delta
                    sig += lane.sigma_hat(ctx, x);
                }
            }
            lane.write(&ctx.scr.sigma_hat, ctx.sn(v), sig);
        });
        ex.barrier();
        // Expand pass: relocate and mark.
        ex.parallel_for(q_len, |lane, tid| {
            let v = lane.read(&ctx.scr.q, ctx.qi(tid));
            if lane.read(&ctx.scr.d_hat, ctx.sn(v)) != level {
                return;
            }
            let (start_e, end_e, check) = ctx.g.row(lane, v);
            for e in start_e..end_e {
                lane.prof_edges_scanned(1);
                let Some(w) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                let dw = lane.d_hat(ctx, w);
                if dw > level + 1 {
                    lane.prof_edges_passed(1);
                    // Relocation (covers dw = ∞, the merge case).
                    lane.relocate(ctx, w, level + 1);
                    push_q2(lane, ctx, w);
                } else if dw == level + 1 && lane.claim(ctx, w, T_DOWN, Gate::TestAndSet) {
                    lane.prof_edges_passed(1);
                    push_q2(lane, ctx, w);
                }
            }
        });
        ex.barrier();
        let found = dedup_and_advance(ex, ctx);
        if found == 0 {
            break;
        }
        level += 1;
        deepest = level;
    }
    deepest
}

/// Phase 2a: mark the closure of dependency changes. Returns the deepest
/// level over all touched vertices (down or up).
pub fn mark_node<X: Exec>(ex: &mut X, ctx: &Ctx<'_>, deepest_down: u32) -> u32 {
    ex.label("case3_node::mark");
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_DEPTH), deepest_down);
    // Round 0 walks everything already in QQ; later rounds walk the
    // newly-marked frontier in Q.
    let mut from_qq = true;
    loop {
        let list_len = if from_qq {
            ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN)) as usize
        } else {
            ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN)) as usize
        };
        ex.parallel_for(list_len, |lane, tid| {
            let w = if from_qq {
                lane.read(&ctx.scr.qq, ctx.qi(tid))
            } else {
                lane.read(&ctx.scr.q, ctx.qi(tid))
            };
            let dw_new = lane.read(&ctx.scr.d_hat, ctx.sn(w));
            let dw_old = lane.read(&ctx.st.d, ctx.kn(w));
            let (start_e, end_e, check) = ctx.g.row(lane, w);
            for e in start_e..end_e {
                lane.prof_edges_scanned(1);
                let Some(x) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                if lane.read(&ctx.scr.t, ctx.sn(x)) != T_UNTOUCHED {
                    continue;
                }
                // Untouched ⇒ x's old and new levels coincide.
                let dx = lane.read(&ctx.st.d, ctx.kn(x));
                let new_pred = dw_new > 0 && dx == dw_new - 1;
                let old_pred = dw_old != u32::MAX && dw_old > 0 && dx == dw_old - 1;
                if (new_pred || old_pred) && lane.claim_tested(ctx, x, T_UP) {
                    lane.prof_edges_passed(1);
                    lane.atomic_max_u32(&ctx.scr.lens, ctx.li(SLOT_DEPTH), dx);
                    push_q2(lane, ctx, x);
                }
            }
        });
        ex.barrier();
        // CAS-gated marking produces no duplicates: move Q2 → Q directly
        // and append to QQ.
        let added = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN)) as usize;
        if added == 0 {
            break;
        }
        advance(ex, ctx, added);
        from_qq = false;
    }
    ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_DEPTH))
}

/// Phase 2b: pull-based dependency sweep by decreasing new level.
pub fn phase2_node<X: Exec>(ex: &mut X, ctx: &Ctx<'_>, max_depth: u32) {
    ex.label("case3_node::phase2");
    let qq_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN)) as usize;
    let mut levels = X::Levels::from(LevelOf::DHat);
    let mut depth = max_depth;
    loop {
        // Stale/duplicate entries fail the level test: pull is idempotent.
        ex.for_level(&mut levels, ctx, qq_len, depth, |lane, w| {
            let sig_hat_w = lane.read(&ctx.scr.sigma_hat, ctx.sn(w));
            let (start_e, end_e, check) = ctx.g.row(lane, w);
            let mut acc = 0.0;
            for e in start_e..end_e {
                lane.prof_edges_scanned(1);
                let Some(x) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                if lane.d_hat(ctx, x) != depth + 1 {
                    continue;
                }
                lane.prof_edges_passed(1);
                lane.compute(2);
                let sig_x = lane.sigma_hat(ctx, x);
                let del_x = if lane.read(&ctx.scr.t, ctx.sn(x)) != T_UNTOUCHED {
                    lane.read(&ctx.scr.delta_hat, ctx.sn(x))
                } else {
                    lane.read(&ctx.st.delta, ctx.kn(x))
                };
                // dynbc-lint: allow(float-accumulation) — lane-local accumulator over the fixed adjacency order; single writer, drained via bc_delta
                acc += sig_hat_w / sig_x * (1.0 + del_x);
            }
            lane.write(&ctx.scr.delta_hat, ctx.sn(w), acc);
        });
        ex.barrier();
        if depth == 0 {
            break;
        }
        depth -= 1;
    }
}
