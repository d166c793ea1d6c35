//! Deletion-specific device kernels.
//!
//! Case D2 (distances static, σ shrinks) reuses the Case 2 machinery —
//! [`init_kernel`](super::common::init_kernel) with the
//! [`DeleteAdjacent`](super::common::SeedMode::DeleteAdjacent) seed, then
//! the unmodified shortest-path kernels (their pushes are simply
//! negative), then the dependency kernels with the inserted-pair
//! exclusion disabled. The one genuinely new piece is the **phantom
//! retraction**: the deleted edge no longer appears in the adjacency, so
//! `u_high`'s stale dependency term through it must be retracted
//! explicitly before the sweep runs.
//!
//! Case D3 (`u_high` was `u_low`'s only predecessor, so distances grow)
//! is repaired incrementally on the node-parallel path, after
//! [`init_kernel`](super::common::init_kernel) with the
//! [`General`](super::common::SeedMode::General) seed. Three
//! level-synchronous steps, one lane per frontier vertex, rebuild the
//! down set that the Case 3 closure expects:
//!
//! 1. [`d3_collect`] walks the old levels down from `u_low` and collects
//!    the **lost set** `L`: the vertices whose old predecessors all lie in
//!    `L` (`u_low` starts it). Every other vertex keeps a shortest path
//!    that avoids the removed edge, so only `L` moves. `L`'s old children
//!    that keep another predecessor are recorded too (their σ shrinks).
//!    A pending `L` vertex is marked by `t = down` plus `d̂ = ∞`; a kept
//!    child keeps `d̂ = d`.
//! 2. [`d3_settle`] settles `L`'s new levels in increasing order: the
//!    next level is the smallest `d̂ + 1` over the finite neighbours of
//!    pending vertices (outside `L`, or settled earlier), and every
//!    pending vertex with a neighbour one level up settles there. A
//!    vertex never reached stays at `∞` with `σ̂ = δ̂ = 0`: the removal
//!    disconnected it.
//! 3. [`d3_recount`] recounts σ̂ by increasing new level over `L`, the
//!    kept children and every vertex below a recounted one, then touches
//!    `u_high` as `up`: the removed edge hides its lost child from every
//!    neighbour scan, so the closure below would miss it.
//!
//! All three steps and the phantom retraction are generic over the
//! [`Exec`]utor, so the simulator and the native backend run these
//! bodies.
//!
//! The item then ends like an insertion Case 3:
//! [`mark_node`](super::case3_node::mark_node) →
//! [`phase2_node`](super::case3_node::phase2_node) →
//! [`update_kernel`](super::common::update_kernel) with `case3 = true`.
//!
//! The edge-parallel path keeps the from-scratch fallback: the
//! [`static_bc`](crate::gpu::static_bc) kernels writing into this block's
//! scratch rows, bracketed by a subtract-old / commit-new pair so the
//! global `BC` array receives exactly `δ_new − δ_old`.

use super::common::advance_no_dedup;
use super::{push_q2, Ctx, Exec, Gate, KernelLane, LevelOf};
use crate::gpu::buffers::{
    SLOT_DEPTH, SLOT_Q2LEN, SLOT_QLEN, SLOT_QQLEN, T_DOWN, T_UNTOUCHED, T_UP,
};
use dynbc_gpusim::BlockCtx;

const INF: u32 = u32::MAX;

/// Retracts the deleted edge's stale contribution to `δ̂[u_high]` and
/// publishes `u_high` for the dependency sweep (marked `up`, seeded with
/// its old dependency, appended to `QQ` for the node-parallel sweep).
///
/// Must run after the shortest-path stage (so `QQ_len` is final) and
/// before dependency accumulation.
pub fn phantom_retraction<X: Exec>(ex: &mut X, ctx: &Ctx<'_>) {
    ex.label("delete::phantom_retraction");
    let u_high = ctx.u_high;
    let u_low = ctx.u_low;
    // One-lane kernel: CAS the flag, seed, retract, enqueue.
    ex.parallel_for(1, |lane, _| {
        if lane.claim(ctx, u_high, T_UP, Gate::Cas) {
            let del_high = lane.read(&ctx.st.delta, ctx.kn(u_high));
            lane.write(&ctx.scr.delta_hat, ctx.sn(u_high), del_high);
            let i = lane.atomic_add_u32(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 1);
            let qq_len = lane.read(&ctx.scr.lens, ctx.li(SLOT_QQLEN));
            assert!(((qq_len + i) as usize) < ctx.scr.qw, "QQ overflow");
            lane.write(&ctx.scr.qq, ctx.qi((qq_len + i) as usize), u_high);
            lane.prof_queue_push(1);
        }
        lane.compute(2);
        let sig_high = lane.read(&ctx.st.sigma, ctx.kn(u_high));
        let sig_low = lane.read(&ctx.st.sigma, ctx.kn(u_low));
        let del_low = lane.read(&ctx.st.delta, ctx.kn(u_low));
        let term = sig_high / sig_low * (1.0 + del_low);
        lane.atomic_add_f64(&ctx.scr.delta_hat, ctx.sn(u_high), -term);
    });
    ex.barrier();
    // Absorb the possible QQ append.
    let qq_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN));
    let added = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN));
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN), qq_len + added);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 0);
}

/// Case D3 step 1: collects the lost set `L` and its kept children.
///
/// Level by old level from `u_low`: one lane per lost vertex claims its
/// old children (`t ← down`, so each is enqueued once), then one lane per
/// claimed child checks its old predecessors. A child all of whose
/// predecessors are lost is lost too (`d̂ ← ∞`, next frontier); otherwise
/// it is a kept child and keeps `d̂ = d`. Every claimed vertex is appended
/// to `QQ`, so on return `QQ` holds exactly `L` plus its kept children.
pub fn d3_collect<X: Exec>(ex: &mut X, ctx: &Ctx<'_>) {
    ex.label("delete::d3_collect");
    let u_low = ctx.u_low;
    ex.write_scalar(&ctx.scr.d_hat, ctx.sn(u_low), INF);
    ex.write_scalar(&ctx.scr.q, ctx.qi(0), u_low);
    ex.write_scalar(&ctx.scr.qq, ctx.qi(0), u_low);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN), 1);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 0);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN), 1);
    let mut level = ex.read_scalar(&ctx.st.d, ctx.kn(u_low));
    loop {
        let q_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN)) as usize;
        // Claim every old child of this level's lost vertices.
        ex.parallel_for(q_len, |lane, tid| {
            let v = lane.read(&ctx.scr.q, ctx.qi(tid));
            let (start_e, end_e, check) = ctx.g.row(lane, v);
            for e in start_e..end_e {
                lane.prof_edges_scanned(1);
                let Some(w) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                if lane.read(&ctx.st.d, ctx.kn(w)) == level + 1
                    && lane.claim(ctx, w, T_DOWN, Gate::Cas)
                {
                    lane.prof_edges_passed(1);
                    push_q2(lane, ctx, w);
                }
            }
        });
        ex.barrier();
        let found = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN)) as usize;
        if found == 0 {
            break;
        }
        let qq_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN)) as usize;
        assert!(qq_len + found <= ctx.scr.qw, "QQ overflow");
        ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN), 0);
        // Test each claimed child: lost iff every old predecessor is a
        // lost vertex (touched with d̂ = ∞; kept children have d̂ = d).
        ex.parallel_for(found, |lane, i| {
            let w = lane.read(&ctx.scr.q2, ctx.qi(i));
            lane.write(&ctx.scr.qq, ctx.qi(qq_len + i), w);
            lane.prof_queue_push(1);
            let (start_e, end_e, check) = ctx.g.row(lane, w);
            let mut lost = true;
            for e in start_e..end_e {
                lane.prof_edges_scanned(1);
                let Some(x) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                if lane.read(&ctx.st.d, ctx.kn(x)) == level
                    && (lane.read(&ctx.scr.t, ctx.sn(x)) == T_UNTOUCHED
                        || lane.read(&ctx.scr.d_hat, ctx.sn(x)) != INF)
                {
                    lane.prof_edges_passed(1);
                    lost = false;
                    break;
                }
            }
            if lost {
                lane.write(&ctx.scr.d_hat, ctx.sn(w), INF);
                let j = lane.atomic_add_u32(&ctx.scr.lens, ctx.li(SLOT_QLEN), 1);
                lane.write(&ctx.scr.q, ctx.qi(j as usize), w);
                lane.prof_queue_push(1);
            }
        });
        ex.barrier();
        ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN), (qq_len + found) as u32);
        ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 0);
        if ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN)) == 0 {
            break;
        }
        level += 1;
    }
}

/// Case D3 step 2: settles the new levels of the lost set, in increasing
/// order.
///
/// Gathers `L` (the `QQ` entries with `d̂ = ∞`) into `Q`, then per round:
/// one lane per pending vertex takes the smallest `d̂ + 1` over its
/// finite neighbours (`atomicMin` → the round's level λ; a neighbour
/// outside `L` seeds, a settled one relaxes), one lane per pending
/// vertex settles it at λ if a neighbour sits at λ − 1, and a last pass
/// writes `d̂ ← λ` — after a barrier, so no lane reads a level written in
/// the same round. A round with no finite neighbour anywhere ends the
/// walk; the vertices still pending are disconnected and get `σ̂ = 0`.
///
/// `L` is touched, so its `d̂` cells are read directly; a neighbour may
/// be untouched and is read through [`KernelLane::d_hat`].
pub fn d3_settle<X: Exec>(ex: &mut X, ctx: &Ctx<'_>) {
    ex.label("delete::d3_settle");
    let qq_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN)) as usize;
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN), 0);
    ex.parallel_for(qq_len, |lane, tid| {
        let v = lane.read(&ctx.scr.qq, ctx.qi(tid));
        if lane.read(&ctx.scr.d_hat, ctx.sn(v)) == INF {
            let j = lane.atomic_add_u32(&ctx.scr.lens, ctx.li(SLOT_QLEN), 1);
            lane.write(&ctx.scr.q, ctx.qi(j as usize), v);
            lane.prof_queue_push(1);
        }
    });
    ex.barrier();
    let lost = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN)) as usize;
    loop {
        ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_DEPTH), INF);
        ex.parallel_for(lost, |lane, tid| {
            let v = lane.read(&ctx.scr.q, ctx.qi(tid));
            if lane.read(&ctx.scr.d_hat, ctx.sn(v)) != INF {
                return; // settled in an earlier round
            }
            let (start_e, end_e, check) = ctx.g.row(lane, v);
            let mut best = INF;
            for e in start_e..end_e {
                lane.prof_edges_scanned(1);
                let Some(x) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                let dx = lane.d_hat(ctx, x);
                if dx != INF {
                    lane.prof_edges_passed(1);
                    best = best.min(dx + 1);
                }
            }
            if best != INF {
                lane.atomic_min_u32(&ctx.scr.lens, ctx.li(SLOT_DEPTH), best);
            }
        });
        ex.barrier();
        let level = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_DEPTH));
        if level == INF {
            break;
        }
        ex.parallel_for(lost, |lane, tid| {
            let v = lane.read(&ctx.scr.q, ctx.qi(tid));
            if lane.read(&ctx.scr.d_hat, ctx.sn(v)) != INF {
                return;
            }
            let (start_e, end_e, check) = ctx.g.row(lane, v);
            for e in start_e..end_e {
                lane.prof_edges_scanned(1);
                let Some(x) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                if lane.d_hat(ctx, x) == level - 1 {
                    lane.prof_edges_passed(1);
                    push_q2(lane, ctx, v);
                    break;
                }
            }
        });
        ex.barrier();
        let settled = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN)) as usize;
        ex.parallel_for(settled, |lane, i| {
            let v = lane.read(&ctx.scr.q2, ctx.qi(i));
            lane.write(&ctx.scr.d_hat, ctx.sn(v), level);
        });
        ex.barrier();
        ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 0);
    }
    // Never reached: the removal disconnected these (δ̂ is still 0).
    ex.parallel_for(lost, |lane, tid| {
        let v = lane.read(&ctx.scr.q, ctx.qi(tid));
        if lane.read(&ctx.scr.d_hat, ctx.sn(v)) == INF {
            lane.write(&ctx.scr.sigma_hat, ctx.sn(v), 0.0);
        }
    });
    ex.barrier();
}

/// Case D3 step 3: recounts σ̂ by increasing new level and publishes
/// `u_high`. Returns the deepest finite level over every touched vertex
/// (the start depth for [`mark_node`](super::case3_node::mark_node)).
///
/// Per level λ (from `d[u_low] + 1`, the shallowest level a lost or kept
/// vertex can hold): one lane per `QQ` entry at λ pulls its σ̂ fresh from
/// its predecessors at λ − 1, then claims its untouched children at
/// λ + 1 — their paths run through it — which join `QQ` and the next
/// level. The walk ends below the deepest touched level. Finally
/// `u_high` is touched as `up` and appended to `QQ`; the depth is maxed
/// with its level so the dependency sweep reaches it.
pub fn d3_recount<X: Exec>(ex: &mut X, ctx: &Ctx<'_>) -> u32 {
    ex.label("delete::d3_recount");
    let u_high = ctx.u_high;
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_DEPTH), 0);
    let qq_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN)) as usize;
    ex.parallel_for(qq_len, |lane, tid| {
        let v = lane.read(&ctx.scr.qq, ctx.qi(tid));
        let dv = lane.read(&ctx.scr.d_hat, ctx.sn(v));
        if dv != INF {
            lane.atomic_max_u32(&ctx.scr.lens, ctx.li(SLOT_DEPTH), dv);
        }
    });
    ex.barrier();
    let mut levels = X::Levels::from(LevelOf::DHat);
    let mut level = ex.read_scalar(&ctx.st.d, ctx.kn(ctx.u_low)) + 1;
    while level <= ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_DEPTH)) {
        let qq_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN)) as usize;
        // Pull pass: every predecessor sits at λ − 1 and is final.
        ex.for_level(&mut levels, ctx, qq_len, level, |lane, v| {
            let (start_e, end_e, check) = ctx.g.row(lane, v);
            let mut sig = 0.0;
            for e in start_e..end_e {
                lane.prof_edges_scanned(1);
                let Some(x) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                if lane.d_hat(ctx, x) == level - 1 {
                    lane.prof_edges_passed(1);
                    // dynbc-lint: allow(float-accumulation) — lane-local accumulator over the fixed adjacency order; single writer, drained via bc_delta
                    sig += lane.sigma_hat(ctx, x);
                }
            }
            lane.write(&ctx.scr.sigma_hat, ctx.sn(v), sig);
        });
        ex.barrier();
        // Expand pass: claim the untouched children below this level.
        ex.for_level(&mut levels, ctx, qq_len, level, |lane, v| {
            let (start_e, end_e, check) = ctx.g.row(lane, v);
            for e in start_e..end_e {
                lane.prof_edges_scanned(1);
                let Some(w) = ctx.g.slot(lane, &check, e) else {
                    continue;
                };
                if lane.d_hat(ctx, w) == level + 1
                    && lane.read(&ctx.scr.t, ctx.sn(w)) == T_UNTOUCHED
                    && lane.claim_tested(ctx, w, T_DOWN)
                {
                    lane.prof_edges_passed(1);
                    lane.atomic_max_u32(&ctx.scr.lens, ctx.li(SLOT_DEPTH), level + 1);
                    push_q2(lane, ctx, w);
                }
            }
        });
        ex.barrier();
        advance_no_dedup(ex, ctx);
        level += 1;
    }
    // The removed edge hid u_low from u_high's scans: touch it here.
    ex.parallel_for(1, |lane, _| {
        if lane.claim(ctx, u_high, T_UP, Gate::Cas) {
            let qq_len = lane.read(&ctx.scr.lens, ctx.li(SLOT_QQLEN));
            assert!((qq_len as usize) < ctx.scr.qw, "QQ overflow");
            lane.write(&ctx.scr.qq, ctx.qi(qq_len as usize), u_high);
            lane.write(&ctx.scr.lens, ctx.li(SLOT_QQLEN), qq_len + 1);
            lane.prof_queue_push(1);
        }
        let d_high = lane.read(&ctx.st.d, ctx.kn(u_high));
        lane.atomic_max_u32(&ctx.scr.lens, ctx.li(SLOT_DEPTH), d_high);
    });
    ex.barrier();
    ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_DEPTH))
}

/// Fallback prologue (edge-parallel Case D3): `BC[v] −= δ_old[v]` for every `v ≠ s` (the new
/// dependencies are added back by the static pass's accumulation). Like
/// every cross-block BC write, the subtraction goes through this block's
/// `bc_delta` slab row so host-parallel execution stays bit-exact.
pub fn fallback_subtract_old(block: &mut BlockCtx, ctx: &Ctx<'_>) {
    block.label("delete::fallback_subtract_old");
    let n = ctx.n();
    let s = ctx.s;
    block.parallel_for(n, |lane, v| {
        if v as u32 != s {
            let del = lane.read(&ctx.st.delta, ctx.kn(v as u32));
            if del != 0.0 {
                lane.atomic_add_f64(&ctx.scr.bc_delta, ctx.bci(v as u32), -del);
            }
        }
    });
    block.barrier();
}

/// Fallback epilogue (edge-parallel Case D3): commit the freshly computed tree (`d̂`/`σ̂`/`δ̂`
/// scratch rows) into this source's global state rows.
pub fn fallback_commit(block: &mut BlockCtx, ctx: &Ctx<'_>) {
    block.label("delete::fallback_commit");
    let n = ctx.n();
    block.parallel_for(n, |lane, v| {
        let v = v as u32;
        let dh = lane.read(&ctx.scr.d_hat, ctx.sn(v));
        lane.write(&ctx.st.d, ctx.kn(v), dh);
        let sh = lane.read(&ctx.scr.sigma_hat, ctx.sn(v));
        lane.write(&ctx.st.sigma, ctx.kn(v), sh);
        let delh = lane.read(&ctx.scr.delta_hat, ctx.sn(v));
        lane.write(&ctx.st.delta, ctx.kn(v), delh);
    });
    block.barrier();
}
