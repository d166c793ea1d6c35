//! Sequential, *sparse* translations of the node-parallel device kernels.
//!
//! Each function mirrors one kernel in [`crate::gpu::kernels`] with the
//! SIMT scaffolding stripped:
//! `parallel_for` loops become plain loops in the simulator's lane
//! order, `lane.read`/`write` become [`host_get`]/[`host_set`], atomics
//! become plain read-modify-write (everything inside a native block is
//! sequential; cross-block cells are disjoint by the scratch layout),
//! and barriers, labels, and profiling charges disappear.
//!
//! On top of that, the O(|V|)-per-item kernels — init and commit — run
//! in O(touched) here, which is what makes the native backend a serving
//! path rather than a cheaper interpreter. Bit-identity with the dense
//! simulator kernels rests on a write-before-read argument:
//!
//! * The dense init kernel copies `σ̂ ← σ`, `δ̂ ← 0` (and for Case 3
//!   `d̂ ← d`) for **all** vertices, but the traversal kernels only ever
//!   read a scratch cell *after* marking its vertex touched (`t ≠
//!   untouched`) — except through reads that [`touch`] now seeds with
//!   exactly the value the dense copy would have left, or through the
//!   [`dhat`]/[`shat`] accessors, which substitute the global value for
//!   untouched vertices (equal, by the same copy, to what the dense
//!   kernel would have read).
//! * The dense commit kernel scans all vertices, but for untouched ones
//!   it only rewrites `σ` with its own bits; the sparse commit walks the
//!   block's discovered list `QQ` (every touch is enqueued there) and
//!   commits each touched vertex exactly once — per-vertex state cells
//!   are distinct, and each BC-delta slab cell receives its single
//!   accumulated add, so order across vertices cannot change any bit.
//!
//! The sparse commit also resets each processed `t` flag, restoring the
//! all-untouched invariant the next item's sparse init relies on
//! (the dense path instead rewrites the whole row per item).
//!
//! Every work item, Case D3 removals included, is such a traversal: the
//! D3 translations ([`d3_collect`], [`d3_settle`], [`d3_recount`]) touch
//! only the lost subtree, its kept children and the vertices below them,
//! and end in the same sparse closure, sweep and commit as Case 3.
//! `bc/tests/native_equivalence.rs` holds the proof obligation.
//!
//! [`host_get`]: dynbc_gpusim::GpuBuffer::host_get
//! [`host_set`]: dynbc_gpusim::GpuBuffer::host_set

use crate::gpu::buffers::{
    SLOT_DEPTH, SLOT_Q2LEN, SLOT_QLEN, SLOT_QQLEN, T_DOWN, T_UNTOUCHED, T_UP,
};
use crate::gpu::engine::DedupStrategy;
use crate::gpu::kernels::common::SeedMode;
use crate::gpu::kernels::{Ctx, Host};

const INF: u32 = u32::MAX;

/// Marks `v` touched with `flag` and seeds its scratch cells with the
/// values the dense init kernel left there: `σ̂ ← σ`, `δ̂ ← 0`, and for
/// Case 3 `d̂ ← d`. Every transition out of `T_UNTOUCHED` (other than the
/// seed vertex, which `init_kernel` handles) must go through here so
/// later scratch reads observe the dense kernels' bits.
fn touch(ctx: &Ctx<'_>, v: u32, flag: u8, case3: bool) {
    ctx.scr.t.host_set(ctx.sn(v), flag);
    ctx.scr
        .sigma_hat
        .host_set(ctx.sn(v), ctx.st.sigma.host_get(ctx.kn(v)));
    ctx.scr.delta_hat.host_set(ctx.sn(v), 0.0);
    if case3 {
        ctx.scr
            .d_hat
            .host_set(ctx.sn(v), ctx.st.d.host_get(ctx.kn(v)));
    }
}

/// `d̂[v]` as the dense kernels would read it: the scratch cell for
/// touched vertices, the global distance (the dense init's copy) for
/// untouched ones.
fn dhat(ctx: &Ctx<'_>, v: u32) -> u32 {
    if ctx.scr.t.host_get(ctx.sn(v)) == T_UNTOUCHED {
        ctx.st.d.host_get(ctx.kn(v))
    } else {
        ctx.scr.d_hat.host_get(ctx.sn(v))
    }
}

/// `σ̂[v]` as the dense kernels would read it (same argument as [`dhat`]).
fn shat(ctx: &Ctx<'_>, v: u32) -> f64 {
    if ctx.scr.t.host_get(ctx.sn(v)) == T_UNTOUCHED {
        ctx.st.sigma.host_get(ctx.kn(v))
    } else {
        ctx.scr.sigma_hat.host_get(ctx.sn(v))
    }
}

/// Algorithm 3 (`common::init_kernel`): per-source initialization,
/// sparsified to its only non-default cell — the seed vertex `u_low`.
/// All other vertices keep the lazy defaults ([`touch`]/[`dhat`]/[`shat`]
/// supply them on demand).
pub(crate) fn init_kernel(ctx: &Ctx<'_>, mode: SeedMode) {
    let u_low = ctx.u_low;
    let u_high = ctx.u_high;
    let sigma_low = ctx.st.sigma.host_get(ctx.kn(u_low));
    ctx.scr.t.host_set(ctx.sn(u_low), T_DOWN);
    match mode {
        SeedMode::InsertAdjacent => {
            let sigma_high = ctx.st.sigma.host_get(ctx.kn(u_high));
            ctx.scr
                .sigma_hat
                .host_set(ctx.sn(u_low), sigma_low + sigma_high);
        }
        SeedMode::DeleteAdjacent => {
            let sigma_high = ctx.st.sigma.host_get(ctx.kn(u_high));
            ctx.scr
                .sigma_hat
                .host_set(ctx.sn(u_low), sigma_low - sigma_high);
        }
        SeedMode::General => {
            ctx.scr.sigma_hat.host_set(ctx.sn(u_low), sigma_low);
            let d_high = ctx.st.d.host_get(ctx.kn(u_high));
            ctx.scr.d_hat.host_set(ctx.sn(u_low), d_high + 1);
        }
    }
    ctx.scr.delta_hat.host_set(ctx.sn(u_low), 0.0);
}

/// Algorithm 8 (`common::update_kernel`): commit to the global state,
/// sparsified over the block's discovered list `QQ` (which holds every
/// touched vertex; duplicates are skipped via the `t` reset). For an
/// untouched vertex the dense kernel only rewrites `σ` with its own bits
/// — a no-op — so skipping it cannot change any state bit, and each
/// touched vertex's commits land in per-vertex cells, so commit order
/// across vertices is immaterial.
///
/// Returns the touched count (the Figure-4 statistic the dense path
/// derives from a flag scan) and the BC-delta slab cells this item
/// dirtied, for the sparse drain. Also resets each processed `t` flag,
/// restoring the all-untouched invariant for the block's next item.
pub(crate) fn update_kernel(ctx: &Ctx<'_>, case3: bool) -> (usize, Vec<u32>) {
    let s = ctx.s;
    let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN)) as usize;
    let mut touched = 0usize;
    let mut dirty = Vec::with_capacity(qq_len);
    for tid in 0..qq_len {
        let v = ctx.scr.qq.host_get(ctx.qi(tid));
        let tv = ctx.scr.t.host_get(ctx.sn(v));
        if tv == T_UNTOUCHED {
            continue; // duplicate QQ entry: already committed
        }
        touched += 1;
        if v != s {
            let dh = ctx.scr.delta_hat.host_get(ctx.sn(v));
            let dl = ctx.st.delta.host_get(ctx.kn(v));
            let i = ctx.bci(v);
            ctx.scr
                .bc_delta
                .host_set(i, ctx.scr.bc_delta.host_get(i) + (dh - dl));
            dirty.push(v);
        }
        let sh = ctx.scr.sigma_hat.host_get(ctx.sn(v));
        ctx.st.sigma.host_set(ctx.kn(v), sh);
        let dh = ctx.scr.delta_hat.host_get(ctx.sn(v));
        ctx.st.delta.host_set(ctx.kn(v), dh);
        if case3 {
            let dhat_v = ctx.scr.d_hat.host_get(ctx.sn(v));
            ctx.st.d.host_set(ctx.kn(v), dhat_v);
        }
        ctx.scr.t.host_set(ctx.sn(v), T_UNTOUCHED);
    }
    (touched, dirty)
}

/// `common::advance_no_dedup`: `Q2 → Q` + append onto `QQ`, no dedup.
pub(crate) fn advance_no_dedup(ctx: &Ctx<'_>) -> usize {
    let len = ctx.scr.lens.host_get(ctx.li(SLOT_Q2LEN)) as usize;
    let qbase = ctx.qi(0);
    if len == 0 {
        ctx.scr.lens.host_set(ctx.li(SLOT_QLEN), 0);
        return 0;
    }
    let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN)) as usize;
    assert!(qq_len + len <= ctx.scr.qw, "QQ overflow");
    for i in 0..len {
        let v = ctx.scr.q2.host_get(qbase + i);
        ctx.scr.q.host_set(qbase + i, v);
        ctx.scr.qq.host_set(qbase + qq_len + i, v);
    }
    ctx.scr.lens.host_set(ctx.li(SLOT_QLEN), len as u32);
    ctx.scr
        .lens
        .host_set(ctx.li(SLOT_QQLEN), (qq_len + len) as u32);
    ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), 0);
    len
}

/// `common::dedup_and_advance`: sort + dedup `Q2` into `Q`, append onto
/// `QQ`. A `sort_unstable` + `dedup` over the pushed values produces
/// exactly the ascending unique sequence the simulator's bitonic
/// sort / flag / scan / compact pipeline leaves in `Q`.
pub(crate) fn dedup_and_advance(ctx: &Ctx<'_>) -> usize {
    let len = ctx.scr.lens.host_get(ctx.li(SLOT_Q2LEN)) as usize;
    let qbase = ctx.qi(0);
    if len == 0 {
        ctx.scr.lens.host_set(ctx.li(SLOT_QLEN), 0);
        return 0;
    }
    let unique = if len == 1 {
        let v = ctx.scr.q2.host_get(qbase);
        ctx.scr.q.host_set(qbase, v);
        1
    } else {
        let padded = len.next_power_of_two();
        assert!(
            padded <= ctx.scr.qw,
            "frontier queue overflow: {len} pushes exceed queue width {}",
            ctx.scr.qw
        );
        let mut vals: Vec<u32> = (0..len).map(|i| ctx.scr.q2.host_get(qbase + i)).collect();
        vals.sort_unstable();
        vals.dedup();
        for (i, &v) in vals.iter().enumerate() {
            ctx.scr.q.host_set(qbase + i, v);
        }
        vals.len()
    };
    let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN)) as usize;
    assert!(
        qq_len + unique <= ctx.scr.qw,
        "QQ overflow: {} entries exceed queue width {}",
        qq_len + unique,
        ctx.scr.qw
    );
    for i in 0..unique {
        let v = ctx.scr.q.host_get(qbase + i);
        ctx.scr.qq.host_set(qbase + qq_len + i, v);
    }
    ctx.scr.lens.host_set(ctx.li(SLOT_QLEN), unique as u32);
    ctx.scr
        .lens
        .host_set(ctx.li(SLOT_QQLEN), (qq_len + unique) as u32);
    ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), 0);
    unique
}

/// Algorithm 5 (`case2_node::sp_node`): shortest-path recount. Returns
/// the deepest touched level.
pub(crate) fn sp_node(ctx: &Ctx<'_>, dedup: DedupStrategy) -> u32 {
    let u_low = ctx.u_low;
    let d_low = ctx.st.d.host_get(ctx.kn(u_low));
    ctx.scr.q.host_set(ctx.qi(0), u_low);
    ctx.scr.qq.host_set(ctx.qi(0), u_low);
    ctx.scr.lens.host_set(ctx.li(SLOT_QLEN), 1);
    ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), 0);
    ctx.scr.lens.host_set(ctx.li(SLOT_QQLEN), 1);

    let mut depth = d_low;
    loop {
        let q_len = ctx.scr.lens.host_get(ctx.li(SLOT_QLEN)) as usize;
        for tid in 0..q_len {
            let v = ctx.scr.q.host_get(ctx.qi(tid));
            let sig_hat_v = ctx.scr.sigma_hat.host_get(ctx.sn(v));
            let sig_v = ctx.st.sigma.host_get(ctx.kn(v));
            let push = sig_hat_v - sig_v;
            let (start, end, check) = ctx.g.row(&mut Host, v);
            for e in start..end {
                let Some(w) = ctx.g.slot(&mut Host, &check, e) else {
                    continue;
                };
                if ctx.st.d.host_get(ctx.kn(w)) == depth + 1 {
                    // Both dedup strategies gate discovery on the same
                    // test-and-set; sequentially they are identical.
                    let discovered = ctx.scr.t.host_get(ctx.sn(w)) == T_UNTOUCHED;
                    if discovered {
                        touch(ctx, w, T_DOWN, false);
                        let i = ctx.scr.lens.host_get(ctx.li(SLOT_Q2LEN));
                        ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), i + 1);
                        assert!((i as usize) < ctx.scr.qw, "Q2 overflow");
                        ctx.scr.q2.host_set(ctx.qi(i as usize), w);
                    }
                    let j = ctx.sn(w);
                    ctx.scr
                        .sigma_hat
                        .host_set(j, ctx.scr.sigma_hat.host_get(j) + push);
                }
            }
        }
        let found = match dedup {
            DedupStrategy::SortScan => dedup_and_advance(ctx),
            DedupStrategy::AtomicCas => advance_no_dedup(ctx),
        };
        if found == 0 {
            break;
        }
        depth += 1;
    }
    depth
}

/// Algorithm 7 (`case2_node::dep_node`): dependency accumulation from
/// `deepest` toward the source.
///
/// The device kernel rescans all of `QQ` once per depth; here `QQ` is
/// bucketed by depth up front, which visits each depth's vertices in
/// exactly the dense scan's order (original `QQ` entries in list order,
/// then same-pass discoveries in append order) without the
/// O(depth × |QQ|) rescans. The `QQ` buffer bookkeeping is kept
/// identical so the sparse commit sees the same list.
pub(crate) fn dep_node(ctx: &Ctx<'_>, deepest: u32) {
    let u_high = ctx.u_high;
    let u_low = ctx.u_low;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); deepest as usize + 1];
    {
        let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN)) as usize;
        for tid in 0..qq_len {
            let w = ctx.scr.qq.host_get(ctx.qi(tid));
            let dw = ctx.st.d.host_get(ctx.kn(w));
            // Deeper entries can't exist; depth-0 entries are never
            // expanded (the dense loop stops above 0 too).
            if dw <= deepest {
                buckets[dw as usize].push(w);
            }
        }
    }
    let mut depth = deepest;
    while depth > 0 {
        let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN)) as usize;
        let frontier = std::mem::take(&mut buckets[depth as usize]);
        for w in frontier {
            let sig_hat_w = ctx.scr.sigma_hat.host_get(ctx.sn(w));
            let del_hat_w = ctx.scr.delta_hat.host_get(ctx.sn(w));
            let sig_w = ctx.st.sigma.host_get(ctx.kn(w));
            let del_w = ctx.st.delta.host_get(ctx.kn(w));
            let (start, end, check) = ctx.g.row(&mut Host, w);
            for e in start..end {
                let Some(v) = ctx.g.slot(&mut Host, &check, e) else {
                    continue;
                };
                if ctx.st.d.host_get(ctx.kn(v)) != depth - 1 {
                    continue;
                }
                let mut dsv = 0.0;
                if ctx.scr.t.host_get(ctx.sn(v)) == T_UNTOUCHED {
                    touch(ctx, v, T_UP, false);
                    // dynbc-lint: allow(float-accumulation) — lane-local accumulator over the fixed adjacency order; single writer, drained via bc_delta
                    dsv += ctx.st.delta.host_get(ctx.kn(v));
                    let i = ctx.scr.lens.host_get(ctx.li(SLOT_Q2LEN));
                    ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), i + 1);
                    assert!(qq_len + (i as usize) < ctx.scr.qw, "QQ overflow");
                    ctx.scr.qq.host_set(ctx.qi(qq_len + i as usize), v);
                    // `v` sits one level up; queue it for the next pass.
                    buckets[depth as usize - 1].push(v);
                }
                // dynbc-lint: allow(float-accumulation) — lane-local accumulator over the fixed adjacency order; single writer, drained via bc_delta
                dsv += ctx.scr.sigma_hat.host_get(ctx.sn(v)) / sig_hat_w * (1.0 + del_hat_w);
                if ctx.scr.t.host_get(ctx.sn(v)) == T_UP && !(v == u_high && w == u_low) {
                    dsv -= ctx.st.sigma.host_get(ctx.kn(v)) / sig_w * (1.0 + del_w);
                }
                let j = ctx.sn(v);
                ctx.scr
                    .delta_hat
                    .host_set(j, ctx.scr.delta_hat.host_get(j) + dsv);
            }
        }
        let added = ctx.scr.lens.host_get(ctx.li(SLOT_Q2LEN));
        ctx.scr
            .lens
            .host_set(ctx.li(SLOT_QQLEN), qq_len as u32 + added);
        ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), 0);
        depth -= 1;
    }
}

/// Case 3 phase 1 (`case3_node::phase1_node`): relocation + σ̂ recount.
pub(crate) fn phase1_node(ctx: &Ctx<'_>) -> u32 {
    let u_low = ctx.u_low;
    let start = ctx.scr.d_hat.host_get(ctx.sn(u_low));
    ctx.scr.q.host_set(ctx.qi(0), u_low);
    ctx.scr.qq.host_set(ctx.qi(0), u_low);
    ctx.scr.lens.host_set(ctx.li(SLOT_QLEN), 1);
    ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), 0);
    ctx.scr.lens.host_set(ctx.li(SLOT_QQLEN), 1);

    let mut level = start;
    let mut deepest = start;
    loop {
        let q_len = ctx.scr.lens.host_get(ctx.li(SLOT_QLEN)) as usize;
        // Pull pass: recount σ̂ for the (final-position) frontier.
        for tid in 0..q_len {
            let v = ctx.scr.q.host_get(ctx.qi(tid));
            if ctx.scr.d_hat.host_get(ctx.sn(v)) != level {
                continue;
            }
            let (start_e, end_e, check) = ctx.g.row(&mut Host, v);
            let mut sig = 0.0;
            for e in start_e..end_e {
                let Some(x) = ctx.g.slot(&mut Host, &check, e) else {
                    continue;
                };
                if dhat(ctx, x) == level - 1 {
                    // dynbc-lint: allow(float-accumulation) — lane-local accumulator over the fixed adjacency order; single writer, drained via bc_delta
                    sig += shat(ctx, x);
                }
            }
            ctx.scr.sigma_hat.host_set(ctx.sn(v), sig);
        }
        // Expand pass: relocate and mark.
        for tid in 0..q_len {
            let v = ctx.scr.q.host_get(ctx.qi(tid));
            if ctx.scr.d_hat.host_get(ctx.sn(v)) != level {
                continue;
            }
            let (start_e, end_e, check) = ctx.g.row(&mut Host, v);
            for e in start_e..end_e {
                let Some(w) = ctx.g.slot(&mut Host, &check, e) else {
                    continue;
                };
                let dw = dhat(ctx, w);
                if dw > level + 1 {
                    // Fires only for untouched `w`: a touched vertex's
                    // relocated level is at most `level + 1`.
                    touch(ctx, w, T_DOWN, true);
                    ctx.scr.d_hat.host_set(ctx.sn(w), level + 1);
                    let i = ctx.scr.lens.host_get(ctx.li(SLOT_Q2LEN));
                    ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), i + 1);
                    assert!((i as usize) < ctx.scr.qw, "Q2 overflow");
                    ctx.scr.q2.host_set(ctx.qi(i as usize), w);
                } else if dw == level + 1 && ctx.scr.t.host_get(ctx.sn(w)) == T_UNTOUCHED {
                    // `touch` seeds `d̂[w] ← d[w]`, which for this
                    // untouched `w` is exactly `dw = level + 1`.
                    touch(ctx, w, T_DOWN, true);
                    let i = ctx.scr.lens.host_get(ctx.li(SLOT_Q2LEN));
                    ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), i + 1);
                    assert!((i as usize) < ctx.scr.qw, "Q2 overflow");
                    ctx.scr.q2.host_set(ctx.qi(i as usize), w);
                }
            }
        }
        let found = dedup_and_advance(ctx);
        if found == 0 {
            break;
        }
        level += 1;
        deepest = level;
    }
    deepest
}

/// Case 3 phase 2a (`case3_node::mark_node`): closure of dependency
/// changes over both DAGs. Returns the deepest touched level.
pub(crate) fn mark_node(ctx: &Ctx<'_>, deepest_down: u32) -> u32 {
    ctx.scr.lens.host_set(ctx.li(SLOT_DEPTH), deepest_down);
    let mut from_qq = true;
    loop {
        let list_len = if from_qq {
            ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN)) as usize
        } else {
            ctx.scr.lens.host_get(ctx.li(SLOT_QLEN)) as usize
        };
        for tid in 0..list_len {
            let w = if from_qq {
                ctx.scr.qq.host_get(ctx.qi(tid))
            } else {
                ctx.scr.q.host_get(ctx.qi(tid))
            };
            let dw_new = ctx.scr.d_hat.host_get(ctx.sn(w));
            let dw_old = ctx.st.d.host_get(ctx.kn(w));
            let (start_e, end_e, check) = ctx.g.row(&mut Host, w);
            for e in start_e..end_e {
                let Some(x) = ctx.g.slot(&mut Host, &check, e) else {
                    continue;
                };
                if ctx.scr.t.host_get(ctx.sn(x)) != T_UNTOUCHED {
                    continue;
                }
                let dx = ctx.st.d.host_get(ctx.kn(x));
                let new_pred = dw_new > 0 && dx == dw_new - 1;
                let old_pred = dw_old != INF && dw_old > 0 && dx == dw_old - 1;
                if new_pred || old_pred {
                    touch(ctx, x, T_UP, true);
                    let cur = ctx.scr.lens.host_get(ctx.li(SLOT_DEPTH));
                    ctx.scr.lens.host_set(ctx.li(SLOT_DEPTH), cur.max(dx));
                    let i = ctx.scr.lens.host_get(ctx.li(SLOT_Q2LEN));
                    ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), i + 1);
                    assert!((i as usize) < ctx.scr.qw, "Q2 overflow");
                    ctx.scr.q2.host_set(ctx.qi(i as usize), x);
                }
            }
        }
        let added = ctx.scr.lens.host_get(ctx.li(SLOT_Q2LEN)) as usize;
        if added == 0 {
            break;
        }
        let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN)) as usize;
        assert!(qq_len + added <= ctx.scr.qw, "QQ overflow");
        for i in 0..added {
            let v = ctx.scr.q2.host_get(ctx.qi(i));
            ctx.scr.q.host_set(ctx.qi(i), v);
            ctx.scr.qq.host_set(ctx.qi(qq_len + i), v);
        }
        ctx.scr.lens.host_set(ctx.li(SLOT_QLEN), added as u32);
        ctx.scr
            .lens
            .host_set(ctx.li(SLOT_QQLEN), (qq_len + added) as u32);
        ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), 0);
        from_qq = false;
    }
    ctx.scr.lens.host_get(ctx.li(SLOT_DEPTH))
}

/// Case 3 phase 2b (`case3_node::phase2_node`): pull-based dependency
/// sweep by decreasing new level, down to and including level 0.
///
/// Like [`dep_node`], the fixed `QQ` list is bucketed by (new) depth up
/// front instead of rescanned per level; within a level the visit order
/// is the dense scan's `QQ` order.
pub(crate) fn phase2_node(ctx: &Ctx<'_>, max_depth: u32) {
    let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN)) as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_depth as usize + 1];
    for tid in 0..qq_len {
        let w = ctx.scr.qq.host_get(ctx.qi(tid));
        let dw = ctx.scr.d_hat.host_get(ctx.sn(w));
        // Entries above `max_depth` can't exist (`mark_node` maxes the
        // depth over every touched vertex); the guard only mirrors the
        // dense scan's start level.
        if dw <= max_depth {
            buckets[dw as usize].push(w);
        }
    }
    let mut depth = max_depth;
    loop {
        for &w in &buckets[depth as usize] {
            let sig_hat_w = ctx.scr.sigma_hat.host_get(ctx.sn(w));
            let (start_e, end_e, check) = ctx.g.row(&mut Host, w);
            let mut acc = 0.0;
            for e in start_e..end_e {
                let Some(x) = ctx.g.slot(&mut Host, &check, e) else {
                    continue;
                };
                if dhat(ctx, x) != depth + 1 {
                    continue;
                }
                let sig_x = shat(ctx, x);
                let del_x = if ctx.scr.t.host_get(ctx.sn(x)) != T_UNTOUCHED {
                    ctx.scr.delta_hat.host_get(ctx.sn(x))
                } else {
                    ctx.st.delta.host_get(ctx.kn(x))
                };
                // dynbc-lint: allow(float-accumulation) — lane-local accumulator over the fixed adjacency order; single writer, drained via bc_delta
                acc += sig_hat_w / sig_x * (1.0 + del_x);
            }
            ctx.scr.delta_hat.host_set(ctx.sn(w), acc);
        }
        if depth == 0 {
            break;
        }
        depth -= 1;
    }
}

/// `delete::phantom_retraction`: retract the deleted edge's stale
/// dependency term and publish `u_high` for the sweep.
pub(crate) fn phantom_retraction(ctx: &Ctx<'_>) {
    let u_high = ctx.u_high;
    let u_low = ctx.u_low;
    if ctx.scr.t.host_get(ctx.sn(u_high)) == T_UNTOUCHED {
        touch(ctx, u_high, T_UP, false);
        let del_high = ctx.st.delta.host_get(ctx.kn(u_high));
        ctx.scr.delta_hat.host_set(ctx.sn(u_high), del_high);
        let i = ctx.scr.lens.host_get(ctx.li(SLOT_Q2LEN));
        ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), i + 1);
        let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN));
        assert!(((qq_len + i) as usize) < ctx.scr.qw, "QQ overflow");
        ctx.scr.qq.host_set(ctx.qi((qq_len + i) as usize), u_high);
    }
    let sig_high = ctx.st.sigma.host_get(ctx.kn(u_high));
    let sig_low = ctx.st.sigma.host_get(ctx.kn(u_low));
    let del_low = ctx.st.delta.host_get(ctx.kn(u_low));
    let term = sig_high / sig_low * (1.0 + del_low);
    let j = ctx.sn(u_high);
    ctx.scr
        .delta_hat
        .host_set(j, ctx.scr.delta_hat.host_get(j) + -term);
    let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN));
    let added = ctx.scr.lens.host_get(ctx.li(SLOT_Q2LEN));
    ctx.scr.lens.host_set(ctx.li(SLOT_QQLEN), qq_len + added);
    ctx.scr.lens.host_set(ctx.li(SLOT_Q2LEN), 0);
}

/// Appends `v` to the block's discovered list `QQ`.
fn push_qq(ctx: &Ctx<'_>, v: u32) {
    let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN));
    assert!((qq_len as usize) < ctx.scr.qw, "QQ overflow");
    ctx.scr.qq.host_set(ctx.qi(qq_len as usize), v);
    ctx.scr.lens.host_set(ctx.li(SLOT_QQLEN), qq_len + 1);
}

/// `delete::d3_collect`: the lost set `L` and its kept children, level by
/// old level from `u_low`, in the device kernel's lane order. Claimed
/// vertices are touched (`d̂ ← d`) and appended to `QQ`; lost ones get
/// `d̂ ← ∞`. O(|L| + kept) row scans.
pub(crate) fn d3_collect(ctx: &Ctx<'_>) {
    let u_low = ctx.u_low;
    ctx.scr.d_hat.host_set(ctx.sn(u_low), INF);
    ctx.scr.qq.host_set(ctx.qi(0), u_low);
    ctx.scr.lens.host_set(ctx.li(SLOT_QQLEN), 1);
    let mut frontier = vec![u_low];
    let mut level = ctx.st.d.host_get(ctx.kn(u_low));
    while !frontier.is_empty() {
        let mut claimed = Vec::new();
        for &v in &frontier {
            let (start_e, end_e, check) = ctx.g.row(&mut Host, v);
            for e in start_e..end_e {
                let Some(w) = ctx.g.slot(&mut Host, &check, e) else {
                    continue;
                };
                if ctx.st.d.host_get(ctx.kn(w)) == level + 1
                    && ctx.scr.t.host_get(ctx.sn(w)) == T_UNTOUCHED
                {
                    touch(ctx, w, T_DOWN, true);
                    claimed.push(w);
                }
            }
        }
        frontier.clear();
        for &w in &claimed {
            push_qq(ctx, w);
            let (start_e, end_e, check) = ctx.g.row(&mut Host, w);
            let lost = (start_e..end_e).all(|e| match ctx.g.slot(&mut Host, &check, e) {
                Some(x) if ctx.st.d.host_get(ctx.kn(x)) == level => {
                    ctx.scr.t.host_get(ctx.sn(x)) != T_UNTOUCHED
                        && ctx.scr.d_hat.host_get(ctx.sn(x)) == INF
                }
                _ => true,
            });
            if lost {
                ctx.scr.d_hat.host_set(ctx.sn(w), INF);
                frontier.push(w);
            }
        }
        level += 1;
    }
}

/// `delete::d3_settle`: the lost set's new levels. The device kernel
/// finds each round's level with an `atomicMin` over every pending
/// vertex; here each lost vertex is seeded once with its smallest
/// finite-neighbour level + 1 (the neighbours outside `L`), and the
/// seeds are merged into a BFS over `L` in increasing level order —
/// O(|L| · degree) instead of one pass over `L` per level. Levels are
/// integers and BFS distances unique, so every `d̂` equals the device's.
/// Vertices never reached keep `d̂ = ∞` and get `σ̂ = 0`.
pub(crate) fn d3_settle(ctx: &Ctx<'_>) {
    let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN)) as usize;
    let lost: Vec<u32> = (0..qq_len)
        .map(|tid| ctx.scr.qq.host_get(ctx.qi(tid)))
        .filter(|&v| ctx.scr.d_hat.host_get(ctx.sn(v)) == INF)
        .collect();
    let pending = |v: u32| dhat(ctx, v) == INF;
    let mut seeds: Vec<(u32, u32)> = Vec::new();
    for &v in &lost {
        let (start_e, end_e, check) = ctx.g.row(&mut Host, v);
        let seed = (start_e..end_e)
            .filter_map(|e| ctx.g.slot(&mut Host, &check, e))
            .map(|x| dhat(ctx, x))
            .filter(|&dx| dx != INF)
            .min();
        if let Some(dx) = seed {
            seeds.push((dx + 1, v));
        }
    }
    seeds.sort_unstable();
    let mut next_seed = 0;
    let mut frontier: Vec<u32> = Vec::new();
    let mut level = 0;
    loop {
        if frontier.is_empty() {
            match seeds.get(next_seed) {
                Some(&(seed_level, _)) => level = seed_level,
                None => break,
            }
        }
        let mut settled = Vec::new();
        for &v in &frontier {
            let (start_e, end_e, check) = ctx.g.row(&mut Host, v);
            for e in start_e..end_e {
                let Some(y) = ctx.g.slot(&mut Host, &check, e) else {
                    continue;
                };
                if pending(y) {
                    ctx.scr.d_hat.host_set(ctx.sn(y), level);
                    settled.push(y);
                }
            }
        }
        while let Some(&(seed_level, v)) = seeds.get(next_seed) {
            if seed_level != level {
                break;
            }
            next_seed += 1;
            if pending(v) {
                ctx.scr.d_hat.host_set(ctx.sn(v), level);
                settled.push(v);
            }
        }
        frontier = settled;
        level += 1;
    }
    for v in lost {
        if pending(v) {
            ctx.scr.sigma_hat.host_set(ctx.sn(v), 0.0);
        }
    }
}

/// `delete::d3_recount`: σ̂ recount by increasing new level, then `u_high`
/// touched as `up`. Returns the same depth as the device kernel.
///
/// Like [`phase2_node`], the touched vertices are bucketed by level up
/// front (claimed children join the next bucket) instead of rescanning
/// `QQ` per level. Each σ̂ is a pull over the fixed adjacency order from
/// final predecessor values, so visit order within a level cannot change
/// any bit.
pub(crate) fn d3_recount(ctx: &Ctx<'_>) -> u32 {
    let u_high = ctx.u_high;
    let start = ctx.st.d.host_get(ctx.kn(ctx.u_low)) + 1;
    let qq_len = ctx.scr.lens.host_get(ctx.li(SLOT_QQLEN)) as usize;
    let mut buckets: Vec<Vec<u32>> = Vec::new();
    for tid in 0..qq_len {
        let v = ctx.scr.qq.host_get(ctx.qi(tid));
        let dv = ctx.scr.d_hat.host_get(ctx.sn(v));
        if dv != INF {
            let i = (dv - start) as usize;
            if buckets.len() <= i {
                buckets.resize(i + 1, Vec::new());
            }
            buckets[i].push(v);
        }
    }
    let mut i = 0;
    while i < buckets.len() {
        let level = start + i as u32;
        let frontier = std::mem::take(&mut buckets[i]);
        for &v in &frontier {
            let (start_e, end_e, check) = ctx.g.row(&mut Host, v);
            let mut sig = 0.0;
            for e in start_e..end_e {
                let Some(x) = ctx.g.slot(&mut Host, &check, e) else {
                    continue;
                };
                if dhat(ctx, x) == level - 1 {
                    // dynbc-lint: allow(float-accumulation) — lane-local accumulator over the fixed adjacency order; single writer, drained via bc_delta
                    sig += shat(ctx, x);
                }
            }
            ctx.scr.sigma_hat.host_set(ctx.sn(v), sig);
        }
        for &v in &frontier {
            let (start_e, end_e, check) = ctx.g.row(&mut Host, v);
            for e in start_e..end_e {
                let Some(w) = ctx.g.slot(&mut Host, &check, e) else {
                    continue;
                };
                if ctx.scr.t.host_get(ctx.sn(w)) == T_UNTOUCHED
                    && ctx.st.d.host_get(ctx.kn(w)) == level + 1
                {
                    touch(ctx, w, T_DOWN, true);
                    push_qq(ctx, w);
                    if buckets.len() <= i + 1 {
                        buckets.push(Vec::new());
                    }
                    buckets[i + 1].push(w);
                }
            }
        }
        i += 1;
    }
    if ctx.scr.t.host_get(ctx.sn(u_high)) == T_UNTOUCHED {
        touch(ctx, u_high, T_UP, true);
        push_qq(ctx, u_high);
    }
    let deepest = start + buckets.len() as u32 - 1;
    let d_high = ctx.st.d.host_get(ctx.kn(u_high));
    if buckets.is_empty() {
        d_high
    } else {
        deepest.max(d_high)
    }
}
