//! Kernels shared by both decompositions: initialization (Algorithm 3),
//! the global-state commit (Algorithm 8), and the node-parallel frontier's
//! queue advance with its Merrill-style duplicate removal (Section III-A).
//!
//! Init and commit are the two O(|V|) sweeps of every work item, and
//! nearly all their lanes do the same thing. They run on
//! [`BlockCtx::sweep`], which charges those lanes a warp at a time and
//! exactly as a lane-per-vertex `parallel_for` would; only the few lanes
//! that differ (init's `u_low`, commit's touched vertices) run as closures.

use super::{Ctx, Exec, KernelLane};
use crate::gpu::buffers::{SLOT_Q2LEN, SLOT_QLEN, SLOT_QQLEN, T_DOWN, T_UNTOUCHED};
use dynbc_gpusim::{BlockCtx, Sweep};

/// How [`init_kernel`] seeds `u_low` (the update flavours share the rest
/// of Algorithm 3 verbatim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMode {
    /// Insertion Case 2: `σ̂[u_low] ← σ[u_low] + σ[u_high]` (the new edge
    /// routes all of `u_high`'s paths to `u_low`).
    InsertAdjacent,
    /// The general (Case 3) path: distances relocate, σ̂ is pulled fresh,
    /// so only `d̂[u_low] ← d[u_high] + 1` is seeded.
    General,
    /// Deletion Case D2: `σ̂[u_low] ← σ[u_low] − σ[u_high]` (the removed
    /// edge carried exactly `σ[u_high]` of `u_low`'s paths).
    DeleteAdjacent,
}

/// Algorithm 3: per-source initialization of the local variables.
///
/// Sets, for all `v`: `t[v] ← untouched`, `σ̂[v] ← σ[v]`, `δ̂[v] ← 0`;
/// `u_low` is marked `down` and seeded per `mode`. The [`SeedMode::General`]
/// flavour also copies `d̂[v] ← d[v]` (relocations need it).
///
/// One lane per vertex, as in the paper. Every lane but `u_low`'s makes
/// the same column accesses (read `σ[v]`, write `t[v]` and `σ̂[v]`, with
/// [`SeedMode::General`] read `d[v]` and write `d̂[v]`, then write
/// `δ̂[v]`), so they are described once as a [`Sweep`] and charged a warp
/// at a time; `u_low`'s lane runs as a closure at its place in its warp.
///
/// The simulator's [`Exec::init`]. The host executor's writes only the
/// seed vertex and seeds every other vertex when it first touches it:
/// O(|V|) per item is the cost the native backend exists to avoid, and
/// a sparse init on the device would drop the sweep the cost model
/// charges.
pub fn init_kernel(block: &mut BlockCtx, ctx: &Ctx<'_>, mode: SeedMode) {
    block.label("common::init");
    let (k0, s0) = (ctx.kn(0), ctx.sn(0));
    let u_low = ctx.u_low;
    let u_high = ctx.u_high;
    let mut sweep = Sweep::new(ctx.n());
    let sigma = sweep.read(&ctx.st.sigma, k0);
    sweep.fill(&ctx.scr.t, s0, T_UNTOUCHED);
    sweep.copy(&ctx.scr.sigma_hat, s0, sigma);
    if mode == SeedMode::General {
        let d = sweep.read(&ctx.st.d, k0);
        sweep.copy(&ctx.scr.d_hat, s0, d);
    }
    sweep.fill(&ctx.scr.delta_hat, s0, 0.0);
    block.sweep(
        &sweep,
        |v| v == u_low as usize,
        |lane, v| {
            let v = v as u32;
            let sigma_v = lane.read(&ctx.st.sigma, ctx.kn(v));
            lane.write(&ctx.scr.t, ctx.sn(v), T_DOWN);
            match mode {
                SeedMode::InsertAdjacent => {
                    let sigma_high = lane.read(&ctx.st.sigma, ctx.kn(u_high));
                    lane.write(&ctx.scr.sigma_hat, ctx.sn(v), sigma_v + sigma_high);
                }
                SeedMode::DeleteAdjacent => {
                    let sigma_high = lane.read(&ctx.st.sigma, ctx.kn(u_high));
                    lane.write(&ctx.scr.sigma_hat, ctx.sn(v), sigma_v - sigma_high);
                }
                SeedMode::General => {
                    lane.write(&ctx.scr.sigma_hat, ctx.sn(v), sigma_v);
                    let d_high = lane.read(&ctx.st.d, ctx.kn(u_high));
                    lane.write(&ctx.scr.d_hat, ctx.sn(v), d_high + 1);
                }
            }
            lane.write(&ctx.scr.delta_hat, ctx.sn(v), 0.0);
        },
    );
    block.barrier();
}

/// Algorithm 8: commit the update to the global per-source state and the
/// BC scores. Returns the number of touched vertices (`t[v] ≠ untouched`),
/// Figure 4's statistic.
///
/// `BC[v] += δ̂[v] − δ[v]` — atomically in the paper (blocks working on
/// different sources race on this array, which it argues is
/// low-contention). Here the add lands in this block's row of the
/// [`bc_delta`](crate::gpu::buffers::ScratchBuffers::bc_delta) slab
/// instead: the device cost is the same (an atomic f64 add to a
/// segment-aligned `n`-wide row), but the engine reduces the slab in
/// block-index order afterwards so the scores stay bit-identical under
/// host-parallel block execution. `σ[v] ← σ̂[v]` unconditionally,
/// `δ[v] ← δ̂[v]` for touched vertices, and with `case3 = true` also
/// `d[v] ← d̂[v]` for touched vertices.
///
/// One lane per vertex, as in the paper. An untouched vertex's lane reads
/// `t[v]` and `σ̂[v]` and writes `σ[v]`, the same column accesses in every
/// such lane, so those lanes are a [`Sweep`] charged a warp at a time. A
/// touched vertex's lane (the source's too, when touched) runs as a
/// closure at its place in its warp. The host reads `t[v]` to tell the two
/// apart, off the clock; the charged read of `t[v]` stays in every lane.
///
/// The simulator's [`Exec::commit`]; the host executor's commits only
/// the vertices on `QQ`, for the reason [`init_kernel`] gives.
pub fn update_kernel(block: &mut BlockCtx, ctx: &Ctx<'_>, case3: bool) -> usize {
    block.label("common::update");
    let (k0, s0) = (ctx.kn(0), ctx.sn(0));
    let s = ctx.s;
    let mut sweep = Sweep::new(ctx.n());
    sweep.read(&ctx.scr.t, s0);
    let sigma_hat = sweep.read(&ctx.scr.sigma_hat, s0);
    sweep.copy(&ctx.st.sigma, k0, sigma_hat);
    let touched = block.sweep(
        &sweep,
        |v| ctx.scr.t.host_get(s0 + v) != T_UNTOUCHED,
        |lane, v| {
            let v = v as u32;
            lane.read(&ctx.scr.t, ctx.sn(v));
            if v != s {
                let dh = lane.read(&ctx.scr.delta_hat, ctx.sn(v));
                let dl = lane.read(&ctx.st.delta, ctx.kn(v));
                lane.atomic_add_f64(&ctx.scr.bc_delta, ctx.bci(v), dh - dl);
            }
            let sh = lane.read(&ctx.scr.sigma_hat, ctx.sn(v));
            lane.write(&ctx.st.sigma, ctx.kn(v), sh);
            let dh = lane.read(&ctx.scr.delta_hat, ctx.sn(v));
            lane.write(&ctx.st.delta, ctx.kn(v), dh);
            if case3 {
                let dhat = lane.read(&ctx.scr.d_hat, ctx.sn(v));
                lane.write(&ctx.st.d, ctx.kn(v), dhat);
            }
        },
    );
    block.barrier();
    touched
}

/// Moves `Q2` into `Q` and appends it to `QQ` *without* duplicate removal
/// — valid only when the producer already guarantees uniqueness (the
/// `atomicCAS` discovery gate of [`DedupStrategy::AtomicCas`] and the
/// Case 3 marking rounds). Returns the entry count.
///
/// [`DedupStrategy::AtomicCas`]: crate::gpu::engine::DedupStrategy::AtomicCas
pub fn advance_no_dedup<X: Exec>(ex: &mut X, ctx: &Ctx<'_>) -> usize {
    let len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN)) as usize;
    if len == 0 {
        ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN), 0);
        return 0;
    }
    advance(ex, ctx, len);
    len
}

/// The Q2 → Q/QQ advance: copies `Q2[..len]` into `Q`, appends it to
/// `QQ`, and sets `Q_len = len`, grows `QQ_len` and resets `Q2_len`.
pub fn advance<X: Exec>(ex: &mut X, ctx: &Ctx<'_>, len: usize) {
    let qq_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN)) as usize;
    assert!(qq_len + len <= ctx.scr.qw, "QQ overflow");
    ex.parallel_for(len, |lane, i| {
        let v = lane.read(&ctx.scr.q2, ctx.qi(i));
        lane.write(&ctx.scr.q, ctx.qi(i), v);
        lane.write(&ctx.scr.qq, ctx.qi(qq_len + i), v);
        lane.prof_queue_push(2);
    });
    ex.barrier();
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN), len as u32);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN), (qq_len + len) as u32);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 0);
}

/// The paper's `remove_duplicates(Q2, Q2_len)` followed by the transfer
/// of the unique entries into `Q` and their append onto `QQ` (lines
/// 22–28 of Algorithm 5). The removal itself is [`bitonic_dedup`].
/// Updates `Q_len`, `QQ_len`, and resets `Q2_len`. Returns the unique
/// count.
pub fn dedup_and_advance<X: Exec>(ex: &mut X, ctx: &Ctx<'_>) -> usize {
    let len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN)) as usize;
    if len == 0 {
        ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN), 0);
        return 0;
    }
    let unique = if len == 1 {
        let v = ex.read_scalar(&ctx.scr.q2, ctx.qi(0));
        ex.write_scalar(&ctx.scr.q, ctx.qi(0), v);
        1
    } else {
        assert!(
            len.next_power_of_two() <= ctx.scr.qw,
            "frontier queue overflow: {len} pushes exceed queue width {}",
            ctx.scr.qw
        );
        bitonic_dedup(ex, ctx, len)
    };
    // Transfer bookkeeping: Q gains the unique entries, QQ appends them.
    let qq_len = ex.read_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN)) as usize;
    assert!(
        qq_len + unique <= ctx.scr.qw,
        "QQ overflow: {} entries exceed queue width {}",
        qq_len + unique,
        ctx.scr.qw
    );
    ex.parallel_for(unique, |lane, i| {
        let v = lane.read(&ctx.scr.q, ctx.qi(i));
        lane.write(&ctx.scr.qq, ctx.qi(qq_len + i), v);
        lane.prof_queue_push(1);
    });
    ex.barrier();
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QLEN), unique as u32);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_QQLEN), (qq_len + unique) as u32);
    ex.write_scalar(&ctx.scr.lens, ctx.li(SLOT_Q2LEN), 0);
    unique
}

/// The duplicate removal of `Q2[..len]` (`len >= 2`) into `Q`, in three
/// steps:
///
/// 1. bitonic-sort `Q2` (padding to the next power of two with `u32::MAX`
///    sentinels),
/// 2. flag first occurrences,
/// 3. Hillis–Steele prefix-scan the flags and scatter-compact into `Q`.
///
/// Returns the unique count.
pub fn bitonic_dedup<X: Exec>(ex: &mut X, ctx: &Ctx<'_>, len: usize) -> usize {
    let qbase = ctx.qi(0);
    let padded = len.next_power_of_two();
    // Step 0: pad with +inf sentinels.
    ex.parallel_for(padded - len, |lane, i| {
        lane.write(&ctx.scr.q2, qbase + len + i, u32::MAX);
        lane.prof_dedup_ops(1);
    });
    ex.barrier();
    // Step 1: bitonic sorting network (one barrier per stage).
    let mut k = 2usize;
    while k <= padded {
        let mut j = k / 2;
        while j > 0 {
            ex.parallel_for(padded, |lane, i| {
                let partner = i ^ j;
                if partner > i {
                    lane.prof_dedup_ops(1);
                    let a = lane.read(&ctx.scr.q2, qbase + i);
                    let b = lane.read(&ctx.scr.q2, qbase + partner);
                    let ascending = (i & k) == 0;
                    if (a > b) == ascending {
                        lane.write(&ctx.scr.q2, qbase + i, b);
                        lane.write(&ctx.scr.q2, qbase + partner, a);
                    }
                }
            });
            ex.barrier();
            j /= 2;
        }
        k *= 2;
    }
    // Step 2: flag first occurrences into the scan buffer.
    let flags = ctx.scan_base();
    ex.parallel_for(len, |lane, i| {
        lane.prof_dedup_ops(1);
        let cur = lane.read(&ctx.scr.q2, qbase + i);
        let flag = if i == 0 {
            1
        } else {
            u32::from(lane.read(&ctx.scr.q2, qbase + i - 1) != cur)
        };
        lane.write(&ctx.scr.scan, flags + i, flag);
    });
    ex.barrier();
    // Step 3a: Hillis–Steele inclusive scan, ping-ponging between the
    // two halves of the scan buffer.
    let half = ctx.scr.qw;
    let mut src = flags;
    let mut dst = flags + half;
    let mut stride = 1usize;
    while stride < len {
        ex.parallel_for(len, |lane, i| {
            lane.prof_dedup_ops(1);
            let mut v = lane.read(&ctx.scr.scan, src + i);
            if i >= stride {
                v += lane.read(&ctx.scr.scan, src + i - stride);
            }
            lane.write(&ctx.scr.scan, dst + i, v);
        });
        ex.barrier();
        std::mem::swap(&mut src, &mut dst);
        stride *= 2;
    }
    let unique = ex.read_scalar(&ctx.scr.scan, src + len - 1) as usize;
    // Step 3b: scatter-compact first occurrences into Q.
    ex.parallel_for(len, |lane, i| {
        lane.prof_dedup_ops(1);
        let cur = lane.read(&ctx.scr.q2, qbase + i);
        let first = i == 0 || lane.read(&ctx.scr.q2, qbase + i - 1) != cur;
        if first {
            let pos = lane.read(&ctx.scr.scan, src + i) as usize - 1;
            lane.write(&ctx.scr.q, qbase + pos, cur);
            lane.prof_queue_push(1);
        }
    });
    ex.barrier();
    unique
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::buffers::{ScratchBuffers, SlackGraphBuffers, StateBuffers};
    use crate::gpu::kernels::GraphView;
    use crate::native::HostExec;
    use crate::state::BcState;
    use dynbc_gpusim::{DeviceConfig, Gpu};
    use dynbc_graph::{Csr, EdgeList, SlackCsr};

    /// A `Q2` with repeats, deduplicated on each executor: `Q` gets the
    /// ascending uniques, `QQ` gains them after its existing entry, and
    /// the lengths move on. The kernels themselves never hand the dedup
    /// a repeat (the interpreter runs lanes one at a time), so only this
    /// test reaches the flag, scan and compact steps with duplicates.
    #[test]
    fn dedup_and_advance_removes_repeats_on_both_executors() {
        let q2 = [5u32, 3, 5, 1, 3, 3, 7];
        let mut gpu = Gpu::new(DeviceConfig::test_tiny());
        let el = EdgeList::from_pairs(8, [(0, 1), (1, 2)]);
        let store = SlackGraphBuffers::from_slack(
            &mut gpu,
            &SlackCsr::from_csr_exact(&Csr::from_edge_list(&el)),
        );
        let st = StateBuffers::upload(&mut gpu, &BcState::zeroed(8, vec![0]));
        let scr = ScratchBuffers::new(&mut gpu, 1, 8, 4);
        let ctx = Ctx {
            g: GraphView::settled(&store),
            st: &st,
            scr: &scr,
            block_slot: 0,
            bc_slot: 0,
            src_row: 0,
            s: 0,
            u_high: 0,
            u_low: 1,
        };
        let seed = || {
            for (i, &v) in q2.iter().enumerate() {
                scr.q2.host_set(ctx.qi(i), v);
            }
            scr.qq.host_set(ctx.qi(0), 6);
            scr.lens.host_set(ctx.li(SLOT_Q2LEN), q2.len() as u32);
            scr.lens.host_set(ctx.li(SLOT_QQLEN), 1);
        };
        let check = |unique: usize| {
            assert_eq!(unique, 4);
            let q: Vec<u32> = (0..4).map(|i| scr.q.host_get(ctx.qi(i))).collect();
            let qq: Vec<u32> = (0..5).map(|i| scr.qq.host_get(ctx.qi(i))).collect();
            assert_eq!(q, [1, 3, 5, 7]);
            assert_eq!(qq, [6, 1, 3, 5, 7]);
            let lens = [SLOT_QLEN, SLOT_QQLEN, SLOT_Q2LEN].map(|s| scr.lens.host_get(ctx.li(s)));
            assert_eq!(lens, [4, 5, 0]);
        };
        seed();
        check(dedup_and_advance(&mut HostExec::default(), &ctx));
        seed();
        let unique = std::sync::atomic::AtomicUsize::new(0);
        gpu.launch(1, |block, _| {
            unique.store(
                dedup_and_advance(block, &ctx),
                std::sync::atomic::Ordering::Relaxed,
            );
        });
        check(unique.into_inner());
    }
}
