//! Property tests for the graph substrate.

use dynbc_graph::algo::{bfs, connected_components};
use dynbc_graph::{gen, io, Csr, EdgeList, SlackCsr};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arbitrary canonical edge lists over up to 24 vertices.
fn arb_edge_list() -> impl Strategy<Value = EdgeList> {
    (
        2usize..24,
        proptest::collection::vec((0u32..24, 0u32..24), 0..60),
    )
        .prop_map(|(n, pairs)| {
            let n = n.max(
                pairs
                    .iter()
                    .map(|&(a, b)| a.max(b) as usize + 1)
                    .max()
                    .unwrap_or(0),
            );
            EdgeList::from_pairs(n, pairs)
        })
}

proptest! {
    #[test]
    fn csr_round_trips_edge_list(el in arb_edge_list()) {
        let csr = Csr::from_edge_list(&el);
        prop_assert_eq!(csr.to_edge_list(), el.clone());
        prop_assert_eq!(csr.edge_count(), el.edge_count());
        // Degree sums match arc count.
        let total: usize = (0..csr.vertex_count() as u32).map(|v| csr.degree(v)).sum();
        prop_assert_eq!(total, csr.arc_count());
    }

    #[test]
    fn csr_adjacency_is_symmetric_and_sorted(el in arb_edge_list()) {
        let csr = Csr::from_edge_list(&el);
        for v in 0..csr.vertex_count() as u32 {
            let row = csr.neighbors(v);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} not strictly sorted", v);
            for &w in row {
                prop_assert!(csr.has_edge(w, v), "arc {}->{} not mirrored", v, w);
            }
        }
    }

    #[test]
    fn metis_round_trip(el in arb_edge_list()) {
        let mut buf = Vec::new();
        io::write_metis(&el, &mut buf).unwrap();
        let back = io::read_metis(&buf[..]).unwrap();
        prop_assert_eq!(back, el);
    }

    #[test]
    fn edge_list_text_round_trip(el in arb_edge_list()) {
        let mut buf = Vec::new();
        io::write_edge_list(&el, &mut buf).unwrap();
        let back = io::read_edge_list(&buf[..], Some(el.vertex_count())).unwrap();
        prop_assert_eq!(back, el);
    }

    #[test]
    fn bfs_distances_satisfy_triangle_property(el in arb_edge_list()) {
        let csr = Csr::from_edge_list(&el);
        if csr.vertex_count() == 0 {
            return Ok(());
        }
        let d = bfs(&csr, 0);
        prop_assert_eq!(d[0], 0);
        // Adjacent vertices differ by at most one level; reachable
        // non-sources have a predecessor one level up.
        for (u, w) in csr.arcs() {
            let (du, dw) = (d[u as usize], d[w as usize]);
            prop_assert_eq!(du == u32::MAX, dw == u32::MAX, "components disagree");
            if du != u32::MAX {
                prop_assert!(du.abs_diff(dw) <= 1, "edge ({},{}) spans {} levels", u, w, du.abs_diff(dw));
            }
        }
        for v in 1..csr.vertex_count() as u32 {
            if d[v as usize] != u32::MAX && d[v as usize] > 0 {
                let has_pred = csr
                    .neighbors(v)
                    .iter()
                    .any(|&x| d[x as usize] + 1 == d[v as usize]);
                prop_assert!(has_pred, "vertex {} has no BFS predecessor", v);
            }
        }
    }

    #[test]
    fn components_agree_with_bfs_reachability(el in arb_edge_list()) {
        let csr = Csr::from_edge_list(&el);
        if csr.vertex_count() == 0 {
            return Ok(());
        }
        let cc = connected_components(&csr);
        let d = bfs(&csr, 0);
        for v in 0..csr.vertex_count() as u32 {
            prop_assert_eq!(
                cc.same(0, v),
                d[v as usize] != u32::MAX,
                "vertex {} reachability vs component label", v
            );
        }
        prop_assert_eq!(cc.sizes.iter().sum::<u32>() as usize, csr.vertex_count());
    }

    #[test]
    fn generators_produce_simple_graphs(seed in 0u64..500, which in 0u8..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let el = match which {
            0 => gen::er(&mut rng, 40, 60),
            1 => gen::ba(&mut rng, 40, 3),
            2 => gen::ws(&mut rng, 40, 2, 0.3),
            3 => gen::geometric(&mut rng, 36, 0.1),
            4 => gen::caida(&mut rng, 40, 1.5),
            _ => gen::rmat(&mut rng, 6, 4, gen::RmatParams::GRAPH500),
        };
        // Canonical: strictly increasing pairs, no self loops, sorted.
        for &(u, v) in el.edges() {
            prop_assert!(u < v);
            prop_assert!((v as usize) < el.vertex_count());
        }
        prop_assert!(el.edges().windows(2).all(|w| w[0] < w[1]));
    }

    /// Satellite contract: after *any* op sequence — duplicate inserts,
    /// removals of missing edges, self loops, compactions and row growth
    /// included — `SlackCsr::to_csr()` is byte-identical to
    /// `Csr::from_edge_list` over the surviving edges. Low thresholds
    /// drive the stream across many compaction/relayout boundaries.
    #[test]
    fn slack_csr_canonicalizes_to_edge_list_csr(
        el in arb_edge_list(),
        ops in proptest::collection::vec((0u32..24, 0u32..24, any::<bool>()), 0..200),
        slack_pct in 0u32..60,
        compact_pct in 0u32..60,
    ) {
        let n = el.vertex_count();
        let mut slack = SlackCsr::from_csr(&Csr::from_edge_list(&el), slack_pct, compact_pct);
        let mut model = el;
        for (u, v, insert) in ops {
            let (u, v) = (u % n as u32, v % n as u32);
            if insert {
                let a = slack.insert_edge(u, v);
                let b = if u == v { false } else { model.insert_edge(u, v) };
                prop_assert_eq!(a, b, "insert ({}, {})", u, v);
            } else {
                let a = slack.remove_edge(u, v);
                let b = model.remove_edges(&[(u, v)]) == 1;
                prop_assert_eq!(a, b, "remove ({}, {})", u, v);
            }
            prop_assert_eq!(slack.to_csr(), Csr::from_edge_list(&model));
        }
        prop_assert_eq!(slack.arc_count(), 2 * model.edge_count());
    }

    /// Versioned stage application settles to the same canonical CSR the
    /// sequential commit order produces, for any stage partitioning.
    #[test]
    fn slack_csr_versioned_stages_settle_to_oracle(
        el in arb_edge_list(),
        ops in proptest::collection::vec((0u32..24, 0u32..24, any::<bool>()), 0..120),
        stage_len in 1usize..9,
        compact_pct in 0u32..60,
    ) {
        let n = el.vertex_count();
        let mut slack = SlackCsr::from_csr(&Csr::from_edge_list(&el), 25, compact_pct);
        let mut model = el;
        let mut ver = 0u32;
        for (u, v, insert) in ops {
            let (u, v) = (u % n as u32, v % n as u32);
            // Batches are validated upstream; feed only valid ops.
            let valid = u != v
                && if insert { !model.contains(u, v) } else { model.contains(u, v) };
            if !valid {
                continue;
            }
            ver += 1;
            if insert {
                model.insert_edge(u, v);
                slack.insert_edge_versioned(u, v, ver);
            } else {
                model.remove_edges(&[(u, v)]);
                slack.remove_edge_versioned(u, v, ver);
            }
            if (ver as usize).is_multiple_of(stage_len) {
                slack.settle();
                ver = 0;
                prop_assert_eq!(slack.to_csr(), Csr::from_edge_list(&model));
            }
        }
        slack.settle();
        prop_assert_eq!(slack.to_csr(), Csr::from_edge_list(&model));
    }
}
