//! Workload inputs, generated from the run's seed with the repository's own
//! generators (`dynbc_graph::suite`, `dynbc_bench::stream`). Every stream
//! is valid by construction: the generators only remove present edges and
//! re-insert removed ones, and check that the stream applies op by op.

use std::collections::BTreeSet;

use dynbc_bc::brandes::sample_sources;
use dynbc_bench::stream;
use dynbc_graph::suite::entry_by_short;
use dynbc_graph::{EdgeList, EdgeOp, VertexId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The graph and its BC sources are a fixed dataset per workload; the
/// run's seed picks the edges the stream removes and re-adds. A source set
/// drawn per seed would make every op of a run costlier or cheaper
/// together, and that spread across seeds would swamp the code's own.
const DATASET_SEED: u64 = 20140519;
/// caida at this scale has n = 6000.
const CAIDA_SCALE: f64 = 0.25;

/// A workload's inputs: the graph the engine starts from, its sources,
/// the op stream, and the graph the stream leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub start: EdgeList,
    pub sources: Vec<VertexId>,
    pub stream: Vec<EdgeOp>,
    pub end: EdgeList,
}

/// A suite graph and `k` BC sources, fixed per workload.
fn dataset(short: &str, scale: f64, k: usize) -> (EdgeList, Vec<VertexId>) {
    let graph = entry_by_short(short)
        .expect("suite entry exists")
        .generate(scale, DATASET_SEED);
    let mut rng = StdRng::seed_from_u64(DATASET_SEED);
    let sources = sample_sources(&mut rng, graph.vertex_count(), k);
    (graph, sources)
}

/// serve-churn: caida n = 6000, k = 32, a NetworKit interleaved removal
/// and re-addition stream (spanning-forest tabu, lag 8) over `edges`
/// edges, so `2 * edges` ops. Every removed edge is re-added, so the
/// stream ends on the start graph.
pub fn churn(seed: u64, edges: usize) -> Inputs {
    let (start, sources) = dataset("caida", CAIDA_SCALE, 32);
    let mut rng = StdRng::seed_from_u64(seed);
    let tabu = stream::spanning_forest_tabu(&start);
    let stream = stream::interleaved(&start, edges, 8, &tabu, &mut rng);
    Inputs {
        end: start.clone(),
        start,
        sources,
        stream,
    }
}

/// paper-insert, the paper's protocol: caida n = 6000, k = 32; the
/// engine starts from the graph minus `edges` random non-tabu edges, and
/// the stream re-inserts them one op per batch.
pub fn paper(seed: u64, edges: usize) -> Inputs {
    let (end, sources) = dataset("caida", CAIDA_SCALE, 32);
    let mut rng = StdRng::seed_from_u64(seed);
    let tabu = stream::spanning_forest_tabu(&end);
    let (removals, additions) = stream::remove_then_add(&end, edges, &tabu, &mut rng);
    let removed: BTreeSet<(VertexId, VertexId)> = removals
        .iter()
        .map(|op| match *op {
            EdgeOp::Remove(u, v) => (u.min(v), u.max(v)),
            EdgeOp::Insert(..) => unreachable!("removal stream"),
        })
        .collect();
    let kept = end.edges().iter().copied().filter(|e| !removed.contains(e));
    Inputs {
        start: EdgeList::from_pairs(end.vertex_count(), kept),
        sources,
        stream: additions,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_per_seed() {
        for make in [churn, paper] {
            let a = make(7, 100);
            assert_eq!(a, make(7, 100), "same seed, same inputs");
            let b = make(8, 100);
            assert_ne!(a.stream, b.stream, "another seed, another stream");
            assert_eq!(
                (&a.end, &a.sources),
                (&b.end, &b.sources),
                "graph and sources are a fixed dataset"
            );
        }
    }

    #[test]
    fn streams_have_the_documented_shapes() {
        let c = churn(1, 100);
        assert_eq!(
            (c.start.vertex_count(), c.sources.len(), c.stream.len()),
            (6000, 32, 200)
        );
        assert_eq!(c.start, c.end, "churn re-adds every removed edge");
        let p = paper(1, 100);
        assert_eq!(
            (p.start.vertex_count(), p.sources.len(), p.stream.len()),
            (6000, 32, 100)
        );
        assert_eq!(p.end.edge_count(), p.start.edge_count() + 100);
        assert!(p
            .stream
            .iter()
            .all(|op| matches!(op, EdgeOp::Insert(u, v) if !p.start.contains(*u, *v))));
    }
}
