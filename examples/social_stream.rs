//! Social-network stream: track influencers while friendships form.
//!
//! The paper's motivating workload — "the exploding popularity of online
//! social networking has created a profound demand for high performance,
//! scalable graph analytics" — demands *updating* centrality, not
//! recomputing it. This example grows a preferential-attachment network,
//! streams new friendships through the dynamic engine, and reports how
//! the influencer ranking shifts, how much of the graph each update
//! actually touched, and what a static recomputation would have cost
//! instead (on the simulated Tesla C2075).
//!
//! ```sh
//! cargo run --release --example social_stream
//! ```

use dynbc::bc::gpu::static_bc_gpu;
use dynbc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 5_000;
    let mut rng = StdRng::seed_from_u64(2014);
    let graph = dynbc::graph::gen::ba(&mut rng, n, 5);
    let sources = sample_sources(&mut rng, n, 48);
    println!(
        "social network: {} users, {} friendships, k = {} BC sources\n",
        graph.vertex_count(),
        graph.edge_count(),
        sources.len()
    );

    let device = DeviceConfig::tesla_c2075();
    let mut engine = GpuDynamicBc::new(&graph, &sources, device, Parallelism::Node);

    let before = engine.state_snapshot().top_ranked(10);
    println!("current influencers (top 10 by betweenness):");
    for (rank, (v, score)) in before.iter().enumerate() {
        println!("  #{:<2} user{v:<6} {score:>10.1}", rank + 1);
    }

    // Simulate a burst of friendship events. New friendships in a social
    // network are degree-biased: popular users gain edges faster.
    println!("\nstreaming 25 friendship events...");
    let mut update_seconds = 0.0;
    let mut total_touched_max = 0usize;
    let mut streamed = 0;
    while streamed < 25 {
        // One endpoint uniform, one degree-biased (pick the higher-degree
        // of two uniform candidates).
        let a = rng.gen_range(0..n as u32);
        let c1 = rng.gen_range(0..n as u32);
        let c2 = rng.gen_range(0..n as u32);
        let degree = |v| engine.graph().neighbors(v).count();
        let b = if degree(c1) >= degree(c2) { c1 } else { c2 };
        if a == b || engine.graph().has_edge(a, b) {
            continue;
        }
        let result = engine.insert_edge(a, b);
        update_seconds += result.model_seconds;
        total_touched_max = total_touched_max.max(result.max_touched());
        streamed += 1;
    }

    let after = engine.state_snapshot().top_ranked(10);
    println!("\ninfluencers after the burst:");
    for (rank, (v, score)) in after.iter().enumerate() {
        let was = before.iter().position(|&(w, _)| w == *v);
        let movement = match was {
            Some(old) if old == rank => "  =".to_string(),
            Some(old) if old > rank => format!(" +{}", old - rank),
            Some(old) => format!(" -{}", rank - old),
            None => "  *new*".to_string(),
        };
        println!("  #{:<2} user{v:<6} {score:>10.1}{movement}", rank + 1);
    }

    // What did staying current cost, versus recomputing after the burst?
    let csr = engine.graph().to_csr();
    let recompute = static_bc_gpu(device, &csr, &sources, Parallelism::Node, device.num_sms);
    println!(
        "\ncost of staying current : {:.3} ms over 25 updates (simulated {})",
        update_seconds * 1e3,
        device.name
    );
    println!(
        "one static recomputation: {:.3} ms  ({:.0}x more per event)",
        recompute.seconds * 1e3,
        recompute.seconds * 25.0 / update_seconds
    );
    println!(
        "largest slice of the graph any single update touched: {:.2}% of {} users",
        100.0 * total_touched_max as f64 / n as f64,
        n
    );
}
