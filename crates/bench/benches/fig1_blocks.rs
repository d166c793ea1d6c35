//! Figure 1: static-BC speedup vs number of thread blocks on two devices.
//!
//! The paper sweeps the block count for exact static BC on three DIMACS
//! graphs, on a GTX 560 (7 SMs) and a Tesla C2075 (14 SMs), finding that
//! "the best performance is obtained by setting the number of thread
//! blocks to be equal to the number of SMs or a multiple thereof". We
//! sweep the same block counts on three suite graphs (exact BC on small
//! instances, as in the paper: "the largest graphs that are still
//! feasible for an exact computation"). The plateau claim (one block per
//! SM reaches ≥ 90% of the best speedup) is asserted at reduced scale by
//! the workspace's `tests/paper_shape.rs`.

use dynbc_bc::gpu::{static_bc_gpu, Parallelism};
use dynbc_bench::table::Table;
use dynbc_bench::Config;
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::suite::entry_by_short;
use dynbc_graph::Csr;

fn main() {
    let cfg = Config::from_env(0.04, usize::MAX, 0);
    println!(
        "== Figure 1: static BC speedup vs thread blocks (scale={}) ==\n",
        cfg.scale
    );
    let graphs = ["caida", "pref", "small"];
    let blocks = [1usize, 2, 4, 7, 8, 14, 16, 21, 28, 42, 56];
    let devices = [DeviceConfig::gtx560(), DeviceConfig::tesla_c2075()];

    for device in devices {
        println!("-- {} ({} SMs) --", device.name, device.num_sms);
        let mut table = Table::new(
            std::iter::once("Graph".to_string())
                .chain(blocks.iter().map(|b| format!("B={b}")))
                .collect(),
        );
        for short in graphs {
            let entry = entry_by_short(short).unwrap();
            let el = entry.generate(cfg.scale, cfg.seed);
            let csr = Csr::from_edge_list(&el);
            // Exact BC: every vertex is a source (as in the paper's Fig. 1).
            let sources: Vec<u32> = (0..csr.vertex_count() as u32).collect();
            let times: Vec<f64> = blocks
                .iter()
                .map(|&b| static_bc_gpu(device, &csr, &sources, Parallelism::Node, b).seconds)
                .collect();
            let base = times[0];
            let speedups: Vec<f64> = times.iter().map(|t| base / t).collect();
            table.row(
                std::iter::once(format!("{short} (n={})", csr.vertex_count()))
                    .chain(speedups.iter().map(|s| format!("{s:.2}")))
                    .collect(),
            );
        }
        println!("{}", table.render());
    }
}
