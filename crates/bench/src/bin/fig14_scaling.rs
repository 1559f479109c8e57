//! **Figure 14**: dendrogram throughput vs. sample count for `Hacc497M` and
//! `Normal300M2`: UnionFind-MT on a 64-core EPYC 7763 vs. PANDORA on an
//! MI250X GCD.
//!
//! Paper shape: UnionFind-MT peaks immediately and slowly decays; PANDORA
//! on GPU starts launch-latency-bound, crosses UnionFind-MT around 3·10⁴
//! samples and saturates around 10⁶. This binary measures both algorithms
//! on this host's cores at each sample size (random subsamples of the
//! dataset, as in the paper); the GPU curve and its crossover need a GPU.

use pandora_bench::harness::{mpoints, print_table, run_pipeline};
use pandora_data::by_name;
use pandora_exec::ExecCtx;
use pandora_mst::PointSet;
use rand::prelude::*;

fn subsample(points: &PointSet, n: usize, seed: u64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<u32> = (0..points.len() as u32).collect();
    idx.shuffle(&mut rng);
    idx.truncate(n);
    points.select(&idx)
}

fn main() {
    let max_n: usize = std::env::var("PANDORA_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120_000);
    let sizes: Vec<usize> = [
        1_000usize, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000,
    ]
    .into_iter()
    .filter(|&s| s <= max_n)
    .collect();
    println!(
        "Figure 14 reproduction — throughput vs sample count (max n = {max_n}, \
         PANDORA_SCALE to raise)"
    );
    let lanes = ExecCtx::threads().lanes();

    for name in ["Hacc497M", "Normal300M2D"] {
        let spec = by_name(name).expect("registry");
        let full = spec.generate(max_n, 31);
        let mut rows = Vec::new();
        for &s in &sizes {
            let run = run_pipeline(&subsample(&full, s.min(full.len()), 77), 2);
            rows.push(vec![
                run.n.to_string(),
                format!("{:.1}", mpoints(run.n, run.ufmt_wall.0 + run.ufmt_wall.1)),
                format!("{:.1}", mpoints(run.n, run.pandora_wall.total())),
            ]);
        }
        print_table(
            &format!("Fig 14 — {name}: MPoints/s vs samples measured on this host ({lanes} lanes)"),
            &["samples", "UF", "PAN"],
            &rows,
        );
    }
    println!("\npaper shape: UF on a 64-core EPYC 7763 peaks immediately then decays.");
    println!(
        "not testable on this host (no GPU): PAN on the MI250X rises with n, \
         crosses UF at ~3·10⁴ samples and saturates near 10⁶."
    );
}
