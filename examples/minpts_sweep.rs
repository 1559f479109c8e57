//! Multi-`minPts` sweep over a frozen index — the paper's Fig. 15
//! workload served the way a clustering service would: one
//! `DatasetIndex` per dataset, many requests against it.
//!
//! Runs the sweep twice — once through one session over an index frozen
//! at the sweep maximum (tree built once, one k-NN pass, all stage buffers
//! recycled) and once as four cold one-shot `run()` calls — verifies the
//! results are identical, and prints the measured amortization.
//!
//! ```bash
//! cargo run --release --example minpts_sweep          # 20k points
//! PANDORA_SCALE=50000 cargo run --release --example minpts_sweep
//! ```

use std::sync::Arc;
use std::time::Instant;

use pandora::data::synthetic::gaussian_blobs;
use pandora::hdbscan::{ClusterRequest, DatasetIndex, Hdbscan, HdbscanParams};

fn main() {
    let n: usize = std::env::var("PANDORA_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let sweep = [2usize, 4, 8, 16];
    let (points, _) = gaussian_blobs(n, 3, 6, 200.0, 2.0, 42);
    println!("minPts sweep {sweep:?} over n = {n} points (dim 3)");

    // One freeze, one session: shared kd-tree + one k-NN pass + pooled
    // stage buffers.
    let t = Instant::now();
    let index = Arc::new(DatasetIndex::freeze(points.clone(), 16).expect("valid dataset"));
    let mut session = index.session();
    let swept: Vec<_> = sweep
        .iter()
        .map(|&min_pts| {
            session
                .run(&ClusterRequest::new().min_pts(min_pts))
                .expect("valid request")
        })
        .collect();
    let sweep_s = t.elapsed().as_secs_f64();

    // Cold baseline: four independent one-shot pipelines.
    let t = Instant::now();
    let cold: Vec<_> = sweep
        .iter()
        .map(|&min_pts| {
            Hdbscan::new(HdbscanParams {
                min_pts,
                ..Default::default()
            })
            .run(&points)
        })
        .collect();
    let cold_s = t.elapsed().as_secs_f64();

    println!("\n  minPts  clusters  noise     MST weight");
    for (result, &min_pts) in swept.iter().zip(&sweep) {
        let w: f64 = result.mst.weight.iter().map(|&x| x as f64).sum();
        println!(
            "  {min_pts:>6}  {:>8}  {:>5}  {w:>13.2}",
            result.n_clusters(),
            result.n_noise()
        );
    }

    // The shared index must be an optimization, never a different answer.
    for (a, b) in swept.iter().zip(cold.iter()) {
        assert_eq!(a.labels, b.labels, "sweep and one-shot labels diverged");
        assert_eq!(a.mst.weight, b.mst.weight);
    }

    println!(
        "\n  session sweep: {:.1} ms   four cold runs: {:.1} ms   amortization: {:.2}x",
        sweep_s * 1e3,
        cold_s * 1e3,
        cold_s / sweep_s.max(1e-12)
    );
    println!("  (identical labels, MSTs and dendrograms on both paths)");
}
