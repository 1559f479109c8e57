//! Single-linkage clustering of road-network points at multiple scales.
//!
//! Uses the dendrogram directly (the output PANDORA accelerates): cutting
//! it at increasing distance thresholds produces the full hierarchy of
//! spatial groupings, from individual road segments up to connected towns —
//! the "visual and interactive" use of dendrograms the paper's intro cites.
//!
//! ```sh
//! cargo run --release --example road_clustering
//! ```

use pandora::core::pandora as pandora_algo;
use pandora::core::SortedMst;
use pandora::data::trajectories::road_network;
use pandora::exec::{ExecCtx, ScratchPool};
use pandora::mst::{boruvka_mst, BoruvkaExtras, Euclidean, KdTree};

fn main() {
    let ctx = ExecCtx::threads();
    let points = road_network(20_000, 7);
    println!("clustering {} road-network points (2-D)", points.len());

    // Plain single linkage: Euclidean MST → dendrogram.
    let tree = KdTree::build(&ctx, &points);
    let pool = ScratchPool::new();
    let edges = boruvka_mst(
        &ctx,
        &points,
        &tree,
        &Euclidean,
        BoruvkaExtras::default(),
        &pool,
    );
    let mst = SortedMst::from_edges(&ctx, points.len(), &edges);
    let (dendro, stats) = pandora_algo::dendrogram_from_sorted(&ctx, &mst);
    println!(
        "dendrogram built in {:.1} ms ({} levels, skew {:.0})",
        stats.timings.total() * 1e3,
        stats.n_levels,
        dendro.skewness()
    );

    // Scale sweep: cut the hierarchy at growing thresholds.
    println!(
        "\n{:>10}  {:>9}  {:>14}  {:>10}",
        "cut (m)", "clusters", "largest", "singletons"
    );
    for cut in [5.0f32, 15.0, 40.0, 100.0, 300.0, 1000.0] {
        let labels = dendro.cut(cut, &mst.src, &mst.dst);
        let k = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut sizes = vec![0usize; k];
        for &l in &labels {
            sizes[l as usize] += 1;
        }
        let largest = sizes.iter().copied().max().unwrap_or(0);
        let singletons = sizes.iter().filter(|&&s| s == 1).count();
        println!("{cut:>10.0}  {k:>9}  {largest:>14}  {singletons:>10}");
    }
    println!(
        "\nreading: at small cuts every road fragment is its own cluster; as \
         the threshold passes the road spacing the network coalesces — the \
         hierarchy in one structure, no re-clustering per scale."
    );
}
