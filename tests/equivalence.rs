//! Cross-crate equivalence: PANDORA must produce *exactly* the dendrogram of
//! the sequential union–find baseline (and the top-down baseline) on every
//! dataset family of Table 2, for multiple `minPts`, in both serial and
//! parallel execution.

mod common;

use pandora::core::baseline::{dendrogram_top_down, dendrogram_union_find};
use pandora::core::pandora as pandora_algo;
use pandora::core::{Edge, SortedMst};
use pandora::data::all_datasets;
use pandora::exec::ExecCtx;

use common::reference_emst;

#[test]
fn pandora_equals_union_find_on_all_table2_families() {
    let ctx = ExecCtx::threads();
    for spec in all_datasets() {
        let points = spec.generate(2_500, 99);
        for min_pts in [2usize, 4] {
            let edges = reference_emst(&ctx, &points, min_pts).edges;
            let mst = SortedMst::from_edges(&ctx, points.len(), &edges);
            let (got, _) = pandora_algo::dendrogram_from_sorted(&ctx, &mst);
            got.validate().unwrap_or_else(|e| {
                panic!("{} minPts={min_pts}: invalid dendrogram: {e}", spec.name)
            });
            let expect = dendrogram_union_find(&mst);
            assert_eq!(
                got, expect,
                "{} minPts={min_pts}: PANDORA != union-find",
                spec.name
            );
        }
    }
}

#[test]
fn pandora_equals_top_down_on_selected_families() {
    let ctx = ExecCtx::serial();
    for name in ["Hacc37M", "Uniform100M2D", "RoadNetwork3"] {
        let spec = pandora::data::by_name(name).unwrap();
        let points = spec.generate(1_200, 5);
        let edges = reference_emst(&ctx, &points, 2).edges;
        let mst = SortedMst::from_edges(&ctx, points.len(), &edges);
        let (got, _) = pandora_algo::dendrogram_from_sorted(&ctx, &mst);
        let expect = dendrogram_top_down(&mst);
        assert_eq!(got, expect, "{name}: PANDORA != top-down");
    }
}

#[test]
fn serial_and_parallel_agree_bit_for_bit() {
    for spec in all_datasets().into_iter().take(5) {
        let points = spec.generate(3_000, 123);
        let edges = reference_emst(&ExecCtx::threads(), &points, 2).edges;
        let serial = pandora::core::pandora::dendrogram(&ExecCtx::serial(), points.len(), &edges);
        let parallel =
            pandora::core::pandora::dendrogram(&ExecCtx::threads(), points.len(), &edges);
        assert_eq!(serial, parallel, "{}", spec.name);
    }
}

#[test]
fn extreme_shapes_chain_star_balanced() {
    let ctx = ExecCtx::threads();
    let n = 4_096usize;

    // Chain with descending weights: fully skewed, no α edges at level 0.
    let chain: Vec<Edge> = (0..n - 1)
        .map(|i| Edge::new(i as u32, i as u32 + 1, (n - i) as f32))
        .collect();
    // Star: the other fully-skewed extreme.
    let star: Vec<Edge> = (1..n)
        .map(|i| Edge::new(0, i as u32, (n - i) as f32))
        .collect();
    // Balanced binary merge tree: vertex i joins i/2's cluster.
    let balanced: Vec<Edge> = (1..n)
        .map(|i| Edge::new((i / 2) as u32, i as u32, 1.0 / (i as f32)))
        .collect();

    for (label, edges) in [("chain", chain), ("star", star), ("balanced", balanced)] {
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        let (got, stats) = pandora_algo::dendrogram_from_sorted(&ctx, &mst);
        got.validate().unwrap();
        assert_eq!(got, dendrogram_union_find(&mst), "{label}");
        // Level bound from the paper §4.2.
        assert!(
            stats.n_levels <= (n + 1).ilog2() as usize + 2,
            "{label}: {} levels",
            stats.n_levels
        );
    }
}
