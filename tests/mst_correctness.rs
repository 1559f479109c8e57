//! Borůvka EMST validated against the dense Prim oracle across dataset
//! families, metrics and execution contexts.

use pandora::core::{Edge, SortedMst};
use pandora::data::all_datasets;
use pandora::exec::{ExecCtx, ScratchPool};
use pandora::mst::kruskal::{kruskal_mst, total_weight};
use pandora::mst::prim::prim_mst;
use pandora::mst::{
    boruvka_mst, core_distances2, BoruvkaExtras, Euclidean, KdTree, MutualReachability, PointSet,
    TreeMutualReachability,
};

/// The bare Euclidean Borůvka run.
fn euclidean_mst(ctx: &ExecCtx, points: &PointSet, tree: &KdTree) -> Vec<Edge> {
    let pool = ScratchPool::new();
    boruvka_mst(
        ctx,
        points,
        tree,
        &Euclidean,
        BoruvkaExtras::default(),
        &pool,
    )
}

#[test]
fn boruvka_matches_prim_across_families() {
    let ctx = ExecCtx::threads();
    for spec in all_datasets() {
        let points = spec.generate(700, 3);
        let tree = KdTree::build(&ctx, &points);
        let got = euclidean_mst(&ctx, &points, &tree);
        assert_eq!(got.len(), points.len() - 1, "{}", spec.name);
        let expect = prim_mst(&points, &Euclidean);
        let (wa, wb) = (total_weight(&got), total_weight(&expect));
        assert!(
            (wa - wb).abs() <= 1e-3 * wb.max(1.0),
            "{}: Borůvka {wa} vs Prim {wb}",
            spec.name
        );
    }
}

#[test]
fn boruvka_matches_prim_under_mutual_reachability() {
    let ctx = ExecCtx::threads();
    for (name, min_pts) in [("Hacc37M", 4usize), ("VisualVar10M2D", 8), ("Pamap2", 16)] {
        let spec = pandora::data::by_name(name).unwrap();
        let points = spec.generate(600, 21);
        let tree = KdTree::build(&ctx, &points);
        let core2 = core_distances2(&ctx, &points, &tree, min_pts);
        // Borůvka reads the metric at tree positions; Prim by point index.
        let tree_core2 = tree.in_tree_order(&core2);
        let mut node_core2 = Vec::new();
        tree.min_core2_into(&tree_core2, &mut node_core2);
        let extras = BoruvkaExtras {
            node_core2: &node_core2,
            ..Default::default()
        };
        let tree_metric = TreeMutualReachability { core2: &tree_core2 };
        let got = boruvka_mst(
            &ctx,
            &points,
            &tree,
            &tree_metric,
            extras,
            &ScratchPool::new(),
        );
        let expect = prim_mst(&points, &MutualReachability { core2: &core2 });
        let (wa, wb) = (total_weight(&got), total_weight(&expect));
        assert!(
            (wa - wb).abs() <= 1e-3 * wb.max(1.0),
            "{name} minPts={min_pts}: {wa} vs {wb}"
        );
    }
}

#[test]
fn boruvka_output_is_a_spanning_tree() {
    let ctx = ExecCtx::threads();
    let points = pandora::data::by_name("Normal100M2D")
        .unwrap()
        .generate(5_000, 8);
    let tree = KdTree::build(&ctx, &points);
    let edges = euclidean_mst(&ctx, &points, &tree);
    let mst = SortedMst::from_edges(&ctx, points.len(), &edges);
    mst.validate_tree().unwrap();
}

#[test]
fn kruskal_agrees_with_boruvka_on_dense_graph() {
    // Build the complete graph over a few points and feed it to Kruskal;
    // compare with Borůvka on the same points.
    let ctx = ExecCtx::serial();
    let points = pandora::data::synthetic::uniform(120, 2, 5);
    let mut graph = Vec::new();
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            graph.push(pandora::core::Edge::new(
                i as u32,
                j as u32,
                points.dist2(i, j).sqrt(),
            ));
        }
    }
    let via_kruskal = kruskal_mst(&ctx, points.len(), &graph);
    let tree = KdTree::build(&ctx, &points);
    let via_boruvka = euclidean_mst(&ctx, &points, &tree);
    let (wa, wb) = (total_weight(&via_kruskal), total_weight(&via_boruvka));
    assert!((wa - wb).abs() <= 1e-3 * wb.max(1.0), "{wa} vs {wb}");
}
