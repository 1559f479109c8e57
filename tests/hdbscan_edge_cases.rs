//! HDBSCAN\* result edge cases through the full pipeline: degenerate point
//! counts (n ∈ {0, 1, 2}), extreme `cut` thresholds, oversized
//! `min_cluster_size`, and `allow_single_cluster` — on both the one-shot
//! driver and a session over a frozen index.

use std::sync::Arc;

use pandora::exec::ExecCtx;
use pandora::hdbscan::{ClusterRequest, DatasetIndex, Hdbscan, HdbscanParams, HdbscanResult};
use pandora::mst::PointSet;

fn run(points: &PointSet, params: HdbscanParams) -> HdbscanResult {
    Hdbscan::with_ctx(params, ExecCtx::serial()).run(points)
}

#[test]
fn empty_point_set() {
    let points = PointSet::new(vec![], 2);
    let result = run(&points, HdbscanParams::default());
    assert_eq!(result.n_clusters(), 0);
    assert_eq!(result.n_noise(), 0);
    assert!(result.labels.is_empty());
    assert!(result.probabilities.is_empty());
    assert!(result.mst.n_edges() == 0);
    // Cuts of an empty hierarchy are empty labelings, not panics.
    assert!(result.cut(0.0).is_empty());
    assert!(result.cut(f32::INFINITY).is_empty());
}

#[test]
fn single_point() {
    let points = PointSet::new(vec![1.5, -2.0], 2);
    let result = run(&points, HdbscanParams::default());
    assert_eq!(result.labels, vec![-1], "one point is noise, not a cluster");
    assert_eq!(result.probabilities, vec![0.0]);
    assert_eq!(result.n_clusters(), 0);
    // A singleton is its own component at any threshold.
    assert_eq!(result.cut(0.0), vec![0]);
    assert_eq!(result.cut(f32::INFINITY), vec![0]);
}

#[test]
fn two_points() {
    let points = PointSet::new(vec![0.0, 0.0, 3.0, 4.0], 2);
    let result = run(
        &points,
        HdbscanParams {
            min_cluster_size: 2,
            ..Default::default()
        },
    );
    assert_eq!(result.mst.n_edges(), 1);
    assert_eq!(result.mst.weight[0], 5.0);
    // Without allow_single_cluster the root is never selected: all noise.
    assert_eq!(result.labels, vec![-1, -1]);
    // Threshold 0 separates them; ∞ joins them.
    assert_eq!(result.cut(0.0), vec![0, 1]);
    assert_eq!(result.cut(f32::INFINITY), vec![0, 0]);
    // Exactly at the merge distance the pair is one component.
    assert_eq!(result.cut(5.0), vec![0, 0]);
}

#[test]
fn two_duplicate_points_cut_at_zero() {
    // Zero-weight edge: a threshold-0 cut must keep the duplicates merged
    // (cut removes strictly-heavier edges only).
    let points = PointSet::new(vec![1.0, 1.0, 1.0, 1.0], 2);
    let result = run(&points, HdbscanParams::default());
    assert_eq!(result.mst.weight, vec![0.0]);
    assert_eq!(result.cut(0.0), vec![0, 0]);
}

#[test]
fn min_cluster_size_exceeding_n_yields_all_noise() {
    // 30 points in one tight blob, but no cluster may have fewer than 100
    // members: nothing is selectable, everything is noise.
    let coords: Vec<f32> = (0..30).flat_map(|i| [i as f32 * 0.01, 0.0]).collect();
    let points = PointSet::new(coords, 2);
    let result = run(
        &points,
        HdbscanParams {
            min_cluster_size: 100,
            ..Default::default()
        },
    );
    assert_eq!(result.n_clusters(), 0);
    assert_eq!(result.n_noise(), 30);
    assert!(result.probabilities.iter().all(|&p| p == 0.0));
    // The single-linkage hierarchy is still intact underneath.
    assert_eq!(result.cut(f32::INFINITY).iter().max(), Some(&0));
}

#[test]
fn allow_single_cluster_recovers_one_blob() {
    // 8 points with min_cluster_size 5: a split would need ≥ 5 points on
    // both sides (≥ 10 total), so no condensed split can survive and the
    // root is the only candidate cluster.
    let coords: Vec<f32> = (0..8).flat_map(|i| [i as f32 * 0.01, 0.0]).collect();
    let points = PointSet::new(coords, 2);
    let strict = run(&points, HdbscanParams::default());
    // The default never selects the root: everything is noise...
    assert_eq!(strict.n_clusters(), 0);
    assert_eq!(strict.n_noise(), 8);
    let single = run(
        &points,
        HdbscanParams {
            allow_single_cluster: true,
            ..Default::default()
        },
    );
    // ...while allow_single_cluster labels every point with the root.
    assert_eq!(single.n_clusters(), 1);
    assert!(single.labels.iter().all(|&l| l == 0));
    assert!(single
        .probabilities
        .iter()
        .all(|&p| (0.0..=1.0).contains(&p)));
}

#[test]
fn sessions_handle_degenerate_sets_like_the_one_shot_path() {
    // An empty set cannot be frozen (see `empty_point_set` for its one-shot
    // result); one and two points serve every min_pts up to the ceiling.
    for coords in [vec![1.0, 2.0], vec![0.0, 0.0, 1.0, 0.0]] {
        let points = PointSet::new(coords, 2);
        let n = points.len();
        let index = DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points.clone(), 2)
            .map(Arc::new)
            .expect("one or two points freeze at ceiling 2");
        let mut session = index.session();
        for min_pts in [1usize, 2] {
            let result = session
                .run(&ClusterRequest::new().min_pts(min_pts))
                .expect("valid request");
            let one_shot = Hdbscan::with_ctx(
                HdbscanParams {
                    min_pts,
                    ..Default::default()
                },
                ExecCtx::serial(),
            )
            .run(&points);
            assert_eq!(result.labels, one_shot.labels, "n={n} m={min_pts}");
            assert_eq!(result.mst.weight, one_shot.mst.weight);
            assert_eq!(result.core2, one_shot.core2);
        }
    }
}

#[test]
#[should_panic(expected = "exceeds the number of points")]
fn min_pts_above_n_panics_through_the_pipeline() {
    let points = PointSet::new(vec![0.0, 0.0, 1.0, 0.0, 2.0, 0.0], 2);
    let _ = run(
        &points,
        HdbscanParams {
            min_pts: 4,
            ..Default::default()
        },
    );
}
