//! Failure injection: malformed inputs must fail loudly and precisely, not
//! corrupt results.

use pandora::core::pandora as pandora_algo;
use pandora::core::{Edge, SortedMst};
use pandora::exec::ExecCtx;
use pandora::mst::{emst, PointSet};

#[test]
#[should_panic(expected = "must have")]
fn too_few_edges_rejected() {
    let ctx = ExecCtx::serial();
    let _ = SortedMst::from_edges(&ctx, 4, &[Edge::new(0, 1, 1.0)]);
}

#[test]
#[should_panic(expected = "must have")]
fn too_many_edges_rejected() {
    let ctx = ExecCtx::serial();
    let edges = vec![
        Edge::new(0, 1, 1.0),
        Edge::new(1, 2, 1.0),
        Edge::new(0, 2, 1.0),
    ];
    let _ = SortedMst::from_edges(&ctx, 3, &edges);
}

#[test]
#[should_panic(expected = "self-loop")]
fn self_loops_rejected() {
    let ctx = ExecCtx::serial();
    let _ = SortedMst::from_edges(&ctx, 2, &[Edge::new(1, 1, 1.0)]);
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_endpoint_rejected() {
    let ctx = ExecCtx::serial();
    let _ = SortedMst::from_edges(&ctx, 2, &[Edge::new(0, 5, 1.0)]);
}

#[test]
#[should_panic(expected = "NaN")]
fn nan_weight_rejected() {
    let ctx = ExecCtx::serial();
    let _ = SortedMst::from_edges(&ctx, 2, &[Edge::new(0, 1, f32::NAN)]);
}

/// A 20,000-edge path on the thread pool whose last edge is `bad`: large
/// enough for the canonical sort's parallel path, so a check raised on a
/// pool worker would surface as the pool's generic panic instead of its
/// own message.
fn sort_threaded_with_last_edge(bad: Edge) {
    let n = 20_001u32;
    let mut edges: Vec<Edge> = (0..n - 1)
        .map(|i| Edge::new(i, i + 1, (i % 97) as f32))
        .collect();
    *edges.last_mut().expect("the path has edges") = bad;
    let _ = SortedMst::from_edges(&ExecCtx::threads(), n as usize, &edges);
}

#[test]
#[should_panic(expected = "self-loop edge 7 - 7")]
fn self_loops_rejected_on_the_threaded_path() {
    sort_threaded_with_last_edge(Edge::new(7, 7, 1.0));
}

#[test]
#[should_panic(expected = "edge endpoint out of range")]
fn out_of_range_endpoint_rejected_on_the_threaded_path() {
    sort_threaded_with_last_edge(Edge::new(0, 20_001, 1.0));
}

#[test]
#[should_panic(expected = "NaN edge weight")]
fn nan_weight_rejected_on_the_threaded_path() {
    sort_threaded_with_last_edge(Edge::new(19_999, 20_000, f32::NAN));
}

#[test]
fn cycle_detected_by_validation() {
    // A "tree" with a duplicated edge instead of a connector: right count,
    // wrong topology; from_sorted_arrays defers to validate_tree.
    let mst = SortedMst::from_sorted_arrays(4, vec![0, 0, 0], vec![1, 1, 2], vec![3.0, 2.0, 1.0]);
    assert!(mst.validate_tree().is_err());
}

#[test]
fn disconnected_forest_fails_validation() {
    // Edge count is taken on faith by from_sorted_arrays; the DSU check
    // must catch the cycle implied by a disconnected "tree".
    let mst = SortedMst::from_sorted_arrays(4, vec![0, 2, 0], vec![1, 3, 1], vec![3.0, 2.0, 1.0]);
    assert!(mst.validate_tree().is_err());
}

/// `emst` at `min_pts = n + 1`: the `min_pts`-th neighbour does not exist.
/// The request must be rejected before the k-NN pass, which would
/// otherwise size an n × (n − 1) row table (32 MB here) first.
fn emst_above_n(ctx: &ExecCtx) {
    let n = 2_000u32;
    let coords: Vec<f32> = (0..2 * n).map(|i| (i * 7 % 13) as f32).collect();
    let _ = emst(ctx, &PointSet::new(coords, 2), n as usize + 1);
}

#[test]
#[should_panic(expected = "exceeds the number of points")]
fn emst_min_pts_above_n_rejected() {
    emst_above_n(&ExecCtx::serial());
}

#[test]
#[should_panic(expected = "exceeds the number of points")]
fn emst_min_pts_above_n_rejected_on_the_threaded_path() {
    emst_above_n(&ExecCtx::threads());
}

#[test]
#[should_panic(expected = "multiple of dim")]
fn pointset_dimension_mismatch() {
    let _ = PointSet::new(vec![1.0, 2.0, 3.0], 2);
}

#[test]
fn pandora_on_degenerate_weights_is_exact() {
    // All-equal weights: maximal tie-breaking stress. PANDORA must still
    // match union-find exactly via the canonical order.
    let ctx = ExecCtx::threads();
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(4);
    for n in [10usize, 100, 1000] {
        let edges: Vec<Edge> = (1..n)
            .map(|v| Edge::new(rng.gen_range(0..v) as u32, v as u32, 1.0))
            .collect();
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        let (got, _) = pandora_algo::dendrogram_from_sorted(&ctx, &mst);
        got.validate().unwrap();
        assert_eq!(
            got,
            pandora::core::baseline::dendrogram_union_find(&mst),
            "n={n}"
        );
    }
}

#[test]
fn zero_and_negative_weights_handled() {
    let ctx = ExecCtx::serial();
    let edges = vec![
        Edge::new(0, 1, 0.0),
        Edge::new(1, 2, -1.5),
        Edge::new(2, 3, 2.0),
    ];
    let mst = SortedMst::from_edges(&ctx, 4, &edges);
    let (d, _) = pandora_algo::dendrogram_from_sorted(&ctx, &mst);
    d.validate().unwrap();
    // Heaviest (2.0) is the root; the negative weight sorts last.
    assert_eq!(mst.weight[0], 2.0);
    assert_eq!(mst.weight[2], -1.5);
}

#[test]
fn io_rejects_corrupt_files() {
    use pandora::data::io;
    assert!(io::from_bytes(b"garbage").is_err());
    let mut truncated = io::to_bytes(&PointSet::new(vec![1.0, 2.0], 2));
    truncated.pop();
    assert!(io::from_bytes(&truncated).is_err());
}
