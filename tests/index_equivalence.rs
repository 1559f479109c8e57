//! The serving tier's contract, proptest-enforced: every result a warm
//! [`Session`] produces over a frozen [`DatasetIndex`] is **bit-identical**
//! to the one-shot [`Hdbscan::run`] — MST edges, core distances,
//! dendrogram, labels, probabilities — and both carry the spanning tree of
//! the independent [`brute_emst`], in serial and threaded contexts, on
//! adversarial inputs (duplicate points, collinear grids, quantized
//! coordinates where exact distance ties abound).
//!
//! This is what licenses every serving optimization (shared kd-tree, one
//! k-NN pass serving all `minPts` by prefix, the Borůvka row screen, the
//! cross-run endgame cache, pooled buffers, the hierarchy cache): they must
//! be pure amortizations, never different answers.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use pandora::core::SortedMst;
use pandora::exec::ExecCtx;
use pandora::hdbscan::{ClusterRequest, DatasetIndex, Hdbscan, HdbscanParams, HdbscanResult};
use pandora::mst::PointSet;

use common::brute_emst;

/// Adversarial point sets (same families as `tests/mst_properties.rs`):
/// duplicates, collinear diagonals, quarter-unit grids.
fn adversarial_points() -> impl Strategy<Value = PointSet> {
    (0usize..3, 2usize..4, 8usize..80).prop_flat_map(|(mode, dim, n)| {
        prop::collection::vec(0u32..32, n * dim..n * dim + 1).prop_map(move |raw| {
            let coords: Vec<f32> = match mode {
                0 => raw.iter().map(|&v| (v % 8) as f32).collect(),
                1 => raw
                    .chunks(dim)
                    .flat_map(|c| std::iter::repeat_n(c[0] as f32 * 0.25, dim))
                    .collect(),
                _ => raw.iter().map(|&v| v as f32 * 0.25).collect(),
            };
            PointSet::new(coords, dim)
        })
    })
}

/// Asserts two pipeline results are bit-identical in every deterministic
/// field (timings excluded, obviously).
fn assert_results_identical(a: &HdbscanResult, b: &HdbscanResult, what: &str) {
    assert_eq!(a.core2, b.core2, "{what}: core distances");
    assert_eq!(a.mst.src, b.mst.src, "{what}: MST sources");
    assert_eq!(a.mst.dst, b.mst.dst, "{what}: MST destinations");
    assert_eq!(a.mst.weight, b.mst.weight, "{what}: MST weights");
    assert_eq!(a.dendrogram, b.dendrogram, "{what}: dendrogram");
    assert_eq!(a.labels, b.labels, "{what}: labels");
    assert_eq!(a.probabilities, b.probabilities, "{what}: probabilities");
    assert_eq!(a.stabilities, b.stabilities, "{what}: stabilities");
}

/// Asserts a result carries exactly the reference EMST for `min_pts`.
fn assert_matches_reference(result: &HdbscanResult, points: &PointSet, min_pts: usize, what: &str) {
    let ctx = ExecCtx::serial();
    let reference = brute_emst(points, min_pts);
    let mst = SortedMst::from_edges(&ctx, points.len(), &reference.edges);
    assert_eq!(result.core2, reference.core2, "{what}: core distances");
    assert_eq!(result.mst.src, mst.src, "{what}: MST sources");
    assert_eq!(result.mst.dst, mst.dst, "{what}: MST destinations");
    assert_eq!(result.mst.weight, mst.weight, "{what}: MST weights");
}

/// One session over an index frozen at the sweep's maximum, answering the
/// requests in order.
fn session_sweep(ctx: &ExecCtx, points: &PointSet, requests: &[usize]) -> Vec<HdbscanResult> {
    let ceiling = requests.iter().copied().max().expect("non-empty sweep");
    let index = DatasetIndex::freeze_with_ctx(ctx.clone(), points.clone(), ceiling)
        .map(Arc::new)
        .expect("freeze a non-empty dataset");
    let mut session = index.session();
    requests
        .iter()
        .map(|&min_pts| {
            session
                .run(&ClusterRequest::new().min_pts(min_pts))
                .expect("valid request")
        })
        .collect()
}

fn one_shot(ctx: &ExecCtx, points: &PointSet, min_pts: usize) -> HdbscanResult {
    let params = HdbscanParams {
        min_pts,
        ..Default::default()
    };
    Hdbscan::with_ctx(params, ctx.clone()).run(points)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn session_sweep_is_bit_identical_to_one_shot(points in adversarial_points()) {
        // The paper's sweep, clamped to the point count (min_pts ≤ n).
        let sweep: Vec<usize> = [2usize, 4, 8, 16]
            .iter()
            .map(|&m| m.min(points.len()))
            .collect();
        for ctx in [ExecCtx::serial(), ExecCtx::threads()] {
            let what = if ctx.lanes() > 1 { "threaded" } else { "serial" };
            let swept = session_sweep(&ctx, &points, &sweep);
            for (result, &min_pts) in swept.iter().zip(&sweep) {
                let what = format!("{what} m={min_pts}");
                assert_results_identical(result, &one_shot(&ctx, &points, min_pts), &what);
                assert_matches_reference(result, &points, min_pts, &what);
            }
        }
    }

    #[test]
    fn serial_and_threaded_sessions_agree_exactly(points in adversarial_points()) {
        let sweep: Vec<usize> = [2usize, 3, 8].iter().map(|&m| m.min(points.len())).collect();
        let serial = session_sweep(&ExecCtx::serial(), &points, &sweep);
        let threaded = session_sweep(&ExecCtx::threads(), &points, &sweep);
        for ((a, b), &min_pts) in serial.iter().zip(&threaded).zip(&sweep) {
            assert_results_identical(a, b, &format!("serial-vs-threaded m={min_pts}"));
        }
    }

    #[test]
    fn repeated_and_unordered_requests_stay_identical(points in adversarial_points()) {
        // A serving session sees arbitrary request orders — descending,
        // repeated, interleaved. Every answer must match the one-shot
        // pipeline regardless of what the session served before (the
        // endgame cache and row reuse must never leak state between
        // requests). The repeated 8 and 2 are hierarchy-cache hits; the 4
        // after the 16 is a warm miss below a wider run.
        let requests: Vec<usize> = [8usize, 2, 8, 16, 4, 2, 1]
            .iter()
            .map(|&m| m.min(points.len()))
            .collect();
        let ctx = ExecCtx::serial();
        let served = session_sweep(&ctx, &points, &requests);
        for (warm, &min_pts) in served.iter().zip(&requests) {
            let what = format!("request m={min_pts}");
            assert_results_identical(warm, &one_shot(&ctx, &points, min_pts), &what);
            assert_matches_reference(warm, &points, min_pts, &what);
        }
    }
}
