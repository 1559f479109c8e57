//! The engine's contract, proptest-enforced: every result a warm
//! [`HdbscanEngine`] sweep produces is **bit-identical** to the
//! corresponding one-shot run — MST edges, core distances, dendrogram,
//! labels, probabilities — in both serial and threaded contexts, on
//! adversarial inputs (duplicate points, collinear grids, quantized
//! coordinates where exact distance ties abound).
//!
//! This is what licenses every engine optimization (shared kd-tree, one
//! k-NN pass serving all `minPts` by prefix, the Borůvka row screen, the
//! cross-run endgame cache, pooled buffers): they must be pure
//! amortizations, never different answers.

use proptest::prelude::*;

use pandora::exec::ExecCtx;
use pandora::hdbscan::{Hdbscan, HdbscanParams, HdbscanResult};
use pandora::mst::{emst, EmstParams, PointSet};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_sweep_is_bit_identical_to_one_shot(points in adversarial_points()) {
        let n = points.len();
        // The paper's sweep, clamped to the point count (min_pts ≤ n).
        let sweep: Vec<usize> = [2usize, 4, 8, 16]
            .iter()
            .map(|&m| m.min(n))
            .collect();
        for ctx in [ExecCtx::serial(), ExecCtx::threads()] {
            let threaded = ctx.lanes() > 1;
            let what = if threaded { "threaded" } else { "serial" };
            let driver = Hdbscan::with_ctx(HdbscanParams::default(), ctx.clone());
            let mut engine = driver.engine(&points);
            let swept = engine.sweep_min_pts(&sweep);
            for (result, &min_pts) in swept.iter().zip(&sweep) {
                // One-shot pipeline, cold workspaces each time.
                let one_shot = Hdbscan::with_ctx(
                    HdbscanParams { min_pts, ..Default::default() },
                    ctx.clone(),
                )
                .run(&points);
                assert_results_identical(result, &one_shot, &format!("{what} m={min_pts}"));

                // And against the pre-engine orchestrator (`emst`), which
                // shares no workspace code with the engine path: the swept
                // MST must be the exact same tree.
                let cold = emst(&ctx, &points, &EmstParams::with_min_pts(min_pts));
                prop_assert_eq!(result.core2.as_slice(), cold.core2.as_slice());
                prop_assert_eq!(result.mst.n_edges(), cold.edges.len());
                let mst = pandora::core::SortedMst::from_edges(&ctx, n, &cold.edges);
                prop_assert_eq!(result.mst.src.as_slice(), mst.src.as_slice());
                prop_assert_eq!(result.mst.dst.as_slice(), mst.dst.as_slice());
                prop_assert_eq!(result.mst.weight.as_slice(), mst.weight.as_slice());
            }
        }
    }

    #[test]
    fn serial_and_threaded_engines_agree_exactly(points in adversarial_points()) {
        let n = points.len();
        let sweep: Vec<usize> = [2usize, 3, 8].iter().map(|&m| m.min(n)).collect();
        let serial = Hdbscan::with_ctx(HdbscanParams::default(), ExecCtx::serial())
            .engine(&points)
            .sweep_min_pts(&sweep);
        let threaded = Hdbscan::with_ctx(HdbscanParams::default(), ExecCtx::threads())
            .engine(&points)
            .sweep_min_pts(&sweep);
        for ((a, b), &min_pts) in serial.iter().zip(&threaded).zip(&sweep) {
            assert_results_identical(a, b, &format!("serial-vs-threaded m={min_pts}"));
        }
    }

    #[test]
    fn repeated_and_unordered_requests_stay_identical(points in adversarial_points()) {
        // A serving engine sees arbitrary request orders — descending,
        // repeated, interleaved. Every answer must match the one-shot
        // pipeline regardless of what the engine served before (the
        // endgame cache and row reuse must never leak state between
        // requests). The repeated 8 is a hierarchy-cache hit; the widening
        // re-freeze at 16 starts an empty cache, so the second 2 is a
        // warm miss.
        let n = points.len();
        let requests: Vec<usize> = [8usize, 2, 8, 16, 2, 1]
            .iter()
            .map(|&m| m.min(n))
            .collect();
        let ctx = ExecCtx::serial();
        let driver = Hdbscan::with_ctx(HdbscanParams::default(), ctx.clone());
        let mut engine = driver.engine(&points);
        for &min_pts in &requests {
            let warm = engine.run_with(min_pts);
            let one_shot = Hdbscan::with_ctx(
                HdbscanParams { min_pts, ..Default::default() },
                ctx.clone(),
            )
            .run(&points);
            assert_results_identical(&warm, &one_shot, &format!("request m={min_pts}"));
        }
    }
}
