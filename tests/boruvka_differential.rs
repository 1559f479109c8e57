//! Borůvka against an independent reference: the library's `boruvka_mst`
//! and the frozen-index path (`emst_from_index`) must return exactly the
//! edge list of [`common::reference_boruvka`] — a brute-force Borůvka
//! that shares no code with the library — in the same order and to the
//! bit, on every execution context (serial, and pools of 1, 2 and 3
//! lanes), under Euclidean distance and mutual reachability, with and
//! without k-NN rows, and with a warm endgame cache.
//!
//! The inputs are small samples from the benchmark workloads' generators,
//! duplicate lattices (ties everywhere), and three two-point clusters
//! whose closest cross pairs are all exactly the same distance apart: the
//! three components then propose three different edges of equal weight
//! that close a cycle, and the ascending order in which the roots are
//! collected decides which edge is dropped.

mod common;

use std::sync::{Arc, OnceLock};

use pandora::core::Edge;
use pandora::exec::pool::ThreadPool;
use pandora::exec::{ExecCtx, ScratchPool};
use pandora::mst::{
    boruvka_mst, emst_from_index_with, knn_rows_into, BoruvkaExtras, EmstIndex, EmstScratch,
    EndgameCache, Euclidean, KdTree, KnnRows, MetricKind, MutualReachability, PointSet,
    TreeMutualReachability, ROW_SLACK,
};

use common::{brute_core2, reference_boruvka};

/// The serial context and pools of 1, 2 and 3 lanes.
fn contexts() -> &'static [(&'static str, ExecCtx)] {
    static CONTEXTS: OnceLock<Vec<(&'static str, ExecCtx)>> = OnceLock::new();
    CONTEXTS.get_or_init(|| {
        let mut contexts = vec![("serial", ExecCtx::serial())];
        for (name, lanes) in [("pool1", 1), ("pool2", 2), ("pool3", 3)] {
            contexts.push((name, ExecCtx::on_pool(Arc::new(ThreadPool::new(lanes)))));
        }
        contexts
    })
}

fn bits(edges: &[Edge]) -> Vec<(u32, u32, u32)> {
    edges.iter().map(|e| (e.u, e.v, e.w.to_bits())).collect()
}

fn assert_same(got: &[Edge], want: &[Edge], what: &str) {
    assert_eq!(bits(got), bits(want), "{what}");
}

/// Checks every Borůvka configuration on `points` at `min_pts` against the
/// reference.
fn check(points: &PointSet, min_pts: usize, case: &str) {
    let n = points.len();
    let core2 = brute_core2(points, min_pts);
    let want_euclid = reference_boruvka(points, &Euclidean);
    let want_mreach = reference_boruvka(points, &MutualReachability { core2: &core2 });
    let rows_k = (min_pts.max(1) - 1 + ROW_SLACK).min(n - 1);
    for (name, ctx) in contexts() {
        let what = |run: &str| format!("{case}, min_pts={min_pts}, {name}: {run}");
        let tree = KdTree::build(ctx, points);
        // Borůvka reads the metric, the subtree bounds and the rows in
        // tree order.
        let tree_core2 = tree.in_tree_order(&core2);
        let mut node_core2 = Vec::new();
        tree.min_core2_into(&tree_core2, &mut node_core2);
        let (mut d2, mut idx) = (Vec::new(), Vec::new());
        knn_rows_into(ctx, points, &tree, rows_k, &mut d2, &mut idx);
        let rows = KnnRows {
            k: rows_k,
            d2: &d2,
            idx: &idx,
        };
        let mreach = TreeMutualReachability { core2: &tree_core2 };
        let pool = ScratchPool::new();
        for with_rows in [false, true] {
            // A cold then a warm run through one endgame cache.
            let mut cache = EndgameCache::new();
            for pass in ["cold", "warm cache"] {
                let extras = || BoruvkaExtras {
                    rows: with_rows.then_some(rows),
                    ..Default::default()
                };
                let euclid = boruvka_mst(
                    ctx,
                    points,
                    &tree,
                    &Euclidean,
                    BoruvkaExtras {
                        cache: Some((&mut cache, 1)),
                        ..extras()
                    },
                    &pool,
                );
                assert_same(
                    &euclid,
                    &want_euclid,
                    &what(&format!("Euclidean, rows={with_rows}, {pass}")),
                );
                let got = boruvka_mst(
                    ctx,
                    points,
                    &tree,
                    &mreach,
                    BoruvkaExtras {
                        node_core2: &node_core2,
                        cache: Some((&mut cache, min_pts.max(1))),
                        ..extras()
                    },
                    &pool,
                );
                assert_same(
                    &got,
                    &want_mreach,
                    &what(&format!("mutual reachability, rows={with_rows}, {pass}")),
                );
            }
        }
        assert_eq!(pool.outstanding(), 0, "{}", what("pool balance"));

        // The frozen index: rows always on; the second run of each metric
        // through one scratch set applies its endgame snapshots, and a
        // fresh scratch adopts the published ones.
        let index = EmstIndex::freeze(ctx, points.clone(), min_pts.max(1)).expect("freeze");
        let mut scratch = EmstScratch::new();
        for (pass, fresh) in [("cold", false), ("warm", false), ("adopted", true)] {
            let mut own = EmstScratch::new();
            let scratch = if fresh { &mut own } else { &mut scratch };
            for (metric, want) in [
                (MetricKind::MutualReachability, &want_mreach),
                (MetricKind::Euclidean, &want_euclid),
            ] {
                let run = emst_from_index_with(ctx, &index, min_pts.max(1), metric, scratch)
                    .expect("valid request");
                let run_what = what(&format!("index, {metric}, {pass}"));
                assert_same(&run.edges, want, &run_what);
                assert_eq!(run.core2, core2, "{run_what}: core distances");
            }
        }
    }
}

/// `n` points of a registered dataset generator.
fn sample(name: &str, n: usize, seed: u64) -> PointSet {
    pandora::data::by_name(name)
        .expect("registered dataset")
        .generate(n, seed)
}

#[test]
fn workload_samples_match_the_reference() {
    // dendro_skewed's generator (3-D) at its min_pts, and daemon_tcp's
    // (2-D) at the smallest and largest min_pts it requests.
    for seed in [1u64, 2] {
        let points = sample("Normal100M3D", 400, seed);
        check(&points, 2, &format!("Normal100M3D seed {seed}"));
    }
    let points = sample("VisualVar10M2D", 400, 3);
    for min_pts in [2usize, 16] {
        check(&points, min_pts, "VisualVar10M2D seed 3");
    }
}

#[test]
fn duplicate_lattices_match_the_reference() {
    // Points on a 7 × 7 lattice in 2-D and a 3 × 3 × 3 lattice in 3-D:
    // every site holds several coincident points, so distances tie at 0
    // and at every lattice spacing.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |side: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % side) as f32
    };
    for (dim, side, n) in [(2usize, 7u64, 300usize), (3, 3, 200)] {
        let coords: Vec<f32> = (0..n * dim).map(|_| next(side)).collect();
        let points = PointSet::new(coords, dim);
        for min_pts in [1usize, 2, 5] {
            check(&points, min_pts, &format!("{dim}-D lattice"));
        }
    }
}

/// Three two-point clusters, images of each other under the rotation
/// `(x, y, z) → (y, z, x)`, which maps integer points to integer points:
/// every squared distance is an exact small integer, the clusters are 1
/// apart inside, and each cluster's points have their closest foreign
/// points in *different* clusters, all exactly √5 away. Points 0, 2 and 4
/// face forward (A → B → C → A), so after round 0 the three components
/// propose the edges 0–3, 2–5 and 4–1, a cycle of equal weights.
fn cycle_of_three() -> Vec<f32> {
    vec![
        0.0, 0.0, 2.0, // 0: A
        1.0, 0.0, 2.0, // 1: A
        0.0, 2.0, 0.0, // 2: B
        0.0, 2.0, 1.0, // 3: B
        2.0, 0.0, 0.0, // 4: C
        2.0, 1.0, 0.0, // 5: C
    ]
}

#[test]
fn equal_weight_cycle_drops_the_edge_of_the_last_root() {
    let points = PointSet::new(cycle_of_three(), 3);
    // The collect visits the roots 0, 2, 4 in ascending order: 0–3 and
    // 2–5 join everything, so 4–1 closes the cycle and is dropped.
    let want: Vec<(u32, u32, f32)> = vec![
        (0, 1, 1.0),
        (2, 3, 1.0),
        (4, 5, 1.0),
        (0, 3, 5f32.sqrt()),
        (2, 5, 5f32.sqrt()),
    ];
    let reference = reference_boruvka(&points, &Euclidean);
    let got: Vec<(u32, u32, f32)> = reference.iter().map(|e| (e.u, e.v, e.w)).collect();
    assert_eq!(got, want, "the reference drops a different edge");
    for min_pts in [1usize, 2, 3] {
        check(&points, min_pts, "cycle of three");
    }

    // Four copies far apart: every copy closes its own cycle in round 1,
    // and the copies meet in later rounds.
    let copies: Vec<f32> = (0..4)
        .flat_map(|c| {
            cycle_of_three()
                .chunks(3)
                .flat_map(|p| [p[0] + 100.0 * c as f32, p[1], p[2]])
                .collect::<Vec<_>>()
        })
        .collect();
    let points = PointSet::new(copies, 3);
    for min_pts in [1usize, 2, 3] {
        check(&points, min_pts, "four cycles of three");
    }
}
