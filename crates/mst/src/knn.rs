//! k-nearest-neighbour rows and core distances: the crate's one k-NN path.
//!
//! HDBSCAN\*'s `minPts` parameter defines the **core distance** of a point:
//! the distance to its `minPts`-th nearest neighbour, counting the point
//! itself (paper §6.5; `minPts = 2` means "distance to the nearest other
//! point"). Both entry points here ([`core_distances2`] and
//! [`knn_rows_into`]) run through one kd-tree routine that computes every
//! point's row leaf by leaf (`KdTree::for_each_knn_row`); there is no
//! per-query k-NN. Each of a leaf's ~30 queries selects its first top-k
//! from its own leaf, then they share one candidate traversal whose leaf
//! boxes are tested against 8 queries at a time; the distance kernels are
//! specialized for 2-D and 3-D. Each row is the brute-force `(d2, index)`
//! top-k, ties at the k-th distance going to the smaller index, and it
//! leaves the traversal already sorted. The pass allocates only per-lane
//! scratch, never per query, and traces the distances it evaluates.
//!
//! The sorted rows ([`knn_rows_into`], [`KnnRows`]) are kept in **tree
//! order**: row `r` belongs to the point at tree position `r`
//! ([`KdTree::perm`]), its entries are tree positions, and each leaf's
//! rows are contiguous, so the pass writes them as one stream and Borůvka
//! reads them the same way. [`core_distances2`] returns one value per
//! point index.

use std::mem::MaybeUninit;

use pandora_exec::{ExecCtx, UnsafeSlice};

use crate::kdtree::KdTree;
use crate::point::PointSet;

/// Squared core distance of every point for the given `min_pts`.
///
/// `min_pts` counts the point itself (HDBSCAN\* convention), so the
/// neighbour query uses `k = min_pts - 1`. `min_pts = 1` gives all-zero
/// core distances (plain single linkage).
///
/// # Panics
///
/// Panics if `min_pts` is 0, or if `min_pts > n` for a set of two or more
/// points: the `min_pts`-th neighbour does not exist, so the core distance
/// is undefined (silently truncating to the farthest existing neighbour
/// would produce a different clustering than requested). Empty and
/// single-point sets accept any `min_pts` and return all-zero core
/// distances — there is nothing to cluster, so no request can be
/// mis-served.
pub fn core_distances2(
    ctx: &ExecCtx,
    points: &PointSet,
    tree: &KdTree,
    min_pts: usize,
) -> Vec<f32> {
    let n = points.len();
    assert!(min_pts >= 1, "min_pts must be at least 1");
    assert!(
        n <= 1 || min_pts <= n,
        "min_pts ({min_pts}) exceeds the number of points ({n}): \
         the {min_pts}-th nearest neighbour does not exist"
    );
    let k = min_pts - 1;
    let mut core2 = vec![0.0f32; n];
    if k == 0 || n <= 1 {
        return core2;
    }
    let core_view = UnsafeSlice::new(&mut core2);
    let perm = tree.perm();
    tree.for_each_knn_row(ctx, points, k, |r, row| {
        // min_pts <= n guarantees the k-th neighbour exists.
        debug_assert_ne!(row[k - 1].1, u32::MAX);
        // SAFETY: every position's row is emitted exactly once and `perm`
        // is a permutation, so slot perm[r] is written by this call alone.
        unsafe { core_view.write(perm[r as usize] as usize, row[k - 1].0) };
    });
    core2
}

/// Captures every point's `k` nearest neighbours as **sorted rows**:
/// `n × k` arrays of squared Euclidean distances and neighbours in tree
/// order — row `r` belongs to the point `tree.perm()[r]` and its entries
/// are tree positions (map one back with `perm()`). A row holds the first
/// `k` of all other points in `(d2, index)` order — a tie at the k-th
/// distance keeps the smaller point index — padded with
/// `(f32::INFINITY, u32::MAX)` when fewer than `k` neighbours exist.
///
/// This is the frozen index's one-pass-per-dataset substrate
/// ([`crate::index::EmstIndex`]): because the `j`-th entry of a
/// sorted row is the exact distance to the `(j+1)`-th nearest neighbour,
/// the squared core distance for **every** `min_pts ≤ k + 1` is a prefix
/// lookup (`row_d2[min_pts - 2]`) — bit-identical to a fresh
/// [`core_distances2`] query at that `min_pts`, since the multiset of
/// k-nearest distances is unique. The rows also drive the Borůvka
/// row screen ([`crate::knn::KnnRows`]).
///
/// Every slot, padding included, is written once, by the leaf that owns
/// its row. Buffers are cleared and refilled; capacity is retained across
/// calls.
pub fn knn_rows_into(
    ctx: &ExecCtx,
    points: &PointSet,
    tree: &KdTree,
    k: usize,
    row_d2: &mut Vec<f32>,
    row_idx: &mut Vec<u32>,
) {
    let n = points.len();
    row_d2.clear();
    row_idx.clear();
    if k == 0 || n <= 1 {
        row_d2.resize(n * k, f32::INFINITY);
        row_idx.resize(n * k, u32::MAX);
        return;
    }
    row_d2.reserve(n * k);
    row_idx.reserve(n * k);
    {
        let d2_view = UnsafeSlice::new(&mut row_d2.spare_capacity_mut()[..n * k]);
        let idx_view = UnsafeSlice::new(&mut row_idx.spare_capacity_mut()[..n * k]);
        let emitted = tree.for_each_knn_row(ctx, points, k, |r, row| {
            assert_eq!(row.len(), k, "a k-NN row holds k entries");
            let base = r as usize * k;
            for (j, &(d2, p)) in row.iter().enumerate() {
                // SAFETY: every position's row is emitted exactly once, so
                // row r is written by this call alone.
                unsafe {
                    d2_view.write(base + j, MaybeUninit::new(d2));
                    idx_view.write(base + j, MaybeUninit::new(p));
                }
            }
        });
        assert_eq!(emitted, n, "the rows pass emits one row per point");
    }
    // SAFETY: the pass emitted `n` rows of `k` entries, one per position
    // (the leaves partition the positions), so all `n · k` slots of both
    // buffers are initialized.
    unsafe {
        row_d2.set_len(n * k);
        row_idx.set_len(n * k);
    }
}

/// A borrowed view over sorted k-NN rows in tree order (see
/// [`knn_rows_into`]).
///
/// The Borůvka row screen uses these rows two ways, both **exact**:
///
/// * if the best foreign row member sits *strictly* below the row's k-th
///   distance, it is the point's true nearest foreign neighbour (every
///   non-member is at least the k-th distance away), so the tree traversal
///   is skipped entirely;
/// * otherwise the k-th distance is a valid monotone lower bound on the
///   nearest-foreign distance, feeding the boundary-point filter.
///
/// Both arguments require the metric to **dominate the Euclidean
/// distance** (`refine_euclid2_at(e2, a, b) ≥ e2`), which holds for
/// [`crate::metric::Euclidean`] and
/// [`crate::metric::TreeMutualReachability`].
#[derive(Debug, Clone, Copy)]
pub struct KnnRows<'a> {
    /// Neighbours per row.
    pub k: usize,
    /// Squared Euclidean distances, row-major `n × k` in tree order (row
    /// `r` for the point at tree position `r`), ascending per row.
    pub d2: &'a [f32],
    /// Neighbour tree positions parallel to `d2` (`u32::MAX` = padding).
    pub idx: &'a [u32],
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pandora_exec::pool::ThreadPool;
    use pandora_exec::trace::KernelKind;
    use rand::prelude::*;

    use super::*;
    use crate::metric::LEAF_BLOCK;

    fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        PointSet::new(
            (0..n * dim).map(|_| rng.gen_range(0.0..1.0f32)).collect(),
            dim,
        )
    }

    #[test]
    fn min_pts_two_is_nearest_other_point() {
        let ctx = ExecCtx::serial();
        let points = PointSet::new(vec![0.0, 0.0, 1.0, 0.0, 5.0, 0.0], 2);
        let tree = KdTree::build(&ctx, &points);
        let core2 = core_distances2(&ctx, &points, &tree, 2);
        assert_eq!(core2, vec![1.0, 1.0, 16.0]);
    }

    #[test]
    fn min_pts_one_is_zero() {
        let ctx = ExecCtx::serial();
        let points = random_points(20, 2, 4);
        let tree = KdTree::build(&ctx, &points);
        assert!(core_distances2(&ctx, &points, &tree, 1)
            .iter()
            .all(|&c| c == 0.0));
    }

    #[test]
    fn core_distances_monotone_in_min_pts() {
        let ctx = ExecCtx::serial();
        let points = random_points(200, 3, 5);
        let tree = KdTree::build(&ctx, &points);
        let c2 = core_distances2(&ctx, &points, &tree, 2);
        let c4 = core_distances2(&ctx, &points, &tree, 4);
        let c8 = core_distances2(&ctx, &points, &tree, 8);
        for i in 0..points.len() {
            assert!(c2[i] <= c4[i] && c4[i] <= c8[i]);
        }
    }

    #[test]
    fn min_pts_equal_to_n_uses_farthest_neighbour() {
        // Boundary: min_pts = n is the largest valid request; every point's
        // core distance is then its distance to the farthest other point.
        let ctx = ExecCtx::serial();
        let points = PointSet::new(vec![0.0, 0.0, 1.0, 0.0, 5.0, 0.0], 2);
        let tree = KdTree::build(&ctx, &points);
        let core2 = core_distances2(&ctx, &points, &tree, 3);
        assert_eq!(core2, vec![25.0, 16.0, 25.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds the number of points")]
    fn min_pts_above_n_panics() {
        let ctx = ExecCtx::serial();
        let points = PointSet::new(vec![0.0, 0.0, 1.0, 0.0, 5.0, 0.0], 2);
        let tree = KdTree::build(&ctx, &points);
        let _ = core_distances2(&ctx, &points, &tree, 4);
    }

    #[test]
    fn empty_and_singleton_sets_accept_any_min_pts() {
        let ctx = ExecCtx::serial();
        let points = PointSet::new(vec![], 2);
        let tree = KdTree::build(&ctx, &points);
        assert!(core_distances2(&ctx, &points, &tree, 5).is_empty());
        // A single point has no clustering to mis-serve; the degenerate
        // request stays trivially satisfiable (regression: the default
        // pipeline at min_pts = 2 must not panic on singletons).
        let one = PointSet::new(vec![1.0, 2.0], 2);
        let tree = KdTree::build(&ctx, &one);
        assert_eq!(core_distances2(&ctx, &one, &tree, 5), vec![0.0]);
    }

    #[test]
    fn sorted_rows_match_core_distances_by_prefix() {
        let ctx = ExecCtx::serial();
        let points = random_points(150, 3, 9);
        let tree = KdTree::build(&ctx, &points);
        let k = 7usize;
        let (mut d2, mut idx) = (Vec::new(), Vec::new());
        knn_rows_into(&ctx, &points, &tree, k, &mut d2, &mut idx);
        assert_eq!(d2.len(), 150 * k);
        // Rows ascend, and the (m-2)-th entry of point q's row (at its
        // tree position) is the min_pts = m core distance — the engine's
        // prefix contract.
        for min_pts in 2..=k + 1 {
            let core2 = core_distances2(&ctx, &points, &tree, min_pts);
            for (q, (&r, &c)) in tree.positions().iter().zip(&core2).enumerate() {
                let r = r as usize;
                assert!(d2[r * k..(r + 1) * k].windows(2).all(|w| w[0] <= w[1]));
                assert_eq!(d2[r * k + min_pts - 2], c, "q={q} m={min_pts}");
            }
        }
    }

    #[test]
    fn sorted_rows_pad_when_k_exceeds_n() {
        let ctx = ExecCtx::serial();
        let points = PointSet::new(vec![0.0, 0.0, 1.0, 0.0, 2.0, 0.0], 2);
        let tree = KdTree::build(&ctx, &points);
        let (mut d2, mut idx) = (Vec::new(), Vec::new());
        knn_rows_into(&ctx, &points, &tree, 5, &mut d2, &mut idx);
        // Each point has only 2 neighbours; the tail is padding.
        for r in 0..3 {
            assert_eq!(&idx[r * 5 + 2..r * 5 + 5], &[u32::MAX; 3]);
            assert_eq!(&d2[r * 5 + 2..r * 5 + 5], &[f32::INFINITY; 3]);
        }
        // Rows are in tree order with tree-position entries; read them
        // back by point index.
        let (perm, pos) = (tree.perm(), tree.positions());
        let row = |q: usize| -> Vec<(f32, u32)> {
            let r = pos[q] as usize;
            (0..2)
                .map(|j| (d2[r * 5 + j], perm[idx[r * 5 + j] as usize]))
                .collect()
        };
        assert_eq!(row(0)[0], (1.0, 1));
        // Point 1's two neighbours tie at distance 1: the smaller index
        // comes first.
        assert_eq!(row(1), vec![(1.0, 0), (1.0, 2)]);
    }

    #[test]
    fn rows_pass_traces_the_same_real_work_on_every_lane_count() {
        let n = 3000usize;
        let points = random_points(n, 3, 17);
        let tree = KdTree::build(&ExecCtx::serial(), &points);
        let mut contexts = vec![ExecCtx::serial()];
        for lanes in [1usize, 2, 3] {
            contexts.push(ExecCtx::on_pool(Arc::new(ThreadPool::new(lanes))));
        }
        let mut first = None;
        for ctx in &contexts {
            let (ctx, tracer) = ctx.with_tracing();
            let (mut d2, mut idx) = (Vec::new(), Vec::new());
            knn_rows_into(&ctx, &points, &tree, 9, &mut d2, &mut idx);
            let core2 = core_distances2(&ctx, &points, &tree, 4);
            let traversals: Vec<(u64, u64)> = tracer
                .snapshot()
                .events
                .iter()
                .filter(|e| e.kind == KernelKind::TreeTraverse)
                .map(|e| (e.n, e.bytes))
                .collect();
            assert_eq!(traversals.len(), 2);
            let run = (traversals, d2, idx, core2);
            match &first {
                None => first = Some(run),
                Some(want) => assert!(*want == run, "lane count changed the rows or the counts"),
            }
        }
        let (traversals, ..) = first.expect("at least one context ran");
        // The exact work of this input: the k = 9 rows pass, then the
        // k = 3 core distances, each `(distance evaluations, bytes)`. A
        // change to the kernel that prunes the same blocks and boxes keeps
        // these; one that prunes differently updates them and says so.
        assert_eq!(traversals, [(451_472, 7_212_480), (283_600, 4_791_144)]);
        for (evals, bytes) in traversals {
            // Whole 8-point blocks; every point at least against its own
            // leaf; far from all pairs.
            assert_eq!(evals % LEAF_BLOCK as u64, 0);
            assert!(
                evals >= n as u64 && evals < (n * n / 8) as u64,
                "evals {evals}"
            );
            assert!(bytes > evals * 4 * 3, "bytes {bytes}");
        }
    }
}
