//! Property-based tests (proptest) for the EMST substrate: Borůvka must
//! match the Prim oracle on adversarial inputs — duplicate points,
//! collinear grids, single-cluster blobs, coarse lattices, all with
//! quantized coordinates so exact distance ties abound — the k-NN rows
//! must equal the brute-force `(d2, index)` oracle on the same
//! inputs, and the kd-tree's structural invariants (contiguous subtree
//! ranges, boxes containing their points, cached splits separating the
//! children) must hold for every build configuration.

mod common;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use pandora::core::pandora::dendrogram_from_sorted;
use pandora::core::SortedMst;
use pandora::exec::pool::ThreadPool;
use pandora::exec::{ExecCtx, ScratchPool};
use pandora::mst::kdtree::DEFAULT_LEAF_SIZE;
use pandora::mst::kruskal::total_weight;
use pandora::mst::prim::prim_mst;
use pandora::mst::{
    boruvka_mst, core_distances2, emst, emst_from_index, knn_rows_into, row_witness_scan,
    BoruvkaExtras, Emst, EmstIndex, EmstScratch, Euclidean, KdTree, KnnRows, MutualReachability,
    PointSet, SearchWork, TreeMutualReachability,
};

use common::{brute_emst, reference_emst};

/// Adversarial point sets. `mode` picks the family; coordinates are
/// quantized to quarter-units so equal distances (the tie-break stress
/// case) are common, not measure-zero.
fn adversarial_points() -> impl Strategy<Value = PointSet> {
    (0usize..4, 2usize..4, 8usize..100).prop_flat_map(|(mode, dim, n)| {
        prop::collection::vec(0u32..32, n * dim..n * dim + 1).prop_map(move |raw| {
            let coords: Vec<f32> = match mode {
                // Duplicates: coordinates drawn from an 8-value alphabet,
                // so many points coincide exactly.
                0 => raw.iter().map(|&v| (v % 8) as f32).collect(),
                // Collinear: every point sits on the main diagonal.
                1 => raw
                    .chunks(dim)
                    .flat_map(|c| std::iter::repeat_n(c[0] as f32 * 0.25, dim))
                    .collect(),
                // Coarse lattice: 7 × 7 sites in 2-D, 3 × 3 × 3 in 3-D, so
                // most sites hold several coincident points and every
                // point has many neighbours at each tied distance.
                2 => {
                    let side = if dim == 2 { 7 } else { 3 };
                    raw.iter().map(|&v| (v % side) as f32).collect()
                }
                // Single-cluster blob on a quarter-unit grid.
                _ => raw.iter().map(|&v| v as f32 * 0.25).collect(),
            };
            PointSet::new(coords, dim)
        })
    })
}

/// Point sets in dimensions the 2-D and 3-D kernels do not cover, so the
/// k-NN passes run their run-time-dimension instance: 1-D and 5-D, on a
/// half-unit grid of 8 values per axis, so ties are common.
fn runtime_dim_points() -> impl Strategy<Value = PointSet> {
    (0usize..2, 2usize..60).prop_flat_map(|(pick, n)| {
        let dim = [1usize, 5][pick];
        prop::collection::vec(0u32..8, n * dim..n * dim + 1)
            .prop_map(move |raw| PointSet::new(raw.iter().map(|&v| v as f32 * 0.5).collect(), dim))
    })
}

/// The serial context and pools of 1, 2 and 3 lanes.
fn contexts() -> &'static [ExecCtx] {
    static CONTEXTS: OnceLock<Vec<ExecCtx>> = OnceLock::new();
    CONTEXTS.get_or_init(|| {
        let mut contexts = vec![ExecCtx::serial()];
        for lanes in 1..=3 {
            contexts.push(ExecCtx::on_pool(Arc::new(ThreadPool::new(lanes))));
        }
        contexts
    })
}

/// Brute-force k-NN of every point: the first `k` other points in
/// `(d2, index)` order, padded with `(+∞, u32::MAX)` to `k` entries.
fn knn_oracle(points: &PointSet, k: usize) -> Vec<Vec<(f32, u32)>> {
    let n = points.len();
    (0..n)
        .map(|q| {
            let mut all: Vec<(f32, u32)> = (0..n)
                .filter(|&p| p != q)
                .map(|p| (points.dist2(q, p), p as u32))
                .collect();
            let cmp = |a: &(f32, u32), b: &(f32, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
            if all.len() > k {
                all.select_nth_unstable_by(k, cmp);
                all.truncate(k);
            }
            all.sort_by(cmp);
            all.resize(k, (f32::INFINITY, u32::MAX));
            all
        })
        .collect()
}

/// Checks `knn_rows_into` on every context against the oracle at each `k`,
/// on a tree with `leaf_size` points per leaf at most. The rows are in tree
/// order with tree-position entries; they are read back by point index.
/// Returns the first mismatch.
fn knn_matches_oracle(points: &PointSet, leaf_size: usize, ks: &[usize]) -> Result<(), String> {
    let n = points.len();
    let max_k = ks.iter().copied().max().unwrap_or(0);
    let oracle = knn_oracle(points, max_k);
    let tree = KdTree::build_with_leaf_size(&ExecCtx::serial(), points, leaf_size);
    let (perm, pos) = (tree.perm(), tree.positions());
    for &k in ks {
        // The first k of the (d2, index) order are a prefix of the first
        // max_k.
        let want = |q: usize| &oracle[q][..k];
        for (c, ctx) in contexts().iter().enumerate() {
            let (mut d2, mut idx) = (Vec::new(), Vec::new());
            knn_rows_into(ctx, points, &tree, k, &mut d2, &mut idx);
            for (q, &r) in pos.iter().enumerate() {
                let r = r as usize;
                let got: Vec<(f32, u32)> = (0..k)
                    .map(|j| match idx[r * k + j] {
                        u32::MAX => (d2[r * k + j], u32::MAX),
                        p => (d2[r * k + j], perm[p as usize]),
                    })
                    .collect();
                if n > 1 && got != want(q) {
                    return Err(format!(
                        "rows, context {c}, k={k}, q={q}: {got:?} vs {:?}",
                        want(q)
                    ));
                }
            }
        }
    }
    Ok(())
}

#[test]
fn knn_rows_are_canonical_on_duplicate_lattices() {
    // 3,000 points on a 7 × 7 lattice in 2-D and on a 5 × 5 × 5 lattice in
    // 3-D: every point has dozens of neighbours at distance 0 and at each
    // lattice distance, so any top-k that keeps a tied k-th member by
    // traversal order differs from the oracle in most rows.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |side: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % side) as f32
    };
    for (dim, side) in [(2usize, 7u64), (3, 5)] {
        let coords: Vec<f32> = (0..3_000 * dim).map(|_| next(side)).collect();
        let points = PointSet::new(coords, dim);
        if let Err(e) = knn_matches_oracle(&points, DEFAULT_LEAF_SIZE, &[1, 3, 9, 23]) {
            panic!("{dim}-D lattice: {e}");
        }
    }
}

/// Bit-for-bit equality of two EMST results (core distances and edges).
fn same_emst(a: &Emst, b: &Emst) -> bool {
    let bits = |e: &Emst| -> Vec<(u32, u32, u32)> {
        e.edges.iter().map(|x| (x.u, x.v, x.w.to_bits())).collect()
    };
    a.core2 == b.core2 && bits(a) == bits(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn boruvka_matches_prim_euclidean(points in adversarial_points()) {
        let ctx = ExecCtx::serial();
        let tree = KdTree::build(&ctx, &points);
        let pool = ScratchPool::new();
        let got = boruvka_mst(&ctx, &points, &tree, &Euclidean, BoruvkaExtras::default(), &pool);
        prop_assert_eq!(got.len(), points.len() - 1);
        let expect = prim_mst(&points, &Euclidean);
        let (wa, wb) = (total_weight(&got), total_weight(&expect));
        prop_assert!(
            (wa - wb).abs() <= 1e-3 * wb.max(1.0),
            "Boruvka {} vs Prim {}", wa, wb
        );
    }

    #[test]
    fn boruvka_matches_prim_mutual_reachability(
        (points, min_pts) in (adversarial_points(), 2usize..8)
    ) {
        let ctx = ExecCtx::serial();
        let min_pts = min_pts.min(points.len());
        let result = emst(&ctx, &points, min_pts);
        prop_assert_eq!(result.edges.len(), points.len() - 1);
        let metric = MutualReachability { core2: &result.core2 };
        let expect = prim_mst(&points, &metric);
        let (wa, wb) = (total_weight(&result.edges), total_weight(&expect));
        prop_assert!(
            (wa - wb).abs() <= 1e-3 * wb.max(1.0),
            "minPts={}: Boruvka {} vs Prim {}", min_pts, wa, wb
        );
    }

    #[test]
    fn serial_and_threaded_emst_agree_exactly(
        (points, min_pts) in (adversarial_points(), 1usize..6)
    ) {
        // The whole parallel EMST stage must be deterministic across
        // execution contexts: the atomic min-edge reduction is commutative
        // and every tie is index-broken, so serial and threaded runs must
        // produce the SAME edges (not just the same weight) as the
        // independent reference, and therefore identical dendrograms.
        let min_pts = min_pts.min(points.len());
        let serial_ctx = ExecCtx::serial();
        let threaded_ctx = ExecCtx::threads();
        let a = emst(&serial_ctx, &points, min_pts);
        let b = emst(&threaded_ctx, &points, min_pts);
        let reference = reference_emst(&serial_ctx, &points, min_pts);
        prop_assert!(same_emst(&a, &reference), "serial run vs reference, minPts={}", min_pts);
        prop_assert!(same_emst(&b, &reference), "threaded run vs reference, minPts={}", min_pts);
        // The bare run itself against the brute-force Borůvka, which shares
        // no code with it.
        let brute = brute_emst(&points, min_pts);
        prop_assert!(same_emst(&reference, &brute), "bare run vs brute force, minPts={}", min_pts);
        // Identical edges must condense into identical dendrograms.
        let mst_a = SortedMst::from_edges(&serial_ctx, points.len(), &a.edges);
        let mst_b = SortedMst::from_edges(&threaded_ctx, points.len(), &b.edges);
        let (da, _) = dendrogram_from_sorted(&serial_ctx, &mst_a);
        let (db, _) = dendrogram_from_sorted(&threaded_ctx, &mst_b);
        prop_assert_eq!(da, db);
    }

    #[test]
    fn kdtree_invariants_hold_for_every_build(points in adversarial_points()) {
        for leaf_size in [1usize, 4, 32] {
            let serial = KdTree::build_with_leaf_size(&ExecCtx::serial(), &points, leaf_size);
            serial.check_invariants(&points).unwrap();
            let threaded = KdTree::build_with_leaf_size(&ExecCtx::threads(), &points, leaf_size);
            threaded.check_invariants(&points).unwrap();
            // Median splits keep the depth logarithmic even with total
            // coordinate degeneracy (the index tie-break still halves).
            let bound = (points.len().max(2)).ilog2() as usize + 2;
            prop_assert!(
                serial.depth() <= bound,
                "depth {} exceeds {} at n={} leaf={}",
                serial.depth(), bound, points.len(), leaf_size
            );
        }
    }

    #[test]
    fn row_witness_scan_invariants(
        (points, min_pts, comp_seed) in (adversarial_points(), 2usize..6, any::<u64>())
    ) {
        // The witness scan's documented contract, on ties-everywhere inputs
        // with an arbitrary component labelling:
        //   * `best` is the brute-force canonical minimum (smaller metric
        //     distance, then smaller index) over the row's foreign members;
        //   * a found `second` is foreign, lives outside `best`'s component,
        //     and its exact metric distance is ≥ `best`'s — so a promoted
        //     2-hop witness can never propose an edge shorter than the true
        //     nearest-foreign distance;
        //   * `second` is found whenever the row holds a foreign member
        //     outside `best`'s component.
        // The scan works in tree positions (rows, labels, metric); the
        // oracle below works in point indices.
        let ctx = ExecCtx::serial();
        let n = points.len();
        let min_pts = min_pts.min(n);
        let tree = KdTree::build(&ctx, &points);
        let (perm, pos) = (tree.perm(), tree.positions());
        let k = (min_pts + 3).min(n - 1);
        let (mut row_d2, mut row_idx) = (Vec::new(), Vec::new());
        knn_rows_into(&ctx, &points, &tree, k, &mut row_d2, &mut row_idx);
        let rows = KnnRows { k, d2: &row_d2, idx: &row_idx };
        // Brute-force core distances keep the oracle independent of `knn`.
        let core2: Vec<f32> = (0..n)
            .map(|q| {
                let mut d: Vec<f32> = (0..n)
                    .filter(|&p| p != q)
                    .map(|p| points.dist2(q, p))
                    .collect();
                d.sort_by(f32::total_cmp);
                d[min_pts - 2]
            })
            .collect();
        let tree_core2 = tree.in_tree_order(&core2);
        let metric = TreeMutualReachability { core2: &tree_core2 };
        let exact = |q: usize, p: u32| {
            points
                .dist2(q, p as usize)
                .max(core2[q])
                .max(core2[p as usize])
        };
        // A deterministic pseudo-random labelling into four components —
        // arbitrary labels are exactly what mid-run Borůvka hands the scan.
        let comp: Vec<u32> = (0..n as u64)
            .map(|p| ((p.wrapping_add(1).wrapping_mul(comp_seed | 1)) >> 32) as u32 % 4)
            .collect();
        let tree_comp = tree.in_tree_order(&comp);
        let id = |(d2, p): (f32, u32)| (d2, if p == u32::MAX { p } else { perm[p as usize] });
        for q in 0..n {
            let root = comp[q] as usize;
            let r = pos[q] as usize;
            let mut work = SearchWork::default();
            let (best, second) =
                row_witness_scan(&rows, &metric, r as u32, root, &tree_comp, perm, &mut work);
            let (best, second) = (id(best), id(second));
            let members: Vec<u32> = (0..k)
                .map(|j| row_idx[r * k + j])
                .take_while(|&p| p != u32::MAX)
                .map(|p| perm[p as usize])
                .collect();
            let expect_best = members
                .iter()
                .filter(|&&p| comp[p as usize] as usize != root)
                .map(|&p| (exact(q, p), p))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            match expect_best {
                Some(expected) => prop_assert_eq!(best, expected, "q={}", q),
                None => prop_assert_eq!(best.1, u32::MAX, "q={}", q),
            }
            let two_hop_exists = best.1 != u32::MAX
                && members.iter().any(|&p| {
                    comp[p as usize] as usize != root && comp[p as usize] != comp[best.1 as usize]
                });
            if second.1 != u32::MAX {
                prop_assert_ne!(comp[second.1 as usize] as usize, root, "q={}", q);
                prop_assert_ne!(comp[second.1 as usize], comp[best.1 as usize], "q={}", q);
                prop_assert_eq!(second.0, exact(q, second.1), "q={}", q);
                prop_assert!(
                    second.0 >= best.0,
                    "q={}: second {} undercuts nearest-foreign {}", q, second.0, best.0
                );
            } else {
                prop_assert!(!two_hop_exists, "q={}: missed a 2-hop witness", q);
            }
        }
    }

    #[test]
    fn warm_index_path_matches_cold_and_prim_exactly(
        (points, min_pts) in (adversarial_points(), 1usize..6)
    ) {
        // The frozen-index path layers every acceleration at once — row
        // screen, merge-surviving witnesses, endgame snapshots (second run
        // through the same scratch), shared-store adoption (fresh scratch
        // after a publish) — and must still return the brute-force
        // Borůvka's edges BIT-identically, serial and threaded, while that
        // reference itself matches the Prim oracle on these tie-heavy
        // inputs.
        let min_pts = min_pts.min(points.len());
        let cold = brute_emst(&points, min_pts);
        let metric = MutualReachability { core2: &cold.core2 };
        let oracle = prim_mst(&points, &metric);
        let (wc, wo) = (total_weight(&cold.edges), total_weight(&oracle));
        prop_assert!((wc - wo).abs() <= 1e-3 * wo.max(1.0), "cold {} vs Prim {}", wc, wo);
        for ctx in [ExecCtx::serial(), ExecCtx::threads()] {
            let index = EmstIndex::freeze(&ctx, points.clone(), min_pts)
                .expect("freeze a non-empty dataset");
            let mut scratch = EmstScratch::new();
            let first = emst_from_index(&ctx, &index, min_pts, &mut scratch)
                .expect("valid request");
            let second = emst_from_index(&ctx, &index, min_pts, &mut scratch)
                .expect("valid request");
            let mut fresh = EmstScratch::new();
            let adopted = emst_from_index(&ctx, &index, min_pts, &mut fresh)
                .expect("valid request");
            for run in [&first, &second, &adopted] {
                prop_assert!(same_emst(run, &cold), "index run vs reference, minPts={}", min_pts);
            }
        }
    }

    #[test]
    fn knn_rows_equal_the_brute_force_oracle(points in adversarial_points()) {
        // k = 23 exceeds most of these sets' leaves and some whole sets
        // (n <= k pads the rows).
        if let Err(e) = knn_matches_oracle(&points, DEFAULT_LEAF_SIZE, &[1, 3, 9, 23]) {
            prop_assert!(false, "n={} dim={}: {}", points.len(), points.dim(), e);
        }
    }

    #[test]
    fn knn_rows_in_runtime_dims_and_partial_tiles_equal_the_oracle(
        points in runtime_dim_points()
    ) {
        // Leaves of 1, 5 and 13 points make tiles that are not whole
        // 8-query groups; k runs from 1 past the leaf size and past n − 1,
        // where the rows pad.
        let n = points.len();
        for leaf_size in [1usize, 5, 13] {
            let mut ks = vec![1, 2, leaf_size, leaf_size + 1, leaf_size + 4, n - 1, n, n + 2];
            ks.sort_unstable();
            ks.dedup();
            if let Err(e) = knn_matches_oracle(&points, leaf_size, &ks) {
                prop_assert!(false, "n={} dim={} leaf_size={}: {}", n, points.dim(), leaf_size, e);
            }
        }
    }

    #[test]
    fn core_distances_match_brute_force(points in adversarial_points()) {
        let ctx = ExecCtx::serial();
        let tree = KdTree::build(&ctx, &points);
        let min_pts = 3usize.min(points.len());
        let core2 = core_distances2(&ctx, &points, &tree, min_pts);
        for (q, &got) in core2.iter().enumerate() {
            let mut d: Vec<f32> = (0..points.len())
                .filter(|&p| p != q)
                .map(|p| points.dist2(q, p))
                .collect();
            d.sort_by(f32::total_cmp);
            let expect = if min_pts >= 2 { d[min_pts - 2] } else { 0.0 };
            prop_assert_eq!(got, expect, "q={}", q);
        }
    }
}
