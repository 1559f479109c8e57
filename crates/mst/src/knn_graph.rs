//! Approximate MST via the k-nearest-neighbour graph.
//!
//! A widely used engineering shortcut for HDBSCAN\* at scale: Kruskal over
//! the k-NN graph gives a spanning forest whose weight is very close to the
//! exact EMST for modest `k`, at a fraction of the Borůvka cost. The forest
//! may be disconnected, so remaining components are joined with *exact*
//! Borůvka rounds — the output is always a spanning tree, and exact when
//! `k ≥ n − 1`.
//!
//! The paper computes exact EMSTs; this module is an extension for
//! downstream users (clearly flagged as approximate), plus a measurement
//! hook for how close the approximation gets (`weight_ratio` in tests).

use std::sync::atomic::Ordering;

use pandora_core::Edge;
use pandora_exec::dsu::SeqDsu;
use pandora_exec::sort::par_sort_by_key;
use pandora_exec::trace::KernelKind;
use pandora_exec::{ExecCtx, UnsafeSlice};

use crate::kdtree::KdTree;
use crate::metric::{Metric, TreeMetric};
use crate::point::PointSet;

/// Spanning tree from the k-NN graph plus exact completion rounds.
///
/// `metric` is indexed by point index (as [`Metric::dist2`] is).
/// `node_core2` is either empty (no subtree pruning bounds) or the
/// per-node core minima from [`KdTree::min_core2_into`] for the metric's
/// `minPts` — purely an optimization for the completion rounds under
/// mutual reachability (results are identical either way).
pub fn knn_graph_mst<M: Metric>(
    ctx: &ExecCtx,
    points: &PointSet,
    tree: &KdTree,
    metric: &M,
    k: usize,
    node_core2: &[f32],
) -> Vec<Edge> {
    let n = points.len();
    if n <= 1 {
        return Vec::new();
    }
    let k = k.clamp(1, n - 1);

    // k-NN candidate edges under the metric, canonicalized u < v. Every
    // row is full: k ≤ n − 1.
    let mut candidates: Vec<(u32, u32, u32)> = vec![(0, 0, 0); n * k]; // (wkey, u, v)
    let view = UnsafeSlice::new(&mut candidates);
    let perm = tree.perm();
    tree.for_each_knn_row(ctx, points, k, |r, row| {
        let q = perm[r as usize];
        for (j, &(_, p)) in row.iter().enumerate() {
            let p = perm[p as usize];
            // Metric distance may exceed the Euclidean k-NN distance
            // (mutual reachability); recompute.
            let d2 = metric.dist2(points, q, p);
            let (a, b) = if q < p { (q, p) } else { (p, q) };
            // SAFETY: every position's row is emitted exactly once, so
            // slot r*k+j is written by this call alone.
            unsafe {
                view.write(
                    r as usize * k + j,
                    (pandora_exec::atomic::f32_to_ordered_u32(d2), a, b),
                )
            };
        }
    });

    // Kruskal over the candidates (sorted ascending by squared distance).
    par_sort_by_key(ctx, &mut candidates, |&t| t);
    ctx.record(
        KernelKind::SeqLoop,
        candidates.len() as u64,
        (candidates.len() * 12) as u64,
    );
    let mut dsu = SeqDsu::new(n);
    let mut edges: Vec<Edge> = Vec::with_capacity(n - 1);
    for &(wkey, a, b) in &candidates {
        if wkey == u32::MAX || (a == 0 && b == 0) {
            continue;
        }
        if dsu.union(a, b).is_some() {
            let d2 = pandora_exec::atomic::ordered_u32_to_f32(wkey);
            edges.push(Edge::new(a, b, d2.sqrt()));
            if edges.len() == n - 1 {
                break;
            }
        }
    }

    // Completion: join remaining components with exact nearest-foreign
    // queries (one candidate per component root, Borůvka style).
    while edges.len() < n - 1 {
        // Sequential labelling is fine here: completion is rare and the DSU
        // is nearly flat after Kruskal.
        let mut comp = vec![0u32; n];
        for v in 0..n as u32 {
            comp[v as usize] = dsu.find(v);
        }
        // The searches number points by tree position.
        let tree_comp = tree.in_tree_order(&comp);
        let purity = tree.component_purity(&tree_comp);
        let tree_metric = ByPosition { metric, perm };
        let candidate: Vec<std::sync::atomic::AtomicU64> = (0..n)
            .map(|_| std::sync::atomic::AtomicU64::new(u64::MAX))
            .collect();
        let mut best_of = vec![(f32::INFINITY, u32::MAX); n];
        {
            let best_view = UnsafeSlice::new(&mut best_of);
            let (comp_ref, purity_ref, cand_ref) = (&tree_comp, &purity, &candidate);
            let tree_metric = &tree_metric;
            ctx.for_each_chunk_traced(n, 256, KernelKind::TreeTraverse, (n * 64) as u64, |range| {
                for i in range {
                    let found = tree.nearest_foreign(
                        points,
                        tree_metric,
                        i as u32,
                        comp_ref,
                        purity_ref,
                        node_core2,
                    );
                    if let Some((d2, p)) = found {
                        let q = perm[i];
                        // SAFETY: `perm` is a permutation, so slot q is
                        // owned by this iteration.
                        unsafe { best_view.write(q as usize, (d2, perm[p as usize])) };
                        let key = ((pandora_exec::atomic::f32_to_ordered_u32(d2) as u64) << 32)
                            | q as u64;
                        // pandora-lint: allow(PL004) — commutative min over packed (dist, idx); the chunk join publishes the winner
                        cand_ref[comp_ref[i] as usize].fetch_min(key, Ordering::Relaxed);
                    }
                }
            });
        }
        let mut progressed = false;
        for root in 0..n as u32 {
            if comp[root as usize] != root {
                continue;
            }
            // pandora-lint: allow(PL004) — read after for_each_chunk joined — the barrier supplies the happens-before
            let packed = candidate[root as usize].load(Ordering::Relaxed);
            if packed == u64::MAX {
                continue;
            }
            let q = packed as u32;
            let (d2, p) = best_of[q as usize];
            if dsu.union(q, p).is_some() {
                edges.push(Edge::new(q, p, d2.sqrt()));
                progressed = true;
            }
        }
        assert!(progressed, "completion made no progress");
    }
    edges
}

/// A metric indexed by point index, read at tree positions: the
/// completion rounds' nearest-foreign searches number points by position.
struct ByPosition<'a, M> {
    metric: &'a M,
    perm: &'a [u32],
}

impl<M: Metric> TreeMetric for ByPosition<'_, M> {
    fn refine_euclid2_at(&self, euclid_d2: f32, a: u32, b: u32) -> f32 {
        let (a, b) = (self.perm[a as usize], self.perm[b as usize]);
        self.metric.refine_euclid2(euclid_d2, a, b)
    }

    fn box_bound2_at(&self, points: &PointSet, q: u32, box_dist2: f32, min_core2: f32) -> f32 {
        let q = self.perm[q as usize];
        self.metric.box_bound2(points, q, box_dist2, min_core2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::total_weight;
    use crate::metric::Euclidean;
    use crate::prim::prim_mst;
    use rand::prelude::*;

    fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        PointSet::new(
            (0..n * dim).map(|_| rng.gen_range(-5.0..5.0f32)).collect(),
            dim,
        )
    }

    #[test]
    fn always_a_spanning_tree() {
        let ctx = ExecCtx::serial();
        for k in [1usize, 2, 4, 16] {
            let points = random_points(300, 2, k as u64);
            let tree = KdTree::build(&ctx, &points);
            let edges = knn_graph_mst(&ctx, &points, &tree, &Euclidean, k, &[]);
            assert_eq!(edges.len(), 299, "k={k}");
            let mst = pandora_core::SortedMst::from_edges(&ctx, 300, &edges);
            mst.validate_tree().unwrap();
        }
    }

    #[test]
    fn weight_close_to_exact_and_improving_with_k() {
        let ctx = ExecCtx::serial();
        let points = random_points(400, 2, 9);
        let tree = KdTree::build(&ctx, &points);
        let exact = total_weight(&prim_mst(&points, &Euclidean));
        let mut prev_ratio = f64::INFINITY;
        for k in [2usize, 4, 8] {
            let approx = total_weight(&knn_graph_mst(&ctx, &points, &tree, &Euclidean, k, &[]));
            let ratio = approx / exact;
            assert!((1.0 - 1e-6..1.10).contains(&ratio), "k={k}: ratio {ratio}");
            assert!(ratio <= prev_ratio + 1e-9, "ratio not improving at k={k}");
            prev_ratio = ratio;
        }
        // k=8 on 2-D random points is typically within a fraction of a
        // percent of exact.
        assert!(prev_ratio < 1.01, "k=8 ratio {prev_ratio}");
    }

    #[test]
    fn large_k_is_exact() {
        let ctx = ExecCtx::serial();
        let points = random_points(60, 3, 4);
        let tree = KdTree::build(&ctx, &points);
        let exact = total_weight(&prim_mst(&points, &Euclidean));
        let approx = total_weight(&knn_graph_mst(&ctx, &points, &tree, &Euclidean, 59, &[]));
        assert!((approx - exact).abs() < 1e-4 * exact.max(1.0));
    }

    #[test]
    fn disconnected_knn_graph_gets_completed() {
        // Two far apart tight clusters with k=1: the k-NN graph cannot
        // bridge them; the completion round must.
        let ctx = ExecCtx::serial();
        let mut coords = Vec::new();
        for i in 0..20 {
            coords.extend_from_slice(&[i as f32 * 0.01, 0.0]);
        }
        for i in 0..20 {
            coords.extend_from_slice(&[1000.0 + i as f32 * 0.01, 0.0]);
        }
        let points = PointSet::new(coords, 2);
        let tree = KdTree::build(&ctx, &points);
        let edges = knn_graph_mst(&ctx, &points, &tree, &Euclidean, 1, &[]);
        assert_eq!(edges.len(), 39);
        // Exactly one long bridge edge.
        let bridges = edges.iter().filter(|e| e.w > 100.0).count();
        assert_eq!(bridges, 1);
    }
}
