//! MST edge lists and the canonical sorted form.
//!
//! All dendrogram algorithms in this crate operate on a [`SortedMst`]: the
//! input tree's edges sorted by weight **descending** with a deterministic
//! tie-break, so that edge index 0 is the heaviest edge (the dendrogram
//! root) and the dendrogram is unique (paper §3.1.1: "ensuring that edges
//! with equal weights are ordered consistently to preserve the dendrogram's
//! uniqueness").
//!
//! ## The determinism contract for duplicate weights
//!
//! A tree with tied edge weights has several valid single-linkage
//! dendrograms; which one you get is decided *entirely* by the edge order,
//! and the canonical sort key
//! `(weight descending, src ascending, dst ascending)` — after
//! canonicalizing each edge to `src < dst` — makes that order a pure
//! function of the edge *set*. Consequences the stack relies on (and the
//! differential suite enforces, including an all-equal-weights tree at
//! n = 1000 and generated trees of 20,000–40,000 vertices):
//!
//! * [`SortedMst::from_edges`] yields the same arrays for any permutation
//!   of the same input edges — upstream nondeterminism (e.g. parallel MST
//!   construction emitting edges in lane order) cannot leak into the
//!   dendrogram.
//! * α-contraction ([`crate::pandora`]) and the baselines, serial or
//!   threaded, consume only the sorted order — never raw weights for
//!   tie-decisions — so all of them produce one bit-identical dendrogram.
//! * Edge ids *are* sort ranks: the tie-break, not the weights, defines
//!   each edge's dendrogram node id, its chain position, and which of two
//!   equal-weight edges becomes the other's parent (the earlier-sorted one
//!   wins, i.e. the smaller `(src, dst)`).
//!
//! ## How the order is produced
//!
//! [`SortedMst::from_edges`] never compares whole triples. It packs each
//! edge into one `u64` record, `(f32_to_ordered_u32_desc(weight) << 32) |
//! input index`, and radix-sorts the records by the weight word alone
//! ([`par_radix_sort_by_high_word`], stable). It then gathers the
//! canonicalized endpoints in that order, and finally sorts each run of
//! equal weights by `(src, dst)`. The result is exactly the
//! `(weight desc, src, dst)` order:
//!
//! * the weight word orders edges of different weights, since the ordered
//!   key is monotone in the weight and one-to-one on its bits (so equal
//!   words mean bit-equal weights, and `-0.0` sorts after `+0.0`);
//! * the stable radix leaves each run of equal weights contiguous, in input
//!   order, and the run sort replaces that order with `(src, dst)`.
//!
//! Almost every run has length one (in the mutual-reachability MST of
//! 250,000 `Normal100M3D` points, 1,624 edges repeat an earlier weight), so
//! the run pass is mostly a serial scan. Each longer run is sorted with the
//! parallel merge sort ([`par_sort_by_key`]) on packed `(src, dst)` pairs.
//! The worst case, every weight equal, is therefore one parallel merge sort
//! over all edges. Every input size takes these steps; below its cutoff the
//! radix itself is a stable standard-library sort.

use pandora_exec::atomic::{f32_to_ordered_u32_desc, ordered_u32_to_f32};
use pandora_exec::radix::par_radix_sort_by_high_word;
use pandora_exec::sort::par_sort_by_key;
use pandora_exec::trace::KernelKind;
use pandora_exec::{ExecCtx, UnsafeSlice, DEFAULT_GRAIN};

/// Sentinel for "no vertex/edge".
pub const INVALID: u32 = u32::MAX;

/// A weighted undirected edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// First endpoint.
    pub u: u32,
    /// Second endpoint.
    pub v: u32,
    /// Weight (e.g. Euclidean or mutual-reachability distance).
    pub w: f32,
}

impl Edge {
    /// Creates an edge.
    pub fn new(u: u32, v: u32, w: f32) -> Self {
        Self { u, v, w }
    }
}

/// A spanning tree's edges in canonical descending-weight order.
///
/// Structure-of-arrays layout; edge `i` is `(src[i], dst[i], weight[i])`
/// with `src[i] < dst[i]`. Sorted by `(weight desc, src asc, dst asc)`.
#[derive(Debug, Clone)]
pub struct SortedMst {
    n_vertices: usize,
    /// Smaller endpoint per edge.
    pub src: Vec<u32>,
    /// Larger endpoint per edge.
    pub dst: Vec<u32>,
    /// Weight per edge, non-increasing.
    pub weight: Vec<f32>,
}

impl SortedMst {
    /// Sorts `edges` into canonical order.
    ///
    /// The input need not come from an MST solver: any spanning tree with
    /// per-edge heights works, which is how the agglomerative linkage
    /// engine (`pandora-mst`'s NN-chain) feeds the dendrogram stage — each
    /// of its `n - 1` merges is emitted as one edge between representative
    /// original points at the merge height, and a merge sequence over `n`
    /// points always spans them. The rank/parent
    /// machinery downstream only assumes a weighted tree, so no adapter
    /// beyond this constructor is needed.
    ///
    /// The order is the `(weight desc, src, dst)` order of the module docs,
    /// produced by a stable radix sort on the weight word followed by a
    /// `(src, dst)` sort of each run of equal weights. Serial and threaded
    /// contexts produce the same arrays.
    ///
    /// # Panics
    ///
    /// Panics if the edge count is not `n_vertices - 1` (for
    /// `n_vertices > 0`), if an endpoint is out of range, if an edge is a
    /// self-loop, or if a weight is NaN. The first faulty edge in input
    /// order is reported, before any sorting and from the calling thread,
    /// so the message is the same under every context.
    pub fn from_edges(ctx: &ExecCtx, n_vertices: usize, edges: &[Edge]) -> Self {
        assert_eq!(
            edges.len(),
            n_vertices.saturating_sub(1),
            "a spanning tree over {n_vertices} vertices must have {} edges",
            n_vertices.saturating_sub(1)
        );
        assert!(n_vertices < u32::MAX as usize, "vertex ids must fit in u32");
        let n = edges.len();
        // The returned arrays are allocated before the scratch records, so
        // the scratch freed on return is not pinned below long-lived memory
        // and the allocator can give it back (it showed in peak RSS).
        let mut src = vec![0u32; n];
        let mut dst = vec![0u32; n];
        let mut weight = vec![0f32; n];

        // Validate on the calling thread, so each panic keeps its message
        // under every context, and pack `(weight word, input index)`.
        let mut records: Vec<u64> = edges
            .iter()
            .enumerate()
            .map(|(i, e)| {
                assert!(e.u != e.v, "self-loop edge {} - {}", e.u, e.v);
                assert!(
                    (e.u as usize) < n_vertices && (e.v as usize) < n_vertices,
                    "edge endpoint out of range"
                );
                assert!(!e.w.is_nan(), "NaN edge weight");
                ((f32_to_ordered_u32_desc(e.w) as u64) << 32) | i as u64
            })
            .collect();
        par_radix_sort_by_high_word(ctx, &mut records);

        {
            let src_view = UnsafeSlice::new(&mut src);
            let dst_view = UnsafeSlice::new(&mut dst);
            let weight_view = UnsafeSlice::new(&mut weight);
            let records = &records;
            ctx.for_each_chunk_traced(
                n,
                DEFAULT_GRAIN,
                KernelKind::Gather,
                (n * 32) as u64,
                |range| {
                    for k in range {
                        let r = records[k];
                        let (a, b) = endpoints(&edges[r as u32 as usize]);
                        // SAFETY: sorted slot k belongs to this chunk alone.
                        unsafe {
                            src_view.write(k, a);
                            dst_view.write(k, b);
                            weight_view.write(k, ordered_u32_to_f32(!((r >> 32) as u32)));
                        }
                    }
                },
            );
        }
        order_tie_runs(ctx, &records, &mut src, &mut dst);
        Self::from_sorted_arrays(n_vertices, src, dst, weight)
    }

    /// Builds from already-sorted parallel arrays (no checks beyond lengths).
    ///
    /// `debug_assert`s the canonical order in debug builds.
    pub fn from_sorted_arrays(
        n_vertices: usize,
        src: Vec<u32>,
        dst: Vec<u32>,
        weight: Vec<f32>,
    ) -> Self {
        assert_eq!(src.len(), dst.len());
        assert_eq!(src.len(), weight.len());
        assert_eq!(src.len(), n_vertices.saturating_sub(1));
        debug_assert!(
            weight.windows(2).all(|w| w[0] >= w[1]),
            "weights must be non-increasing"
        );
        debug_assert!(src.iter().zip(&dst).all(|(a, b)| a < b));
        Self {
            n_vertices,
            src,
            dst,
            weight,
        }
    }

    /// Number of vertices of the tree.
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Number of edges (`n_vertices - 1` for non-empty trees).
    pub fn n_edges(&self) -> usize {
        self.src.len()
    }

    /// The `i`-th edge in canonical order.
    pub fn edge(&self, i: usize) -> Edge {
        Edge {
            u: self.src[i],
            v: self.dst[i],
            w: self.weight[i],
        }
    }

    /// Verifies that the edges form a spanning tree (connected, acyclic).
    pub fn validate_tree(&self) -> Result<(), String> {
        if self.n_vertices == 0 {
            return Ok(());
        }
        let mut dsu = pandora_exec::dsu::SeqDsu::new(self.n_vertices);
        for i in 0..self.n_edges() {
            if dsu.union(self.src[i], self.dst[i]).is_none() {
                return Err(format!("edge {i} creates a cycle"));
            }
        }
        // n-1 successful unions over n vertices ⇒ connected.
        Ok(())
    }
}

/// The endpoints of `e` as `(src, dst)` with `src < dst`.
#[inline(always)]
fn endpoints(e: &Edge) -> (u32, u32) {
    if e.u < e.v {
        (e.u, e.v)
    } else {
        (e.v, e.u)
    }
}

/// Sorts each run of equal weights by `(src, dst)`, which turns the weight
/// order the arrays were gathered in into the canonical order.
///
/// `records` are the radix-sorted `(weight word, input index)` records.
/// The scan is serial; each run is sorted with [`par_sort_by_key`], which
/// sorts a short run in place and a long one (heavily tied weights) in
/// parallel.
fn order_tie_runs(ctx: &ExecCtx, records: &[u64], src: &mut [u32], dst: &mut [u32]) {
    let mut pairs = Vec::new();
    let mut start = 0;
    while start < records.len() {
        let word = records[start] >> 32;
        let len = records[start..]
            .iter()
            .take_while(|&&r| r >> 32 == word)
            .count();
        let run = start..start + len;
        if len > 1 {
            pairs.clear();
            pairs.extend(run.clone().map(|k| ((src[k] as u64) << 32) | dst[k] as u64));
            par_sort_by_key(ctx, &mut pairs, |&pair| pair);
            for (k, &pair) in run.clone().zip(&pairs) {
                src[k] = (pair >> 32) as u32;
                dst[k] = pair as u32;
            }
        }
        start = run.end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_descending_with_ties_broken_by_endpoints() {
        let ctx = ExecCtx::serial();
        let edges = vec![
            Edge::new(3, 2, 1.0),
            Edge::new(0, 1, 5.0),
            Edge::new(4, 1, 1.0),
            Edge::new(2, 0, 3.0),
        ];
        let mst = SortedMst::from_edges(&ctx, 5, &edges);
        assert_eq!(mst.weight, vec![5.0, 3.0, 1.0, 1.0]);
        // Tie between (2,3) and (1,4): (1,4) sorts first.
        assert_eq!((mst.src[2], mst.dst[2]), (1, 4));
        assert_eq!((mst.src[3], mst.dst[3]), (2, 3));
        mst.validate_tree().unwrap();
    }

    #[test]
    fn canonicalizes_endpoint_order() {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, 2, &[Edge::new(1, 0, 2.0)]);
        assert_eq!((mst.src[0], mst.dst[0]), (0, 1));
    }

    #[test]
    fn single_vertex_tree_is_empty() {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, 1, &[]);
        assert_eq!(mst.n_edges(), 0);
        mst.validate_tree().unwrap();
    }

    #[test]
    #[should_panic(expected = "must have")]
    fn wrong_edge_count_panics() {
        let ctx = ExecCtx::serial();
        let _ = SortedMst::from_edges(&ctx, 3, &[Edge::new(0, 1, 1.0)]);
    }

    #[test]
    fn cycle_detected() {
        let mst =
            SortedMst::from_sorted_arrays(4, vec![0, 0, 0], vec![1, 1, 2], vec![3.0, 2.0, 1.0]);
        assert!(mst.validate_tree().is_err());
    }

    #[test]
    fn canonical_order_is_invariant_under_input_permutation() {
        // The determinism contract: the sorted form is a function of the
        // edge *set*, even when every weight ties.
        let ctx = ExecCtx::serial();
        let n = 40u32;
        let edges: Vec<Edge> = (1..n).map(|v| Edge::new(v / 3, v, 2.5)).collect();
        let reference = SortedMst::from_edges(&ctx, n as usize, &edges);
        let mut rotated = edges;
        rotated.rotate_left(17);
        rotated.reverse();
        let permuted = SortedMst::from_edges(&ctx, n as usize, &rotated);
        assert_eq!(reference.src, permuted.src);
        assert_eq!(reference.dst, permuted.dst);
        assert_eq!(reference.weight, permuted.weight);
    }

    #[test]
    fn negative_weights_sort_after_positive() {
        let ctx = ExecCtx::serial();
        let edges = vec![Edge::new(0, 1, -1.0), Edge::new(1, 2, 1.0)];
        let mst = SortedMst::from_edges(&ctx, 3, &edges);
        assert_eq!(mst.weight, vec![1.0, -1.0]);
    }
}
