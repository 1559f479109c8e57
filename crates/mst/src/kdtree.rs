//! A bounding-box kd-tree over a [`PointSet`].
//!
//! This plays the role ArborX's BVH plays in the paper's EMST pipeline
//! (\[39\]): it computes every point's k nearest neighbours (core
//! distances and sorted rows) and answers component-aware
//! nearest-foreign-point queries (Borůvka rounds).
//!
//! Construction is subtree-parallel: the top levels are split
//! level-synchronously (median split along the widest box dimension, node
//! ids allocated sequentially, per-node partitioning and boxes in
//! parallel) until enough independent subtrees exist to saturate the
//! pool, then each subtree is built entirely within one pool lane using
//! lane-local node storage, and the local node blocks are spliced after
//! the top nodes with child-id fixup. Subtree
//! point ranges stay contiguous in the permutation array, so per-node
//! metadata (bounding boxes, min core distance, component purity) can be
//! maintained with leaf-up sweeps, and the node id order keeps every child
//! id larger than its parent's.
//!
//! # Hot-path design
//!
//! Node metadata is stored **structure-of-arrays** (`left` / `start` /
//! `end` / `split_dim` / `split_val` / flat bounding boxes) so traversal
//! touches only the arrays it needs, and the split dimension and median
//! value chosen at build time are cached per node rather than re-derived.
//!
//! * **Build on tree-ordered coordinates.** The build keeps a copy of the
//!   coordinates in tree order, permuted together with `perm`. A split
//!   partitions `(coordinate, index, row)` records, reading the node's rows
//!   contiguously instead of gathering `points.point(i)` in every
//!   comparison, and the children's boxes and the AoSoA leaf blocks are
//!   scanned from the same copy. The records compare exactly as the bare
//!   indices would, so the tree is the one a gathering partition builds.
//! * **Per-dimension kernels.** The point–box and box–box distances, the
//!   8-point block distance and the top-k are written once, generic over
//!   the dimension ([`crate::metric`]'s `Dim`). The rows pass dispatches
//!   once on the point set's dimension: 2-D and 3-D run with
//!   compile-time coordinate counts, every other dimension runs the same
//!   code with a run-time count.
//! * **Leaf tiles.** The batched k-NN rows are computed per leaf. Each
//!   query's top-k starts as the `k` smallest keys of its own leaf, all
//!   computed and then sorted at once. The leaf's queries then share
//!   one traversal from the root that prunes nodes by box–box distance
//!   against the largest k-th distance among them and scans candidate
//!   leaves nearest first. A candidate leaf's box is tested against 8
//!   queries per call, from a dimension-major copy of the tile's
//!   coordinates and each query's k-th distance, summed in the order of
//!   the one-query box distance, so every query skips exactly the
//!   leaves beyond its own k-th distance; a scan passes over an 8-point
//!   block when no lane can enter the top-k. A leaf's work depends only
//!   on the tree, so the rows and the work counts do not depend on the
//!   lane count.
//! * **Canonical ties.** Every top-k keeps the `k` smallest keys
//!   `(d2 bits << 32) | index`: the brute-force `(d2, index)` order, so
//!   which of several points tied at the k-th distance is kept never
//!   depends on the traversal order. The keys are held ascending, the
//!   largest last: a smaller key goes in at its sorted place and shifts
//!   the larger ones up, so a finished top-k is already its sorted row.
//!
//! * **Tree positions.** Position `i` of the tree is the point
//!   `perm()[i]`, and [`KdTree::positions`] maps a point back to its
//!   position. The batched k-NN rows, the component labels, the core
//!   distances and the nearest-foreign search all number points by
//!   position, so each leaf's points are one contiguous range of every
//!   per-point array and a pass in tree order streams them. Those inputs
//!   are typed [`TreeOrdered`], so per-index data cannot stand in for
//!   them. Input indices
//!   remain where results depend on them: every tie between equal
//!   distances goes to the smaller *index* (`perm()` value), never the
//!   smaller position.
//!
//! Each job has one path. The k-NN rows (core distances and the index's
//! sorted rows, [`crate::knn`]) come from the leaf-tiled pass, which
//! allocates only per-lane scratch. Borůvka's nearest-foreign queries go
//! through [`KdTree::nearest_foreign`], which needs no scratch at all:
//! traversal uses a fixed-capacity stack (median splits bound the depth
//! by ⌈log₂ n⌉ ≤ 32 for `u32` indices). Borůvka warm-starts each search
//! by seeding the best-so-far bound from the previous round and prunes
//! subtrees whose mutual-reachability bound (box distance, query core
//! distance, subtree minimum core distance) cannot beat it.

use pandora_exec::counters::RelaxedCounter;
use pandora_exec::trace::KernelKind;
use pandora_exec::{ExecCtx, UnsafeSlice, DEFAULT_GRAIN};

use crate::metric::{
    block_dist2, box_block_dist2, box_box_dist2, euclid_block_dist2, point_box_dist2, with_dim,
    Dim, TreeMetric, LEAF_BLOCK,
};
use crate::point::PointSet;

#[cfg(test)]
mod reference;

const INVALID: u32 = u32::MAX;

/// Default leaf capacity.
pub const DEFAULT_LEAF_SIZE: usize = 32;

/// Number of independent subtrees the sequential top phase of the build
/// carves out before handing them to pool lanes.
///
/// A constant (rather than a multiple of the lane count) keeps the node
/// layout identical across execution contexts — serial and threaded builds
/// produce byte-identical trees — while still giving up to ~16 lanes a 4×
/// oversubscription for load balancing.
const BUILD_SPLIT_TARGET: usize = 64;

/// Fixed traversal stack capacity. Median splits halve subtree sizes, so
/// the tree depth is at most ⌈log₂ n⌉ ≤ 32 for `u32`-indexed points, and a
/// traversal pushes at most one (far-child) entry per level; 64 leaves a
/// 2× margin. Enforced at build time.
const MAX_STACK: usize = 64;

/// Outcome of a nearest-foreign search ([`KdTree::nearest_foreign`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ForeignSearch {
    /// Nearest foreign point: `(exact squared metric distance, tree
    /// position)`.
    Found(f32, u32),
    /// Nothing foreign at or below the seed bound. The payload is a proven
    /// lower bound on the nearest-foreign squared distance (minimum over
    /// pruned subtree bounds and scanned-but-losing foreign distances).
    Empty(f32),
}

/// Work done by nearest-foreign searches and row screens: distance
/// evaluations (whole 8-point blocks in leaf scans, one per examined row
/// member in a row screen) and node visits (box distances). Both depend
/// only on the tree, the query and the bounds it starts from, never on
/// the lanes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchWork {
    /// Distance evaluations.
    pub dist_evals: u64,
    /// Node visits (box distances computed).
    pub node_visits: u64,
}

/// Per-point values in **tree order**: entry `i` belongs to the point at
/// tree position `i`, i.e. the point `perm()[i]`.
///
/// The tree-space inputs — core distances for
/// [`crate::metric::TreeMutualReachability`] and
/// [`KdTree::min_core2_into`], component labels for
/// [`KdTree::component_purity_into`] and the nearest-foreign search — take
/// this type rather than a bare slice, so values kept per point index
/// cannot be passed there by mistake. Outside this crate the only way to
/// make one is [`KdTree::in_tree_order`]; it reads as a slice.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeOrdered<T>(Vec<T>);

impl<T> TreeOrdered<T> {
    /// Wraps a buffer whose entries the caller wrote in tree order.
    pub(crate) fn from_vec(values: Vec<T>) -> Self {
        Self(values)
    }

    /// The buffer itself, e.g. to hand back to a pool.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.0
    }

    /// The entries, for updates that keep them in tree order.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.0
    }
}

impl<T> std::ops::Deref for TreeOrdered<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

/// A static kd-tree with structure-of-arrays node metadata.
#[derive(Debug)]
pub struct KdTree {
    dim: usize,
    /// Left child id per node; `INVALID` marks a leaf. The right child is
    /// always `left + 1` (children are allocated in pairs).
    left: Vec<u32>,
    /// Subtree range start in `perm`, per node.
    start: Vec<u32>,
    /// Subtree range end in `perm`, per node.
    end: Vec<u32>,
    /// Split dimension chosen at build time (widest box side); 0 for leaves.
    split_dim: Vec<u32>,
    /// Median coordinate along `split_dim` at build time; 0 for leaves.
    split_val: Vec<f32>,
    /// Per-node bounding boxes, flat `[node][dim]`.
    bbox_min: Vec<f32>,
    bbox_max: Vec<f32>,
    /// Point indices, grouped so each subtree is a contiguous range.
    perm: Vec<u32>,
    /// The inverse of `perm`: the tree position of each point.
    pos: Vec<u32>,
    /// Coordinates gathered into `perm` order and regrouped AoSoA: blocks
    /// of [`LEAF_BLOCK`] consecutive perm positions, dimension-major within
    /// each block (`block[d * LEAF_BLOCK + j]`), zero-padded to a whole
    /// final block. Leaf scans stream these blocks through the 8-wide
    /// [`euclid_block_dist2`] kernel with no strided loads.
    leaf_coords: Vec<f32>,
    /// Tree depth (root = 0 counts as depth 1 when any node exists).
    depth: usize,
}

impl KdTree {
    /// Builds a tree with the default leaf size.
    pub fn build(ctx: &ExecCtx, points: &PointSet) -> Self {
        Self::build_with_leaf_size(ctx, points, DEFAULT_LEAF_SIZE)
    }

    /// Builds a tree with a caller-chosen leaf capacity.
    ///
    /// The top `BUILD_SPLIT_TARGET` (64) subtrees are split off
    /// level-synchronously (ids allocated sequentially, per-node work in
    /// parallel); each subtree is then built wholly inside one pool lane with
    /// lane-local node storage (per-lane scratch, no synchronization), and
    /// the finished node blocks are spliced after the top nodes. Serial and
    /// threaded contexts produce **identical** trees: the split target is a
    /// constant and the splice order is the (deterministic) frontier order.
    pub fn build_with_leaf_size(ctx: &ExecCtx, points: &PointSet, leaf_size: usize) -> Self {
        let n = points.len();
        let dim = points.dim();
        let leaf_size = leaf_size.max(1);
        ctx.record(KernelKind::TreeBuild, n as u64, (n * dim * 4) as u64);

        let mut tree = Self {
            dim,
            left: vec![INVALID],
            start: vec![0],
            end: vec![n as u32],
            split_dim: vec![0],
            split_val: vec![0.0],
            bbox_min: vec![f32::INFINITY; dim],
            bbox_max: vec![f32::NEG_INFINITY; dim],
            perm: (0..n as u32).collect(),
            pos: Vec::new(),
            leaf_coords: Vec::new(),
            depth: usize::from(n > 0),
        };
        if n == 0 {
            return tree;
        }
        // The coordinates in tree order: row `i` holds point `perm[i]`.
        // Every split permutes a node's rows together with its `perm`
        // range, so partitions and boxes read contiguous rows.
        let mut rows = points.coords().to_vec();
        scan_bbox(
            dim,
            &rows,
            &mut tree.bbox_min[..dim],
            &mut tree.bbox_max[..dim],
        );

        // Phase 1: split the top levels until enough independent subtrees
        // exist to keep every lane busy. All frontier nodes sit at the same
        // depth (level-synchronous). Node ids are allocated sequentially in
        // frontier order — so the layout never depends on the lane count —
        // but the O(n)-per-level work (partitioning, child bounding boxes)
        // runs in parallel across the level's nodes; otherwise these ~6
        // levels would serialize ~2n of work each and cap the build-phase
        // speedup on many-core hosts (Amdahl).
        let mut frontier: Vec<u32> = vec![0];
        let mut frontier_depth = 1usize;
        while frontier.len() < BUILD_SPLIT_TARGET
            && frontier.iter().any(|&nid| {
                (tree.end[nid as usize] - tree.start[nid as usize]) as usize > leaf_size
            })
        {
            // Sequential: allocate children for the nodes that will split
            // (placeholder splits/boxes; filled in parallel below).
            let mut splitting: Vec<u32> = Vec::new();
            let mut next = Vec::with_capacity(frontier.len() * 2);
            for &nid in &frontier {
                let (s, e) = (tree.start[nid as usize], tree.end[nid as usize]);
                if (e - s) as usize <= leaf_size {
                    // Finished leaf above the subtree frontier; its depth
                    // (< the final frontier depth) can never be the maximum.
                    continue;
                }
                let mid = s + (e - s) / 2;
                let left = tree.left.len() as u32;
                tree.left[nid as usize] = left;
                tree.push_node(s, mid);
                tree.push_node(mid, e);
                splitting.push(nid);
                next.push(left);
                next.push(left + 1);
            }
            let n_nodes = tree.left.len();
            tree.bbox_min.resize(n_nodes * dim, f32::INFINITY);
            tree.bbox_max.resize(n_nodes * dim, f32::NEG_INFINITY);
            // Parallel: partition each splitting node around the median of
            // its widest box dimension, cache the split, and compute both
            // children's bounding boxes. Writes are disjoint per node.
            {
                let perm_view = UnsafeSlice::new(&mut tree.perm);
                let rows_view = UnsafeSlice::new(&mut rows);
                let sdim_view = UnsafeSlice::new(&mut tree.split_dim);
                let sval_view = UnsafeSlice::new(&mut tree.split_val);
                let bmin_view = UnsafeSlice::new(&mut tree.bbox_min);
                let bmax_view = UnsafeSlice::new(&mut tree.bbox_max);
                let (start_ref, end_ref, left_ref, splitting_ref) =
                    (&tree.start, &tree.end, &tree.left, &splitting);
                ctx.for_each(splitting.len(), 1, |si| {
                    let nid = splitting_ref[si] as usize;
                    let (s, e) = (start_ref[nid] as usize, end_ref[nid] as usize);
                    // SAFETY: a splitting node's bbox row was fully written
                    // before this region started (by the previous level's
                    // child scans, or the initial root scan) and no task in
                    // this region writes it — child rows written below all
                    // belong to nodes allocated this level.
                    let (pmin, pmax) = unsafe {
                        (
                            &*bmin_view.slice_mut(nid * dim..(nid + 1) * dim),
                            &*bmax_view.slice_mut(nid * dim..(nid + 1) * dim),
                        )
                    };
                    let split_dim = widest_dim(pmin, pmax);
                    let mid = (e - s) / 2;
                    // SAFETY: subtree ranges of distinct frontier nodes are
                    // disjoint, in `perm` and in the tree-ordered rows; each
                    // node's split/box slots are owned by the task splitting
                    // that node.
                    let (perm_range, node_rows) = unsafe {
                        (
                            perm_view.slice_mut(s..e),
                            rows_view.slice_mut(s * dim..e * dim),
                        )
                    };
                    let median = split_node(
                        dim,
                        split_dim,
                        perm_range,
                        node_rows,
                        &mut Vec::new(),
                        &mut Vec::new(),
                    );
                    // SAFETY: node `nid` appears once in the frontier, so its
                    // split-dim/value slots are written by this task alone.
                    unsafe {
                        sdim_view.write(nid, split_dim as u32);
                        sval_view.write(nid, median);
                    }
                    let left = left_ref[nid] as usize;
                    let (left_rows, right_rows) = node_rows.split_at(mid * dim);
                    for (child, child_rows) in [(left, left_rows), (left + 1, right_rows)] {
                        // SAFETY: both children were allocated this level for
                        // `nid` alone, so their bbox rows are owned by this
                        // task.
                        unsafe {
                            scan_bbox(
                                dim,
                                child_rows,
                                bmin_view.slice_mut(child * dim..(child + 1) * dim),
                                bmax_view.slice_mut(child * dim..(child + 1) * dim),
                            );
                        }
                    }
                });
            }
            frontier = next;
            frontier_depth += 1;
        }

        // Phase 2 (parallel): every frontier subtree is built independently
        // into lane-local storage. Writes are disjoint: each task owns its
        // subtree's `perm` and row ranges and its own `subtrees[fi]` slot.
        let n_top = tree.left.len();
        let mut subtrees: Vec<Option<SubtreeNodes>> = (0..frontier.len()).map(|_| None).collect();
        {
            let sub_view = UnsafeSlice::new(&mut subtrees);
            let perm_view = UnsafeSlice::new(&mut tree.perm);
            let rows_view = UnsafeSlice::new(&mut rows);
            let (start_ref, end_ref, frontier_ref) = (&tree.start, &tree.end, &frontier);
            let (bmin, bmax) = (&tree.bbox_min, &tree.bbox_max);
            ctx.for_each_chunk(frontier.len(), 1, |range| {
                for fi in range {
                    let nid = frontier_ref[fi] as usize;
                    let (s, e) = (start_ref[nid] as usize, end_ref[nid] as usize);
                    // SAFETY: subtree ranges of distinct frontier nodes are
                    // disjoint, in `perm` and in the tree-ordered rows, and
                    // slot `fi` is owned by this task.
                    let (perm_sub, rows_sub) = unsafe {
                        (
                            perm_view.slice_mut(s..e),
                            rows_view.slice_mut(s * dim..e * dim),
                        )
                    };
                    let root_bbox = (
                        &bmin[nid * dim..(nid + 1) * dim],
                        &bmax[nid * dim..(nid + 1) * dim],
                    );
                    let built =
                        build_subtree(dim, perm_sub, rows_sub, s as u32, leaf_size, root_bbox);
                    // SAFETY: slot `fi` of `subtrees` is owned by this task.
                    unsafe { sub_view.write(fi, Some(built)) };
                }
            });
        }

        // Phase 3 (sequential, O(#nodes)): splice the lane-local node blocks
        // after the top nodes, offsetting child ids. Local id 0 is the
        // frontier node itself (already in the global arrays); descendants
        // map to `offset + local_id - 1`, which keeps every child id larger
        // than its parent's (the leaf-up sweeps rely on that order).
        let mut depth = frontier_depth;
        let mut offset = n_top as u32;
        for (fi, slot) in subtrees.iter_mut().enumerate() {
            let sub = slot.take().expect("subtree built by phase 2");
            let nid = frontier[fi] as usize;
            if sub.left[0] != INVALID {
                tree.left[nid] = offset + sub.left[0] - 1;
                tree.split_dim[nid] = sub.split_dim[0];
                tree.split_val[nid] = sub.split_val[0];
            }
            for lid in 1..sub.left.len() {
                let l = sub.left[lid];
                tree.left.push(if l == INVALID {
                    INVALID
                } else {
                    offset + l - 1
                });
                tree.start.push(sub.start[lid]);
                tree.end.push(sub.end[lid]);
                tree.split_dim.push(sub.split_dim[lid]);
                tree.split_val.push(sub.split_val[lid]);
            }
            tree.bbox_min.extend_from_slice(&sub.bbox_min[dim..]);
            tree.bbox_max.extend_from_slice(&sub.bbox_max[dim..]);
            offset += (sub.left.len() - 1) as u32;
            depth = depth.max(frontier_depth + sub.depth - 1);
        }
        tree.depth = depth;
        assert!(
            depth + 1 < MAX_STACK,
            "kd-tree depth {depth} exceeds the fixed traversal stack"
        );

        // Phase 4 (parallel): regroup the tree-ordered rows into AoSoA
        // blocks of LEAF_BLOCK points, so leaf scans stream whole blocks
        // through the 8-wide distance kernel.
        let n_blocks = n.div_ceil(LEAF_BLOCK);
        tree.leaf_coords = vec![0.0f32; n_blocks * LEAF_BLOCK * dim];
        {
            let lc = UnsafeSlice::new(&mut tree.leaf_coords);
            let rows_ref = &rows;
            ctx.for_each_chunk(n_blocks, (DEFAULT_GRAIN / LEAF_BLOCK).max(1), |range| {
                for b in range {
                    let base = b * LEAF_BLOCK * dim;
                    let lo = b * LEAF_BLOCK;
                    let hi = (lo + LEAF_BLOCK).min(n);
                    for (j, row) in rows_ref[lo * dim..hi * dim].chunks_exact(dim).enumerate() {
                        for (d, &c) in row.iter().enumerate() {
                            // SAFETY: block b is owned by this iteration.
                            unsafe { lc.write(base + d * LEAF_BLOCK + j, c) };
                        }
                    }
                }
            });
        }
        tree.pos = invert(ctx, &tree.perm);
        tree
    }

    #[inline]
    fn push_node(&mut self, start: u32, end: u32) {
        self.left.push(INVALID);
        self.start.push(start);
        self.end.push(end);
        self.split_dim.push(0);
        self.split_val.push(0.0);
    }

    /// Number of points indexed.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// The point permutation: position → point index, each subtree a
    /// contiguous range. Iterating queries in this order visits points in
    /// spatially coherent (leaf) order, which the Borůvka and core-distance
    /// batches exploit for cache reuse and same-component run detection.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// The inverse permutation: point index → tree position.
    pub fn positions(&self) -> &[u32] {
        &self.pos
    }

    /// Per-point values (`by_point[p]` for point `p`) rearranged into tree
    /// order (entry `i` for position `i`), the layout
    /// [`KdTree::min_core2_into`], the nearest-foreign searches and
    /// [`crate::boruvka::boruvka_mst`]'s metric read. E.g. core distances
    /// from [`crate::knn::core_distances2`] become
    /// `TreeMutualReachability { core2: &tree.in_tree_order(&core2) }`.
    pub fn in_tree_order<T: Copy>(&self, by_point: &[T]) -> TreeOrdered<T> {
        assert_eq!(by_point.len(), self.perm.len(), "one value per point");
        TreeOrdered(self.perm.iter().map(|&p| by_point[p as usize]).collect())
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Number of tree nodes.
    pub fn n_nodes(&self) -> usize {
        self.left.len()
    }

    /// Tree depth in levels (1 for a single-leaf tree).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Computes per-node minimum squared core distances (leaf-up sweep)
    /// into a caller-owned buffer, for mutual-reachability pruning bounds.
    /// `core2` is in tree order, so each leaf reads one contiguous range.
    ///
    /// The tree itself stays untouched — core distances are a property of
    /// the *request* (`minPts`), not of the index, so a tree shared by
    /// concurrent sessions stays immutable while each session passes its
    /// own bounds to [`KdTree::nearest_foreign`]. The buffer is
    /// cleared and resized (capacity retained), so steady-state reuse
    /// allocates nothing.
    pub fn min_core2_into(&self, core2: &TreeOrdered<f32>, out: &mut Vec<f32>) {
        assert_eq!(core2.len(), self.perm.len());
        out.clear();
        out.resize(self.n_nodes(), f32::INFINITY);
        // Children have larger ids than parents: reverse order is leaf-up.
        for nid in (0..self.n_nodes()).rev() {
            let left = self.left[nid];
            out[nid] = if left == INVALID {
                core2[self.start[nid] as usize..self.end[nid] as usize]
                    .iter()
                    .fold(f32::INFINITY, |m, &c| m.min(c))
            } else {
                out[left as usize].min(out[left as usize + 1])
            };
        }
    }

    /// Per-node component purity: the component id shared by every point in
    /// the subtree, or `u32::MAX` if mixed, into a reusable buffer (resized
    /// as needed). `comp` holds one label per tree position. O(n). Borůvka
    /// calls this every round, so the allocation is paid once, not per
    /// round.
    ///
    /// The O(n) leaf scans (the dominant cost) run in parallel; the
    /// internal combine is a serial leaf-up sweep over the O(n / leaf_size)
    /// nodes, which is noise by comparison.
    pub fn component_purity_into(
        &self,
        ctx: &ExecCtx,
        comp: &TreeOrdered<u32>,
        purity: &mut Vec<u32>,
    ) {
        purity.clear();
        purity.resize(self.n_nodes(), INVALID);
        {
            let purity_view = UnsafeSlice::new(purity.as_mut_slice());
            let (left_ref, start_ref, end_ref) = (&self.left, &self.start, &self.end);
            ctx.for_each_chunk(self.n_nodes(), 64, |range| {
                for nid in range {
                    if left_ref[nid] != INVALID {
                        continue;
                    }
                    let labels = &comp[start_ref[nid] as usize..end_ref[nid] as usize];
                    let value = match labels.first() {
                        None => INVALID,
                        Some(&first) if labels.iter().all(|&c| c == first) => first,
                        Some(_) => INVALID,
                    };
                    // SAFETY: node nid is owned by this iteration.
                    unsafe { purity_view.write(nid, value) };
                }
            });
        }
        // Children always have larger ids than their parent, so the reverse
        // sweep sees both children before every internal parent.
        for nid in (0..self.n_nodes()).rev() {
            let left = self.left[nid];
            if left != INVALID {
                let l = purity[left as usize];
                let r = purity[left as usize + 1];
                purity[nid] = if l == r { l } else { INVALID };
            }
        }
    }

    /// Offers every point of leaf `nid` except `q` to `topk`, one AoSoA
    /// block at a time: the block kernel yields 8 distances at once, and a
    /// block none of whose lanes can enter the top-k is passed over.
    /// Returns the distance evaluations made (8 per block).
    #[inline(always)]
    fn scan_leaf<D: Dim>(&self, dim: D, qp: &[f32], q: u32, nid: usize, topk: &mut [u64]) -> u64 {
        let (s, e) = (self.start[nid] as usize, self.end[nid] as usize);
        let bw = LEAF_BLOCK * dim.get();
        let (first, last) = (s / LEAF_BLOCK, e.div_ceil(LEAF_BLOCK));
        let mut d2 = [0.0f32; LEAF_BLOCK];
        for b in first..last {
            block_dist2(dim, qp, &self.leaf_coords[b * bw..(b + 1) * bw], &mut d2);
            // The lanes that lie in the leaf and can enter the top-k: their
            // distance does not exceed that of its largest key.
            let worst = [kth_d2(topk); LEAF_BLOCK];
            if !any_within(&d2, &worst) {
                continue;
            }
            let base = b * LEAF_BLOCK;
            let (lo, hi) = (s.max(base) - base, e.min(base + LEAF_BLOCK) - base);
            let mut lanes = lanes_within(&d2, &worst);
            lanes &= ((1u32 << hi) - 1) & !((1u32 << lo) - 1);
            while lanes != 0 {
                let j = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let p = self.perm[base + j];
                if p != q {
                    offer(topk, nn_key(d2[j], p));
                }
            }
        }
        ((last - first) * LEAF_BLOCK) as u64
    }

    /// Fills `topk` with the `k` smallest keys of the points of the query's
    /// own leaf `nid` (all but the query, at tree position `qpos`),
    /// ascending and padded with [`EMPTY_KEY`]: every key is computed into
    /// `keys` (one slot per leaf point) and sorted, and the first `k` are
    /// kept. Returns the distance evaluations made (8 per block), as
    /// [`Self::scan_leaf`] counts them.
    fn select_own_leaf<D: Dim>(
        &self,
        dim: D,
        qp: &[f32],
        qpos: usize,
        nid: usize,
        keys: &mut [u64],
        topk: &mut [u64],
    ) -> u64 {
        let (s, e) = (self.start[nid] as usize, self.end[nid] as usize);
        let bw = LEAF_BLOCK * dim.get();
        let (first, last) = (s / LEAF_BLOCK, e.div_ceil(LEAF_BLOCK));
        let mut d2 = [0.0f32; LEAF_BLOCK];
        let keys = &mut keys[..e - s];
        for b in first..last {
            block_dist2(dim, qp, &self.leaf_coords[b * bw..(b + 1) * bw], &mut d2);
            let base = b * LEAF_BLOCK;
            for i in s.max(base)..e.min(base + LEAF_BLOCK) {
                keys[i - s] = nn_key(d2[i - base], self.perm[i]);
            }
        }
        // The query's own slot takes the empty key: never among the `k`
        // smallest while the leaf holds `k` other points, and padding when
        // it holds fewer.
        keys[qpos - s] = EMPTY_KEY;
        keys.sort_unstable();
        let held = keys.len().min(topk.len());
        topk[..held].copy_from_slice(&keys[..held]);
        topk[held..].fill(EMPTY_KEY);
        ((last - first) * LEAF_BLOCK) as u64
    }

    /// Every point's `k` nearest neighbours (the point itself excluded),
    /// computed leaf by leaf: `emit(r, row)` runs once per tree position
    /// `r` (the point `perm()[r]`), with the row ascending by
    /// `(d2, index)`, its entries `(d2, tree position)`, and padded with
    /// `(+∞, u32::MAX)` when fewer than `k` neighbours exist. Each leaf
    /// emits its positions in ascending order. `emit` runs on the pool's
    /// lanes.
    ///
    /// Each leaf's queries first select their top-k from their own leaf,
    /// then share one traversal from the root: nodes are pruned by their
    /// box distance to the leaf's box against the largest k-th distance
    /// among the queries, candidate leaves are scanned in near-first
    /// order, and a query passes over a candidate leaf beyond its own k-th
    /// distance (8 queries' box distances per kernel call). Records one
    /// [`KernelKind::TreeTraverse`] event: the distance evaluations as
    /// elements, and bytes for those evaluations (`4·dim` each), the box
    /// distances, i.e. node visits (`8·dim` each), and the rows written
    /// (`8·k` per point). Both counts depend only on the tree and `k`,
    /// never on the lanes. Returns the number of rows emitted.
    pub(crate) fn for_each_knn_row<F>(
        &self,
        ctx: &ExecCtx,
        points: &PointSet,
        k: usize,
        emit: F,
    ) -> usize
    where
        F: Fn(u32, &[(f32, u32)]) + Sync,
    {
        debug_assert_eq!(points.len(), self.len());
        if self.perm.is_empty() || k == 0 {
            return 0;
        }
        with_dim!(self.dim, d => self.knn_tiles(d, ctx, k, &emit))
    }

    /// [`KdTree::for_each_knn_row`] for one dimension instance.
    fn knn_tiles<D: Dim, F>(&self, dim: D, ctx: &ExecCtx, k: usize, emit: &F) -> usize
    where
        F: Fn(u32, &[(f32, u32)]) + Sync,
    {
        let dm = dim.get() as u64;
        let emitted = RelaxedCounter::new();
        ctx.for_each_chunk_counted(self.n_nodes(), 64, KernelKind::TreeTraverse, |range| {
            let mut tile = LeafTile::new(dim.get(), k);
            let (mut evals, mut visits, mut rows) = (0u64, 0u64, 0u64);
            for nid in range {
                if self.left[nid] == INVALID {
                    let counts = self.leaf_tile(dim, k, nid, &mut tile, emit);
                    evals += counts.0;
                    visits += counts.1;
                    rows += u64::from(self.end[nid] - self.start[nid]);
                }
            }
            emitted.add(rows);
            let bytes = evals * 4 * dm + visits * 8 * dm + rows * k as u64 * 8;
            (evals, bytes)
        });
        emitted.get() as usize
    }

    /// The rows of one leaf's points; returns the tile's
    /// `(distance evaluations, node visits)`.
    fn leaf_tile<D: Dim, F>(
        &self,
        dim: D,
        k: usize,
        leaf: usize,
        tile: &mut LeafTile,
        emit: &F,
    ) -> (u64, u64)
    where
        F: Fn(u32, &[(f32, u32)]) + Sync,
    {
        let mut counts = (0u64, 0u64);
        let (s, e) = (self.start[leaf] as usize, self.end[leaf] as usize);
        let members = &self.perm[s..e];
        let m = members.len();
        let LeafTile {
            keys,
            kth,
            queries,
            groups,
            scratch,
            row,
        } = tile;
        let dm = dim.get();
        let gw = LEAF_BLOCK * dm;
        // The queries' coordinates, read from the leaf's own blocks: one
        // row per query, and the same values regrouped dimension-major in
        // groups of LEAF_BLOCK queries (zero-padded) for the box tests.
        queries.clear();
        queries.resize(m * dm, 0.0);
        groups.clear();
        groups.resize(m.div_ceil(LEAF_BLOCK) * gw, 0.0);
        for (i, qp) in queries.chunks_exact_mut(dm).enumerate() {
            self.coords_at(dim, s + i, qp);
            let group = &mut groups[(i / LEAF_BLOCK) * gw..];
            for (d, &c) in qp.iter().enumerate() {
                group[d * LEAF_BLOCK + i % LEAF_BLOCK] = c;
            }
        }
        // The leaf's own points first, so the traversal starts with finite
        // bounds whenever the leaf holds more than `k` points. `kth` keeps
        // each query's k-th distance (`kth_d2`) for the box tests.
        keys.clear();
        keys.resize(m * k, EMPTY_KEY);
        kth.clear();
        kth.resize(m.div_ceil(LEAF_BLOCK) * LEAF_BLOCK, 0.0);
        scratch.clear();
        scratch.resize(m, EMPTY_KEY);
        for (i, (topk, qp)) in keys
            .chunks_exact_mut(k)
            .zip(queries.chunks_exact(dm))
            .enumerate()
        {
            counts.0 += self.select_own_leaf(dim, qp, s + i, leaf, scratch, topk);
            kth[i] = kth_d2(topk);
        }
        // Then one traversal from the root serves every query: a node is
        // pruned when its box lies farther from the leaf's box than the
        // largest k-th distance in the tile.
        let (lo, hi) = self.node_box(dim, leaf);
        let tile_worst = |kth: &[f32]| {
            kth[..m]
                .iter()
                .fold(0.0f32, |w, &x| if x > w { x } else { w })
        };
        let mut worst = tile_worst(kth);
        let mut stack = [(0u32, 0.0f32); MAX_STACK];
        let mut sp = 0usize;
        let (mut nid, mut bound) = (0u32, 0.0f32);
        let mut gaps = [0.0f32; LEAF_BLOCK];
        loop {
            if bound <= worst {
                loop {
                    let left = self.left[nid as usize];
                    if left == INVALID {
                        break;
                    }
                    let dl = self.box_box_dist2(dim, left as usize, lo, hi);
                    let dr = self.box_box_dist2(dim, left as usize + 1, lo, hi);
                    counts.1 += 2;
                    let ((near, dnear), (far, dfar)) = if dr < dl {
                        ((left + 1, dr), (left, dl))
                    } else {
                        ((left, dl), (left + 1, dr))
                    };
                    if dfar <= worst {
                        stack[sp] = (far, dfar);
                        sp += 1;
                    }
                    if dnear > worst {
                        nid = INVALID;
                        break;
                    }
                    nid = near;
                }
                if nid != INVALID && nid as usize != leaf {
                    // A candidate leaf: its box is tested against
                    // LEAF_BLOCK queries per call, and each query within
                    // its own k-th distance scans it.
                    let (clo, chi) = self.node_box(dim, nid as usize);
                    counts.1 += m as u64;
                    for (g, group) in groups.chunks_exact(gw).enumerate() {
                        box_block_dist2(dim, group, clo, chi, &mut gaps);
                        let base = g * LEAF_BLOCK;
                        let group_kth = kth[base..base + LEAF_BLOCK]
                            .try_into()
                            .expect("kth holds whole groups");
                        if !any_within(&gaps, group_kth) {
                            continue;
                        }
                        let mut lanes = lanes_within(&gaps, group_kth);
                        lanes &= (1u32 << (m - base).min(LEAF_BLOCK)) - 1;
                        while lanes != 0 {
                            let i = base + lanes.trailing_zeros() as usize;
                            lanes &= lanes - 1;
                            let topk = &mut keys[i * k..(i + 1) * k];
                            let qp = &queries[i * dm..(i + 1) * dm];
                            counts.0 += self.scan_leaf(dim, qp, members[i], nid as usize, topk);
                            kth[i] = kth_d2(topk);
                        }
                    }
                    worst = tile_worst(kth);
                }
            }
            if sp == 0 {
                break;
            }
            sp -= 1;
            (nid, bound) = stack[sp];
        }
        // The rows are sorted already; the keys hold indices, the rows
        // positions.
        for (topk, r) in keys.chunks_exact(k).zip(s as u32..) {
            row.clear();
            row.extend(topk.iter().map(|&key| match key_entry(key) {
                (d2, u32::MAX) => (d2, u32::MAX),
                (d2, p) => (d2, self.pos[p as usize]),
            }));
            emit(r, row);
        }
        counts
    }

    /// Writes the coordinates of the point at tree position `i` into `out`,
    /// from its AoSoA block.
    #[inline(always)]
    fn coords_at<D: Dim>(&self, dim: D, i: usize, out: &mut [f32]) {
        let dm = dim.get();
        let base = (i / LEAF_BLOCK) * LEAF_BLOCK * dm + i % LEAF_BLOCK;
        for (d, c) in out[..dm].iter_mut().enumerate() {
            *c = self.leaf_coords[base + d * LEAF_BLOCK];
        }
    }

    /// Nearest point to the point at tree position `q` in a *different
    /// component*, under `metric`: Borůvka's one nearest-foreign search.
    ///
    /// Everything is numbered by tree position: `q`, the labels in `comp`,
    /// the points `metric` is called with ([`TreeMetric`]) and the
    /// returned point.
    /// `purity` comes from [`KdTree::component_purity_into`] for the current
    /// Borůvka round. `node_core2` is either empty (no pruning bounds —
    /// always valid, just less pruning for mutual reachability) or the
    /// per-node subtree core minima from [`KdTree::min_core2_into`] for
    /// the request's `minPts`.
    ///
    /// `seed` warm-starts the search. `None` searches from scratch. A
    /// valid candidate is a point (tree position) in a different component
    /// than `q` with its exact squared metric distance, typically the
    /// previous Borůvka round's winner when the two endpoints were not
    /// merged; the result is the same as the unseeded search's. A
    /// **bound-only** seed `(d2, u32::MAX)` is an upper bound the caller
    /// no longer needs beaten (e.g. the component's current best outgoing
    /// edge): the search finds only points at distance ≤ the bound
    /// (equal-bound subtrees are still visited, so smaller-index ties win
    /// regardless). Seeding tightens the pruning bound from the first node
    /// visited.
    ///
    /// [`ForeignSearch::Found`] carries `(squared distance, position)`;
    /// ties go to the smaller point *index* (`perm()` value), so the
    /// answer is the brute-force `(d2, index)` minimum. The search comes
    /// up empty only when nothing is foreign (`Empty(+∞)`) or under a
    /// bound-only seed below the nearest-foreign distance.
    /// [`ForeignSearch::Empty`] then carries the minimum over all pruned
    /// subtree bounds and all scanned-but-losing foreign distances: a
    /// lower bound on `q`'s nearest-foreign distance that lies strictly
    /// above the seed bound and is usually far tighter than it. Borůvka
    /// stores it so interior points stay filtered for many rounds instead
    /// of re-searching every round.
    ///
    /// The distance evaluations and node visits the search makes are added
    /// to `work`. Leaf scans read `comp` and the metric's per-point data at
    /// consecutive positions.
    #[expect(
        clippy::too_many_arguments,
        reason = "the innermost configurable query"
    )]
    pub fn nearest_foreign<M: TreeMetric>(
        &self,
        points: &PointSet,
        metric: &M,
        q: u32,
        comp: &TreeOrdered<u32>,
        purity: &[u32],
        node_core2: &[f32],
        seed: Option<(f32, u32)>,
        work: &mut SearchWork,
    ) -> ForeignSearch {
        if self.perm.is_empty() {
            return ForeignSearch::Empty(f32::INFINITY);
        }
        let (mut best_d2, mut best_p) = seed.unwrap_or((f32::INFINITY, INVALID));
        debug_assert!(best_p == INVALID || comp[best_p as usize] != comp[q as usize]);
        debug_assert!(
            node_core2.is_empty() || node_core2.len() == self.n_nodes(),
            "node_core2 must be empty or hold one bound per tree node"
        );
        // Ties compare point indices; a bound-only seed holds none.
        let mut best_id = if best_p == INVALID {
            INVALID
        } else {
            self.perm[best_p as usize]
        };
        // Lower bound on everything foreign this search pruned or rejected;
        // only meaningful when no candidate is found.
        let mut margin = f32::INFINITY;
        let qp = points.point(self.perm[q as usize] as usize);
        let my_comp = comp[q as usize];
        let min_core2: &[f32] = node_core2;
        let mut visits = 0u64;
        let mut node_bound = |nid: usize| -> f32 {
            visits += 1;
            let box_d2 = self.node_box_dist2(nid, qp);
            let mc = if min_core2.is_empty() {
                0.0
            } else {
                min_core2[nid]
            };
            metric.box_bound2_at(points, q, box_d2, mc)
        };
        let mut stack = [(0u32, 0.0f32); MAX_STACK];
        let mut sp = 0usize;
        let mut nid = 0u32;
        let mut bound = node_bound(0);
        let mut d2buf = [0.0f32; LEAF_BLOCK];
        let mut evals = 0u64;
        loop {
            // Strict comparison: an equal-bound subtree may still hold an
            // equal-distance point with a smaller index (deterministic
            // ties). Pure subtrees of q's own component are skipped (they
            // hold nothing foreign, so they never affect the margin).
            if bound <= best_d2 && purity[nid as usize] != my_comp {
                loop {
                    let left = self.left[nid as usize];
                    if left == INVALID {
                        break;
                    }
                    let near_is_left =
                        qp[self.split_dim[nid as usize] as usize] <= self.split_val[nid as usize];
                    let (near, far) = if near_is_left {
                        (left, left + 1)
                    } else {
                        (left + 1, left)
                    };
                    let bfar = node_bound(far as usize);
                    if purity[far as usize] != my_comp {
                        if bfar <= best_d2 {
                            stack[sp] = (far, bfar);
                            sp += 1;
                        } else {
                            margin = margin.min(bfar);
                        }
                    }
                    let bnear = node_bound(near as usize);
                    if bnear > best_d2 || purity[near as usize] == my_comp {
                        if purity[near as usize] != my_comp {
                            margin = margin.min(bnear);
                        }
                        nid = INVALID;
                        break;
                    }
                    nid = near;
                }
                if nid != INVALID {
                    // Chunked leaf scan: the Euclidean part is computed for
                    // a whole AoSoA block at once; the scalar pass gathers
                    // component labels and finalizes the metric
                    // (`refine_euclid2_at` agrees exactly with `dist2`).
                    let (s, e) = (
                        self.start[nid as usize] as usize,
                        self.end[nid as usize] as usize,
                    );
                    let bw = LEAF_BLOCK * self.dim;
                    let (first, last) = (s / LEAF_BLOCK, e.div_ceil(LEAF_BLOCK));
                    evals += ((last - first) * LEAF_BLOCK) as u64;
                    for b in first..last {
                        euclid_block_dist2(qp, &self.leaf_coords[b * bw..(b + 1) * bw], &mut d2buf);
                        for i in s.max(b * LEAF_BLOCK)..e.min((b + 1) * LEAF_BLOCK) {
                            if comp[i] == my_comp {
                                continue;
                            }
                            let d2 =
                                metric.refine_euclid2_at(d2buf[i - b * LEAF_BLOCK], q, i as u32);
                            if d2 < best_d2 || (d2 == best_d2 && self.perm[i] < best_id) {
                                best_d2 = d2;
                                best_p = i as u32;
                                best_id = self.perm[i];
                            } else {
                                margin = margin.min(d2);
                            }
                        }
                    }
                }
            } else if purity[nid as usize] != my_comp {
                // Pruned by the bound (stacked before the bound tightened,
                // or the root itself): its foreign points all sit at least
                // `bound` away.
                margin = margin.min(bound);
            }
            if sp == 0 {
                break;
            }
            sp -= 1;
            (nid, bound) = stack[sp];
        }
        work.dist_evals += evals;
        work.node_visits += visits;
        if best_p != INVALID {
            ForeignSearch::Found(best_d2, best_p)
        } else {
            ForeignSearch::Empty(margin)
        }
    }

    /// Verifies the structural invariants of the tree: `perm` is a
    /// permutation, subtree ranges are contiguous (children exactly
    /// partition their parent), cached splits separate the children, and
    /// every node's bounding box contains its points. Used by the property
    /// tests; `Err` carries a description of the first violation.
    pub fn check_invariants(&self, points: &PointSet) -> Result<(), String> {
        let n = self.perm.len();
        if points.len() != n {
            return Err(format!("tree indexes {n} points, set has {}", points.len()));
        }
        let mut seen = vec![false; n];
        for &p in &self.perm {
            let slot = seen
                .get_mut(p as usize)
                .ok_or_else(|| format!("perm entry {p} out of range"))?;
            if std::mem::replace(slot, true) {
                return Err(format!("perm entry {p} duplicated"));
            }
        }
        if self.pos.len() != n
            || self
                .perm
                .iter()
                .zip(0u32..)
                .any(|(&p, i)| self.pos[p as usize] != i)
        {
            return Err("positions are not the inverse of perm".into());
        }
        if self.start[0] != 0 || self.end[0] != n as u32 {
            return Err("root range does not cover all points".into());
        }
        let expect_lc = n.div_ceil(LEAF_BLOCK) * LEAF_BLOCK * self.dim;
        if self.leaf_coords.len() != expect_lc {
            return Err(format!(
                "leaf_coords holds {} values, expected {expect_lc}",
                self.leaf_coords.len(),
            ));
        }
        for (i, &p) in self.perm.iter().enumerate() {
            let base = (i / LEAF_BLOCK) * LEAF_BLOCK * self.dim + i % LEAF_BLOCK;
            for (d, &c) in points.point(p as usize).iter().enumerate() {
                if self.leaf_coords[base + d * LEAF_BLOCK] != c {
                    return Err(format!("leaf_coords slot {i} does not match point {p}"));
                }
            }
        }
        for nid in 0..self.n_nodes() {
            let (s, e) = (self.start[nid], self.end[nid]);
            if s > e || e > n as u32 {
                return Err(format!("node {nid} has invalid range {s}..{e}"));
            }
            // Bounding box contains every point of the subtree.
            for &p in &self.perm[s as usize..e as usize] {
                let pt = points.point(p as usize);
                for (d, &c) in pt.iter().enumerate() {
                    if c < self.bbox_min[nid * self.dim + d]
                        || c > self.bbox_max[nid * self.dim + d]
                    {
                        return Err(format!("node {nid} box does not contain point {p}"));
                    }
                }
            }
            let left = self.left[nid];
            if left == INVALID {
                continue;
            }
            let (l, r) = (left as usize, left as usize + 1);
            if r >= self.n_nodes() {
                return Err(format!("node {nid} children out of range"));
            }
            if self.start[l] != s || self.end[r] != e || self.end[l] != self.start[r] {
                return Err(format!(
                    "node {nid} children do not partition {s}..{e}: \
                     left {}..{}, right {}..{}",
                    self.start[l], self.end[l], self.start[r], self.end[r]
                ));
            }
            if self.start[l] == self.end[l] || self.start[r] == self.end[r] {
                return Err(format!("node {nid} has an empty child"));
            }
            let (sd, sv) = (self.split_dim[nid] as usize, self.split_val[nid]);
            if sd >= self.dim {
                return Err(format!("node {nid} split dim {sd} out of range"));
            }
            for &p in &self.perm[self.start[l] as usize..self.end[l] as usize] {
                if points.point(p as usize)[sd] > sv {
                    return Err(format!("node {nid} left child violates split"));
                }
            }
            for &p in &self.perm[self.start[r] as usize..self.end[r] as usize] {
                if points.point(p as usize)[sd] < sv {
                    return Err(format!("node {nid} right child violates split"));
                }
            }
        }
        Ok(())
    }

    #[inline(always)]
    fn node_box_dist2(&self, nid: usize, qp: &[f32]) -> f32 {
        point_box_dist2(
            qp,
            &self.bbox_min[nid * self.dim..(nid + 1) * self.dim],
            &self.bbox_max[nid * self.dim..(nid + 1) * self.dim],
        )
    }

    /// Node `nid`'s bounding box as `(min, max)` corners.
    #[inline(always)]
    fn node_box<D: Dim>(&self, dim: D, nid: usize) -> (&[f32], &[f32]) {
        let dim = dim.get();
        (
            &self.bbox_min[nid * dim..(nid + 1) * dim],
            &self.bbox_max[nid * dim..(nid + 1) * dim],
        )
    }

    /// Squared distance from node `nid`'s box to the box `[lo, hi]`.
    #[inline(always)]
    fn box_box_dist2<D: Dim>(&self, dim: D, nid: usize, lo: &[f32], hi: &[f32]) -> f32 {
        let (nlo, nhi) = self.node_box(dim, nid);
        box_box_dist2(dim, nlo, nhi, lo, hi)
    }
}

/// Per-lane scratch of the leaf-tiled k-NN pass.
struct LeafTile {
    /// One ascending top-k of `k` keys per query of the current leaf.
    keys: Vec<u64>,
    /// Each query's k-th distance ([`kth_d2`] of its top-k), in whole
    /// groups of [`LEAF_BLOCK`].
    kth: Vec<f32>,
    /// The current leaf's query coordinates, row-major.
    queries: Vec<f32>,
    /// The same coordinates in groups of [`LEAF_BLOCK`] queries,
    /// dimension-major within each group.
    groups: Vec<f32>,
    /// The keys of a query's own leaf, one per leaf point, before
    /// sorting.
    scratch: Vec<u64>,
    /// One decoded row, handed to the caller.
    row: Vec<(f32, u32)>,
}

impl LeafTile {
    fn new(dim: usize, k: usize) -> Self {
        let queries = DEFAULT_LEAF_SIZE.div_ceil(LEAF_BLOCK) * LEAF_BLOCK;
        Self {
            keys: Vec::with_capacity(DEFAULT_LEAF_SIZE * k),
            kth: Vec::with_capacity(queries),
            queries: Vec::with_capacity(DEFAULT_LEAF_SIZE * dim),
            groups: Vec::with_capacity(queries * dim),
            scratch: Vec::with_capacity(DEFAULT_LEAF_SIZE),
            row: Vec::with_capacity(k),
        }
    }
}

/// The inverse of the permutation `perm`.
fn invert(ctx: &ExecCtx, perm: &[u32]) -> Vec<u32> {
    let mut pos = vec![0u32; perm.len()];
    let view = UnsafeSlice::new(&mut pos);
    ctx.for_each_chunk(perm.len(), DEFAULT_GRAIN, |range| {
        for i in range {
            // SAFETY: `perm` is a permutation, so slot `perm[i]` is written
            // by this iteration alone.
            unsafe { view.write(perm[i] as usize, i as u32) };
        }
    });
    pos
}

/// Lane-local nodes of one independently built subtree.
///
/// Local id 0 mirrors the subtree's frontier root (whose global slots
/// already exist); descendants occupy ids 1.. in an order where every child
/// id is larger than its parent's, so the global splice preserves the
/// leaf-up sweep invariant.
struct SubtreeNodes {
    left: Vec<u32>,
    start: Vec<u32>,
    end: Vec<u32>,
    split_dim: Vec<u32>,
    split_val: Vec<f32>,
    /// Flat `[local_node][dim]` boxes; row 0 copies the root's known box.
    bbox_min: Vec<f32>,
    bbox_max: Vec<f32>,
    /// Levels in this subtree (1 = the root is already a leaf).
    depth: usize,
}

/// Index of the widest box side.
#[inline]
fn widest_dim(bbox_min: &[f32], bbox_max: &[f32]) -> usize {
    let mut split_dim = 0;
    let mut widest = f32::NEG_INFINITY;
    for (d, (&hi, &lo)) in bbox_max.iter().zip(bbox_min.iter()).enumerate() {
        let w = hi - lo;
        if w > widest {
            widest = w;
            split_dim = d;
        }
    }
    split_dim
}

/// Bounding box of the row-major points in `rows`, written into `lo`/`hi`.
fn scan_bbox(dim: usize, rows: &[f32], lo: &mut [f32], hi: &mut [f32]) {
    with_dim!(dim, d => scan_bbox_dim(d, rows, lo, hi))
}

#[inline(always)]
fn scan_bbox_dim<D: Dim>(dim: D, rows: &[f32], lo: &mut [f32], hi: &mut [f32]) {
    let dim = dim.get();
    let (lo, hi) = (&mut lo[..dim], &mut hi[..dim]);
    lo.fill(f32::INFINITY);
    hi.fill(f32::NEG_INFINITY);
    for row in rows.chunks_exact(dim) {
        for d in 0..dim {
            lo[d] = lo[d].min(row[d]);
            hi[d] = hi[d].max(row[d]);
        }
    }
}

/// One element of a node's partition: the coordinate along the split
/// dimension, the point index that breaks ties, and the element's row
/// before the partition.
#[derive(Clone, Copy)]
struct SplitRecord {
    key: f32,
    index: u32,
    row: u32,
}

/// Splits one node's range at its median along `split_dim` and returns the
/// median coordinate.
///
/// `perm` is the node's range of the permutation and `rows` its points'
/// coordinates in the same order. Afterwards position `len / 2` holds the
/// median under (coordinate `total_cmp`, then index), with everything
/// smaller before it and everything larger after, and `rows` follows
/// `perm`. The records compare exactly as the bare indices do under that
/// comparator, so `select_nth_unstable_by` leaves them in the order it
/// would leave the indices. `records` and `scratch` are reusable buffers.
fn split_node(
    dim: usize,
    split_dim: usize,
    perm: &mut [u32],
    rows: &mut [f32],
    records: &mut Vec<SplitRecord>,
    scratch: &mut Vec<f32>,
) -> f32 {
    with_dim!(dim, d => split_node_dim(d, split_dim, perm, rows, records, scratch))
}

#[inline(always)]
fn split_node_dim<D: Dim>(
    dim: D,
    split_dim: usize,
    perm: &mut [u32],
    rows: &mut [f32],
    records: &mut Vec<SplitRecord>,
    scratch: &mut Vec<f32>,
) -> f32 {
    let dim = dim.get();
    let mid = perm.len() / 2;
    records.clear();
    records.extend(perm.iter().zip(rows.chunks_exact(dim)).zip(0u32..).map(
        |((&index, coords), row)| SplitRecord {
            key: coords[split_dim],
            index,
            row,
        },
    ));
    records.select_nth_unstable_by(mid, |a, b| {
        a.key.total_cmp(&b.key).then(a.index.cmp(&b.index))
    });
    scratch.clear();
    scratch.extend_from_slice(rows);
    for ((slot, dst), rec) in perm
        .iter_mut()
        .zip(rows.chunks_exact_mut(dim))
        .zip(records.iter())
    {
        *slot = rec.index;
        let src = rec.row as usize * dim;
        dst.copy_from_slice(&scratch[src..src + dim]);
    }
    records[mid].key
}

/// Builds one subtree entirely within the calling lane.
///
/// `perm_sub` is the subtree's slice of the global permutation (positions
/// `gstart..gstart + perm_sub.len()`) and `rows_sub` its tree-ordered
/// coordinates; `root_bbox` is the frontier node's already-computed box.
/// Node `start`/`end` values are **global** perm positions. Deterministic:
/// splits depend only on the point set, never on lane scheduling.
fn build_subtree(
    dim: usize,
    perm_sub: &mut [u32],
    rows_sub: &mut [f32],
    gstart: u32,
    leaf_size: usize,
    root_bbox: (&[f32], &[f32]),
) -> SubtreeNodes {
    let mut nodes = SubtreeNodes {
        left: vec![INVALID],
        start: vec![gstart],
        end: vec![gstart + perm_sub.len() as u32],
        split_dim: vec![0],
        split_val: vec![0.0],
        bbox_min: root_bbox.0.to_vec(),
        bbox_max: root_bbox.1.to_vec(),
        depth: 1,
    };
    let (mut records, mut scratch) = (Vec::new(), Vec::new());
    // Explicit DFS stack of (local id, depth); ids are assigned when the
    // children are appended, so processing order never changes the layout.
    let mut stack: Vec<(u32, usize)> = vec![(0, 1)];
    while let Some((lid, d)) = stack.pop() {
        nodes.depth = nodes.depth.max(d);
        let lid = lid as usize;
        let (s, e) = (nodes.start[lid] as usize, nodes.end[lid] as usize);
        if e - s <= leaf_size {
            continue;
        }
        let split_dim = widest_dim(
            &nodes.bbox_min[lid * dim..(lid + 1) * dim],
            &nodes.bbox_max[lid * dim..(lid + 1) * dim],
        );
        let mid = (e - s) / 2;
        let (ls, le) = (s - gstart as usize, e - gstart as usize);
        let median = split_node(
            dim,
            split_dim,
            &mut perm_sub[ls..le],
            &mut rows_sub[ls * dim..le * dim],
            &mut records,
            &mut scratch,
        );
        nodes.split_dim[lid] = split_dim as u32;
        nodes.split_val[lid] = median;
        let left = nodes.left.len() as u32;
        nodes.left[lid] = left;
        for (cs, ce) in [(s, s + mid), (s + mid, e)] {
            nodes.left.push(INVALID);
            nodes.start.push(cs as u32);
            nodes.end.push(ce as u32);
            nodes.split_dim.push(0);
            nodes.split_val.push(0.0);
            let row = nodes.bbox_min.len();
            nodes
                .bbox_min
                .extend(std::iter::repeat_n(f32::INFINITY, dim));
            nodes
                .bbox_max
                .extend(std::iter::repeat_n(f32::NEG_INFINITY, dim));
            let (cls, cle) = (cs - gstart as usize, ce - gstart as usize);
            scan_bbox(
                dim,
                &rows_sub[cls * dim..cle * dim],
                &mut nodes.bbox_min[row..row + dim],
                &mut nodes.bbox_max[row..row + dim],
            );
        }
        stack.push((left, d + 1));
        stack.push((left + 1, d + 1));
    }
    nodes
}

/// An empty top-k slot: larger than every neighbour key.
const EMPTY_KEY: u64 = u64::MAX;

/// The top-k key of neighbour `p` at squared distance `d2`: the distance
/// bits above, the index below.
///
/// A squared distance is a sum of squares of differences of finite
/// coordinates: never NaN and never −0.0 (at worst +∞), so its bit pattern
/// orders exactly as its value does, and keys order neighbours by
/// `(d2, index)`. Keeping the `k` smallest keys therefore keeps exactly the
/// brute-force `(d2, index)` top-k whatever order the candidates arrive
/// in: of several points tied at the k-th distance, the smaller indices
/// stay.
#[inline(always)]
fn nn_key(d2: f32, p: u32) -> u64 {
    (u64::from(d2.to_bits()) << 32) | u64::from(p)
}

/// The squared distance of the largest key in the ascending top-k
/// `topk`: `+∞` while a slot is empty. A node, leaf or block whose squared
/// distance bound exceeds it holds nothing the top-k keeps (every key
/// there exceeds its largest); one at an equal bound may still hold a
/// smaller index. Distances are never NaN or −0.0, so comparing them as
/// floats decides exactly as comparing their keys' distance bits.
#[inline(always)]
fn kth_d2(topk: &[u64]) -> f32 {
    key_entry(topk[topk.len() - 1]).0
}

/// Whether `x[j] <= bound[j]` in any of the 8 lanes: one packed compare
/// and one mask test.
#[inline(always)]
fn any_within(x: &[f32; LEAF_BLOCK], bound: &[f32; LEAF_BLOCK]) -> bool {
    let mut any = false;
    for (&a, &b) in x.iter().zip(bound) {
        any |= a <= b;
    }
    any
}

/// The lanes `j` with `x[j] <= bound[j]`, one bit each. Callers test
/// [`any_within`] first and call this only when some lane passes: kept
/// inline, its bit packing leads the vectorizer to lay the distance
/// kernels out lane by lane, which slows every block.
#[inline(never)]
fn lanes_within(x: &[f32; LEAF_BLOCK], bound: &[f32; LEAF_BLOCK]) -> u32 {
    let mut lanes = 0u32;
    for (j, (&a, &b)) in x.iter().zip(bound).enumerate() {
        lanes |= u32::from(a <= b) << j;
    }
    lanes
}

/// `(d2, index)` of a key; an empty slot reads `(+∞, u32::MAX)`, the row
/// padding.
#[inline(always)]
fn key_entry(key: u64) -> (f32, u32) {
    if key == EMPTY_KEY {
        (f32::INFINITY, u32::MAX)
    } else {
        (f32::from_bits((key >> 32) as u32), key as u32)
    }
}

/// Offers `key` to `topk`, the smallest keys seen in ascending order (empty
/// slots hold [`EMPTY_KEY`], so the last slot is the k-th smallest key or
/// empty). A key below the last goes in at its sorted place in one
/// branch-free pass: each slot keeps the smaller of its key and the one
/// carried up from below and passes the larger on, so the keys above the
/// new one shift up one slot and the last drops out.
#[inline(always)]
fn offer(topk: &mut [u64], key: u64) {
    let last = topk.len() - 1;
    if key >= topk[last] {
        return;
    }
    let mut carry = key;
    for slot in topk.iter_mut() {
        let held = *slot;
        let (low, high) = if carry < held {
            (carry, held)
        } else {
            (held, carry)
        };
        *slot = low;
        carry = high;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Euclidean;
    use rand::prelude::*;

    fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        PointSet::new(
            (0..n * dim)
                .map(|_| rng.gen_range(-10.0..10.0f32))
                .collect(),
            dim,
        )
    }

    #[test]
    fn nearest_foreign_respects_components() {
        let ctx = ExecCtx::serial();
        let points = random_points(300, 2, 3);
        let tree = KdTree::build(&ctx, &points);
        let perm = tree.perm();
        // Components by point index: evens vs odds, labelled per position.
        let comp = TreeOrdered::from_vec(perm.iter().map(|&p| p % 2).collect());
        let mut purity = Vec::new();
        tree.component_purity_into(&ctx, &comp, &mut purity);
        let mut work = SearchWork::default();
        for q in [0u32, 7, 150] {
            let found =
                tree.nearest_foreign(&points, &Euclidean, q, &comp, &purity, &[], None, &mut work);
            let ForeignSearch::Found(d2, p) = found else {
                panic!("q={q}: an unseeded search finds a foreign point");
            };
            assert_ne!(comp[p as usize], comp[q as usize]);
            // Brute force over point indices: the (d2, index) minimum.
            let qi = perm[q as usize] as usize;
            let expect = (0..300usize)
                .filter(|&x| x % 2 != qi % 2)
                .map(|x| (points.dist2(qi, x), x as u32))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .unwrap();
            assert_eq!((d2, perm[p as usize]), expect, "q={q}");
        }
    }

    #[test]
    fn seeded_nearest_foreign_matches_unseeded() {
        let ctx = ExecCtx::serial();
        let points = random_points(500, 3, 13);
        let tree = KdTree::build(&ctx, &points);
        let by_point: Vec<u32> = (0..500).map(|p| p % 3).collect();
        let comp = tree.in_tree_order(&by_point);
        let mut purity = Vec::new();
        tree.component_purity_into(&ctx, &comp, &mut purity);
        let run = |q, seed| {
            let mut work = SearchWork::default();
            tree.nearest_foreign(&points, &Euclidean, q, &comp, &purity, &[], seed, &mut work)
        };
        for q in 0..50u32 {
            let plain = run(q, None);
            // Seed with an arbitrary valid foreign candidate (worse than
            // the optimum) and with the optimum itself.
            let any_foreign = (0..500u32)
                .find(|&p| comp[p as usize] != comp[q as usize])
                .unwrap();
            let (qi, fi) = (tree.perm()[q as usize], tree.perm()[any_foreign as usize]);
            let weak_seed = Some((points.dist2(qi as usize, fi as usize), any_foreign));
            let seeded = run(q, weak_seed);
            assert_eq!(plain, seeded, "weak seed, q={q}");
            let ForeignSearch::Found(d2, p) = plain else {
                panic!("q={q}: an unseeded search finds a foreign point");
            };
            let tight = run(q, Some((d2, p)));
            assert_eq!(plain, tight, "tight seed, q={q}");
        }
    }

    /// Checks every query of `tree` against the brute-force nearest-foreign
    /// distance D under `metric` (`by_index` is the same metric over point
    /// indices): unseeded, and with bound-only seeds at and above D, the
    /// search finds the `(d2, index)` minimum; below D it comes up empty
    /// with a margin above the bound and at most D.
    fn check_search_contract<M: TreeMetric>(
        points: &PointSet,
        tree: &KdTree,
        metric: &M,
        by_index: &dyn Fn(usize, usize) -> f32,
        node_core2: &[f32],
    ) {
        let n = points.len();
        let by_point: Vec<u32> = (0..n as u32).map(|p| p * 7 % 5).collect();
        let comp = tree.in_tree_order(&by_point);
        let mut purity = Vec::new();
        tree.component_purity_into(&ExecCtx::serial(), &comp, &mut purity);
        let perm = tree.perm();
        for q in 0..n as u32 {
            let qi = perm[q as usize] as usize;
            let (d, id) = (0..n)
                .filter(|&x| by_point[x] != by_point[qi])
                .map(|x| (by_index(qi, x), x as u32))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .unwrap();
            let found = ForeignSearch::Found(d, tree.positions()[id as usize]);
            let run = |seed| {
                let mut work = SearchWork::default();
                tree.nearest_foreign(
                    points, metric, q, &comp, &purity, node_core2, seed, &mut work,
                )
            };
            assert_eq!(run(None), found, "q={q}: unseeded");
            for b in [d, d * 1.5 + 1.0] {
                assert_eq!(run(Some((b, u32::MAX))), found, "q={q}: bound {b} >= {d}");
            }
            if d > 0.0 {
                for b in [d * 0.5, f32::from_bits(d.to_bits() - 1)] {
                    match run(Some((b, u32::MAX))) {
                        ForeignSearch::Empty(m) => {
                            assert!(b < m && m <= d, "q={q}: margin {m} for bound {b} < {d}")
                        }
                        other => panic!("q={q}: bound {b} < {d} gave {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn nearest_foreign_meets_its_contract_against_brute_force() {
        use crate::metric::{Metric, MutualReachability, TreeMutualReachability};

        let ctx = ExecCtx::serial();
        for (dim, seed) in [(2usize, 21u64), (3, 22)] {
            let points = random_points(400, dim, seed);
            let tree = KdTree::build_with_leaf_size(&ctx, &points, 8);
            let euclid = |a: usize, b: usize| points.dist2(a, b);
            check_search_contract(&points, &tree, &Euclidean, &euclid, &[]);
            // Mutual reachability, pruned by the subtree core minima.
            let core2 = crate::knn::core_distances2(&ctx, &points, &tree, 4);
            let tree_core2 = tree.in_tree_order(&core2);
            let mut node_core2 = Vec::new();
            tree.min_core2_into(&tree_core2, &mut node_core2);
            let metric = TreeMutualReachability { core2: &tree_core2 };
            let by_index = MutualReachability { core2: &core2 };
            let mreach = |a: usize, b: usize| by_index.dist2(&points, a as u32, b as u32);
            check_search_contract(&points, &tree, &metric, &mreach, &node_core2);
        }
    }

    #[test]
    fn purity_detects_uniform_subtrees() {
        let ctx = ExecCtx::serial();
        let points = random_points(100, 2, 9);
        let tree = KdTree::build(&ctx, &points);
        let comp_all_same = TreeOrdered::from_vec(vec![3u32; 100]);
        let mut purity = Vec::new();
        tree.component_purity_into(&ctx, &comp_all_same, &mut purity);
        assert!(purity.iter().all(|&p| p == 3));
        // Reuse the same buffer with a different labelling.
        let comp_mixed = TreeOrdered::from_vec((0..100u32).collect());
        tree.component_purity_into(&ctx, &comp_mixed, &mut purity);
        assert_eq!(purity[0], INVALID);
    }

    #[test]
    fn empty_and_single_point() {
        let ctx = ExecCtx::serial();
        let empty = PointSet::new(vec![], 2);
        let tree = KdTree::build(&ctx, &empty);
        assert!(tree.is_empty());
        tree.check_invariants(&empty).unwrap();
        let single = PointSet::new(vec![1.0, 2.0], 2);
        let tree = KdTree::build(&ctx, &single);
        tree.check_invariants(&single).unwrap();
    }

    #[test]
    fn duplicate_points_build_bounded_depth() {
        // All-identical coordinates: the index tie-break must still produce
        // balanced median splits (depth stays logarithmic, not linear).
        let ctx = ExecCtx::serial();
        let points = PointSet::new(vec![1.0; 4096 * 2], 2);
        let tree = KdTree::build(&ctx, &points);
        tree.check_invariants(&points).unwrap();
        assert!(tree.depth() <= 9, "depth {}", tree.depth());
    }
}
