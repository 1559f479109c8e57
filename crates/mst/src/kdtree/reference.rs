//! The kd-tree build as it was before it moved to tree-ordered
//! coordinates: every partition comparison gathers `points.point(i)`
//! through `perm`, and every child box is rescanned through `perm`. Kept
//! only as the oracle of the identity test below, which requires the
//! current build to produce the same tree array for array.

use pandora_exec::{ExecCtx, UnsafeSlice, DEFAULT_GRAIN};

use super::{widest_dim, KdTree, SubtreeNodes, BUILD_SPLIT_TARGET, INVALID, MAX_STACK};
use crate::metric::LEAF_BLOCK;
use crate::point::PointSet;

/// The gathering build of [`KdTree::build_with_leaf_size`].
pub(super) fn build(ctx: &ExecCtx, points: &PointSet, leaf_size: usize) -> KdTree {
    let n = points.len();
    let dim = points.dim();
    let leaf_size = leaf_size.max(1);

    let mut tree = KdTree {
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
    scan_bbox(
        points,
        &tree.perm,
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
        && frontier
            .iter()
            .any(|&nid| (tree.end[nid as usize] - tree.start[nid as usize]) as usize > leaf_size)
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
                // disjoint; each node's split/box slots are owned by the
                // task splitting that node.
                let range = unsafe { perm_view.slice_mut(s..e) };
                range.select_nth_unstable_by(mid, |&a, &b| {
                    let ca = points.point(a as usize)[split_dim];
                    let cb = points.point(b as usize)[split_dim];
                    ca.total_cmp(&cb).then(a.cmp(&b))
                });
                let median = points.point(range[mid] as usize)[split_dim];
                // SAFETY: node `nid` appears once in the frontier, so its
                // split-dim/value slots are written by this task alone.
                unsafe {
                    sdim_view.write(nid, split_dim as u32);
                    sval_view.write(nid, median);
                }
                let left = left_ref[nid] as usize;
                for (child, (cs, ce)) in [(left, (s, s + mid)), (left + 1, (s + mid, e))] {
                    // SAFETY: both children were allocated this level for
                    // `nid` alone, so their bbox rows and disjoint halves
                    // of the perm range are owned by this task.
                    unsafe {
                        scan_bbox(
                            points,
                            &*perm_view.slice_mut(cs..ce),
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
    // subtree's `perm` range and its own `subtrees[fi]` slot.
    let n_top = tree.left.len();
    let mut subtrees: Vec<Option<SubtreeNodes>> = (0..frontier.len()).map(|_| None).collect();
    {
        let sub_view = UnsafeSlice::new(&mut subtrees);
        let perm_view = UnsafeSlice::new(&mut tree.perm);
        let (start_ref, end_ref, frontier_ref) = (&tree.start, &tree.end, &frontier);
        let (bmin, bmax) = (&tree.bbox_min, &tree.bbox_max);
        ctx.for_each_chunk(frontier.len(), 1, |range| {
            for fi in range {
                let nid = frontier_ref[fi] as usize;
                let (s, e) = (start_ref[nid] as usize, end_ref[nid] as usize);
                // SAFETY: subtree ranges of distinct frontier nodes are
                // disjoint, and slot `fi` is owned by this task.
                let perm_sub = unsafe { perm_view.slice_mut(s..e) };
                let built = build_subtree(
                    points,
                    perm_sub,
                    s as u32,
                    leaf_size,
                    (
                        &bmin[nid * dim..(nid + 1) * dim],
                        &bmax[nid * dim..(nid + 1) * dim],
                    ),
                );
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

    // Phase 4 (parallel): gather coordinates into perm order, AoSoA
    // blocks of LEAF_BLOCK points, so leaf scans stream whole blocks
    // through the 8-wide distance kernel.
    let n_blocks = n.div_ceil(LEAF_BLOCK);
    tree.leaf_coords = vec![0.0f32; n_blocks * LEAF_BLOCK * dim];
    {
        let lc = UnsafeSlice::new(&mut tree.leaf_coords);
        let perm_ref = &tree.perm;
        ctx.for_each_chunk(n_blocks, (DEFAULT_GRAIN / LEAF_BLOCK).max(1), |range| {
            for b in range {
                let base = b * LEAF_BLOCK * dim;
                let lo = b * LEAF_BLOCK;
                let hi = (lo + LEAF_BLOCK).min(n);
                for (j, &p) in perm_ref[lo..hi].iter().enumerate() {
                    let pt = points.point(p as usize);
                    for (d, &c) in pt.iter().enumerate() {
                        // SAFETY: block b is owned by this iteration.
                        unsafe { lc.write(base + d * LEAF_BLOCK + j, c) };
                    }
                }
            }
        });
    }
    tree.pos = super::invert(ctx, &tree.perm);
    tree
}

/// Bounding box of the points listed in `perm`, written into `lo`/`hi`.
fn scan_bbox(points: &PointSet, perm: &[u32], lo: &mut [f32], hi: &mut [f32]) {
    lo.fill(f32::INFINITY);
    hi.fill(f32::NEG_INFINITY);
    for &p in perm {
        for (d, &c) in points.point(p as usize).iter().enumerate() {
            lo[d] = lo[d].min(c);
            hi[d] = hi[d].max(c);
        }
    }
}

/// Builds one subtree entirely within the calling lane.
///
/// `perm_sub` is the subtree's slice of the global permutation (positions
/// `gstart..gstart + perm_sub.len()`); `root_bbox` is the frontier node's
/// already-computed box. Node `start`/`end` values are **global** perm
/// positions. Deterministic: splits depend only on the point set, never on
/// lane scheduling.
fn build_subtree(
    points: &PointSet,
    perm_sub: &mut [u32],
    gstart: u32,
    leaf_size: usize,
    root_bbox: (&[f32], &[f32]),
) -> SubtreeNodes {
    let dim = points.dim();
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
        let range = &mut perm_sub[s - gstart as usize..e - gstart as usize];
        range.select_nth_unstable_by(mid, |&a, &b| {
            let ca = points.point(a as usize)[split_dim];
            let cb = points.point(b as usize)[split_dim];
            ca.total_cmp(&cb).then(a.cmp(&b))
        });
        let median = points.point(range[mid] as usize)[split_dim];
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
            scan_bbox(
                points,
                &perm_sub[cs - gstart as usize..ce - gstart as usize],
                &mut nodes.bbox_min[row..row + dim],
                &mut nodes.bbox_max[row..row + dim],
            );
        }
        stack.push((left, d + 1));
        stack.push((left + 1, d + 1));
    }
    nodes
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pandora_exec::pool::ThreadPool;
    use rand::prelude::*;

    use super::*;
    use crate::kdtree::DEFAULT_LEAF_SIZE;

    /// `n` points in `dim` dimensions; with `dup`, every coordinate comes
    /// from a four-value alphabet, so most points coincide with others.
    fn points(n: usize, dim: usize, dup: bool, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let coords = (0..n * dim)
            .map(|_| {
                if dup {
                    rng.gen_range(0..4u32) as f32 * 0.5
                } else {
                    rng.gen_range(-10.0..10.0f32)
                }
            })
            .collect();
        PointSet::new(coords, dim)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_tree(got: &KdTree, want: &KdTree, what: &str) {
        assert_eq!(got.dim, want.dim, "{what}: dim");
        assert_eq!(got.perm, want.perm, "{what}: perm");
        assert_eq!(got.pos, want.pos, "{what}: pos");
        assert_eq!(got.left, want.left, "{what}: left");
        assert_eq!(got.start, want.start, "{what}: start");
        assert_eq!(got.end, want.end, "{what}: end");
        assert_eq!(got.split_dim, want.split_dim, "{what}: split_dim");
        assert_eq!(
            bits(&got.split_val),
            bits(&want.split_val),
            "{what}: split_val"
        );
        assert_eq!(
            bits(&got.bbox_min),
            bits(&want.bbox_min),
            "{what}: bbox_min"
        );
        assert_eq!(
            bits(&got.bbox_max),
            bits(&want.bbox_max),
            "{what}: bbox_max"
        );
        assert_eq!(
            bits(&got.leaf_coords),
            bits(&want.leaf_coords),
            "{what}: leaf_coords"
        );
        assert_eq!(got.depth, want.depth, "{what}: depth");
    }

    #[test]
    fn build_on_tree_ordered_coordinates_matches_the_gathering_build() {
        let mut contexts = vec![("serial", ExecCtx::serial())];
        for lanes in [1usize, 2, 3] {
            let ctx = ExecCtx::on_pool(Arc::new(ThreadPool::new(lanes)));
            contexts.push((["pool1", "pool2", "pool3"][lanes - 1], ctx));
        }
        for dim in [1usize, 2, 3, 5] {
            for n in [0usize, 1, 2, 33, 5_000, 100_000] {
                for dup in [false, true] {
                    let points = points(n, dim, dup, (n * 10 + dim) as u64);
                    let leaf_sizes: &[usize] = if n <= 5_000 {
                        &[1, 4, DEFAULT_LEAF_SIZE]
                    } else {
                        &[DEFAULT_LEAF_SIZE]
                    };
                    for &leaf_size in leaf_sizes {
                        let want = build(&ExecCtx::serial(), &points, leaf_size);
                        for (name, ctx) in &contexts {
                            let got = KdTree::build_with_leaf_size(ctx, &points, leaf_size);
                            let what = format!("dim={dim} n={n} dup={dup} leaf={leaf_size} {name}");
                            assert_same_tree(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }
}
