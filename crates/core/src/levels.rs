//! Level trees and the recursive tree-contraction hierarchy (paper §3.2).
//!
//! Level 0 is the input MST. Each contraction step classifies every edge of
//! the current tree as α or non-α (paper Eq. 2), contracts the non-α forest
//! with the lock-free union–find, and produces the next level's tree whose
//! vertices are the contraction components ("supervertices") and whose edges
//! are the α edges. Recursion stops when a level has no α edges; that
//! level's dendrogram is a single sorted chain.
//!
//! Edges keep their **global** index (position in the canonical
//! weight-descending order) at every level, so index comparisons are
//! meaningful across levels — the property the expansion step relies on.

use std::sync::atomic::Ordering;

use pandora_exec::atomic::as_atomic_u32;
use pandora_exec::partition::partition_indices_into;
use pandora_exec::scan::exclusive_scan_in_place;
use pandora_exec::trace::KernelKind;
use pandora_exec::{ExecCtx, ScratchPool, UnsafeSlice, DEFAULT_GRAIN};

use crate::edge::{SortedMst, INVALID};

/// A tree at one contraction level.
#[derive(Debug, Clone)]
pub struct LevelTree {
    /// Number of (super)vertices at this level.
    pub n_vertices: usize,
    /// Level-local first endpoint per edge.
    pub src: Vec<u32>,
    /// Level-local second endpoint per edge.
    pub dst: Vec<u32>,
    /// Global edge index per edge, strictly ascending.
    pub ids: Vec<u32>,
}

impl LevelTree {
    /// Number of edges at this level.
    pub fn n_edges(&self) -> usize {
        self.ids.len()
    }

    /// Level 0: the input MST with implicit global ids `0..n`.
    pub fn from_mst(mst: &SortedMst) -> Self {
        Self {
            n_vertices: mst.n_vertices(),
            src: mst.src.clone(),
            dst: mst.dst.clone(),
            ids: (0..mst.n_edges() as u32).collect(),
        }
    }
}

/// Packed `maxIncident` entry: global edge id and level-local position.
///
/// Zero means "no incident edge"; otherwise the high 32 bits hold
/// `global_id + 1` and the low 32 bits the edge's position in the level's
/// arrays. Positions are ascending in global id, so a later edge always
/// packs larger: [`max_incident_into`] keeps the last edge it stores at a
/// vertex, and that is the one with the maximum global id.
#[inline(always)]
pub fn pack_incident(global_id: u32, pos: u32) -> u64 {
    ((global_id as u64 + 1) << 32) | pos as u64
}

/// Global edge id of a packed entry ([`INVALID`] if empty).
#[inline(always)]
pub fn packed_id(packed: u64) -> u32 {
    if packed == 0 {
        INVALID
    } else {
        ((packed >> 32) - 1) as u32
    }
}

/// Level-local position of a packed entry (unspecified if empty).
#[inline(always)]
pub fn packed_pos(packed: u64) -> u32 {
    packed as u32
}

/// Computes `maxIncident(v)` for every vertex of `tree` (paper §3.1.1):
/// the incident edge with the largest global index, i.e. the lightest.
pub fn max_incident(ctx: &ExecCtx, tree: &LevelTree) -> Vec<u64> {
    let mut packed = Vec::new();
    max_incident_into(ctx, tree, &mut packed);
    packed
}

/// [`max_incident`] into a reusable buffer (cleared first, capacity
/// retained) — one table per contraction level, reused across runs by the
/// dendrogram workspace.
///
/// Edges arrive in ascending global id, so the last store to a vertex is
/// its maximum and no read-modify-write is needed. Each lane owns a
/// contiguous block of vertices, streams every edge and stores only its own
/// endpoints: the stores are disjoint and the table does not depend on the
/// lane count. The price is that every lane re-reads the level's
/// `src`/`dst`/`ids`.
pub fn max_incident_into(ctx: &ExecCtx, tree: &LevelTree, packed: &mut Vec<u64>) {
    let (n, nv) = (tree.n_edges(), tree.n_vertices);
    let (src, dst, ids) = (&tree.src[..], &tree.dst[..], &tree.ids[..]);
    // Levels within one dispatch grain stay on the calling lane, as the
    // chunked loops do; one owner's block is the whole table.
    let owners = if n <= DEFAULT_GRAIN {
        1
    } else {
        ctx.lanes().min(nv)
    };
    // An endpoint outside the owner's block goes to the owner's sink slot
    // past the table instead, so the loop has no data-dependent branch.
    // Sinks sit a cache line apart, and a line clear of the table.
    const LINE: usize = 64 / std::mem::size_of::<u64>();
    packed.clear();
    packed.resize(nv + LINE * (owners + 1), 0);
    let block = nv.div_ceil(owners);
    let view = UnsafeSlice::new(packed.as_mut_slice());
    // The table is zeroed (8 B per vertex), every owner reads 12 B per
    // edge, and the table receives 8 B per endpoint.
    ctx.for_each_block_traced(
        owners,
        n,
        KernelKind::Gather,
        (nv * 8 + owners * n * 12 + n * 16) as u64,
        |owner| {
            let lo = owner * block;
            let width = (lo + block).min(nv).saturating_sub(lo);
            if width == 0 {
                return;
            }
            let sink = nv + LINE * (owner + 1);
            for i in 0..n {
                let key = pack_incident(ids[i], i as u32);
                let (s, d) = (src[i] as usize, dst[i] as usize);
                let s = if s.wrapping_sub(lo) < width { s } else { sink };
                let d = if d.wrapping_sub(lo) < width { d } else { sink };
                // SAFETY: only this owner stores into `lo..lo + width` and
                // into its sink, and the table is read only after the
                // dispatch joins.
                unsafe {
                    view.write(s, key);
                    view.write(d, key);
                }
            }
        },
    );
    packed.truncate(nv);
}

/// How an edge-node relates to vertex-nodes in the dendrogram (paper Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeNodeKind {
    /// Two vertex children — terminates a leaf chain.
    Leaf,
    /// One vertex child — an interior chain link.
    Chain,
    /// No vertex children — both children are edge-nodes (branching point).
    Alpha,
}

/// Classifies edge `pos` of `tree` given the level's `maxIncident` table.
#[inline]
pub fn edge_node_kind(tree: &LevelTree, max_inc: &[u64], pos: usize) -> EdgeNodeKind {
    let id = tree.ids[pos];
    let vertex_children = (packed_id(max_inc[tree.src[pos] as usize]) == id) as u8
        + (packed_id(max_inc[tree.dst[pos] as usize]) == id) as u8;
    match vertex_children {
        2 => EdgeNodeKind::Leaf,
        1 => EdgeNodeKind::Chain,
        _ => EdgeNodeKind::Alpha,
    }
}

/// The α / non-α split of one level's edges (positions, ascending).
#[derive(Debug)]
pub struct AlphaSplit {
    /// Positions of α edges (paper Eq. 2).
    pub alpha: Vec<u32>,
    /// Positions of non-α (leaf and chain) edges.
    pub non_alpha: Vec<u32>,
}

/// Applies the α test (paper Eq. 2) to every edge of the level.
pub fn split_alpha(ctx: &ExecCtx, tree: &LevelTree, max_inc: &[u64]) -> AlphaSplit {
    let mut split = AlphaSplit {
        alpha: Vec::new(),
        non_alpha: Vec::new(),
    };
    split_alpha_into(ctx, tree, max_inc, &mut split, &ScratchPool::new());
    split
}

/// [`split_alpha`] into a reusable split (both index vectors cleared
/// first, capacity retained), with its per-edge marks leased from
/// `scratch`.
///
/// Every vertex marks its `maxIncident` edge, and an edge is α iff neither
/// endpoint marked it.
pub fn split_alpha_into(
    ctx: &ExecCtx,
    tree: &LevelTree,
    max_inc: &[u64],
    split: &mut AlphaSplit,
    scratch: &ScratchPool,
) {
    let (n, nv) = (tree.n_edges(), max_inc.len());
    let mut marks = scratch.take_u32();
    marks.resize(n, 0);
    {
        let view = as_atomic_u32(marks.as_mut_slice());
        // The marks are zeroed (4 B per edge); then each vertex reads 8 B
        // and stores at most 4 B.
        ctx.for_each_chunk_traced(
            nv,
            DEFAULT_GRAIN,
            KernelKind::Gather,
            (n as u64) * 4 + (nv as u64) * 12,
            |range| {
                for &packed in &max_inc[range] {
                    if packed != 0 {
                        // ORDERING: idempotent mark: both endpoints of a leaf edge may store the same 1, and the marks are read only after the dispatch joins
                        view[packed_pos(packed) as usize].store(1, Ordering::Relaxed);
                    }
                }
            },
        );
    }
    partition_indices_into(
        ctx,
        n,
        |i| marks[i] == 0,
        &mut split.alpha,
        &mut split.non_alpha,
    );
    scratch.put_u32(marks);
}

/// Output of contracting one level.
#[derive(Debug)]
pub struct ContractionStep {
    /// The next level's tree (vertices = components of the non-α forest).
    pub next: LevelTree,
    /// Maps each vertex of the contracted level to its supervertex.
    pub vertex_map: Vec<u32>,
    /// For each non-α edge (parallel to `split.non_alpha`), the supervertex
    /// it was contracted into.
    pub home: Vec<u32>,
}

/// Contracts all non-α edges of `tree` (paper §3.1.1 "Edge contraction").
pub fn contract_level(ctx: &ExecCtx, tree: &LevelTree, split: &AlphaSplit) -> ContractionStep {
    let mut scratch = ScratchPool::new();
    contract_level_into(ctx, tree, split, &mut scratch)
}

/// [`contract_level`] drawing every buffer from a [`ScratchPool`].
///
/// Transient buffers (the union–find, component labels, renumbering marks)
/// are leased and returned within this call; the vectors that escape inside
/// the returned [`ContractionStep`] are detached checkouts — callers that
/// hold the pool long-term (the dendrogram workspace) donate them back once
/// the hierarchy is dismantled, so repeat runs reuse them too.
pub fn contract_level_into(
    ctx: &ExecCtx,
    tree: &LevelTree,
    split: &AlphaSplit,
    scratch: &mut ScratchPool,
) -> ContractionStep {
    let nv = tree.n_vertices;
    let dsu = scratch.take_dsu(nv);
    {
        let (src, dst) = (&tree.src, &tree.dst);
        let non_alpha = &split.non_alpha;
        let dsu_ref = &dsu;
        ctx.for_each_chunk_traced(
            non_alpha.len(),
            DEFAULT_GRAIN / 4,
            KernelKind::DsuUnion,
            (non_alpha.len() as u64) * 16,
            |range| {
                for k in range {
                    let pos = non_alpha[k] as usize;
                    dsu_ref.union(src[pos], dst[pos]);
                }
            },
        );
    }

    // Component labels for every vertex.
    let mut labels = scratch.take_u32();
    labels.resize(nv, 0);
    {
        let labels_view = UnsafeSlice::new(labels.as_mut_slice());
        let dsu_ref = &dsu;
        ctx.for_each_chunk_traced(
            nv,
            DEFAULT_GRAIN,
            KernelKind::DsuFind,
            (nv as u64) * 8,
            |range| {
                for v in range {
                    // SAFETY: each vertex slot written exactly once.
                    unsafe { labels_view.write(v, dsu_ref.find(v as u32)) };
                }
            },
        );
    }

    // Renumber roots densely: mark → exclusive scan → gather.
    let mut mark = scratch.take_u32();
    mark.resize(nv, 0);
    {
        let mark_view = UnsafeSlice::new(mark.as_mut_slice());
        let labels_ref = &labels;
        ctx.for_each(nv, DEFAULT_GRAIN, |v| {
            // SAFETY: disjoint writes.
            unsafe { mark_view.write(v, (labels_ref[v] == v as u32) as u32) };
        });
    }
    let n_super = exclusive_scan_in_place(ctx, &mut mark) as usize;
    let mut vertex_map = scratch.detach_u32();
    vertex_map.resize(nv, 0);
    {
        let map_view = UnsafeSlice::new(vertex_map.as_mut_slice());
        let (labels_ref, mark_ref) = (&labels, &mark);
        ctx.for_each_chunk_traced(
            nv,
            DEFAULT_GRAIN,
            KernelKind::Gather,
            (nv as u64) * 12,
            |range| {
                for v in range {
                    // SAFETY: disjoint writes.
                    unsafe { map_view.write(v, mark_ref[labels_ref[v] as usize]) };
                }
            },
        );
    }

    // Build the α-MST: remap α-edge endpoints into supervertex ids.
    let na = split.alpha.len();
    let mut next_src = scratch.detach_u32();
    next_src.resize(na, 0);
    let mut next_dst = scratch.detach_u32();
    next_dst.resize(na, 0);
    let mut next_ids = scratch.detach_u32();
    next_ids.resize(na, 0);
    {
        let sv = UnsafeSlice::new(next_src.as_mut_slice());
        let dv = UnsafeSlice::new(next_dst.as_mut_slice());
        let iv = UnsafeSlice::new(next_ids.as_mut_slice());
        let (src, dst, ids) = (&tree.src, &tree.dst, &tree.ids);
        let (alpha, map) = (&split.alpha, &vertex_map);
        ctx.for_each_chunk_traced(
            na,
            DEFAULT_GRAIN,
            KernelKind::Gather,
            (na as u64) * 24,
            |range| {
                for k in range {
                    let pos = alpha[k] as usize;
                    // SAFETY: slot k is owned by iteration k.
                    unsafe {
                        sv.write(k, map[src[pos] as usize]);
                        dv.write(k, map[dst[pos] as usize]);
                        iv.write(k, ids[pos]);
                    }
                }
            },
        );
    }

    // Home supervertex of every contracted (non-α) edge.
    let nn = split.non_alpha.len();
    let mut home = scratch.detach_u32();
    home.resize(nn, 0);
    {
        let hv = UnsafeSlice::new(home.as_mut_slice());
        let (src, non_alpha, map) = (&tree.src, &split.non_alpha, &vertex_map);
        ctx.for_each_chunk_traced(
            nn,
            DEFAULT_GRAIN,
            KernelKind::Gather,
            (nn as u64) * 12,
            |range| {
                for k in range {
                    let pos = non_alpha[k] as usize;
                    // SAFETY: slot k is owned by iteration k.
                    unsafe { hv.write(k, map[src[pos] as usize]) };
                }
            },
        );
    }

    scratch.put_u32(labels);
    scratch.put_u32(mark);
    scratch.put_dsu(dsu);
    ContractionStep {
        next: LevelTree {
            n_vertices: n_super,
            src: next_src,
            dst: next_dst,
            ids: next_ids,
        },
        vertex_map,
        home,
    }
}

/// The full recursive contraction hierarchy (paper §3.2 "Multilevel tree
/// contraction") plus the per-edge bookkeeping the expansion step needs.
#[derive(Debug)]
pub struct ContractionHierarchy {
    /// `trees[ℓ]` is the tree at level ℓ; `trees.last()` has no α edges.
    pub trees: Vec<LevelTree>,
    /// `vertex_maps[ℓ]` maps level-ℓ vertices to level-(ℓ+1) supervertices
    /// (one entry per contraction, i.e. `trees.len() - 1`).
    pub vertex_maps: Vec<Vec<u32>>,
    /// `max_inc[ℓ]` is the packed `maxIncident` table of level ℓ.
    pub max_inc: Vec<Vec<u64>>,
    /// Per global edge: the level at which it was contracted
    /// (`trees.len() - 1` for edges surviving to the final level).
    pub edge_level: Vec<u32>,
    /// Per global edge: its supervertex at `edge_level + 1`
    /// ([`INVALID`] for final-level edges).
    pub edge_home: Vec<u32>,
}

impl ContractionHierarchy {
    /// Number of contraction levels (`L + 1` trees ⇒ `L` contractions).
    pub fn n_levels(&self) -> usize {
        self.trees.len()
    }

    /// α-edge count per level (edges of level ℓ+1 are the α edges of ℓ).
    pub fn alpha_counts(&self) -> Vec<usize> {
        self.trees[1..].iter().map(|t| t.n_edges()).collect()
    }

    /// Dismantles the hierarchy, donating every per-level buffer to
    /// `scratch` so the next [`build_hierarchy_into`] run over the same
    /// pool allocates nothing.
    pub fn recycle(self, scratch: &mut ScratchPool) {
        for tree in self.trees {
            scratch.give_u32(tree.src);
            scratch.give_u32(tree.dst);
            scratch.give_u32(tree.ids);
        }
        for map in self.vertex_maps {
            scratch.give_u32(map);
        }
        for mi in self.max_inc {
            scratch.give_u64(mi);
        }
        scratch.give_u32(self.edge_level);
        scratch.give_u32(self.edge_home);
    }
}

/// Builds the full hierarchy by repeated contraction.
pub fn build_hierarchy(ctx: &ExecCtx, mst: &SortedMst) -> ContractionHierarchy {
    let mut scratch = ScratchPool::new();
    build_hierarchy_into(ctx, mst, &mut scratch)
}

/// [`build_hierarchy`] drawing every level buffer from a [`ScratchPool`].
///
/// Combined with [`ContractionHierarchy::recycle`], a long-lived workspace
/// runs the whole contraction allocation-free in the steady state: level
/// trees, `maxIncident` tables, vertex maps, the α splits, the union–find
/// and the per-level scratch all come back from earlier runs.
pub fn build_hierarchy_into(
    ctx: &ExecCtx,
    mst: &SortedMst,
    scratch: &mut ScratchPool,
) -> ContractionHierarchy {
    let n_edges = mst.n_edges();
    let mut level0_src = scratch.detach_u32();
    level0_src.extend_from_slice(&mst.src);
    let mut level0_dst = scratch.detach_u32();
    level0_dst.extend_from_slice(&mst.dst);
    let mut level0_ids = scratch.detach_u32();
    level0_ids.extend(0..n_edges as u32);
    let mut trees = vec![LevelTree {
        n_vertices: mst.n_vertices(),
        src: level0_src,
        dst: level0_dst,
        ids: level0_ids,
    }];
    let mut vertex_maps = Vec::new();
    let mut max_inc = Vec::new();
    let mut edge_level = scratch.detach_u32();
    edge_level.resize(n_edges, 0);
    let mut edge_home = scratch.detach_u32();
    edge_home.resize(n_edges, INVALID);
    let mut split = AlphaSplit {
        alpha: scratch.take_u32(),
        non_alpha: scratch.take_u32(),
    };

    loop {
        let level = trees.len() - 1;
        let tree = trees.last().expect("at least one level");
        let mut mi = scratch.detach_u64();
        max_incident_into(ctx, tree, &mut mi);
        split_alpha_into(ctx, tree, &mi, &mut split, scratch);
        debug_assert!(
            tree.n_edges() == 0 || split.alpha.len() <= (tree.n_edges() - 1) / 2,
            "α-count bound n_α ≤ (n-1)/2 violated (paper §4.2)"
        );
        if split.alpha.is_empty() {
            // Final level: all remaining edges form the root chain.
            for &id in &tree.ids {
                edge_level[id as usize] = level as u32;
            }
            max_inc.push(mi);
            break;
        }
        let step = contract_level_into(ctx, tree, &split, scratch);
        {
            let el_view = UnsafeSlice::new(&mut edge_level);
            let eh_view = UnsafeSlice::new(&mut edge_home);
            let (ids, non_alpha, home) = (&tree.ids, &split.non_alpha, &step.home);
            ctx.for_each_chunk_traced(
                non_alpha.len(),
                DEFAULT_GRAIN,
                KernelKind::Gather,
                (non_alpha.len() as u64) * 16,
                |range| {
                    for k in range {
                        let id = ids[non_alpha[k] as usize] as usize;
                        // SAFETY: each global edge is contracted at exactly
                        // one level, so slot `id` is written once overall.
                        unsafe {
                            el_view.write(id, level as u32);
                            eh_view.write(id, home[k]);
                        }
                    }
                },
            );
        }
        max_inc.push(mi);
        vertex_maps.push(step.vertex_map);
        scratch.give_u32(step.home);
        trees.push(step.next);
        debug_assert!(
            trees.len() <= (n_edges + 2).ilog2() as usize + 2,
            "level count bound ⌈log2(n+1)⌉ violated (paper §4.2)"
        );
    }
    scratch.put_u32(split.alpha);
    scratch.put_u32(split.non_alpha);

    ContractionHierarchy {
        trees,
        vertex_maps,
        max_inc,
        edge_level,
        edge_home,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::edge::Edge;
    use rand::prelude::*;

    /// A 24-vertex "caterpillar of stars" exercising several contraction
    /// levels: three hubs carrying leaf fans, bridged by heavy edges, plus a
    /// tail chain — qualitatively the shape of the paper's Fig. 6a example.
    pub(crate) fn caterpillar_example() -> SortedMst {
        let mut edges = Vec::new();
        let mut w = 100.0f32;
        let mut push = |edges: &mut Vec<Edge>, u: u32, v: u32| {
            edges.push(Edge::new(u, v, w));
            w -= 1.0;
        };
        // Hub bridges (heavy → α candidates).
        push(&mut edges, 0, 1);
        push(&mut edges, 1, 2);
        // Leaf fans on each hub (lighter).
        for (hub, base) in [(0u32, 3u32), (1, 8), (2, 13)] {
            for k in 0..5u32 {
                push(&mut edges, hub, base + k);
            }
        }
        // Tail chain off the last fan leaf.
        for (a, b) in [
            (17u32, 18u32),
            (18, 19),
            (19, 20),
            (20, 21),
            (21, 22),
            (22, 23),
        ] {
            push(&mut edges, a, b);
        }
        SortedMst::from_edges(&ExecCtx::serial(), 24, &edges)
    }

    /// Path graph 0-1-2-...-k with descending weights from vertex 0.
    fn path_mst(k: usize) -> SortedMst {
        let edges: Vec<Edge> = (0..k)
            .map(|i| Edge::new(i as u32, i as u32 + 1, (k - i) as f32))
            .collect();
        SortedMst::from_edges(&ExecCtx::serial(), k + 1, &edges)
    }

    /// Star graph: vertex 0 connected to 1..=k, weights descending.
    fn star_mst(k: usize) -> SortedMst {
        let edges: Vec<Edge> = (1..=k)
            .map(|i| Edge::new(0, i as u32, (k + 1 - i) as f32))
            .collect();
        SortedMst::from_edges(&ExecCtx::serial(), k + 1, &edges)
    }

    #[test]
    fn path_has_no_alpha_edges() {
        // A path's dendrogram is one chain: every edge is maxIncident of the
        // endpoint further from the heavy end, so no edge passes the α test.
        let ctx = ExecCtx::serial();
        let mst = path_mst(10);
        let tree = LevelTree::from_mst(&mst);
        let mi = max_incident(&ctx, &tree);
        let split = split_alpha(&ctx, &tree, &mi);
        assert!(split.alpha.is_empty());
        assert_eq!(split.non_alpha.len(), 10);
    }

    #[test]
    fn star_has_no_alpha_edges() {
        // In a star every edge is maxIncident of its leaf endpoint.
        let ctx = ExecCtx::serial();
        let mst = star_mst(10);
        let tree = LevelTree::from_mst(&mst);
        let mi = max_incident(&ctx, &tree);
        let split = split_alpha(&ctx, &tree, &mi);
        assert!(split.alpha.is_empty());
    }

    #[test]
    fn max_incident_picks_lightest_edge() {
        let ctx = ExecCtx::serial();
        let mst = star_mst(5);
        let tree = LevelTree::from_mst(&mst);
        let mi = max_incident(&ctx, &tree);
        // Center vertex 0: the lightest edge has the largest index (4).
        assert_eq!(packed_id(mi[0]), 4);
        // Leaf attached by the heaviest edge (index 0) → its only edge.
        let heavy_leaf = mst.dst[0] as usize;
        assert_eq!(packed_id(mi[heavy_leaf]), 0);
    }

    #[test]
    fn double_star_has_one_alpha_edge() {
        // Two stars joined by a middle edge: the middle edge is α iff it is
        // the lightest nowhere. Build: centers 0 and 1 joined heavy, leaves
        // lighter.
        let ctx = ExecCtx::serial();
        let edges = vec![
            Edge::new(0, 1, 10.0), // joins the stars: heaviest
            Edge::new(0, 2, 5.0),
            Edge::new(0, 3, 4.0),
            Edge::new(1, 4, 3.0),
            Edge::new(1, 5, 2.0),
        ];
        let mst = SortedMst::from_edges(&ctx, 6, &edges);
        let tree = LevelTree::from_mst(&mst);
        let mi = max_incident(&ctx, &tree);
        let split = split_alpha(&ctx, &tree, &mi);
        // Edge 0 (the bridge) is not maxIncident of either center.
        assert_eq!(split.alpha, vec![0]);
        assert_eq!(edge_node_kind(&tree, &mi, 0), EdgeNodeKind::Alpha);
        // Lightest star edges are leaf/chain.
        assert_ne!(edge_node_kind(&tree, &mi, 4), EdgeNodeKind::Alpha);
    }

    #[test]
    fn contraction_merges_non_alpha_components() {
        let ctx = ExecCtx::serial();
        let edges = vec![
            Edge::new(0, 1, 10.0),
            Edge::new(0, 2, 5.0),
            Edge::new(0, 3, 4.0),
            Edge::new(1, 4, 3.0),
            Edge::new(1, 5, 2.0),
        ];
        let mst = SortedMst::from_edges(&ctx, 6, &edges);
        let tree = LevelTree::from_mst(&mst);
        let mi = max_incident(&ctx, &tree);
        let split = split_alpha(&ctx, &tree, &mi);
        let step = contract_level(&ctx, &tree, &split);
        // Two supervertices: {0,2,3} and {1,4,5}, bridged by edge 0.
        assert_eq!(step.next.n_vertices, 2);
        assert_eq!(step.next.n_edges(), 1);
        assert_eq!(step.next.ids, vec![0]);
        assert_ne!(
            step.vertex_map[0], step.vertex_map[1],
            "star centers must be in different components"
        );
        assert_eq!(step.vertex_map[0], step.vertex_map[2]);
        assert_eq!(step.vertex_map[1], step.vertex_map[4]);
    }

    #[test]
    fn hierarchy_bounds_hold_on_random_trees() {
        let ctx = ExecCtx::serial();
        let mut rng = StdRng::seed_from_u64(7);
        for n_vertices in [2usize, 3, 17, 100, 1000] {
            // Random tree: attach vertex v to a random earlier vertex.
            let edges: Vec<Edge> = (1..n_vertices)
                .map(|v| {
                    Edge::new(
                        rng.gen_range(0..v) as u32,
                        v as u32,
                        rng.gen_range(0.0..100.0f32),
                    )
                })
                .collect();
            let mst = SortedMst::from_edges(&ctx, n_vertices, &edges);
            let h = build_hierarchy(&ctx, &mst);
            let n = mst.n_edges();
            assert!(h.n_levels() <= (n + 2).ilog2() as usize + 2);
            for (l, count) in h.alpha_counts().iter().enumerate() {
                let level_edges = h.trees[l].n_edges();
                assert!(
                    level_edges == 0 || *count <= (level_edges - 1) / 2,
                    "α bound violated at level {l}"
                );
            }
            // Every edge got a level and non-final edges got homes.
            let last = h.n_levels() - 1;
            for e in 0..n {
                assert!(h.edge_level[e] as usize <= last);
                if (h.edge_level[e] as usize) < last {
                    assert_ne!(h.edge_home[e], INVALID);
                }
            }
        }
    }

    /// `maxIncident` as a plain serial loop with an explicit max.
    fn reference_max_incident(tree: &LevelTree) -> Vec<u64> {
        let mut packed = vec![0u64; tree.n_vertices];
        for i in 0..tree.n_edges() {
            let key = pack_incident(tree.ids[i], i as u32);
            for v in [tree.src[i], tree.dst[i]] {
                let slot = &mut packed[v as usize];
                *slot = (*slot).max(key);
            }
        }
        packed
    }

    /// The α test (paper Eq. 2) gathered from both endpoints, serially.
    fn reference_split(tree: &LevelTree, packed: &[u64]) -> (Vec<u32>, Vec<u32>) {
        (0..tree.n_edges() as u32).partition(|&i| {
            let (i, id) = (i as usize, tree.ids[i as usize]);
            packed_id(packed[tree.src[i] as usize]) != id
                && packed_id(packed[tree.dst[i] as usize]) != id
        })
    }

    fn level(n_vertices: usize, edges: &[Edge]) -> LevelTree {
        LevelTree::from_mst(&SortedMst::from_edges(
            &ExecCtx::serial(),
            n_vertices,
            edges,
        ))
    }

    fn random_tree(n_vertices: usize, seed: u64, weight: impl Fn(&mut StdRng) -> f32) -> Vec<Edge> {
        let mut rng = StdRng::seed_from_u64(seed);
        (1..n_vertices)
            .map(|v| Edge::new(rng.gen_range(0..v) as u32, v as u32, weight(&mut rng)))
            .collect()
    }

    /// Levels that stress the owner blocks of [`max_incident_into`]: past
    /// the dispatch grain, vertex counts that 2 and 3 lanes split unevenly,
    /// hubs at either end, and deeper levels whose global ids have gaps.
    fn kernel_cases() -> Vec<(String, LevelTree)> {
        let mut cases = vec![
            (
                "empty level".to_string(),
                LevelTree {
                    n_vertices: 1,
                    src: vec![],
                    dst: vec![],
                    ids: vec![],
                },
            ),
            (
                "fewer vertices than lanes".to_string(),
                level(2, &[Edge::new(1, 0, 1.0)]),
            ),
        ];
        for hub in [0u32, 4999] {
            let edges: Vec<Edge> = (0..5000u32)
                .filter(|&v| v != hub)
                .map(|v| Edge::new(hub, v, (v % 97) as f32))
                .collect();
            cases.push((format!("star, hub {hub}"), level(5000, &edges)));
        }
        let path: Vec<Edge> = (0..6000u32)
            .map(|v| Edge::new(v, v + 1, (6000 - v) as f32))
            .collect();
        cases.push(("path".to_string(), level(6001, &path)));
        for (nv, seed) in [
            (2049usize, 1u64),
            (2050, 2),
            (3001, 3),
            (4099, 4),
            (6007, 5),
        ] {
            let edges = random_tree(nv, seed, |rng| rng.gen_range(0.0..100.0f32));
            cases.push((format!("random, {nv} vertices"), level(nv, &edges)));
        }
        let duplicate = random_tree(5003, 6, |rng| rng.gen_range(0..4) as f32);
        cases.push(("duplicate weights".to_string(), level(5003, &duplicate)));
        let mst = SortedMst::from_edges(
            &ExecCtx::serial(),
            20_000,
            &random_tree(20_000, 7, |rng| rng.gen_range(0.0..1.0f32)),
        );
        for (l, tree) in build_hierarchy(&ExecCtx::serial(), &mst)
            .trees
            .into_iter()
            .enumerate()
        {
            cases.push((format!("hierarchy level {l}"), tree));
        }
        cases
    }

    #[test]
    fn kernels_match_a_plain_serial_loop_on_every_lane_count() {
        use pandora_exec::pool::ThreadPool;
        use std::sync::Arc;
        let cases = kernel_cases();
        let mut contexts = vec![ExecCtx::serial()];
        contexts.extend((1..=3).map(|lanes| ExecCtx::on_pool(Arc::new(ThreadPool::new(lanes)))));
        for ctx in &contexts {
            // Buffers carry stale contents and capacity between cases, as
            // they do in the workspace.
            let mut packed = vec![u64::MAX; 3];
            let mut split = AlphaSplit {
                alpha: vec![7],
                non_alpha: vec![7, 7],
            };
            let scratch = ScratchPool::new();
            for (name, tree) in &cases {
                let what = format!("{name}, {} lanes", ctx.lanes());
                max_incident_into(ctx, tree, &mut packed);
                let want = reference_max_incident(tree);
                assert_eq!(packed, want, "maxIncident: {what}");
                split_alpha_into(ctx, tree, &packed, &mut split, &scratch);
                let (alpha, non_alpha) = reference_split(tree, &want);
                assert_eq!(split.alpha, alpha, "α edges: {what}");
                assert_eq!(split.non_alpha, non_alpha, "non-α edges: {what}");
                assert_eq!(scratch.outstanding(), 0, "marks not returned: {what}");
            }
        }
    }

    #[test]
    fn caterpillar_example_tree_is_valid() {
        caterpillar_example().validate_tree().unwrap();
    }

    #[test]
    fn caterpillar_contracts_to_multiple_levels() {
        let ctx = ExecCtx::serial();
        let mst = caterpillar_example();
        let h = build_hierarchy(&ctx, &mst);
        assert!(h.n_levels() >= 2, "expected at least one contraction");
        // Level sizes strictly decrease.
        for w in h.trees.windows(2) {
            assert!(w[1].n_edges() < w[0].n_edges());
        }
    }
}
