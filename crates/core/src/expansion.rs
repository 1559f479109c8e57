//! Dendrogram expansion from the multilevel contraction (paper §3.3.2–3.3.3).
//!
//! Every edge is assigned a **chain key** identifying the dendrogram chain it
//! belongs to. For an edge `e` contracted at level ℓ we walk levels
//! m = ℓ+1, ℓ+2, …: let `sv` be the supervertex containing `e` at level m and
//! `p = maxIncident_m(sv)` the level-m dendrogram parent of the vertex-node
//! `sv`. If `index(p) < index(e)`, `e` lies in the leaf chain hanging off `p`
//! on the side of `sv` (paper: "If the α parent's index is lower, e is part
//! of an α leaf chain") — assign and stop; otherwise ascend one level. Edges
//! never assigned, and the final level's edges, form the **root chain**.
//!
//! Chains are then sorted by edge index (one radix sort over packed
//! `(chain_key, edge)` u64 keys, on the chain word only, since the edges
//! already arrive in order) and stitched: within a chain the
//! predecessor is the parent; the first edge's parent is the chain's anchor
//! edge `p`; the root chain's first edge is edge 0, the dendrogram root.

use pandora_exec::counters::RelaxedCounter;
use pandora_exec::radix::par_radix_sort_by_high_word;
use pandora_exec::trace::KernelKind;
use pandora_exec::{ExecCtx, UnsafeSlice, DEFAULT_GRAIN};

use crate::edge::INVALID;
use crate::levels::{packed_id, packed_pos, ContractionHierarchy};

/// Chain key of the root chain; sorts before every anchored chain.
const ROOT_CHAIN: u32 = 0;

/// Builds the chain key of the chain anchored at edge `p` on `side` (0 = the
/// `src` endpoint of `p`, 1 = the `dst` endpoint).
#[inline(always)]
fn chain_key(p: u32, side: u32) -> u32 {
    ((p + 1) << 1) | side
}

/// Assigns every global edge its chain key (paper §3.3.2).
///
/// Returns packed sort keys `chain_key << 32 | edge`.
pub fn assign_chain_keys(ctx: &ExecCtx, hierarchy: &ContractionHierarchy) -> Vec<u64> {
    let mut keys = Vec::new();
    assign_chain_keys_into(ctx, hierarchy, &mut keys);
    keys
}

/// [`assign_chain_keys`] into a reusable key buffer (cleared first,
/// capacity retained across runs by the dendrogram workspace).
pub fn assign_chain_keys_into(
    ctx: &ExecCtx,
    hierarchy: &ContractionHierarchy,
    keys: &mut Vec<u64>,
) {
    let n = hierarchy.edge_level.len();
    let last_level = hierarchy.n_levels() - 1;
    keys.clear();
    keys.resize(n, 0);
    let total_checks = RelaxedCounter::new();
    {
        let keys_view = UnsafeSlice::new(keys.as_mut_slice());
        let h = hierarchy;
        let checks_ref = &total_checks;
        ctx.for_each_chunk(n, DEFAULT_GRAIN / 2, |range| {
            let mut local_checks = 0u64;
            for e in range {
                let lvl = h.edge_level[e] as usize;
                let mut key = ROOT_CHAIN;
                if lvl < last_level {
                    let mut sv = h.edge_home[e];
                    for m in (lvl + 1)..=last_level {
                        local_checks += 1;
                        let packed = h.max_inc[m][sv as usize];
                        let p = packed_id(packed);
                        debug_assert_ne!(p, INVALID, "supervertex with no incident edge");
                        if (p as usize) < e {
                            let pos = packed_pos(packed) as usize;
                            // `sv` is one of p's endpoints at level m;
                            // endpoint orientation is propagated through
                            // contraction, so the side bit is stable.
                            let side = (h.trees[m].dst[pos] == sv) as u32;
                            debug_assert!(
                                side == 1 || h.trees[m].src[pos] == sv,
                                "maxIncident edge not incident to its vertex"
                            );
                            key = chain_key(p, side);
                            break;
                        }
                        if m < last_level {
                            sv = h.vertex_maps[m][sv as usize];
                        }
                    }
                }
                // SAFETY: slot e written exactly once.
                unsafe { keys_view.write(e, ((key as u64) << 32) | e as u64) };
            }
            checks_ref.add(local_checks);
        });
    }
    // The walk is gather-dominated: one random read per (edge, level) check.
    let checks = total_checks.get();
    ctx.record(KernelKind::Gather, checks, checks * 16);
}

/// The final sort of the algorithm: orders `(chain_key, edge)` pairs so each
/// chain becomes a contiguous ascending run. Counted in the paper's "sort"
/// phase (§6.4.3: sorting "includes both initial and final sort").
///
/// `keys` must arrive in ascending edge order (the low word), as
/// [`assign_chain_keys_into`] writes them. The radix then sorts the chain
/// word alone: it is stable, so each chain's edges stay ascending and the
/// result is the fully sorted `u64` order without passes over the edge
/// word.
pub fn sort_chain_keys(ctx: &ExecCtx, keys: &mut [u64]) {
    debug_assert!(
        keys.windows(2).all(|w| (w[0] as u32) < (w[1] as u32)),
        "chain keys must arrive in ascending edge order"
    );
    par_radix_sort_by_high_word(ctx, keys);
}

/// Stitches **sorted** chains into the final parent array (paper §3.3.3).
pub fn stitch_chains(ctx: &ExecCtx, n_edges: usize, keys: &[u64]) -> Vec<u32> {
    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
    let mut edge_parent = vec![INVALID; n_edges];
    {
        let parent_view = UnsafeSlice::new(&mut edge_parent);
        let keys_ref = keys;
        ctx.for_each_chunk_traced(
            n_edges,
            DEFAULT_GRAIN,
            KernelKind::Gather,
            (n_edges as u64) * 16,
            |range| {
                for i in range {
                    let packed = keys_ref[i];
                    let e = packed as u32;
                    let key = (packed >> 32) as u32;
                    let parent = if i > 0 && (keys_ref[i - 1] >> 32) as u32 == key {
                        // Predecessor in the same chain.
                        keys_ref[i - 1] as u32
                    } else if key == ROOT_CHAIN {
                        // First edge of the root chain = the global root.
                        debug_assert_eq!(e, 0, "root chain must start at edge 0");
                        INVALID
                    } else {
                        // First edge of an anchored chain: parent is the
                        // anchor edge.
                        (key >> 1) - 1
                    };
                    // SAFETY: each sorted slot i maps to a distinct edge e.
                    unsafe { parent_view.write(e as usize, parent) };
                }
            },
        );
    }
    edge_parent
}

/// Vertex-node parents: `P(v) = maxIncident(v)` on the original tree
/// (paper Eq. 1).
pub fn vertex_parents(ctx: &ExecCtx, hierarchy: &ContractionHierarchy) -> Vec<u32> {
    let mi0 = &hierarchy.max_inc[0];
    let nv = mi0.len();
    let mut vertex_parent = vec![INVALID; nv];
    {
        let view = UnsafeSlice::new(&mut vertex_parent);
        ctx.for_each_chunk_traced(
            nv,
            DEFAULT_GRAIN,
            KernelKind::For,
            (nv as u64) * 12,
            |range| {
                for v in range {
                    // SAFETY: disjoint writes.
                    unsafe { view.write(v, packed_id(mi0[v])) };
                }
            },
        );
    }
    vertex_parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::union_find::dendrogram_union_find;
    use crate::edge::{Edge, SortedMst};
    use crate::levels::build_hierarchy;
    use pandora_exec::ExecCtx;

    fn expand_all(ctx: &ExecCtx, mst: &SortedMst) -> (Vec<u32>, Vec<u32>) {
        let h = build_hierarchy(ctx, mst);
        let mut keys = assign_chain_keys(ctx, &h);
        sort_chain_keys(ctx, &mut keys);
        let edge_parent = stitch_chains(ctx, mst.n_edges(), &keys);
        let vertex_parent = vertex_parents(ctx, &h);
        (edge_parent, vertex_parent)
    }

    #[test]
    fn path_graph_expands_to_single_chain() {
        let ctx = ExecCtx::serial();
        let edges: Vec<Edge> = (0..9)
            .map(|i| Edge::new(i, i + 1, (9 - i) as f32))
            .collect();
        let mst = SortedMst::from_edges(&ctx, 10, &edges);
        let (edge_parent, vertex_parent) = expand_all(&ctx, &mst);
        assert_eq!(edge_parent[0], INVALID);
        for (e, &parent) in edge_parent.iter().enumerate().take(9).skip(1) {
            assert_eq!(parent, e as u32 - 1, "chain parent");
        }
        // Vertex 9 hangs off the lightest edge (index 8); vertex 0 off the
        // heaviest (index 0).
        assert_eq!(vertex_parent[0], 0);
        assert_eq!(vertex_parent[9], 8);
    }

    #[test]
    fn double_star_matches_union_find() {
        let ctx = ExecCtx::serial();
        let edges = vec![
            Edge::new(0, 1, 10.0),
            Edge::new(0, 2, 5.0),
            Edge::new(0, 3, 4.0),
            Edge::new(1, 4, 3.0),
            Edge::new(1, 5, 2.0),
        ];
        let mst = SortedMst::from_edges(&ctx, 6, &edges);
        let (edge_parent, vertex_parent) = expand_all(&ctx, &mst);
        let expect = dendrogram_union_find(&mst);
        assert_eq!(edge_parent, expect.edge_parent);
        assert_eq!(vertex_parent, expect.vertex_parent);
    }

    #[test]
    fn caterpillar_matches_union_find() {
        let ctx = ExecCtx::serial();
        let mst = crate::levels::tests::caterpillar_example();
        let (edge_parent, vertex_parent) = expand_all(&ctx, &mst);
        let expect = dendrogram_union_find(&mst);
        assert_eq!(edge_parent, expect.edge_parent);
        assert_eq!(vertex_parent, expect.vertex_parent);
    }

    #[test]
    fn random_trees_match_union_find() {
        use rand::prelude::*;
        let ctx = ExecCtx::serial();
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..40 {
            let n_vertices = rng.gen_range(2..200);
            let edges: Vec<Edge> = (1..n_vertices)
                .map(|v| {
                    Edge::new(
                        rng.gen_range(0..v) as u32,
                        v as u32,
                        // Duplicate weights on purpose: ties must be handled
                        // by the canonical order.
                        rng.gen_range(0..50) as f32 * 0.5,
                    )
                })
                .collect();
            let mst = SortedMst::from_edges(&ctx, n_vertices, &edges);
            let (edge_parent, vertex_parent) = expand_all(&ctx, &mst);
            let expect = dendrogram_union_find(&mst);
            assert_eq!(edge_parent, expect.edge_parent, "trial {trial}");
            assert_eq!(vertex_parent, expect.vertex_parent, "trial {trial}");
        }
    }
}
