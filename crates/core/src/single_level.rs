//! Single-level dendrogram expansion (paper §3.3.1) — the ablation PANDORA
//! improves on.
//!
//! With only **one** level of contraction, a non-α edge must find its chain
//! by *walking the α-dendrogram upwards* from the parent of its supervertex
//! until it meets an α edge heavier than itself (paper Fig. 10). The walk is
//! `O(height of the α-dendrogram)`, which is `O(n)` on skewed inputs, so the
//! whole expansion degrades to `O(n²)` worst case — exactly why §3.3.2
//! replaces the walk with `O(log n)` per-level checks. Exposed so the
//! ablation benchmark can measure the difference; results are bit-identical
//! to the multilevel algorithm.

use pandora_exec::counters::RelaxedCounter;
use pandora_exec::trace::KernelKind;
use pandora_exec::{ExecCtx, UnsafeSlice, DEFAULT_GRAIN};

use crate::dendrogram::Dendrogram;
use crate::edge::{SortedMst, INVALID};
use crate::expansion::{sort_chain_keys, stitch_chains};
use crate::levels::{contract_level, max_incident, packed_id, split_alpha, LevelTree};

/// `(parent edge position, side)` pairs for the α-dendrogram, or `NONE`.
const NONE: u32 = u32::MAX;

/// α-dendrogram with side bits, computed sequentially (Algorithm 2 +
/// child-slot bookkeeping).
struct AlphaDendrogram {
    /// Per α-edge position: parent α-edge position (`NONE` for the root).
    edge_parent_pos: Vec<u32>,
    /// Per α-edge position: which child slot of its parent it occupies
    /// (0 = `src` side, 1 = `dst` side).
    edge_side: Vec<u32>,
    /// Per supervertex: parent α-edge position.
    vertex_parent_pos: Vec<u32>,
    /// Per supervertex: child slot under its parent.
    vertex_side: Vec<u32>,
}

/// Bottom-up union–find over the α-MST, recording parent *and* side.
fn alpha_dendrogram(tree: &LevelTree) -> AlphaDendrogram {
    let n = tree.n_edges();
    let nv = tree.n_vertices;
    let mut dsu = pandora_exec::dsu::SeqDsu::new(nv);
    let mut rep_edge = vec![NONE; nv];
    let mut out = AlphaDendrogram {
        edge_parent_pos: vec![NONE; n],
        edge_side: vec![0; n],
        vertex_parent_pos: vec![NONE; nv],
        vertex_side: vec![0; nv],
    };
    for pos in (0..n).rev() {
        let (u, v) = (tree.src[pos], tree.dst[pos]);
        for (side, endpoint) in [(0u32, u), (1u32, v)] {
            let root = dsu.find(endpoint) as usize;
            let top = rep_edge[root];
            if top != NONE {
                out.edge_parent_pos[top as usize] = pos as u32;
                out.edge_side[top as usize] = side;
            } else {
                out.vertex_parent_pos[endpoint as usize] = pos as u32;
                out.vertex_side[endpoint as usize] = side;
            }
        }
        dsu.union(u, v);
        rep_edge[dsu.find(u) as usize] = pos as u32;
    }
    out
}

/// Builds the dendrogram with a single contraction level and walk-based
/// chain assignment. Bit-identical output to [`crate::pandora::dendrogram`].
pub fn dendrogram_single_level(ctx: &ExecCtx, mst: &SortedMst) -> Dendrogram {
    let n = mst.n_edges();
    let tree0 = LevelTree::from_mst(mst);
    let mi0 = max_incident(ctx, &tree0);

    // Vertex parents of the final dendrogram (Eq. 1).
    let mut vertex_parent = vec![INVALID; mst.n_vertices()];
    for (v, slot) in vertex_parent.iter_mut().enumerate() {
        *slot = packed_id(mi0[v]);
    }

    let split = split_alpha(ctx, &tree0, &mi0);
    if split.alpha.is_empty() {
        // No α edges: the dendrogram is the sorted root chain.
        let mut edge_parent = vec![INVALID; n];
        for (e, parent) in edge_parent.iter_mut().enumerate().skip(1) {
            *parent = e as u32 - 1;
        }
        return Dendrogram {
            edge_parent,
            vertex_parent,
            edge_weight: mst.weight.clone(),
        };
    }

    let step = contract_level(ctx, &tree0, &split);
    let alpha_tree = &step.next;
    let alpha = alpha_dendrogram(alpha_tree);

    // Position of each α edge in the α-MST is needed to map global ids; the
    // α-MST stores ids ascending, so position == rank.
    let ids = &alpha_tree.ids;

    // Chain keys for all edges.
    let mut keys = vec![0u64; n];
    let total_steps = RelaxedCounter::new();
    {
        let keys_view = UnsafeSlice::new(&mut keys);
        // Map global edge id → (is_alpha, alpha position | non-alpha rank).
        // split.alpha / split.non_alpha are level-0 positions == global ids.
        let mut alpha_rank = vec![NONE; n];
        for (rank, &pos) in split.alpha.iter().enumerate() {
            alpha_rank[pos as usize] = rank as u32;
        }
        let mut home_of = vec![NONE; n];
        for (k, &pos) in split.non_alpha.iter().enumerate() {
            home_of[pos as usize] = step.home[k];
        }
        let alpha_ref = &alpha;
        let steps_ref = &total_steps;
        ctx.for_each_chunk(n, DEFAULT_GRAIN / 4, |range| {
            let mut local_steps = 0u64;
            for e in range {
                let key: u32 = if alpha_rank[e] != NONE {
                    // α edge: parent straight from the α-dendrogram.
                    let pos = alpha_rank[e] as usize;
                    let ppos = alpha_ref.edge_parent_pos[pos];
                    if ppos == NONE {
                        0 // root chain
                    } else {
                        ((ids[ppos as usize] + 1) << 1) | alpha_ref.edge_side[pos]
                    }
                } else {
                    // Non-α edge: walk up from its supervertex's parent
                    // until an ancestor heavier than `e` appears (Fig. 10).
                    let sv = home_of[e] as usize;
                    let mut pos = alpha_ref.vertex_parent_pos[sv];
                    let mut side = alpha_ref.vertex_side[sv];
                    let mut key = 0u32;
                    while pos != NONE {
                        local_steps += 1;
                        let id = ids[pos as usize] as usize;
                        if id < e {
                            key = ((ids[pos as usize] + 1) << 1) | side;
                            break;
                        }
                        side = alpha_ref.edge_side[pos as usize];
                        pos = alpha_ref.edge_parent_pos[pos as usize];
                    }
                    key
                };
                // SAFETY: slot e written once.
                unsafe { keys_view.write(e, ((key as u64) << 32) | e as u64) };
            }
            steps_ref.add(local_steps);
        });
    }
    // The walk is a dendrogram traversal; traced under its own kind so the
    // tests can read the step count back.
    let steps = total_steps.get();
    ctx.record(KernelKind::TreeTraverse, steps, steps * 16);

    ctx.set_phase("sort");
    sort_chain_keys(ctx, &mut keys);
    ctx.set_phase("expansion");
    let edge_parent = stitch_chains(ctx, n, &keys);

    Dendrogram {
        edge_parent,
        vertex_parent,
        edge_weight: mst.weight.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::union_find::dendrogram_union_find;
    use crate::edge::Edge;
    use rand::prelude::*;

    /// Number of α-dendrogram walk steps the single-level expansion needs
    /// on this input.
    fn walk_steps(ctx: &ExecCtx, mst: &SortedMst) -> u64 {
        let (traced_ctx, tracer) = ctx.with_tracing();
        let _ = dendrogram_single_level(&traced_ctx, mst);
        tracer
            .snapshot()
            .events
            .iter()
            .filter(|e| e.kind == KernelKind::TreeTraverse)
            .map(|e| e.n)
            .sum()
    }

    #[test]
    fn matches_multilevel_on_random_trees() {
        let ctx = ExecCtx::serial();
        let mut rng = StdRng::seed_from_u64(71);
        for trial in 0..30 {
            let n_vertices = rng.gen_range(2..300);
            let edges: Vec<Edge> = (1..n_vertices)
                .map(|v| {
                    Edge::new(
                        rng.gen_range(0..v) as u32,
                        v as u32,
                        rng.gen_range(0..40) as f32 * 0.25,
                    )
                })
                .collect();
            let mst = SortedMst::from_edges(&ctx, n_vertices, &edges);
            let single = dendrogram_single_level(&ctx, &mst);
            let expect = dendrogram_union_find(&mst);
            assert_eq!(single, expect, "trial {trial}");
        }
    }

    #[test]
    fn chain_has_no_alpha_and_still_works() {
        let ctx = ExecCtx::serial();
        let edges: Vec<Edge> = (0..20)
            .map(|i| Edge::new(i, i + 1, (20 - i) as f32))
            .collect();
        let mst = SortedMst::from_edges(&ctx, 21, &edges);
        let single = dendrogram_single_level(&ctx, &mst);
        assert_eq!(single, dendrogram_union_find(&mst));
    }

    #[test]
    fn walk_cost_grows_with_skew() {
        // The §3.3.1 worst case: a deep chain of α edges (hub path, each hub
        // carrying a light leaf so the bridges stay α) plus a batch of
        // globally-heaviest leaves at the deepest hub. Each heavy leaf must
        // walk the whole α-dendrogram chain upward before landing in the
        // root chain — Θ(n) steps per edge. A balanced tree of the same size
        // needs O(1) steps per edge.
        let ctx = ExecCtx::serial();
        let hubs = 500usize;
        let heavies = 50usize;
        let mut edges = Vec::new();
        // Bridges h-1 → h, weights descending: the α-dendrogram is a chain.
        for h in 1..hubs {
            edges.push(Edge::new((h - 1) as u32, h as u32, 2000.0 - h as f32));
        }
        // One light leaf per hub keeps every bridge α.
        let mut next = hubs as u32;
        for h in 0..hubs {
            edges.push(Edge::new(h as u32, next, 1.0 + h as f32 * 1e-3));
            next += 1;
        }
        // Heavy leaves at the deepest hub: heavier than every bridge.
        for k in 0..heavies {
            edges.push(Edge::new((hubs - 1) as u32, next, 1e6 + k as f32));
            next += 1;
        }
        let nv = next as usize;
        let mst_skewed = SortedMst::from_edges(&ctx, nv, &edges);
        // Sanity: output still correct.
        assert_eq!(
            dendrogram_single_level(&ctx, &mst_skewed),
            dendrogram_union_find(&mst_skewed)
        );
        let steps_skewed = walk_steps(&ctx, &mst_skewed);

        let n = nv;
        let balanced: Vec<Edge> = (1..n)
            .map(|i| Edge::new((i / 2) as u32, i as u32, 1.0 / i as f32))
            .collect();
        let mst_balanced = SortedMst::from_edges(&ctx, n, &balanced);
        let steps_balanced = walk_steps(&ctx, &mst_balanced);

        // 50 heavy leaves × ~500-step walks ≫ any O(n) baseline.
        assert!(
            steps_skewed as f64 > 3.0 * steps_balanced.max(1) as f64,
            "skewed {steps_skewed} vs balanced {steps_balanced}"
        );
    }
}
