//! Mixed top-down / bottom-up dendrogram construction (paper §2.3.3,
//! after Wang et al. SIGMOD'21).
//!
//! The heaviest `fraction · n` edges are removed top-down, splitting the
//! tree into subtrees; each subtree's dendrogram is built bottom-up
//! (Algorithm 2) *in parallel*, and the removed top edges are then folded in
//! sequentially, stitching the subtree dendrograms together.
//!
//! This parallelizes well on mildly skewed inputs but inherits the
//! bottom-up pass's weakness on strongly skewed ones: one giant component
//! swallows most edges and the parallel phase collapses to one worker — the
//! imbalance PANDORA's contraction sidesteps. Kept as the intermediate
//! baseline between `UnionFind-MT` and PANDORA.

use pandora_exec::dsu::AtomicDsu;
use pandora_exec::radix::par_radix_sort_by_high_word;
use pandora_exec::trace::KernelKind;
use pandora_exec::{ExecCtx, UnsafeSlice, DEFAULT_GRAIN};

use crate::dendrogram::Dendrogram;
use crate::edge::{SortedMst, INVALID};

/// Builds the dendrogram with the mixed strategy.
///
/// `top_fraction` is the share of heaviest edges processed sequentially at
/// the end (the paper quotes "a tenth or a half"). Output is bit-identical
/// to the sequential bottom-up construction.
pub fn dendrogram_mixed(ctx: &ExecCtx, mst: &SortedMst, top_fraction: f64) -> Dendrogram {
    let n = mst.n_edges();
    let nv = mst.n_vertices();
    let mut edge_parent = vec![INVALID; n];
    let mut vertex_parent = vec![INVALID; nv];
    if n == 0 {
        return Dendrogram {
            edge_parent,
            vertex_parent,
            edge_weight: mst.weight.clone(),
        };
    }
    let k = ((n as f64 * top_fraction) as usize).clamp(1, n);

    // Phase 1: component membership of the light forest (edges k..n).
    let membership = AtomicDsu::new(nv);
    {
        let (src, dst) = (&mst.src, &mst.dst);
        let dsu_ref = &membership;
        ctx.for_each_chunk_traced(
            n - k,
            DEFAULT_GRAIN / 4,
            KernelKind::DsuUnion,
            ((n - k) as u64) * 16,
            |range| {
                for off in range {
                    let e = k + off;
                    dsu_ref.union(src[e], dst[e]);
                }
            },
        );
    }

    // Phase 2: bucket light edges by component root (radix on packed keys).
    let mut keys: Vec<u64> = Vec::with_capacity(n - k);
    for e in k..n {
        let root = membership.find(mst.src[e]) as u64;
        keys.push((root << 32) | e as u64);
    }
    // Edge ids were pushed ascending, so sorting the root word alone keeps
    // each component's edges in id order.
    par_radix_sort_by_high_word(ctx, &mut keys);

    // Segment boundaries: one segment per component.
    let mut segments: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    for i in 1..=keys.len() {
        if i == keys.len() || (keys[i] >> 32) != (keys[start] >> 32) {
            segments.push((start, i));
            start = i;
        }
    }

    // Phase 3: per-component bottom-up dendrogram, components in parallel.
    // A fresh union–find over the full vertex range; each component touches
    // only its own vertices, so the parallel writes are disjoint.
    let mut parent: Vec<u32> = (0..nv as u32).collect();
    let mut rep_edge = vec![INVALID; nv];
    {
        let parent_view = UnsafeSlice::new(&mut parent);
        let rep_view = UnsafeSlice::new(&mut rep_edge);
        let ep_view = UnsafeSlice::new(&mut edge_parent);
        let vp_view = UnsafeSlice::new(&mut vertex_parent);
        let (src, dst) = (&mst.src, &mst.dst);
        let keys_ref = &keys;
        let segments_ref = &segments;
        ctx.for_each_chunk_traced(
            segments.len(),
            1,
            KernelKind::SeqLoop,
            ((n - k) as u64) * 48,
            |range| {
                for s in range {
                    let (lo, hi) = segments_ref[s];
                    // SAFETY: this component's edges touch only its own
                    // vertices (phase-1 membership), and each edge id appears
                    // in exactly one segment, so all writes in this block are
                    // disjoint across parallel tasks.
                    unsafe {
                        // Lightest edge first: the segment is sorted by edge
                        // id ascending (heaviest first), so iterate reversed.
                        for i in (lo..hi).rev() {
                            let e = (keys_ref[i] & 0xFFFF_FFFF) as usize;
                            let (u, v) = (src[e], dst[e]);
                            for endpoint in [u, v] {
                                let root = uf_find(&parent_view, endpoint);
                                let top = rep_view.read(root as usize);
                                if top != INVALID {
                                    ep_view.write(top as usize, e as u32);
                                } else {
                                    vp_view.write(endpoint as usize, e as u32);
                                }
                            }
                            let ru = uf_find(&parent_view, u);
                            let rv = uf_find(&parent_view, v);
                            let (hi_r, lo_r) = if ru > rv { (ru, rv) } else { (rv, ru) };
                            parent_view.write(hi_r as usize, lo_r);
                            rep_view.write(lo_r as usize, e as u32);
                        }
                    }
                }
            },
        );
    }

    // Phase 4: fold the k heaviest edges in sequentially (the "top tree").
    ctx.record(KernelKind::SeqLoop, k as u64, (k as u64) * 48);
    {
        let parent_view = UnsafeSlice::new(&mut parent);
        for e in (0..k).rev() {
            let (u, v) = (mst.src[e], mst.dst[e]);
            for endpoint in [u, v] {
                // SAFETY: phase 4 is single-threaded.
                let root = unsafe { uf_find(&parent_view, endpoint) };
                let top = rep_edge[root as usize];
                if top != INVALID {
                    edge_parent[top as usize] = e as u32;
                } else {
                    vertex_parent[endpoint as usize] = e as u32;
                }
            }
            // SAFETY: still phase 4 — this loop is the only thread touching
            // the parent array, so finds and the union write cannot race.
            unsafe {
                let ru = uf_find(&parent_view, u);
                let rv = uf_find(&parent_view, v);
                let (hi_r, lo_r) = if ru > rv { (ru, rv) } else { (rv, ru) };
                parent_view.write(hi_r as usize, lo_r);
                rep_edge[lo_r as usize] = e as u32;
            }
        }
    }

    Dendrogram {
        edge_parent,
        vertex_parent,
        edge_weight: mst.weight.clone(),
    }
}

/// Path-halving find over an [`UnsafeSlice`] parent array.
///
/// # Safety
///
/// The caller must guarantee no concurrent access to any vertex reachable
/// from `x` (per-component disjointness in phase 3, single thread in 4).
#[inline]
unsafe fn uf_find(parent: &UnsafeSlice<'_, u32>, x: u32) -> u32 {
    let mut cur = x;
    loop {
        // SAFETY: `cur` is on the path from `x` to its root, which the
        // caller owns exclusively.
        let p = unsafe { parent.read(cur as usize) };
        if p == cur {
            return cur;
        }
        // SAFETY: `p` is `cur`'s parent — same caller-owned path.
        let gp = unsafe { parent.read(p as usize) };
        if gp == p {
            return p;
        }
        // SAFETY: path-halving writes only to `cur`, on the owned path.
        unsafe { parent.write(cur as usize, gp) };
        cur = gp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::union_find::dendrogram_union_find;
    use crate::edge::Edge;
    use rand::prelude::*;

    #[test]
    fn matches_bottom_up_for_all_fractions() {
        let mut rng = StdRng::seed_from_u64(55);
        for ctx in [ExecCtx::serial(), ExecCtx::threads()] {
            for trial in 0..15 {
                let n_vertices = rng.gen_range(2..400);
                let edges: Vec<Edge> = (1..n_vertices)
                    .map(|v| {
                        Edge::new(
                            rng.gen_range(0..v) as u32,
                            v as u32,
                            rng.gen_range(0..64) as f32 * 0.5,
                        )
                    })
                    .collect();
                let mst = SortedMst::from_edges(&ctx, n_vertices, &edges);
                let expect = dendrogram_union_find(&mst);
                for fraction in [0.1, 0.5, 0.99] {
                    let got = dendrogram_mixed(&ctx, &mst, fraction);
                    assert_eq!(got, expect, "trial {trial} fraction {fraction}");
                }
            }
        }
    }

    #[test]
    fn single_edge_and_chain() {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, 2, &[Edge::new(0, 1, 1.0)]);
        assert_eq!(
            dendrogram_mixed(&ctx, &mst, 0.1),
            dendrogram_union_find(&mst)
        );
        let chain: Vec<Edge> = (0..50)
            .map(|i| Edge::new(i, i + 1, (50 - i) as f32))
            .collect();
        let mst = SortedMst::from_edges(&ctx, 51, &chain);
        assert_eq!(
            dendrogram_mixed(&ctx, &mst, 0.1),
            dendrogram_union_find(&mst)
        );
    }
}
