//! Test-only references for the HDBSCAN\* extraction
//! (`extraction_differential.rs`): a condense walk that reads the
//! dendrogram through `Dendrogram::edge_children`, a vertex-children array
//! and `Dendrogram::cluster_sizes`, and a cluster selection that sums child
//! totals from per-cluster child vectors. They share no code with the
//! library's record-based walk and list-free selection, which must match
//! them bit for bit.

use pandora::core::{Dendrogram, INVALID};
use pandora::hdbscan::CondensedTree;

/// λ value used where a merge distance is ~0 (duplicate points).
const LAMBDA_CAP: f32 = 1.0e12;

fn lambda_of(dist: f32) -> f32 {
    if dist <= 0.0 {
        LAMBDA_CAP
    } else {
        (1.0 / dist).min(LAMBDA_CAP)
    }
}

/// The condense walk over separate child, size and mark arrays.
pub fn reference_condense(dendrogram: &Dendrogram, min_cluster_size: usize) -> CondensedTree {
    let n_edges = dendrogram.n_edges();
    let n_points = dendrogram.n_vertices();
    let min_sz = min_cluster_size.max(2) as u32;

    // Every point eventually falls out of exactly one cluster, plus a few
    // cluster rows: n_points + slack is the natural row capacity (grown-
    // from-zero rows would pay ~log n reallocations per array instead).
    let row_cap = n_points + 16;
    let mut ct = CondensedTree {
        parent: Vec::with_capacity(row_cap),
        child: Vec::with_capacity(row_cap),
        lambda: Vec::with_capacity(row_cap),
        size: Vec::with_capacity(row_cap),
        n_points,
        cluster_birth: Vec::new(),
        cluster_parent: Vec::new(),
    };
    if n_edges == 0 {
        // Single point: one root cluster, no rows.
        ct.cluster_birth.push(0.0);
        ct.cluster_parent.push(INVALID);
        return ct;
    }

    // Children of each edge node: up to two edges + up to two vertices.
    let edge_children = dendrogram.edge_children();
    let mut vertex_children: Vec<[u32; 2]> = vec![[INVALID; 2]; n_edges];
    for (v, &p) in dendrogram.vertex_parent.iter().enumerate() {
        let slot = &mut vertex_children[p as usize];
        if slot[0] == INVALID {
            slot[0] = v as u32;
        } else {
            debug_assert_eq!(slot[1], INVALID);
            slot[1] = v as u32;
        }
    }
    let sizes = dendrogram.cluster_sizes();

    // Root cluster: born at λ of the root edge (everything above is "all
    // points", standard convention uses the root split's λ as birth).
    ct.cluster_birth.push(lambda_of(dendrogram.edge_weight[0]));
    ct.cluster_parent.push(INVALID);

    // Emit all points of edge-subtree `e` as fall-outs from `cluster` at λ,
    // marking the subtree's edges so the main walk does not revisit them.
    // `stack` is caller-owned scratch: fall-outs happen once per small
    // side, so a per-call allocation would scale with the fall-out count.
    #[expect(
        clippy::too_many_arguments,
        reason = "the walk's state, passed explicitly"
    )]
    fn emit_subtree(
        ct: &mut CondensedTree,
        vertex_children: &[[u32; 2]],
        edge_children: &[[u32; 2]],
        absorbed: &mut [bool],
        stack: &mut Vec<u32>,
        e: u32,
        cluster: u32,
        lam: f32,
    ) {
        stack.clear();
        stack.push(e);
        while let Some(cur) = stack.pop() {
            absorbed[cur as usize] = true;
            for v in vertex_children[cur as usize] {
                if v != INVALID {
                    ct.parent.push(cluster);
                    ct.child.push(v);
                    ct.lambda.push(lam);
                    ct.size.push(1);
                }
            }
            for c in edge_children[cur as usize] {
                if c != INVALID {
                    stack.push(c);
                }
            }
        }
    }

    // Walk the dendrogram top-down; `cluster_of[e]` = the condensed cluster
    // edge-node `e`'s split belongs to.
    let mut cluster_of = vec![0u32; n_edges];
    let mut absorbed = vec![false; n_edges];
    let mut stack: Vec<u32> = Vec::new();
    for e in 0..n_edges as u32 {
        if absorbed[e as usize] {
            continue;
        }
        let cluster = cluster_of[e as usize];
        let lam = lambda_of(dendrogram.edge_weight[e as usize]);

        // Vertex children always fall out as single points.
        for v in vertex_children[e as usize] {
            if v != INVALID {
                ct.parent.push(cluster);
                ct.child.push(v);
                ct.lambda.push(lam);
                ct.size.push(1);
            }
        }

        let kids = edge_children[e as usize];
        let (c1, c2) = (kids[0], kids[1]);
        match (c1 != INVALID, c2 != INVALID) {
            (false, false) => {} // leaf edge: both children were vertices
            (true, false) | (false, true) => {
                // One edge child: the cluster continues through it if it is
                // still large enough; otherwise its points fall out.
                let c = if c1 != INVALID { c1 } else { c2 };
                if sizes[c as usize] >= min_sz {
                    cluster_of[c as usize] = cluster;
                } else {
                    emit_subtree(
                        &mut ct,
                        &vertex_children,
                        &edge_children,
                        &mut absorbed,
                        &mut stack,
                        c,
                        cluster,
                        lam,
                    );
                }
            }
            (true, true) => {
                let (s1, s2) = (sizes[c1 as usize], sizes[c2 as usize]);
                let big1 = s1 >= min_sz;
                let big2 = s2 >= min_sz;
                if big1 && big2 {
                    // True split: two new clusters are born.
                    for (c, s) in [(c1, s1), (c2, s2)] {
                        let new_id = ct.cluster_birth.len() as u32;
                        ct.cluster_birth.push(lam);
                        ct.cluster_parent.push(cluster);
                        ct.parent.push(cluster);
                        ct.child.push(n_points as u32 + new_id);
                        ct.lambda.push(lam);
                        ct.size.push(s);
                        cluster_of[c as usize] = new_id;
                    }
                } else {
                    // Small sides fall out; a single big side continues.
                    for (c, big) in [(c1, big1), (c2, big2)] {
                        if big {
                            cluster_of[c as usize] = cluster;
                        } else {
                            emit_subtree(
                                &mut ct,
                                &vertex_children,
                                &edge_children,
                                &mut absorbed,
                                &mut stack,
                                c,
                                cluster,
                                lam,
                            );
                        }
                    }
                }
            }
        }
    }
    ct
}

/// The excess-of-mass selection with an explicit child list per cluster.
pub fn reference_select_clusters(
    ct: &CondensedTree,
    stability: &[f64],
    allow_single_cluster: bool,
) -> Vec<bool> {
    let k = ct.n_clusters();
    let mut selected = vec![false; k];
    if k == 0 {
        return selected;
    }
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); k];
    for c in 1..k {
        let p = ct.cluster_parent[c];
        assert_ne!(p, INVALID);
        children[p as usize].push(c as u32);
    }
    // Bottom-up DP: children have larger ids than parents.
    let mut subtree = vec![0.0f64; k];
    for c in (0..k).rev() {
        let kids = &children[c];
        if kids.is_empty() {
            selected[c] = true;
            subtree[c] = stability[c];
            continue;
        }
        let kids_total: f64 = kids.iter().map(|&ch| subtree[ch as usize]).sum();
        let may_select = c != 0 || allow_single_cluster;
        if may_select && stability[c] > kids_total {
            selected[c] = true;
            subtree[c] = stability[c];
        } else {
            selected[c] = false;
            subtree[c] = kids_total.max(if may_select { stability[c] } else { 0.0 });
        }
    }
    if !allow_single_cluster {
        selected[0] = false;
    }
    // Enforce the antichain: deselect descendants of selected clusters.
    let mut covered = vec![false; k];
    for c in 1..k {
        let p = ct.cluster_parent[c] as usize;
        covered[c] = covered[p] || selected[p];
        if covered[c] {
            selected[c] = false;
        }
    }
    selected
}
