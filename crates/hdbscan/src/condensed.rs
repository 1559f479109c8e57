//! The condensed cluster tree (HDBSCAN\* §4 of Campello et al., paper \[9\]).
//!
//! The full single-linkage dendrogram has one internal node per MST edge;
//! the condensed tree keeps only splits where **both** sides have at least
//! `min_cluster_size` points. Smaller sides "fall out" of their cluster as
//! individual points at `λ = 1/distance`; clusters are born at the λ of the
//! split that created them and die when they shrink below the threshold.
//!
//! # One record per edge-node
//!
//! [`condense`] reads the dendrogram through one 16-byte record per
//! edge-node: its two children, the number of points under it, and the
//! condensed cluster its split belongs to (or a mark that its points
//! already fell out). A child is an edge index, or a vertex id with bit 31
//! set. Two sweeps fill the records:
//!
//! 1. vertices, in ascending id, take the low child slots and count one
//!    point each;
//! 2. edges, in descending index, take the high slots and add their sizes
//!    to their parent. A child's index is larger than its parent's, so its
//!    size is final when it is added.
//!
//! A record therefore lists its vertex children first, in ascending id,
//! then its edge children, in ascending index. The top-down walk visits
//! edge-nodes in index order, emits rows in that child order and touches
//! one record per child.

use pandora_core::{Dendrogram, INVALID};

/// λ value used where a merge distance is ~0 (duplicate points).
const LAMBDA_CAP: f32 = 1.0e12;

#[inline(always)]
fn lambda_of(dist: f32) -> f32 {
    if dist <= 0.0 {
        LAMBDA_CAP
    } else {
        (1.0 / dist).min(LAMBDA_CAP)
    }
}

/// The condensed tree, stored as parallel row arrays plus per-cluster
/// metadata. Cluster ids are dense, `0` is the root cluster; children always
/// have larger ids than parents.
#[derive(Debug, Clone)]
pub struct CondensedTree {
    /// Row: the condensed cluster the child leaves / is born from.
    pub parent: Vec<u32>,
    /// Row: a point id (`< n_points`) or `n_points + cluster_id`.
    pub child: Vec<u32>,
    /// Row: λ at which the child leaves the parent.
    pub lambda: Vec<f32>,
    /// Row: number of points in the child (1 for point rows).
    pub size: Vec<u32>,
    /// Number of data points.
    pub n_points: usize,
    /// λ at which each cluster was born.
    pub cluster_birth: Vec<f32>,
    /// Parent cluster of each cluster ([`INVALID`] for the root).
    pub cluster_parent: Vec<u32>,
}

impl CondensedTree {
    /// Number of condensed clusters (including the root).
    pub fn n_clusters(&self) -> usize {
        self.cluster_birth.len()
    }

    /// Whether a row's child is a cluster (vs. a point).
    #[inline(always)]
    pub fn child_is_cluster(&self, row: usize) -> bool {
        self.child[row] as usize >= self.n_points
    }

    #[inline(always)]
    fn push_row(&mut self, parent: u32, child: u32, lambda: f32, size: u32) {
        self.parent.push(parent);
        self.child.push(child);
        self.lambda.push(lambda);
        self.size.push(size);
    }
}

/// Marks a vertex child in a [`Node`]. Vertex ids must stay below it, so
/// [`condense`] takes at most `2^31 - 1` points; a tagged id then never
/// equals the empty slot, [`INVALID`].
const VERTEX_TAG: u32 = 1 << 31;

/// [`Node::cluster`] of an edge-node whose points fell out below a split.
const ABSORBED: u32 = INVALID;

/// One edge-node as the walk in [`condense`] reads it (see the module docs).
#[derive(Clone, Copy)]
struct Node {
    /// Vertex children (tagged) in ascending id, then edge children in
    /// ascending index.
    kids: [u32; 2],
    /// Number of points under the node.
    size: u32,
    /// The condensed cluster the node's split belongs to, or [`ABSORBED`].
    cluster: u32,
}

/// One [`Node`] per edge-node, in two sweeps (see the module docs).
fn build_nodes(dendrogram: &Dendrogram) -> Vec<Node> {
    let empty = Node {
        kids: [INVALID; 2],
        size: 0,
        cluster: 0,
    };
    let mut nodes = vec![empty; dendrogram.n_edges()];
    // Vertices in ascending id take the low slots.
    for (v, &p) in dendrogram.vertex_parent.iter().enumerate() {
        let node = &mut nodes[p as usize];
        let slot = (node.kids[0] != INVALID) as usize;
        debug_assert_eq!(node.kids[slot], INVALID, "edge-node {p} is not binary");
        node.kids[slot] = v as u32 | VERTEX_TAG;
        node.size += 1;
    }
    // Edges in descending index take the high slots. A child's index is
    // larger than its parent's, so its size is final when it is added.
    for e in (1..nodes.len()).rev() {
        let size = nodes[e].size;
        let p = dendrogram.edge_parent[e];
        let node = &mut nodes[p as usize];
        let slot = (node.kids[1] == INVALID) as usize;
        debug_assert_eq!(node.kids[slot], INVALID, "edge-node {p} is not binary");
        node.kids[slot] = e as u32;
        node.size += size;
    }
    nodes
}

/// Emits every point of edge-subtree `e` as a fall-out from `cluster` at
/// `lam`, in depth-first order, and marks the subtree's edge-nodes
/// [`ABSORBED`] so the main walk skips them. `stack` is caller-owned
/// scratch: fall-outs happen once per small side, so a per-call allocation
/// would scale with the fall-out count.
fn emit_subtree(
    ct: &mut CondensedTree,
    nodes: &mut [Node],
    stack: &mut Vec<u32>,
    e: u32,
    cluster: u32,
    lam: f32,
) {
    stack.clear();
    stack.push(e);
    while let Some(cur) = stack.pop() {
        let node = &mut nodes[cur as usize];
        node.cluster = ABSORBED;
        for kid in node.kids {
            if kid & VERTEX_TAG != 0 {
                ct.push_row(cluster, kid & !VERTEX_TAG, lam, 1);
            } else {
                stack.push(kid);
            }
        }
    }
}

/// Condenses a single-linkage dendrogram.
///
/// # Panics
///
/// If the dendrogram has more than `2^31 - 1` vertices, the ids that stay
/// clear of the tag bit marking vertex children.
pub fn condense(dendrogram: &Dendrogram, min_cluster_size: usize) -> CondensedTree {
    let n_edges = dendrogram.n_edges();
    let n_points = dendrogram.n_vertices();
    assert!(
        n_points < VERTEX_TAG as usize,
        "condense takes at most 2^31 - 1 points (bit 31 tags vertex children), got {n_points}"
    );
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

    let mut nodes = build_nodes(dendrogram);

    // Root cluster: born at λ of the root edge (everything above is "all
    // points", standard convention uses the root split's λ as birth).
    ct.cluster_birth.push(lambda_of(dendrogram.edge_weight[0]));
    ct.cluster_parent.push(INVALID);

    // Walk the dendrogram top-down. A live node's `cluster` was set by its
    // parent (the root keeps the initial 0).
    let mut stack: Vec<u32> = Vec::new();
    for e in 0..n_edges {
        let Node { kids, cluster, .. } = nodes[e];
        if cluster == ABSORBED {
            continue;
        }
        let lam = lambda_of(dendrogram.edge_weight[e]);
        let size_of = |kid: u32| {
            if kid & VERTEX_TAG != 0 {
                1
            } else {
                nodes[kid as usize].size
            }
        };
        let sizes = [size_of(kids[0]), size_of(kids[1])];
        if sizes[0] >= min_sz && sizes[1] >= min_sz {
            // True split (both sides are edge-nodes, since a point is
            // smaller than `min_sz`): two new clusters are born.
            for (kid, size) in kids.into_iter().zip(sizes) {
                let new_id = ct.cluster_birth.len() as u32;
                ct.cluster_birth.push(lam);
                ct.cluster_parent.push(cluster);
                ct.push_row(cluster, n_points as u32 + new_id, lam, size);
                nodes[kid as usize].cluster = new_id;
            }
            continue;
        }
        // Vertex children fall out as single points; a big edge child
        // carries the cluster on, a small one's points fall out.
        for (kid, size) in kids.into_iter().zip(sizes) {
            if kid & VERTEX_TAG != 0 {
                ct.push_row(cluster, kid & !VERTEX_TAG, lam, 1);
            } else if size >= min_sz {
                nodes[kid as usize].cluster = cluster;
            } else {
                emit_subtree(&mut ct, &mut nodes, &mut stack, kid, cluster, lam);
            }
        }
    }
    ct
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_core::{pandora, Edge};
    use pandora_exec::ExecCtx;

    /// Two tight pairs bridged by a long edge; min_cluster_size=2 splits.
    fn two_pair_dendrogram() -> Dendrogram {
        let ctx = ExecCtx::serial();
        let edges = vec![
            Edge::new(0, 1, 0.1),
            Edge::new(2, 3, 0.2),
            Edge::new(1, 2, 10.0),
        ];
        pandora::dendrogram(&ctx, 4, &edges)
    }

    #[test]
    fn true_split_creates_two_clusters() {
        let ct = condense(&two_pair_dendrogram(), 2);
        assert_eq!(ct.n_clusters(), 3); // root + two pairs
        assert_eq!(ct.cluster_parent[1], 0);
        assert_eq!(ct.cluster_parent[2], 0);
        // Every point eventually falls out of some cluster.
        let point_rows = (0..ct.parent.len())
            .filter(|&r| !ct.child_is_cluster(r))
            .count();
        assert_eq!(point_rows, 4);
    }

    #[test]
    fn large_min_cluster_size_keeps_single_cluster() {
        let ct = condense(&two_pair_dendrogram(), 3);
        // No split survives; all 4 points fall out of the root.
        assert_eq!(ct.n_clusters(), 1);
        assert_eq!(ct.parent.len(), 4);
        assert!(ct.parent.iter().all(|&p| p == 0));
    }

    #[test]
    fn sizes_are_consistent() {
        let ct = condense(&two_pair_dendrogram(), 2);
        for row in 0..ct.parent.len() {
            if ct.child_is_cluster(row) {
                assert_eq!(ct.size[row], 2);
            } else {
                assert_eq!(ct.size[row], 1);
            }
        }
    }

    #[test]
    fn zero_distance_merges_get_capped_lambda() {
        let ctx = ExecCtx::serial();
        let edges = vec![Edge::new(0, 1, 0.0), Edge::new(1, 2, 1.0)];
        let d = pandora::dendrogram(&ctx, 3, &edges);
        let ct = condense(&d, 2);
        assert!(ct.lambda.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn single_point_tree() {
        let ctx = ExecCtx::serial();
        let d = pandora::dendrogram(&ctx, 1, &[]);
        let ct = condense(&d, 2);
        assert_eq!(ct.n_clusters(), 1);
        assert!(ct.parent.is_empty());
    }
}
