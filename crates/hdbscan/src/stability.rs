//! Cluster stability and flat-cluster extraction (Excess of Mass).
//!
//! Stability of a condensed cluster `C` is
//! `σ(C) = Σ_{p ∈ C} (λ_p(C) − λ_birth(C))` — every condensed-tree row
//! contributes `(λ_row − λ_birth(parent)) · size_row`. The optimal flat
//! clustering selects the antichain of clusters maximizing total stability
//! (Campello et al., the paper's \[9\]); the classic bottom-up dynamic program
//! computes it in one pass.

use pandora_core::INVALID;

use crate::condensed::CondensedTree;

/// Stability `σ(C)` of every condensed cluster.
pub fn cluster_stabilities(ct: &CondensedTree) -> Vec<f64> {
    let mut stability = vec![0.0f64; ct.n_clusters()];
    for row in 0..ct.parent.len() {
        let c = ct.parent[row] as usize;
        let contribution =
            (ct.lambda[row] as f64 - ct.cluster_birth[c] as f64) * ct.size[row] as f64;
        // λ rows can never precede the birth of their cluster, but guard
        // against tiny negative noise from f32 rounding.
        stability[c] += contribution.max(0.0);
    }
    stability
}

/// Selects the stability-optimal antichain of clusters.
///
/// Returns a boolean per cluster. With `allow_single_cluster = false`
/// (HDBSCAN\*'s default) the root is never selected.
pub fn select_clusters(
    ct: &CondensedTree,
    stability: &[f64],
    allow_single_cluster: bool,
) -> Vec<bool> {
    let k = ct.n_clusters();
    let mut selected = vec![false; k];
    if k == 0 {
        return selected;
    }
    // Bottom-up DP over descending ids: children have larger ids than
    // parents, so when the walk reaches `c`, `kids_total[c]` holds the sum
    // of its children's subtree totals and `has_kids[c]` says whether it
    // has any. That sum is exact whatever the order: a condensed cluster
    // has 0 or 2 children, because clusters are born in pairs and a
    // cluster splits at most once, so it is one IEEE addition, which is
    // commutative. Starting from -0.0, the additive identity, keeps it
    // bit-equal to summing the two children in ascending order.
    let mut kids_total = vec![-0.0f64; k];
    let mut has_kids = vec![false; k];
    for c in (0..k).rev() {
        let subtree = if !has_kids[c] {
            selected[c] = true;
            stability[c]
        } else {
            let may_select = c != 0 || allow_single_cluster;
            if may_select && stability[c] > kids_total[c] {
                selected[c] = true;
                stability[c]
            } else {
                kids_total[c].max(if may_select { stability[c] } else { 0.0 })
            }
        };
        if c > 0 {
            let p = ct.cluster_parent[c];
            debug_assert_ne!(p, INVALID);
            kids_total[p as usize] += subtree;
            has_kids[p as usize] = true;
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

/// Flat labels and membership probabilities from a cluster selection.
///
/// Labels are dense `0..k` over selected clusters (ordered by cluster id);
/// unclustered points get `-1` (noise). Probability is
/// `λ_p / λ_max(cluster)`, the standard HDBSCAN\* membership strength.
pub fn extract_labels(ct: &CondensedTree, selected: &[bool]) -> (Vec<i32>, Vec<f32>) {
    let k = ct.n_clusters();
    // Map each cluster to its nearest selected ancestor-or-self.
    let mut owner = vec![-1i32; k];
    let mut label_of = vec![-1i32; k];
    let mut next_label = 0i32;
    for c in 0..k {
        if selected[c] {
            label_of[c] = next_label;
            next_label += 1;
            owner[c] = label_of[c];
        } else if c > 0 {
            owner[c] = owner[ct.cluster_parent[c] as usize];
        }
    }
    // λ_max per selected label (for probabilities).
    let mut lambda_max = vec![0.0f32; next_label.max(0) as usize];
    for row in 0..ct.parent.len() {
        if !ct.child_is_cluster(row) {
            let lbl = owner[ct.parent[row] as usize];
            if lbl >= 0 {
                let slot = &mut lambda_max[lbl as usize];
                *slot = slot.max(ct.lambda[row]);
            }
        }
    }
    let mut labels = vec![-1i32; ct.n_points];
    let mut probabilities = vec![0.0f32; ct.n_points];
    for row in 0..ct.parent.len() {
        if ct.child_is_cluster(row) {
            continue;
        }
        let point = ct.child[row] as usize;
        let lbl = owner[ct.parent[row] as usize];
        labels[point] = lbl;
        if lbl >= 0 {
            let lm = lambda_max[lbl as usize];
            probabilities[point] = if lm > 0.0 {
                (ct.lambda[row] / lm).clamp(0.0, 1.0)
            } else {
                1.0
            };
        }
    }
    (labels, probabilities)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condensed::condense;
    use pandora_core::{pandora, Edge};
    use pandora_exec::ExecCtx;

    /// Two tight pairs bridged by a long edge.
    fn two_pair_tree() -> CondensedTree {
        let ctx = ExecCtx::serial();
        let edges = vec![
            Edge::new(0, 1, 0.1),
            Edge::new(2, 3, 0.2),
            Edge::new(1, 2, 10.0),
        ];
        let d = pandora::dendrogram(&ctx, 4, &edges);
        condense(&d, 2)
    }

    #[test]
    fn pairs_are_selected_over_root() {
        let ct = two_pair_tree();
        let stab = cluster_stabilities(&ct);
        let selected = select_clusters(&ct, &stab, false);
        assert_eq!(selected, vec![false, true, true]);
        let (labels, probs) = extract_labels(&ct, &selected);
        assert_eq!(labels.iter().filter(|&&l| l == -1).count(), 0);
        // Pair {0,1} and pair {2,3} get different labels.
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn no_split_means_all_noise_without_single_cluster() {
        let ctx = ExecCtx::serial();
        // A chain with uniform spacing: no dense substructure of size ≥ 3.
        let edges = vec![
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 1.0),
            Edge::new(2, 3, 1.0),
        ];
        let d = pandora::dendrogram(&ctx, 4, &edges);
        let ct = condense(&d, 3);
        let stab = cluster_stabilities(&ct);
        let selected = select_clusters(&ct, &stab, false);
        assert!(selected.iter().all(|&s| !s));
        let (labels, _) = extract_labels(&ct, &selected);
        assert!(labels.iter().all(|&l| l == -1));
    }

    #[test]
    fn allow_single_cluster_labels_everything() {
        let ctx = ExecCtx::serial();
        let edges = vec![
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 1.0),
            Edge::new(2, 3, 1.0),
        ];
        let d = pandora::dendrogram(&ctx, 4, &edges);
        let ct = condense(&d, 3);
        let stab = cluster_stabilities(&ct);
        let selected = select_clusters(&ct, &stab, true);
        assert_eq!(selected, vec![true]);
        let (labels, _) = extract_labels(&ct, &selected);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn stabilities_are_nonnegative() {
        let ct = two_pair_tree();
        assert!(cluster_stabilities(&ct).iter().all(|&s| s >= 0.0));
    }
}
