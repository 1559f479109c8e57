//! The extraction differential suite: `condense`, `cluster_stabilities`,
//! `select_clusters`, `extract_labels` and `glosh_scores` must equal the
//! test-only references in `tests/common/extraction.rs` bit for bit — every
//! condensed-tree array (`f32` by bits), the stabilities (`f64` by bits),
//! the selection, the labels, the probabilities and the GLOSH scores.
//!
//! The grid: every `SHAPES` tree × every `WeightMode` (including
//! `AllEqual` and `Signed` with ±0) × `min_cluster_size ∈ {2, 3, 5, 17, n}`
//! × `allow_single_cluster ∈ {false, true}`, on α-contraction dendrograms
//! built under a serial and a threaded context. It also checks the
//! invariant `select_clusters` relies on: every condensed cluster has 0 or
//! 2 children.
//!
//! CI also runs it in release, where the library's `debug_assert!`s are
//! compiled out, so the code is checked as it ships.

mod common;

use common::extraction::{reference_condense, reference_select_clusters};
use common::{tree_case, WeightMode, SHAPES};

use pandora::core::{dendrogram_from_sorted_with, DendrogramWorkspace, SortedMst};
use pandora::exec::ExecCtx;
use pandora::hdbscan::{
    cluster_stabilities, condense, extract_labels, glosh_scores, select_clusters, CondensedTree,
};

fn contexts() -> [(&'static str, ExecCtx); 2] {
    [
        ("serial", ExecCtx::serial()),
        ("threads", ExecCtx::threads()),
    ]
}

/// Tree sizes per shape: the tiny shape covers the empty, single-vertex
/// and single-edge trees; 5000 vertices are past the dispatch grain, so the
/// threaded dendrogram kernels really split their work.
fn sizes(shape: &str) -> &'static [usize] {
    if shape == "tiny" {
        &[0, 1, 2]
    } else {
        &[300, 5000]
    }
}

fn f32_bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn f64_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_condensed_identical(got: &CondensedTree, want: &CondensedTree, what: &str) {
    assert_eq!(got.n_points, want.n_points, "n_points: {what}");
    assert_eq!(got.parent, want.parent, "row parent: {what}");
    assert_eq!(got.child, want.child, "row child: {what}");
    assert_eq!(
        f32_bits(&got.lambda),
        f32_bits(&want.lambda),
        "row lambda: {what}"
    );
    assert_eq!(got.size, want.size, "row size: {what}");
    assert_eq!(
        f32_bits(&got.cluster_birth),
        f32_bits(&want.cluster_birth),
        "cluster birth: {what}"
    );
    assert_eq!(
        got.cluster_parent, want.cluster_parent,
        "cluster parent: {what}"
    );
}

/// Clusters are born in pairs and split at most once.
fn assert_zero_or_two_children(ct: &CondensedTree, what: &str) {
    let mut children = vec![0u32; ct.n_clusters()];
    for &p in &ct.cluster_parent[1..] {
        children[p as usize] += 1;
    }
    for (c, &count) in children.iter().enumerate() {
        assert!(
            count == 0 || count == 2,
            "cluster {c} has {count} children: {what}"
        );
    }
}

#[test]
fn extraction_matches_the_reference_bit_for_bit() {
    let mut split_trees = 0usize;
    for (s, shape) in SHAPES.into_iter().enumerate() {
        for (w, wmode) in WeightMode::ALL.into_iter().enumerate() {
            for &n in sizes(shape) {
                let seed = 1000 * s as u64 + 100 * w as u64 + n as u64;
                let case = tree_case(shape, n, wmode, seed);
                let mst = SortedMst::from_edges(&ExecCtx::serial(), case.n_vertices, &case.edges);
                for (ctx_name, ctx) in contexts() {
                    let mut ws = DendrogramWorkspace::new();
                    let (dendrogram, _) = dendrogram_from_sorted_with(&ctx, &mst, &mut ws);
                    for min_cluster_size in [2, 3, 5, 17, n] {
                        let what = format!(
                            "{} ctx={ctx_name} min_cluster_size={min_cluster_size}",
                            case.params
                        );
                        let got = condense(&dendrogram, min_cluster_size);
                        let want = reference_condense(&dendrogram, min_cluster_size);
                        assert_condensed_identical(&got, &want, &what);
                        assert_zero_or_two_children(&got, &what);
                        split_trees += (got.n_clusters() > 1) as usize;

                        let stability = cluster_stabilities(&got);
                        let want_stability = cluster_stabilities(&want);
                        assert_eq!(
                            f64_bits(&stability),
                            f64_bits(&want_stability),
                            "stabilities: {what}"
                        );
                        for allow_single_cluster in [false, true] {
                            let what = format!("{what} allow_single={allow_single_cluster}");
                            let selected = select_clusters(&got, &stability, allow_single_cluster);
                            let want_selected = reference_select_clusters(
                                &want,
                                &want_stability,
                                allow_single_cluster,
                            );
                            assert_eq!(selected, want_selected, "selection: {what}");
                            let (labels, probabilities) = extract_labels(&got, &selected);
                            let (want_labels, want_probabilities) =
                                extract_labels(&want, &want_selected);
                            assert_eq!(labels, want_labels, "labels: {what}");
                            assert_eq!(
                                f32_bits(&probabilities),
                                f32_bits(&want_probabilities),
                                "probabilities: {what}"
                            );
                        }
                        assert_eq!(
                            f32_bits(&glosh_scores(&got)),
                            f32_bits(&glosh_scores(&want)),
                            "GLOSH scores: {what}"
                        );
                    }
                }
            }
        }
    }
    // The grid must exercise true splits, not only fall-outs.
    assert!(
        split_trees > 100,
        "only {split_trees} condensed trees split"
    );
}
