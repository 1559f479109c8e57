//! The dendrogram differential harness: every [`DendrogramBackend`] ×
//! {serial, threaded} must produce **bit-identical** dendrograms (parents,
//! heights, chain keys) and identical downstream HDBSCAN labels — on
//! adversarial generated trees (chains, stars, balanced binary, tied
//! weights, n ∈ {0, 1, 2}) and on pipeline-produced MSTs through
//! [`Session::run`]. The ground truth is the sequential union–find oracle
//! (paper Algorithm 2). At 20,000–40,000 vertices, where both PANDORA
//! sorts take their radix paths, the canonical order itself is also
//! checked against a plain comparison sort.
//!
//! Run under `PANDORA_THREADS ∈ {1, 4}` by the CI matrix; replay one case
//! with `PROPTEST_CASE=<index>`.

mod common;

use std::sync::Arc;

use common::{all_equal_weights_tree, mst_strategy, tree_case, WeightMode, SHAPES};
use proptest::prelude::*;

use pandora::core::baseline::dendrogram_union_find;
use pandora::core::expansion::{assign_chain_keys_into, sort_chain_keys};
use pandora::core::levels::build_hierarchy;
use pandora::core::{DendrogramBackend, DendrogramWorkspace, SortedMst};
use pandora::data::synthetic::gaussian_blobs;
use pandora::exec::atomic::f32_to_ordered_u32_desc;
use pandora::exec::ExecCtx;
use pandora::hdbscan::{ClusterRequest, DatasetIndex};

fn contexts() -> [(&'static str, ExecCtx); 2] {
    [
        ("serial", ExecCtx::serial()),
        ("threads", ExecCtx::threads()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The core differential property: every backend, under every context,
    /// equals the oracle bit-for-bit (hence also each other), validates
    /// structurally, and agrees on the derived height.
    #[test]
    fn all_backends_and_contexts_match_the_oracle(case in mst_strategy()) {
        let mst = SortedMst::from_edges(&ExecCtx::serial(), case.n_vertices, &case.edges);
        let oracle = dendrogram_union_find(&mst);
        let oracle_height = oracle.height();
        for backend in DendrogramBackend::ALL {
            for (ctx_name, ctx) in contexts() {
                let mut ws = DendrogramWorkspace::new();
                let (got, stats) = backend.build(&ctx, &mst, &mut ws);
                prop_assert!(
                    got.validate().is_ok(),
                    "invalid dendrogram: backend={} ctx={ctx_name} case[{}]",
                    backend.name(), case.params
                );
                prop_assert_eq!(
                    &got, &oracle,
                    "backend={} ctx={} case[{}]", backend.name(), ctx_name, &case.params
                );
                prop_assert_eq!(got.height(), oracle_height);
                prop_assert!(stats.n_levels >= 1);
                prop_assert_eq!(stats.level_edge_counts[0], mst.n_edges());
            }
        }
    }

    /// The α-contraction chain keys themselves (not just the stitched
    /// parents) are bit-identical between serial and threaded contexts.
    #[test]
    fn chain_keys_bit_identical_across_contexts(case in mst_strategy()) {
        let mst = SortedMst::from_edges(&ExecCtx::serial(), case.n_vertices, &case.edges);
        let mut keys = Vec::new();
        let mut reference: Option<Vec<u64>> = None;
        for (ctx_name, ctx) in contexts() {
            let hierarchy = build_hierarchy(&ctx, &mst);
            assign_chain_keys_into(&ctx, &hierarchy, &mut keys);
            sort_chain_keys(&ctx, &mut keys);
            match &reference {
                None => reference = Some(keys.clone()),
                Some(expect) => prop_assert_eq!(
                    &keys, expect,
                    "chain keys diverge: ctx={} case[{}]", ctx_name, &case.params
                ),
            }
        }
    }
}

/// Tie-break regression (satellite): with every weight equal at n = 1000,
/// the dendrogram is decided purely by the canonical sorted order — and
/// every backend × context must still agree with the oracle, regardless of
/// the order the edges arrive in.
#[test]
fn all_equal_weights_at_n_1000_are_deterministic() {
    let case = all_equal_weights_tree(1000, 0xD15C0);
    let serial = ExecCtx::serial();
    let mst = SortedMst::from_edges(&serial, case.n_vertices, &case.edges);

    // Input permutation cannot change the canonical form.
    let mut scrambled = case.edges.clone();
    scrambled.reverse();
    scrambled.rotate_left(271);
    let mst2 = SortedMst::from_edges(&ExecCtx::threads(), case.n_vertices, &scrambled);
    assert_eq!(mst.src, mst2.src, "case[{}]", case.params);
    assert_eq!(mst.dst, mst2.dst, "case[{}]", case.params);
    assert_eq!(mst.weight, mst2.weight, "case[{}]", case.params);

    let oracle = dendrogram_union_find(&mst);
    for backend in DendrogramBackend::ALL {
        for (ctx_name, ctx) in contexts() {
            let mut ws = DendrogramWorkspace::new();
            let (got, _) = backend.build(&ctx, &mst, &mut ws);
            assert_eq!(
                got,
                oracle,
                "backend={} ctx={ctx_name} case[{}]",
                backend.name(),
                case.params
            );
        }
    }
}

/// Radix-scale oracle: at 20,000–40,000 vertices both PANDORA sorts run
/// their radix paths, so the canonical order is checked against a plain
/// comparison sort of `(weight word, src, dst)` triples, bit for bit, and
/// every backend × context against the union–find oracle. It runs every
/// shape under every weight mode, signed zeros and negatives included.
#[test]
fn canonical_order_and_dendrograms_match_oracles_at_radix_scale() {
    let grid: Vec<(&str, WeightMode)> = SHAPES
        .iter()
        .filter(|&&shape| shape != "tiny")
        .flat_map(|&shape| WeightMode::ALL.map(|wmode| (shape, wmode)))
        .collect();
    for (i, &(shape, wmode)) in grid.iter().enumerate() {
        let n = 20_000 + 20_000 * i / (grid.len() - 1);
        let case = tree_case(shape, n, wmode, 0x5047 + i as u64);

        let mut triples: Vec<(u32, u32, u32)> = case
            .edges
            .iter()
            .map(|e| (f32_to_ordered_u32_desc(e.w), e.u.min(e.v), e.u.max(e.v)))
            .collect();
        triples.sort_by_key(|&t| t);
        let expect_src: Vec<u32> = triples.iter().map(|t| t.1).collect();
        let expect_dst: Vec<u32> = triples.iter().map(|t| t.2).collect();
        let expect_words: Vec<u32> = triples.iter().map(|t| t.0).collect();

        let mut oracle = None;
        for (ctx_name, ctx) in contexts() {
            let mst = SortedMst::from_edges(&ctx, case.n_vertices, &case.edges);
            let what = format!("ctx={ctx_name} case[{}]", case.params);
            assert_eq!(mst.src, expect_src, "{what}: src");
            assert_eq!(mst.dst, expect_dst, "{what}: dst");
            // The weight word is one-to-one on the weight's bits, so this
            // tells -0.0 from +0.0, which `==` on f32 would not.
            let words: Vec<u32> = mst
                .weight
                .iter()
                .map(|&w| f32_to_ordered_u32_desc(w))
                .collect();
            assert_eq!(words, expect_words, "{what}: weight bits");
            let oracle = oracle.get_or_insert_with(|| dendrogram_union_find(&mst));
            for backend in DendrogramBackend::ALL {
                let mut ws = DendrogramWorkspace::new();
                let (got, _) = backend.build(&ctx, &mst, &mut ws);
                assert_eq!(&got, &*oracle, "backend={} {what}", backend.name());
            }
        }
    }
}

/// Pipeline-produced MSTs: through `Session::run`, every backend (selected
/// per request and via the default resolution) yields identical
/// dendrograms, labels and probabilities under both contexts.
#[test]
fn session_results_identical_across_backends_and_contexts() {
    let (points, _) = gaussian_blobs(600, 3, 4, 6.0, 1.0, 42);
    let mut reference = None;
    for (ctx_name, ctx) in contexts() {
        let index = Arc::new(
            DatasetIndex::freeze_with_ctx(ctx, points.clone(), 8).expect("freeze succeeds"),
        );
        let mut session = index.session();
        for backend in DendrogramBackend::ALL {
            let request = ClusterRequest::new().min_pts(4).dendrogram(backend);
            let result = session.run(&request).expect("valid request");
            assert_eq!(result.labels.len(), 600);
            match &reference {
                None => reference = Some(result),
                Some(expect) => {
                    let what = format!("backend={} ctx={ctx_name}", backend.name());
                    assert_eq!(result.dendrogram, expect.dendrogram, "{what}: dendrogram");
                    assert_eq!(result.labels, expect.labels, "{what}: labels");
                    assert_eq!(
                        result.probabilities, expect.probabilities,
                        "{what}: probabilities"
                    );
                    assert_eq!(result.mst.src, expect.mst.src, "{what}: mst");
                }
            }
        }
        // Default resolution (no per-request override; honours
        // PANDORA_DENDROGRAM, which the CI matrix sweeps) is one of the
        // backends above, so it must match too.
        let result = session
            .run(&ClusterRequest::new().min_pts(4))
            .expect("valid request");
        let expect = reference.as_ref().expect("reference set");
        assert_eq!(result.labels, expect.labels, "default backend: labels");
        assert_eq!(
            result.dendrogram, expect.dendrogram,
            "default backend: dendrogram"
        );
    }
}
