//! The linkage differential harness: every [`Linkage`] × {serial,
//! threaded} NN-chain run must (a) be **bit-identical** across contexts,
//! (b) match the naive O(n²·n) global-minimum agglomerative oracle on
//! adversarial tie-free point sets (bitwise for single/complete, f64
//! tolerance for average/Ward — see `common/linkage.rs` for the
//! contract), and (c) for single linkage, coincide with the Borůvka EMST
//! fast path — the correctness keystone that lets the serving tier swap
//! one for the other.
//!
//! Mutual reachability at `min_pts ≥ 2` floors many pairs to the same
//! core distance, so ties are inherent and greedy trees are no longer
//! unique; those cases assert the tie-robust invariants instead (weight
//! multisets, context determinism) rather than oracle equality.
//!
//! Run under `PANDORA_THREADS ∈ {1, 4}` by the CI matrix; replay one case
//! with `PROPTEST_CASE=<index>`.

mod common;

use std::sync::Arc;

use common::linkage::{brute_core2, naive_agglomerative, point_strategy};
use proptest::prelude::*;

use pandora::core::baseline::dendrogram_union_find;
use pandora::core::Edge;
use pandora::exec::{ExecCtx, ScratchPool};
use pandora::hdbscan::{ClusterRequest, DatasetIndex};
use pandora::mst::{emst, nnchain_merges, Linkage, PointSet};

fn contexts() -> [(&'static str, ExecCtx); 2] {
    [
        ("serial", ExecCtx::serial()),
        ("threads", ExecCtx::threads()),
    ]
}

/// Runs the NN-chain engine and asserts pool-lease balance.
fn engine_merges(
    ctx: &ExecCtx,
    points: &PointSet,
    core2: &[f32],
    linkage: Linkage,
    mreach: bool,
) -> Vec<Edge> {
    let pool = ScratchPool::new();
    let run = nnchain_merges(ctx, points, core2, linkage, mreach, &pool);
    assert_eq!(pool.outstanding(), 0, "leaked pool leases ({linkage})");
    run.merges
}

/// Canonical form of a merge/edge list: sorted by endpoint pair (the two
/// engines merge in different orders; the spanning structure is what must
/// agree).
fn canon(edges: &[Edge]) -> Vec<(u32, u32, f32)> {
    let mut v: Vec<(u32, u32, f32)> = edges
        .iter()
        .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w))
        .collect();
    v.sort_by_key(|e| (e.0, e.1));
    v
}

/// Sorted weight bit patterns (the tie-robust multiset invariant).
fn weight_multiset(edges: &[Edge]) -> Vec<u32> {
    let mut w: Vec<u32> = edges.iter().map(|e| e.w.to_bits()).collect();
    w.sort_unstable();
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The oracle property: every linkage, under every context, produces
    /// the unique greedy agglomerative tree on tie-free Euclidean inputs.
    #[test]
    fn every_linkage_matches_the_naive_oracle(case in point_strategy()) {
        for linkage in Linkage::ALL {
            let oracle = naive_agglomerative(&case.points, &[], linkage, false);
            let mut seen: Option<Vec<Edge>> = None;
            for (ctx_name, ctx) in contexts() {
                let merges = engine_merges(&ctx, &case.points, &[], linkage, false);
                prop_assert_eq!(
                    merges.len(), oracle.len(),
                    "merge count: {} ctx={} case[{}]", linkage, ctx_name, &case.params
                );
                let got = canon(&merges);
                let bitwise = matches!(linkage, Linkage::Single | Linkage::Complete);
                for (g, o) in got.iter().zip(&oracle_canon(&oracle)) {
                    prop_assert_eq!(
                        (g.0, g.1), (o.0, o.1),
                        "endpoints: {} ctx={} case[{}]", linkage, ctx_name, &case.params
                    );
                    if bitwise {
                        prop_assert_eq!(
                            g.2 as f64, o.2,
                            "exact height: {} ctx={} case[{}]", linkage, ctx_name, &case.params
                        );
                    } else {
                        let tol = 1e-4 * o.2.abs().max(1e-6);
                        prop_assert!(
                            (g.2 as f64 - o.2).abs() <= tol,
                            "height {} vs oracle {}: {} ctx={} case[{}]",
                            g.2, o.2, linkage, ctx_name, &case.params
                        );
                    }
                }
                // Serial ≡ threaded, bit for bit (merge order included).
                match &seen {
                    None => seen = Some(merges),
                    Some(first) => {
                        prop_assert_eq!(first.len(), merges.len());
                        for (a, b) in first.iter().zip(&merges) {
                            prop_assert_eq!(
                                (a.u, a.v, a.w.to_bits()), (b.u, b.v, b.w.to_bits()),
                                "context divergence: {} case[{}]", linkage, &case.params
                            );
                        }
                    }
                }
            }
        }
    }

    /// The correctness keystone: NN-chain single linkage emits exactly the
    /// EMST edge set (witness pairs realize the cut-property minima), so
    /// the serving tier's fast path and the general engine are one
    /// algorithm in two costumes.
    #[test]
    fn nnchain_single_equals_the_boruvka_emst(case in point_strategy()) {
        let ctx = ExecCtx::serial();
        // min_pts = 1: mutual reachability degenerates to Euclidean, so
        // the comparison is tie-free and bitwise.
        let tree = emst(&ctx, &case.points, 1);
        let merges = engine_merges(&ctx, &case.points, &[], Linkage::Single, false);
        let bits = |e: &[Edge]| {
            let mut v: Vec<(u32, u32, u32)> = e
                .iter()
                .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(
            bits(&merges), bits(&tree.edges),
            "single ≠ EMST: case[{}]", &case.params
        );
    }

    /// Mutual reachability (`min_pts ≥ 2`) introduces inherent ties, so
    /// the tie-robust invariants take over: the single-linkage weight
    /// multiset still equals the Borůvka mutual-reachability MST's (MST
    /// weight multisets are unique even under ties), every linkage stays
    /// bit-identical across contexts, and no height sits below the floor.
    #[test]
    fn mutual_reachability_holds_the_tie_robust_invariants(case in point_strategy()) {
        let n = case.points.len();
        for min_pts in [2usize, 4] {
            if min_pts > n {
                continue;
            }
            let core2 = brute_core2(&case.points, min_pts);
            let floor = core2.iter().cloned().fold(f32::INFINITY, f32::min).sqrt();
            let tree = emst(&ExecCtx::serial(), &case.points, min_pts);
            for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
                let serial =
                    engine_merges(&ExecCtx::serial(), &case.points, &core2, linkage, true);
                let threaded =
                    engine_merges(&ExecCtx::threads(), &case.points, &core2, linkage, true);
                prop_assert_eq!(
                    canon(&serial).iter().map(|e| (e.0, e.1, e.2.to_bits())).collect::<Vec<_>>(),
                    canon(&threaded).iter().map(|e| (e.0, e.1, e.2.to_bits())).collect::<Vec<_>>(),
                    "context divergence: {} min_pts={} case[{}]", linkage, min_pts, &case.params
                );
                for e in &serial {
                    prop_assert!(
                        e.w >= floor,
                        "height {} below mreach floor {}: {} case[{}]",
                        e.w, floor, linkage, &case.params
                    );
                }
                if linkage == Linkage::Single {
                    prop_assert_eq!(
                        weight_multiset(&serial), weight_multiset(&tree.edges),
                        "single-linkage weight multiset ≠ MST: min_pts={} case[{}]",
                        min_pts, &case.params
                    );
                }
            }
        }
    }
}

/// Canonical form of an oracle merge list (same ordering as [`canon`]).
fn oracle_canon(merges: &[common::linkage::OracleMerge]) -> Vec<(u32, u32, f64)> {
    let mut v: Vec<(u32, u32, f64)> = merges.iter().map(|m| (m.u, m.v, m.h)).collect();
    v.sort_by_key(|m| (m.0, m.1));
    v
}

/// The dendrogram stage consumes an NN-chain merge sequence unchanged:
/// per linkage, the dendrogram served through [`Session::run`] validates
/// and equals the union–find oracle over the served spanning tree.
///
/// [`Session::run`]: pandora::hdbscan::Session::run
#[test]
fn every_linkage_serves_a_valid_dendrogram() {
    use pandora::data::synthetic::gaussian_blobs;
    let (points, _) = gaussian_blobs(400, 2, 3, 80.0, 0.9, 31);
    let index =
        Arc::new(DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points, 8).expect("freeze"));
    let mut session = index.session();
    for linkage in Linkage::ALL {
        let request = ClusterRequest::new().min_pts(4).linkage(linkage);
        let served = session.run(&request).expect("valid request");
        served.dendrogram.validate().unwrap();
        assert_eq!(
            served.dendrogram,
            dendrogram_union_find(&served.mst),
            "{linkage}: dendrogram"
        );
        assert_eq!(served.labels.len(), 400, "{linkage}");
        assert_eq!(session.scratch_outstanding(), 0, "{linkage}");
    }
}
