//! Census cross-check: the §4.2 structural accounting must agree *between
//! execution contexts* on random trees — the leaf/α identity holds level
//! by level on the α-contraction hierarchy, and the chain-length
//! distribution derived from the serial and the threaded dendrogram is
//! identical (the dendrogram is canonical, so any divergence is a bug,
//! not a modeling choice).
//!
//! Reuses the adversarial MST strategy from `common` (replayable via
//! `PROPTEST_CASE=<index>`).

mod common;

use common::mst_strategy;
use proptest::prelude::*;

use pandora::core::census::{chain_lengths, hierarchy_census};
use pandora::core::levels::build_hierarchy;
use pandora::core::{dendrogram_from_sorted_with, DendrogramWorkspace, SortedMst};
use pandora::exec::ExecCtx;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Leaf/α identity (`n_leaf = n_α + 1`) per contraction level, and a
    /// chain-length distribution that every context reproduces exactly.
    #[test]
    fn census_agrees_between_contexts(case in mst_strategy()) {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, case.n_vertices, &case.edges);

        // §4.2 identity on the α-contraction hierarchy itself.
        let hierarchy = build_hierarchy(&ctx, &mst);
        for (level, census) in hierarchy_census(&ctx, &hierarchy).iter().enumerate() {
            prop_assert!(
                census.leaf_alpha_identity_holds(),
                "leaf/alpha identity broken at level {}: case[{}]",
                level, &case.params
            );
        }

        // Chain-length distribution: identical across contexts because
        // the dendrogram is canonical.
        let mut reference: Option<Vec<usize>> = None;
        for (ctx_name, ctx) in [("serial", ExecCtx::serial()), ("threads", ExecCtx::threads())] {
            let mut ws = DendrogramWorkspace::new();
            let (dendro, _) = dendrogram_from_sorted_with(&ctx, &mst, &mut ws);
            let lengths = chain_lengths(&dendro);
            // Every edge sits in exactly one chain.
            prop_assert_eq!(
                lengths.iter().sum::<usize>(),
                mst.n_edges(),
                "chain lengths must partition the edges: ctx={} case[{}]",
                ctx_name, &case.params
            );
            match &reference {
                None => reference = Some(lengths),
                Some(expect) => prop_assert_eq!(
                    &lengths, expect,
                    "chain-length distribution diverged: ctx={} case[{}]",
                    ctx_name, &case.params
                ),
            }
        }
    }
}
