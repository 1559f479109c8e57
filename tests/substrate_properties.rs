//! Property tests for the newer substrate and algorithm pieces: partition,
//! radix key–value records, the mixed baseline and single-level expansion.

use proptest::prelude::*;

use pandora::core::baseline::{dendrogram_mixed, dendrogram_union_find};
use pandora::core::single_level::dendrogram_single_level;
use pandora::core::{Edge, SortedMst};
use pandora::exec::partition::partition_indices;
use pandora::exec::radix::par_radix_sort_by_high_word;
use pandora::exec::ExecCtx;

fn tree_strategy() -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (2usize..300).prop_flat_map(|n| {
        let edges = (1..n)
            .map(|v| {
                (0..v, 0u32..32)
                    .prop_map(move |(parent, w)| Edge::new(parent as u32, v as u32, w as f32 * 0.5))
            })
            .collect::<Vec<_>>();
        edges.prop_map(move |e| (n, e))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partition_is_a_stable_split(flags in prop::collection::vec(any::<bool>(), 0..50_000)) {
        let ctx = ExecCtx::threads();
        let n = flags.len();
        let flags_ref = &flags;
        let (yes, no) = partition_indices(&ctx, n, |i| flags_ref[i]);
        prop_assert_eq!(yes.len() + no.len(), n);
        prop_assert!(yes.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(no.windows(2).all(|w| w[0] < w[1]));
        for &i in &yes {
            prop_assert!(flags[i as usize]);
        }
        for &i in &no {
            prop_assert!(!flags[i as usize]);
        }
    }

    #[test]
    fn radix_pairs_keep_key_value_binding(
        pairs in prop::collection::vec((any::<u32>(), any::<u32>()), 0..40_000)
    ) {
        // Packed `(key << 32) | value` records: the sort moves each value
        // with its key, although it orders by the key word alone.
        let ctx = ExecCtx::threads();
        let mut records: Vec<u64> =
            pairs.iter().map(|&(k, v)| ((k as u64) << 32) | v as u64).collect();
        par_radix_sort_by_high_word(&ctx, &mut records);
        prop_assert!(records.windows(2).all(|w| w[0] >> 32 <= w[1] >> 32));
        // The multiset of (key, value) pairs is preserved.
        let mut got: Vec<(u32, u32)> =
            records.iter().map(|&r| ((r >> 32) as u32, r as u32)).collect();
        let mut expect = pairs;
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn mixed_baseline_matches_union_find((n, edges) in tree_strategy()) {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        let expect = dendrogram_union_find(&mst);
        for fraction in [0.1f64, 0.5] {
            prop_assert_eq!(dendrogram_mixed(&ctx, &mst, fraction), expect.clone());
        }
    }

    #[test]
    fn single_level_matches_union_find((n, edges) in tree_strategy()) {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        prop_assert_eq!(dendrogram_single_level(&ctx, &mst), dendrogram_union_find(&mst));
    }

    #[test]
    fn linkage_matrix_is_well_formed((n, edges) in tree_strategy()) {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        let d = dendrogram_union_find(&mst);
        let z = d.to_linkage();
        prop_assert_eq!(z.len(), n - 1);
        for w in z.windows(2) {
            prop_assert!(w[0].2 <= w[1].2);
        }
        prop_assert_eq!(z.last().unwrap().3 as usize, n);
    }
}
