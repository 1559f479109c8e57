//! Property-based tests (proptest) for the paper's invariants.

use proptest::prelude::*;

use pandora::core::baseline::dendrogram_union_find;
use pandora::core::levels::build_hierarchy;
use pandora::core::pandora as pandora_algo;
use pandora::core::validate::check_lcda_theorem;
use pandora::core::{Edge, SortedMst};
use pandora::exec::radix::par_radix_sort_by_high_word;
use pandora::exec::scan::{exclusive_scan_in_place, seq_exclusive_scan};
use pandora::exec::sort::par_sort_by_key;
use pandora::exec::ExecCtx;

/// Strategy: a random tree as (n_vertices, attachment choices, weights).
///
/// Vertex `v ≥ 1` attaches to a vertex in `0..v`; weights may repeat to
/// exercise the tie-break.
fn tree_strategy() -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (2usize..400).prop_flat_map(|n| {
        let edges = (1..n)
            .map(|v| {
                (0..v, 0u32..64).prop_map(move |(parent, w10)| {
                    Edge::new(parent as u32, v as u32, w10 as f32 / 4.0)
                })
            })
            .collect::<Vec<_>>();
        edges.prop_map(move |e| (n, e))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pandora_always_matches_union_find((n, edges) in tree_strategy()) {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        let (got, _) = pandora_algo::dendrogram_from_sorted(&ctx, &mst);
        got.validate().unwrap();
        let expect = dendrogram_union_find(&mst);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn contraction_bounds_hold((n, edges) in tree_strategy()) {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        let h = build_hierarchy(&ctx, &mst);
        // Level count bound (paper §4.2): ⌈log2(n+1)⌉ contractions.
        let n_edges = mst.n_edges();
        prop_assert!(h.n_levels() <= (n_edges + 2).ilog2() as usize + 2);
        // α bound per level: n_α ≤ (n_level − 1)/2.
        for (l, count) in h.alpha_counts().iter().enumerate() {
            let level_edges = h.trees[l].n_edges();
            prop_assert!(level_edges == 0 || *count <= (level_edges - 1) / 2);
        }
        // Level sizes strictly decrease.
        for w in h.trees.windows(2) {
            prop_assert!(w[1].n_edges() < w[0].n_edges());
        }
    }

    #[test]
    fn lcda_theorem_on_random_trees((n, edges) in tree_strategy()) {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        let (d, _) = pandora_algo::dendrogram_from_sorted(&ctx, &mst);
        // Theorem 1: LCDA(a,b) = heaviest edge on the tree path a..b.
        check_lcda_theorem(&mst, &d, 16, 0xC0FFEE);
    }

    #[test]
    fn dendrogram_parent_indices_decrease((n, edges) in tree_strategy()) {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        let (d, _) = pandora_algo::dendrogram_from_sorted(&ctx, &mst);
        for e in 1..d.n_edges() {
            let p = d.edge_parent[e];
            prop_assert!(p < e as u32);
            // Parent is at least as heavy.
            prop_assert!(d.edge_weight[p as usize] >= d.edge_weight[e]);
        }
    }

    #[test]
    fn cluster_sizes_partition_points((n, edges) in tree_strategy()) {
        let ctx = ExecCtx::serial();
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        let (d, _) = pandora_algo::dendrogram_from_sorted(&ctx, &mst);
        let sizes = d.cluster_sizes();
        prop_assert_eq!(sizes[0] as usize, n);
        // Every edge's size = sum of children sizes (+ vertex children).
        let children = d.edge_children();
        let mut vertex_count = vec![0u32; d.n_edges()];
        for &p in &d.vertex_parent {
            vertex_count[p as usize] += 1;
        }
        for e in 0..d.n_edges() {
            let mut expect = vertex_count[e];
            for c in children[e] {
                if c != pandora::core::INVALID {
                    expect += sizes[c as usize];
                }
            }
            prop_assert_eq!(sizes[e], expect);
        }
    }

    #[test]
    fn parallel_scan_matches_sequential(xs in prop::collection::vec(0u64..1000, 0..60_000)) {
        let ctx = ExecCtx::threads();
        let mut par = xs.clone();
        let total_par = exclusive_scan_in_place(&ctx, &mut par);
        let mut seq = xs;
        let total_seq = seq_exclusive_scan(&mut seq);
        prop_assert_eq!(total_par, total_seq);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn parallel_sort_matches_std(xs in prop::collection::vec(any::<u32>(), 0..60_000)) {
        let ctx = ExecCtx::threads();
        let mut par: Vec<u32> = xs.clone();
        par_sort_by_key(&ctx, &mut par, |&x| x);
        let mut expect = xs;
        expect.sort_unstable();
        prop_assert_eq!(par, expect);
    }

    #[test]
    fn radix_sort_matches_std(
        xs in prop::collection::vec((0u32..64, any::<u32>()), 0..60_000)
    ) {
        // 64 distinct high words, spread over all four of their bytes so
        // every digit pass runs, repeat hundreds of times each with low
        // words in random order: only a stable sort keeps that order.
        let ctx = ExecCtx::threads();
        let records: Vec<u64> = xs
            .iter()
            .map(|&(word, low)| ((word.wrapping_mul(0x0404_0405) as u64) << 32) | low as u64)
            .collect();
        let mut par = records.clone();
        par_radix_sort_by_high_word(&ctx, &mut par);
        let mut expect = records;
        expect.sort_by_key(|&r| r >> 32);
        prop_assert_eq!(par, expect);
    }
}
