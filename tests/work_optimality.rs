//! Structural work-optimality checks (paper §4): the contraction hierarchy
//! must shrink geometrically and the expansion must touch each edge only
//! O(log n) times — *independent of dendrogram skew*. These are the
//! structural facts behind Theorem 4's matching upper bound; we assert them
//! directly instead of asserting wall-clock (which is flaky in CI).

use pandora::core::levels::build_hierarchy;
use pandora::core::pandora as pandora_algo;
use pandora::core::{Edge, SortedMst};
use pandora::exec::ExecCtx;

fn hierarchy_checks(n: usize, edges: &[Edge], label: &str) {
    let ctx = ExecCtx::serial();
    let mst = SortedMst::from_edges(&ctx, n, edges);
    let h = build_hierarchy(&ctx, &mst);
    let n_edges = mst.n_edges();

    // Level bound (⌈log2(n+1)⌉ contractions).
    assert!(
        h.n_levels() <= (n_edges + 2).ilog2() as usize + 2,
        "{label}: {} levels for n={n_edges}",
        h.n_levels()
    );
    // Geometric decay ⇒ total edges across levels ≤ 2n.
    let total: usize = h.trees.iter().map(|t| t.n_edges()).sum();
    assert!(
        total <= 2 * n_edges + 1,
        "{label}: hierarchy holds {total} edges for n={n_edges}"
    );
}

#[test]
fn hierarchy_is_geometric_on_extreme_shapes() {
    let n = 50_000usize;
    let chain: Vec<Edge> = (0..n - 1)
        .map(|i| Edge::new(i as u32, i as u32 + 1, (n - i) as f32))
        .collect();
    hierarchy_checks(n, &chain, "chain");

    let star: Vec<Edge> = (1..n)
        .map(|i| Edge::new(0, i as u32, (n - i) as f32))
        .collect();
    hierarchy_checks(n, &star, "star");

    let balanced: Vec<Edge> = (1..n)
        .map(|i| Edge::new((i / 2) as u32, i as u32, 1.0 / i as f32))
        .collect();
    hierarchy_checks(n, &balanced, "balanced");

    // Comb: a chain with a leaf at every link — maximal chain-edge count.
    let mut comb = Vec::new();
    let half = n / 2;
    for i in 0..half - 1 {
        comb.push(Edge::new(i as u32, i as u32 + 1, (n - i) as f32));
    }
    for i in 0..half {
        comb.push(Edge::new(i as u32, (half + i) as u32, 0.5 / (i + 1) as f32));
    }
    hierarchy_checks(2 * half, &comb, "comb");
}

#[test]
fn traced_work_is_n_log_n_independent_of_skew() {
    // Compare total traced kernel elements between the most and least
    // skewed shapes at the same n: work-optimality predicts the ratio stays
    // O(1) (top-down would be Θ(n/log n) apart).
    let n = 20_000usize;
    let shapes: Vec<(&str, Vec<Edge>)> = vec![
        (
            "chain",
            (0..n - 1)
                .map(|i| Edge::new(i as u32, i as u32 + 1, (n - i) as f32))
                .collect(),
        ),
        (
            "balanced",
            (1..n)
                .map(|i| Edge::new((i / 2) as u32, i as u32, 1.0 / i as f32))
                .collect(),
        ),
    ];
    let mut totals = Vec::new();
    for (label, edges) in &shapes {
        let (ctx, tracer) = ExecCtx::serial().with_tracing();
        let _ = pandora_algo::dendrogram(&ctx, n, edges);
        let total: u64 = tracer.snapshot().events.iter().map(|e| e.n).sum();
        totals.push((label, total));
    }
    let (a, b) = (totals[0].1 as f64, totals[1].1 as f64);
    let ratio = a.max(b) / a.min(b).max(1.0);
    assert!(
        ratio < 4.0,
        "work varies {ratio:.1}x between skew extremes: {totals:?}"
    );
}

#[test]
fn skewness_measured_matches_shape() {
    let ctx = ExecCtx::serial();
    let n = 10_000usize;
    let chain: Vec<Edge> = (0..n - 1)
        .map(|i| Edge::new(i as u32, i as u32 + 1, (n - i) as f32))
        .collect();
    let d = pandora_algo::dendrogram(&ctx, n, &chain);
    // A chain's height is n-1; skew ≈ n / log2 n.
    assert_eq!(d.height(), n - 1);
    assert!(d.skewness() > 500.0);

    let balanced: Vec<Edge> = (1..n)
        .map(|i| Edge::new((i / 2) as u32, i as u32, 1.0 / i as f32))
        .collect();
    let d = pandora_algo::dendrogram(&ctx, n, &balanced);
    assert!(d.skewness() < 3.0, "balanced skew {}", d.skewness());
}
