//! Design-choice ablations over the baselines and the single-level variant
//! mapped in `docs/ARCHITECTURE.md` (*The algorithms*):
//!
//! * multilevel expansion (paper §3.3.2) vs single-level walk (§3.3.1) —
//!   the walk degrades on skew, the multilevel checks do not;
//! * the mixed baseline (§2.3.3) at different top fractions;
//! * PANDORA vs all baselines on one realistic MST.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;

use pandora_core::baseline::{dendrogram_mixed, dendrogram_union_find};
use pandora_core::single_level::dendrogram_single_level;
use pandora_core::{pandora, Edge, SortedMst};
use pandora_exec::ExecCtx;

fn random_mst(n: usize, seed: u64) -> SortedMst {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<Edge> = (1..n)
        .map(|v| Edge::new(rng.gen_range(0..v) as u32, v as u32, rng.gen::<f32>()))
        .collect();
    SortedMst::from_edges(&ExecCtx::threads(), n, &edges)
}

/// Deep α-chain with heavy leaves — the single-level walk's worst case.
fn walk_adversarial_mst(hubs: usize, heavies: usize) -> SortedMst {
    let mut edges = Vec::new();
    for h in 1..hubs {
        edges.push(Edge::new((h - 1) as u32, h as u32, 2e6 - h as f32));
    }
    let mut next = hubs as u32;
    for h in 0..hubs {
        edges.push(Edge::new(h as u32, next, 1.0 + h as f32 * 1e-3));
        next += 1;
    }
    for k in 0..heavies {
        edges.push(Edge::new((hubs - 1) as u32, next, 1e7 + k as f32));
        next += 1;
    }
    SortedMst::from_edges(&ExecCtx::threads(), next as usize, &edges)
}

fn bench_expansion_modes(c: &mut Criterion) {
    let ctx = ExecCtx::threads();
    let mut group = c.benchmark_group("expansion_mode");
    group.sample_size(10);
    for (label, mst) in [
        ("random_100k", random_mst(100_000, 3)),
        (
            "adversarial_deep_chain",
            walk_adversarial_mst(30_000, 3_000),
        ),
    ] {
        group.bench_with_input(BenchmarkId::new("multilevel", label), &mst, |b, mst| {
            b.iter(|| pandora::dendrogram_from_sorted(&ctx, mst).0)
        });
        group.bench_with_input(BenchmarkId::new("single_level", label), &mst, |b, mst| {
            b.iter(|| dendrogram_single_level(&ctx, mst))
        });
    }
    group.finish();
}

fn bench_mixed_fractions(c: &mut Criterion) {
    let ctx = ExecCtx::threads();
    let mst = random_mst(200_000, 5);
    let mut group = c.benchmark_group("mixed_top_fraction");
    group.sample_size(10);
    for fraction in [0.1f64, 0.5] {
        group.bench_with_input(
            BenchmarkId::from_parameter(fraction),
            &fraction,
            |b, &fraction| b.iter(|| dendrogram_mixed(&ctx, &mst, fraction)),
        );
    }
    group.bench_function("union_find_sequential", |b| {
        b.iter(|| dendrogram_union_find(&mst))
    });
    group.bench_function("pandora", |b| {
        b.iter(|| pandora::dendrogram_from_sorted(&ctx, &mst).0)
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(4));
    targets = bench_expansion_modes, bench_mixed_fractions
);
criterion_main!(benches);
