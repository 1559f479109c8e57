//! Criterion companions to the figure binaries: timed PANDORA vs
//! UnionFind-MT dendrogram construction on real mutual-reachability MSTs of
//! the Fig. 11/12 datasets (the figure binaries print the full tables; these
//! give statistically sound per-dataset timings).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pandora_bench::suite::fig12_suite;
use pandora_core::baseline::dendrogram_union_find;
use pandora_core::{pandora, SortedMst};
use pandora_exec::ExecCtx;
use pandora_mst::emst;

fn mst_of(points: &pandora_mst::PointSet, min_pts: usize) -> SortedMst {
    let ctx = ExecCtx::threads();
    let edges = emst(&ctx, points, min_pts).edges;
    SortedMst::from_edges(&ctx, points.len(), &edges)
}

fn bench_fig11_datasets(c: &mut Criterion) {
    let ctx = ExecCtx::threads();
    let mut group = c.benchmark_group("fig11_dendrogram");
    group.sample_size(10);
    for ds in fig12_suite() {
        let points = ds.generate(30_000, 12);
        let mst = mst_of(&points, 2);
        group.throughput(Throughput::Elements(points.len() as u64));
        group.bench_with_input(BenchmarkId::new("pandora", ds.label), &mst, |b, mst| {
            b.iter(|| pandora::dendrogram_from_sorted(&ctx, mst).0)
        });
        group.bench_with_input(BenchmarkId::new("union_find", ds.label), &mst, |b, mst| {
            b.iter(|| dendrogram_union_find(mst))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(4));
    targets = bench_fig11_datasets
);
criterion_main!(benches);
