//! EMST substrate: kd-tree construction, the freeze's k-NN rows, k-NN core
//! distances, Borůvka.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pandora_data::by_name;
use pandora_exec::{ExecCtx, ScratchPool};
use pandora_mst::{
    boruvka_mst, core_distances2, emst, knn_rows_into, BoruvkaExtras, Euclidean, KdTree,
    TreeMutualReachability,
};

fn bench_kdtree_build(c: &mut Criterion) {
    let ctx = ExecCtx::threads();
    let mut group = c.benchmark_group("kdtree_build");
    group.sample_size(10);
    for n in [50_000usize, 200_000] {
        let points = by_name("Uniform100M3D").unwrap().generate(n, 1);
        group.throughput(Throughput::Elements(points.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, points| {
            b.iter(|| KdTree::build(&ctx, points))
        });
    }
    group.finish();
}

fn bench_knn_rows(c: &mut Criterion) {
    // The freeze's sorted k-NN rows at its two widths: rows_k 9 is
    // `max_min_pts = 2` (the skewed-dendrogram set-up), rows_k 23 is
    // `max_min_pts = 16` (the serving daemon's 5,000-point load).
    let ctx = ExecCtx::threads();
    let mut group = c.benchmark_group("knn_rows");
    group.sample_size(10);
    for (name, n, k) in [
        ("Normal100M3D", 250_000usize, 9usize),
        ("VisualVar10M2D", 5_000, 23),
    ] {
        let points = by_name(name).unwrap().generate(n, 31);
        let tree = KdTree::build(&ctx, &points);
        let (mut d2, mut idx) = (Vec::new(), Vec::new());
        group.throughput(Throughput::Elements(points.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("k{k}"), name),
            &points,
            |b, points| b.iter(|| knn_rows_into(&ctx, points, &tree, k, &mut d2, &mut idx)),
        );
    }
    group.finish();
}

fn bench_core_distances(c: &mut Criterion) {
    let ctx = ExecCtx::threads();
    let points = by_name("Hacc37M").unwrap().generate(50_000, 2);
    let tree = KdTree::build(&ctx, &points);
    let mut group = c.benchmark_group("core_distances");
    group.sample_size(10);
    group.throughput(Throughput::Elements(points.len() as u64));
    for min_pts in [2usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(min_pts),
            &min_pts,
            |b, &min_pts| b.iter(|| core_distances2(&ctx, &points, &tree, min_pts)),
        );
    }
    group.finish();
}

fn bench_boruvka(c: &mut Criterion) {
    let ctx = ExecCtx::threads();
    let mut group = c.benchmark_group("boruvka_emst");
    group.sample_size(10);
    for (name, n) in [("Uniform100M2D", 12_000usize), ("Hacc37M", 12_000)] {
        let points = by_name(name).unwrap().generate(n, 4);
        group.throughput(Throughput::Elements(points.len() as u64));
        group.bench_with_input(BenchmarkId::new("euclidean", name), &points, |b, points| {
            let tree = KdTree::build(&ctx, points);
            b.iter(|| {
                let pool = ScratchPool::new();
                boruvka_mst(
                    &ctx,
                    points,
                    &tree,
                    &Euclidean,
                    BoruvkaExtras::default(),
                    &pool,
                )
            })
        });
        group.bench_with_input(
            BenchmarkId::new("mutual_reachability", name),
            &points,
            |b, points| {
                let tree = KdTree::build(&ctx, points);
                // Borůvka reads core distances in tree order.
                let core2 = tree.in_tree_order(&core_distances2(&ctx, points, &tree, 2));
                let mut node_core2 = Vec::new();
                tree.min_core2_into(&core2, &mut node_core2);
                let metric = TreeMutualReachability { core2: &core2 };
                b.iter(|| {
                    let extras = BoruvkaExtras {
                        node_core2: &node_core2,
                        ..Default::default()
                    };
                    boruvka_mst(&ctx, points, &tree, &metric, extras, &ScratchPool::new())
                })
            },
        );
    }
    group.finish();
}

fn bench_emst_pipeline(c: &mut Criterion) {
    // The one-shot end-to-end EMST (freeze → core → Borůvka) — fig01's
    // cold EMST stage.
    let ctx = ExecCtx::threads();
    let mut group = c.benchmark_group("emst_pipeline");
    group.sample_size(10);
    for (name, n) in [("Hacc37M", 20_000usize), ("Uniform100M2D", 20_000)] {
        let points = by_name(name).unwrap().generate(n, 42);
        group.throughput(Throughput::Elements(points.len() as u64));
        group.bench_with_input(BenchmarkId::new("min_pts2", name), &points, |b, points| {
            b.iter(|| emst(&ctx, points, 2))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(4));
    targets = bench_kdtree_build, bench_knn_rows, bench_core_distances, bench_boruvka,
        bench_emst_pipeline
);
criterion_main!(benches);
