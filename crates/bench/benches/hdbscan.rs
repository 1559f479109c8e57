//! End-to-end HDBSCAN\* pipeline benches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pandora_data::by_name;
use std::sync::Arc;

use pandora_exec::ExecCtx;
use pandora_hdbscan::{ClusterRequest, DatasetIndex, Hdbscan, HdbscanParams};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdbscan_pipeline");
    group.sample_size(10);
    for name in ["Hacc37M", "Ngsimlocation3"] {
        let points = by_name(name).unwrap().generate(20_000, 6);
        group.throughput(Throughput::Elements(points.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &points, |b, points| {
            let driver = Hdbscan::with_ctx(HdbscanParams::default(), ExecCtx::threads());
            b.iter(|| driver.run(points))
        });
    }
    group.finish();
}

fn bench_mpts_sensitivity(c: &mut Criterion) {
    // Fig 15's knob: rising mpts should grow the dendrogram stage only
    // mildly for PANDORA.
    let points = by_name("Uniform100M3D").unwrap().generate(20_000, 8);
    let mut group = c.benchmark_group("hdbscan_mpts");
    group.sample_size(10);
    for mpts in [2usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(mpts), &mpts, |b, &mpts| {
            let driver = Hdbscan::with_ctx(
                HdbscanParams {
                    min_pts: mpts,
                    ..Default::default()
                },
                ExecCtx::threads(),
            );
            b.iter(|| driver.run(&points))
        });
    }
    group.finish();
}

fn bench_session_sweep(c: &mut Criterion) {
    // The serving shape: one frozen index and one session per dataset, a
    // whole mpts sweep per iteration (amortized build + k-NN + pooled
    // buffers) vs the same four requests served by cold one-shot pipelines.
    let points = by_name("Uniform100M3D").unwrap().generate(20_000, 8);
    let sweep = [2usize, 4, 8, 16];
    let mut group = c.benchmark_group("hdbscan_sweep");
    group.sample_size(10);
    group.bench_function("sweep_session", |b| {
        b.iter(|| {
            let index = Arc::new(DatasetIndex::freeze(points.clone(), 16).unwrap());
            let mut session = index.session();
            sweep
                .iter()
                .map(|&min_pts| session.run(&ClusterRequest::new().min_pts(min_pts)))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("sweep_cold_runs", |b| {
        b.iter(|| {
            sweep
                .iter()
                .map(|&min_pts| {
                    Hdbscan::with_ctx(
                        HdbscanParams {
                            min_pts,
                            ..Default::default()
                        },
                        ExecCtx::threads(),
                    )
                    .run(&points)
                })
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(5));
    targets = bench_pipeline, bench_mpts_sensitivity, bench_session_sweep
);
criterion_main!(benches);
