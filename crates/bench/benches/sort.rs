//! Sorting ablation: parallel radix vs parallel merge vs std — sorting is
//! 67–85% of PANDORA's CPU time (paper Fig. 13), so the substrate's sort
//! choice dominates end-to-end performance. Every contender produces the
//! same order: packed records sorted stably by their high word, the order
//! both PANDORA sorts ask of the radix.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::prelude::*;

use pandora_core::expansion::sort_chain_keys;
use pandora_exec::radix::par_radix_sort_by_high_word;
use pandora_exec::sort::par_sort_by_key;
use pandora_exec::ExecCtx;

fn bench_sorts(c: &mut Criterion) {
    let ctx = ExecCtx::threads();
    let mut group = c.benchmark_group("sort_u64_by_high_word");
    group.sample_size(10);
    for n in [100_000usize, 1_000_000] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let template: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("par_radix", n), &n, |b, _| {
            b.iter_batched(
                || template.clone(),
                |mut keys| par_radix_sort_by_high_word(&ctx, &mut keys),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("par_merge", n), &n, |b, _| {
            b.iter_batched(
                || template.clone(),
                |mut keys| par_sort_by_key(&ctx, &mut keys, |&k| k >> 32),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("std_stable", n), &n, |b, _| {
            b.iter_batched(
                || template.clone(),
                |mut keys| keys.sort_by_key(|&k| k >> 32),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_chain_key_distribution(c: &mut Criterion) {
    // PANDORA's final sort sees keys with few distinct high bytes (chain
    // ids) over ascending edge ids; the radix skip-pass optimization should
    // show here. Timed through `sort_chain_keys`, the code that ships.
    let ctx = ExecCtx::threads();
    let n = 1_000_000usize;
    let mut rng = StdRng::seed_from_u64(3);
    let template: Vec<u64> = (0..n)
        .map(|i| ((rng.gen_range(0..512u64)) << 32) | i as u64)
        .collect();
    let mut group = c.benchmark_group("sort_chain_keys");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("par_radix_sparse_high_bits", |b| {
        b.iter_batched(
            || template.clone(),
            |mut keys| sort_chain_keys(&ctx, &mut keys),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3));
    targets = bench_sorts, bench_chain_key_distribution
);
criterion_main!(benches);
