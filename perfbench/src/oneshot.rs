//! `oneshot_cold`: the paper's Fig. 1 path and `pandora-cli hdbscan`'s —
//! `Hdbscan::run` with defaults and `min_pts = 2`, freezing a fresh index
//! for every operation, on the Hacc37M Soneira–Peebles proxy.
//!
//! Operations rotate over a few independently seeded instances of the
//! proxy, so one instance's clustering does not set a run's numbers.

use std::time::{Duration, Instant};

use pandora_core::DendrogramWorkspace;
use pandora_data::by_name;
use pandora_exec::ExecCtx;
use pandora_hdbscan::{ClusterRequest, DatasetIndex, Hdbscan, HdbscanParams, HdbscanResult};
use pandora_mst::{EmstIndex, EmstScratch, PointSet};

use crate::layers::{
    check, freeze_layers, poison, record_medians, request_layers, serial_counts, stat_snapshot,
    LayerTimes, PassCounts, View,
};
use crate::report::{closed_loop, end_to_end, median, repeated_setup, Layers, Outcome};
use crate::Config;

const MIN_PTS: usize = 2;
/// Proxy instances the operations rotate over.
const INSTANCES: u64 = 4;

pub fn run(cfg: &Config) -> Outcome {
    let n = cfg.size(32_768, 2_048);
    let spec = by_name("Hacc37M").expect("Hacc37M is in the dataset registry");
    let datasets: Vec<PointSet> = (0..INSTANCES)
        .map(|j| spec.generate(n, cfg.seed.wrapping_mul(INSTANCES).wrapping_add(j)))
        .collect();
    let params = HdbscanParams {
        min_pts: MIN_PTS,
        ..HdbscanParams::default()
    };
    let request = ClusterRequest::new()
        .min_pts(MIN_PTS)
        .min_cluster_size(params.min_cluster_size)
        .allow_single_cluster(params.allow_single_cluster);
    let mut references: Vec<HdbscanResult> = datasets
        .iter()
        .map(|points| Hdbscan::with_ctx(params, ExecCtx::serial()).run(points))
        .collect();
    if cfg.corrupt_reference {
        references.iter_mut().for_each(|r| poison(&mut r.labels));
    }
    let skewness: Vec<f64> = references.iter().map(|r| r.dendrogram.skewness()).collect();
    let inputs = vec![
        ("n", datasets[0].len() as f64),
        ("dim", datasets[0].dim() as f64),
        ("instances", INSTANCES as f64),
        ("skewness_median", median(&skewness)),
    ];
    let pick = |i: usize| i % datasets.len();

    // Set-up: the freeze a one-shot pays before its first Borůvka round
    // (it is also inside every operation).
    let mut rep = 0;
    let (_, setup_s) = repeated_setup(9, || {
        let copy = datasets[pick(rep)].clone();
        rep += 1;
        let t = Instant::now();
        let index = DatasetIndex::freeze(copy, MIN_PTS).expect("the input freezes");
        (index, t.elapsed().as_secs_f64())
    });

    let mut op = |i: usize| {
        let k = pick(i);
        let t = Instant::now();
        let result = Hdbscan::new(params).run(&datasets[k]);
        let d = t.elapsed();
        check(
            &View::from(&references[k]),
            &View::from(&result),
            "Hdbscan::run",
        );
        Ok(d)
    };
    if !cfg.trace {
        let samples = closed_loop(cfg.budget, datasets.len(), op);
        return Outcome {
            attempted: samples.attempted,
            failed: samples.failed,
            metrics: end_to_end(setup_s, &samples),
            inputs,
        };
    }

    let untraced = closed_loop(cfg.budget.part(0.3, 8), datasets.len(), &mut op);
    let ctx = ExecCtx::threads();
    let mut times = Vec::new();
    let traced = closed_loop(cfg.budget.part(0.5, 8), datasets.len(), |i| {
        let k = pick(i);
        let mut t = LayerTimes::default();
        let index =
            EmstIndex::freeze(&ctx, datasets[k].clone(), MIN_PTS).expect("the input freezes");
        freeze_layers(&ctx, &datasets[k], &index, &mut t);
        let out = request_layers(
            &ctx,
            &index,
            &request,
            &mut EmstScratch::new(),
            &mut DendrogramWorkspace::new(),
            &mut t,
            true,
        );
        check(&View::from(&references[k]), &out.view(), "composed layers");
        times.push(t);
        Ok(Duration::from_secs_f64(t.total() / 1e3))
    });
    let mut layers = Layers::default();
    record_medians(&mut layers, &times);
    layers.set(
        "trace.overhead_ratio",
        median(&traced.latency_ms) / median(&untraced.latency_ms),
    );
    serial_counts(&mut layers, |ctx, meter| {
        meter.begin();
        let mut counts = PassCounts::default();
        for (points, reference) in datasets.iter().zip(&references) {
            let index = EmstIndex::freeze(ctx, points.clone(), MIN_PTS).expect("the input freezes");
            let before = stat_snapshot(&index);
            let out = request_layers(
                ctx,
                &index,
                &request,
                &mut EmstScratch::new(),
                &mut DendrogramWorkspace::new(),
                &mut LayerTimes::default(),
                false,
            );
            check(&View::from(reference), &out.view(), "serial pass");
            counts.add(&out, Some((&index, before)));
        }
        counts
    });
    Outcome {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: layers.into_metrics(),
        inputs,
    }
}
