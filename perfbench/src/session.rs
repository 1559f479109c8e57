//! `session_sweep`: the interactive warm path. One `DatasetIndex` frozen
//! in set-up over the VisualVar10M2D proxy, then one session on the index's
//! default context answering a closed loop of `min_pts` ×
//! `min_cluster_size` requests: every request once per cycle, in a fresh
//! seeded order each cycle.
//!
//! A warm request's cost depends on the request before it (the session's
//! endgame bounds were proved at the previous `min_pts`), so one fixed order
//! would let its few transitions set the tail; reshuffling samples them all.
//!
//! The dataset is pinned and the seed drives the request order. The seed
//! spreader restarts its walk about once every two datasets at any size, so
//! a seed decides between one and three density levels; with the data drawn
//! from the seed, p50 ranged from 30 to 55 ms over ten seeds on one host.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pandora_core::DendrogramWorkspace;
use pandora_data::by_name;
use pandora_exec::ExecCtx;
use pandora_hdbscan::{ClusterRequest, DatasetIndex, Hdbscan, HdbscanResult};
use pandora_mst::{EmstIndex, EmstScratch};

use crate::layers::{
    check, freeze_layers, poison, record_medians, request_layers, serial_counts, stat_snapshot,
    LayerTimes, PassCounts, View,
};
use crate::report::{closed_loop, end_to_end, median, repeated_setup, timed, Layers, Outcome, Rng};
use crate::Config;

/// The freeze ceiling: the largest `min_pts` of the cycle.
const MAX_MIN_PTS: usize = 32;
const MIN_PTS: [usize; 5] = [2, 4, 8, 16, 32];
const MIN_CLUSTER_SIZES: [usize; 2] = [5, 50];
/// Requests replayed by each serial counting pass.
const COUNTED_REQUESTS: usize = 5;
/// Generator seed of the pinned dataset (see the module docs).
const DATASET_SEED: u64 = 42;

/// The request order: a fresh seeded permutation of the requests per cycle.
struct Order {
    rng: Rng,
    len: usize,
    order: Vec<usize>,
}

impl Order {
    fn new(seed: u64, len: usize) -> Self {
        Self {
            rng: Rng::new(seed),
            len,
            order: Vec::new(),
        }
    }

    /// The request operation `i` runs.
    fn get(&mut self, i: usize) -> usize {
        while self.order.len() <= i {
            let mut cycle: Vec<usize> = (0..self.len).collect();
            self.rng.shuffle(&mut cycle);
            self.order.extend(cycle);
        }
        self.order[i]
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let n = cfg.size(50_000, 3_000);
    let points = by_name("VisualVar10M2D")
        .expect("VisualVar10M2D is in the dataset registry")
        .generate(n, DATASET_SEED);
    let requests: Vec<ClusterRequest> = MIN_PTS
        .iter()
        .flat_map(|&m| {
            MIN_CLUSTER_SIZES
                .iter()
                .map(move |&c| ClusterRequest::new().min_pts(m).min_cluster_size(c))
        })
        .collect();
    let mut references: Vec<HdbscanResult> = requests
        .iter()
        .map(|r| Hdbscan::with_ctx(r.to_params(), ExecCtx::serial()).run(&points))
        .collect();
    if cfg.corrupt_reference {
        references.iter_mut().for_each(|r| poison(&mut r.labels));
    }
    let inputs = vec![
        ("n", points.len() as f64),
        ("dim", points.dim() as f64),
        ("skewness", references[0].dendrogram.skewness()),
        ("requests_per_cycle", requests.len() as f64),
    ];

    let (index, setup_s) = repeated_setup(7, || {
        let copy = points.clone();
        let t = Instant::now();
        let index = DatasetIndex::freeze(copy, MAX_MIN_PTS).expect("the input freezes");
        (index, t.elapsed().as_secs_f64())
    });
    let index = Arc::new(index);

    let mut order = Order::new(cfg.seed, requests.len());
    let mut session = index.session();
    let mut op = |i: usize| {
        let k = order.get(i);
        let t = Instant::now();
        let result = session.run(&requests[k]).map_err(|e| e.to_string())?;
        let d = t.elapsed();
        check(
            &View::from(&references[k]),
            &View::from(&result),
            "Session::run",
        );
        Ok(d)
    };
    if !cfg.trace {
        let samples = closed_loop(cfg.budget, requests.len(), op);
        return Outcome {
            attempted: samples.attempted,
            failed: samples.failed,
            metrics: end_to_end(setup_s, &samples),
            inputs,
        };
    }

    let untraced = closed_loop(cfg.budget.part(0.3, 5), requests.len(), &mut op);
    drop(session);
    let ctx = index.ctx().clone();
    let mut scratch = EmstScratch::new();
    let mut ws = DendrogramWorkspace::new();
    let mut order = Order::new(cfg.seed, requests.len());
    let mut times = Vec::new();
    let mut acquire_us = Vec::new();
    let traced = closed_loop(cfg.budget.part(0.4, 5), requests.len(), |i| {
        let k = order.get(i);
        let ((), ms) = timed(|| drop(index.session_with_ctx(ctx.clone())));
        acquire_us.push(ms * 1e3);
        let mut t = LayerTimes::default();
        let out = request_layers(
            &ctx,
            index.emst(),
            &requests[k],
            &mut scratch,
            &mut ws,
            &mut t,
            true,
        );
        check(&View::from(&references[k]), &out.view(), "composed layers");
        times.push(t);
        Ok(Duration::from_secs_f64(t.total() / 1e3))
    });
    let mut layers = Layers::default();
    record_medians(&mut layers, &times);
    // The freeze's layers (set-up here, not per operation).
    let freezes: Vec<LayerTimes> = (0..3)
        .map(|_| {
            let mut t = LayerTimes::default();
            freeze_layers(&ctx, &points, index.emst(), &mut t);
            t
        })
        .collect();
    let freeze_median =
        |f: fn(&LayerTimes) -> f64| median(&freezes.iter().map(f).collect::<Vec<_>>());
    layers.set("mst.kdtree_ms", freeze_median(|t| t.kdtree));
    layers.set("mst.knn_rows_ms", freeze_median(|t| t.knn_rows));
    layers.set("hdbscan.session_acquire_us", median(&acquire_us));
    layers.set(
        "trace.overhead_ratio",
        median(&traced.latency_ms) / median(&untraced.latency_ms),
    );
    serial_counts(&mut layers, |ctx, meter| {
        let index = EmstIndex::freeze(ctx, points.clone(), MAX_MIN_PTS).expect("the input freezes");
        let mut scratch = EmstScratch::new();
        let mut ws = DendrogramWorkspace::new();
        let mut order = Order::new(cfg.seed, requests.len());
        let mut counts = PassCounts::default();
        meter.begin();
        for i in 0..COUNTED_REQUESTS {
            let k = order.get(i);
            let before = stat_snapshot(&index);
            let out = request_layers(
                ctx,
                &index,
                &requests[k],
                &mut scratch,
                &mut ws,
                &mut LayerTimes::default(),
                false,
            );
            check(&View::from(&references[k]), &out.view(), "serial pass");
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
