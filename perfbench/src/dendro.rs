//! `dendro_skewed`: the paper's own kernel on the skewed input it targets.
//! A mutual-reachability MST of the Normal100M3D proxy is built in set-up
//! and shuffled; each operation sorts it, builds the dendrogram with the
//! default backend through a reused workspace and extracts flat clusters.

use std::time::{Duration, Instant};

use pandora_core::baseline::dendrogram_union_find_mt;
use pandora_core::{DendrogramBackend, DendrogramWorkspace, SortedMst};
use pandora_data::by_name;
use pandora_exec::ExecCtx;
use pandora_hdbscan::{
    cluster_stabilities, condense, extract_labels, select_clusters, ClusterRequest,
};
use pandora_mst::{emst_from_index_with, EmstIndex, EmstScratch, MetricKind};

use crate::layers::{
    back_half, check, poison, record_medians, serial_counts, LayerTimes, PassCounts, View,
};
use crate::report::{closed_loop, end_to_end, median, repeated_setup, Layers, Outcome, Rng};
use crate::Config;

const MIN_PTS: usize = 2;
/// Operations per throughput block (about half a second at full scale).
const BLOCK: usize = 5;

pub fn run(cfg: &Config) -> Outcome {
    let n = cfg.size(250_000, 5_000);
    let points = by_name("Normal100M3D")
        .expect("Normal100M3D is in the dataset registry")
        .generate(n, cfg.seed);
    let request = ClusterRequest::new();
    let ctx = ExecCtx::threads();

    // Set-up: the input MST, through the frozen-index EMST path.
    let (mut edges, setup_s) = repeated_setup(3, || {
        let copy = points.clone();
        let t = Instant::now();
        let index = EmstIndex::freeze(&ctx, copy, MIN_PTS).expect("the input freezes");
        let emst = emst_from_index_with(
            &ctx,
            &index,
            MIN_PTS,
            MetricKind::MutualReachability,
            &mut EmstScratch::new(),
        )
        .expect("min_pts is within the freeze ceiling");
        (emst.edges, t.elapsed().as_secs_f64())
    });
    Rng::new(cfg.seed).shuffle(&mut edges);

    // Reference: the independent union–find dendrogram, then extraction.
    let serial = ExecCtx::serial();
    let (ref_dendrogram, _, _) = dendrogram_union_find_mt(&serial, n, &edges);
    let ref_mst = SortedMst::from_edges(&serial, n, &edges);
    let ref_condensed = condense(&ref_dendrogram, request.min_cluster_size);
    let ref_selected = select_clusters(
        &ref_condensed,
        &cluster_stabilities(&ref_condensed),
        request.allow_single_cluster,
    );
    let (mut ref_labels, ref_probabilities) = extract_labels(&ref_condensed, &ref_selected);
    if cfg.corrupt_reference {
        poison(&mut ref_labels);
    }
    let want = View {
        core2: None,
        mst: &ref_mst,
        dendrogram: &ref_dendrogram,
        labels: &ref_labels,
        probabilities: &ref_probabilities,
    };
    let inputs = vec![
        ("n", n as f64),
        ("dim", points.dim() as f64),
        ("skewness", ref_dendrogram.skewness()),
        ("mst_edges", edges.len() as f64),
    ];

    let mut ws = DendrogramWorkspace::new();
    let mut op = |_: usize| {
        let t = Instant::now();
        let mst = SortedMst::from_edges(&ctx, n, &edges);
        let (dendrogram, _) = DendrogramBackend::resolve(None).build(&ctx, &mst, &mut ws);
        let condensed = condense(&dendrogram, request.min_cluster_size);
        let selected = select_clusters(
            &condensed,
            &cluster_stabilities(&condensed),
            request.allow_single_cluster,
        );
        let (labels, probabilities) = extract_labels(&condensed, &selected);
        let d = t.elapsed();
        let got = View {
            core2: None,
            mst: &mst,
            dendrogram: &dendrogram,
            labels: &labels,
            probabilities: &probabilities,
        };
        check(&want, &got, "dendrogram and extraction");
        Ok(d)
    };
    if !cfg.trace {
        let samples = closed_loop(cfg.budget, BLOCK, op);
        return Outcome {
            attempted: samples.attempted,
            failed: samples.failed,
            metrics: end_to_end(setup_s, &samples),
            inputs,
        };
    }

    let untraced = closed_loop(cfg.budget.part(0.3, 5), BLOCK, &mut op);
    let mut times = Vec::new();
    let traced = closed_loop(cfg.budget.part(0.5, 5), BLOCK, |_| {
        let mut t = LayerTimes::default();
        let out = back_half(&ctx, n, &edges, &request, &mut ws, &mut t);
        check(&want, &out.view(), "composed layers");
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
        let mut ws = DendrogramWorkspace::new();
        meter.begin();
        let out = back_half(
            ctx,
            n,
            &edges,
            &request,
            &mut ws,
            &mut LayerTimes::default(),
        );
        check(&want, &out.view(), "serial pass");
        let mut counts = PassCounts::default();
        counts.add(&out, None);
        counts
    });
    Outcome {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: layers.into_metrics(),
        inputs,
    }
}
