//! The traced pass: each layer's public entry point called from outside, in
//! pipeline order, timed by the benchmark's own clock. The composed result
//! is checked bit for bit against the workload's entry point.

use std::cell::Cell;
use std::sync::Arc;

use pandora_core::{Dendrogram, DendrogramBackend, DendrogramWorkspace, Edge, SortedMst};
use pandora_exec::trace::Tracer;
use pandora_exec::ExecCtx;
use pandora_hdbscan::{
    cluster_stabilities, condense, extract_labels, select_clusters, ClusterRequest, HdbscanResult,
};
use pandora_mst::{
    emst_from_index_with, knn_rows_into, EmstIndex, EmstScratch, KdTree, MetricKind, PointSet,
};

use crate::alloc;
use crate::report::{median, timed, wrong_answer, Layers, TRACE_PHASES};

/// Layer times of one traced operation, in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub kdtree: f64,
    pub knn_rows: f64,
    pub core2: f64,
    pub boruvka: f64,
    pub sort: f64,
    pub dendrogram: f64,
    pub condense: f64,
    pub select: f64,
    pub labels: f64,
}

impl LayerTimes {
    /// The composed operation's time: the sum of its layers.
    pub fn total(&self) -> f64 {
        self.kdtree
            + self.knn_rows
            + self.core2
            + self.boruvka
            + self.sort
            + self.dendrogram
            + self.condense
            + self.select
            + self.labels
    }
}

/// Records the median of each layer over `ops` under its metric name.
/// Layers an operation never calls read 0 in every sample.
pub fn record_medians(layers: &mut Layers, ops: &[LayerTimes]) {
    let med = |f: fn(&LayerTimes) -> f64| median(&ops.iter().map(f).collect::<Vec<_>>());
    layers.set("mst.kdtree_ms", med(|t| t.kdtree));
    layers.set("mst.knn_rows_ms", med(|t| t.knn_rows));
    layers.set("mst.core2_ms", med(|t| t.core2));
    layers.set("mst.boruvka_ms", med(|t| t.boruvka));
    layers.set("core.sort_ms", med(|t| t.sort));
    layers.set("core.dendrogram_ms", med(|t| t.dendrogram));
    layers.set("hdbscan.condense_ms", med(|t| t.condense));
    layers.set("hdbscan.select_ms", med(|t| t.select));
    layers.set("hdbscan.labels_ms", med(|t| t.labels));
}

/// What a pipeline produced, borrowed for comparison.
pub struct View<'a> {
    pub core2: Option<&'a [f32]>,
    pub mst: &'a SortedMst,
    pub dendrogram: &'a Dendrogram,
    pub labels: &'a [i32],
    pub probabilities: &'a [f32],
}

impl<'a> From<&'a HdbscanResult> for View<'a> {
    fn from(r: &'a HdbscanResult) -> Self {
        Self {
            core2: Some(&r.core2),
            mst: &r.mst,
            dendrogram: &r.dendrogram,
            labels: &r.labels,
            probabilities: &r.probabilities,
        }
    }
}

fn same_f32(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The first output that differs between `want` and `got`, if any.
pub fn first_difference(want: &View, got: &View) -> Option<&'static str> {
    if let (Some(a), Some(b)) = (want.core2, got.core2) {
        if !same_f32(a, b) {
            return Some("core distances");
        }
    }
    if want.mst.src != got.mst.src
        || want.mst.dst != got.mst.dst
        || !same_f32(&want.mst.weight, &got.mst.weight)
    {
        return Some("sorted MST");
    }
    let (d, e) = (want.dendrogram, got.dendrogram);
    if d.edge_parent != e.edge_parent
        || d.vertex_parent != e.vertex_parent
        || !same_f32(&d.edge_weight, &e.edge_weight)
    {
        return Some("dendrogram");
    }
    if want.labels != got.labels {
        return Some("labels");
    }
    if !same_f32(want.probabilities, got.probabilities) {
        return Some("probabilities");
    }
    None
}

/// Aborts the run unless `got` equals `want` bit for bit.
pub fn check(want: &View, got: &View, what: &str) {
    if let Some(field) = first_difference(want, got) {
        wrong_answer(&format!("{what}: {field} differ from the reference"));
    }
}

/// Makes reference labels deliberately wrong (flips one), to prove the
/// checks catch it.
pub fn poison(labels: &mut [i32]) {
    labels[0] = if labels[0] == 0 { 1 } else { 0 };
}

/// The freeze's two layers, timed: `KdTree::build`, then `knn_rows_into`
/// at `rows_k`. Aborts unless the rows equal the frozen `index`'s.
pub fn freeze_layers(ctx: &ExecCtx, points: &PointSet, index: &EmstIndex, t: &mut LayerTimes) {
    ctx.set_phase("emst_build");
    let (tree, kdtree) = timed(|| KdTree::build(ctx, points));
    let (mut d2, mut idx) = (Vec::new(), Vec::new());
    ctx.set_phase("emst_core");
    let ((), knn_rows) =
        timed(|| knn_rows_into(ctx, points, &tree, index.rows_k(), &mut d2, &mut idx));
    let rows = index
        .rows()
        .unwrap_or_else(|| wrong_answer("index has no k-NN rows"));
    if !same_f32(rows.d2, &d2) || rows.idx != idx.as_slice() {
        wrong_answer("k-NN rows differ from the frozen index's");
    }
    t.kdtree = kdtree;
    t.knn_rows = knn_rows;
}

/// The outputs of a composed pipeline.
pub struct Composed {
    pub core2: Vec<f32>,
    pub mst: SortedMst,
    pub dendrogram: Dendrogram,
    pub labels: Vec<i32>,
    pub probabilities: Vec<f32>,
    pub levels: u64,
    pub level_edges: u64,
}

impl Composed {
    pub fn view(&self) -> View<'_> {
        View {
            core2: Some(&self.core2),
            mst: &self.mst,
            dendrogram: &self.dendrogram,
            labels: &self.labels,
            probabilities: &self.probabilities,
        }
    }
}

/// The back half from an edge list: sort, dendrogram (default-resolved
/// backend, through `ws`), condense, stabilities + selection, labels.
pub fn back_half(
    ctx: &ExecCtx,
    n: usize,
    edges: &[Edge],
    request: &ClusterRequest,
    ws: &mut DendrogramWorkspace,
    t: &mut LayerTimes,
) -> Composed {
    // Phase labels as the serving path sets them, so kernel traces of the
    // composed pass and of the entry point attribute work alike.
    ctx.set_phase("sort");
    let (mst, sort) = timed(|| SortedMst::from_edges(ctx, n, edges));
    let ((dendrogram, stats), dendro) =
        timed(|| DendrogramBackend::resolve(None).build(ctx, &mst, ws));
    ctx.set_phase("extract");
    let (condensed, condense_ms) = timed(|| condense(&dendrogram, request.min_cluster_size));
    let (selected, select) = timed(|| {
        let stabilities = cluster_stabilities(&condensed);
        select_clusters(&condensed, &stabilities, request.allow_single_cluster)
    });
    let ((labels, probabilities), labels_ms) = timed(|| extract_labels(&condensed, &selected));
    t.sort = sort;
    t.dendrogram = dendro;
    t.condense = condense_ms;
    t.select = select;
    t.labels = labels_ms;
    Composed {
        core2: Vec::new(),
        mst,
        dendrogram,
        labels,
        probabilities,
        levels: stats.n_levels as u64,
        level_edges: stats.level_edge_counts.iter().sum::<usize>() as u64,
    }
}

/// One single-linkage request against a frozen index: the core-distance
/// prefix, the Borůvka MST (`emst_from_index_with` minus the core time),
/// then [`back_half`].
///
/// With `time_core2` the prefix is also run on its own to time it; work
/// counting passes leave that extra call out so they count only what the
/// entry point does.
pub fn request_layers(
    ctx: &ExecCtx,
    index: &EmstIndex,
    request: &ClusterRequest,
    scratch: &mut EmstScratch,
    ws: &mut DendrogramWorkspace,
    t: &mut LayerTimes,
    time_core2: bool,
) -> Composed {
    let mut core2 = Vec::new();
    let mut core2_ms = 0.0;
    if time_core2 {
        ctx.set_phase("emst_core");
        let (r, elapsed) = timed(|| index.core2_into(ctx, request.min_pts, &mut core2));
        r.unwrap_or_else(|e| wrong_answer(&format!("core2_into rejected a valid request: {e}")));
        core2_ms = elapsed;
    }
    let (emst, emst_ms) = timed(|| {
        emst_from_index_with(
            ctx,
            index,
            request.min_pts,
            MetricKind::MutualReachability,
            scratch,
        )
    });
    let emst =
        emst.unwrap_or_else(|e| wrong_answer(&format!("EMST rejected a valid request: {e}")));
    if time_core2 && !same_f32(&emst.core2, &core2) {
        wrong_answer("core2_into and the EMST disagree on core distances");
    }
    t.core2 = core2_ms;
    t.boruvka = (emst_ms - core2_ms).max(0.0);
    let mut out = back_half(ctx, index.len(), &emst.edges, request, ws, t);
    out.core2 = emst.core2;
    out
}

/// Deterministic work counts of one serial pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PassCounts {
    pub ops: u64,
    pub witness_hits: u64,
    pub researches: u64,
    pub snapshot_adopts: u64,
    pub levels: u64,
    pub level_edges: u64,
}

impl PassCounts {
    /// Adds one operation's composed output and, when it ran against an
    /// index, the index-stat deltas it caused (`before` is
    /// `(hits, researches, adopts)` before the call).
    pub fn add(&mut self, out: &Composed, index: Option<(&EmstIndex, (u64, u64, u64))>) {
        self.ops += 1;
        if let Some((index, before)) = index {
            let s = index.stats();
            self.witness_hits += s.witness_hits() - before.0;
            self.researches += s.researches() - before.1;
            self.snapshot_adopts += s.snapshot_adopts() - before.2;
        }
        self.levels += out.levels;
        self.level_edges += out.level_edges;
    }
}

/// The `(hits, researches, adopts)` counters of an index right now.
pub fn stat_snapshot(index: &EmstIndex) -> (u64, u64, u64) {
    let s = index.stats();
    (s.witness_hits(), s.researches(), s.snapshot_adopts())
}

/// Marks where a counting pass's operations start: everything the pass
/// does before [`Meter::begin`] (building its index, say) is set-up and
/// is not counted.
pub struct Meter {
    tracer: Option<Arc<Tracer>>,
    count_allocs: bool,
    base: Cell<Option<(u64, u64)>>,
}

impl Meter {
    /// Starts counting allocations (untraced passes) or clears the kernel
    /// trace (traced passes).
    pub fn begin(&self) {
        if let Some(tracer) = &self.tracer {
            tracer.reset();
        }
        if self.count_allocs {
            self.base.set(Some(alloc::start()));
        }
    }
}

/// Counts, allocations and per-phase kernel totals of one serial pass.
type PassResult = (PassCounts, (u64, u64), Vec<(u64, u64)>);

fn run_pass(pass: &mut dyn FnMut(&ExecCtx, &Meter) -> PassCounts, traced: bool) -> PassResult {
    let (ctx, tracer) = if traced {
        let (ctx, tracer) = ExecCtx::serial().with_tracing();
        (ctx, Some(tracer))
    } else {
        (ExecCtx::serial(), None)
    };
    let meter = Meter {
        tracer: tracer.clone(),
        count_allocs: !traced,
        base: Cell::new(None),
    };
    let counts = pass(&ctx, &meter);
    let allocs = meter.base.get().map_or((0, 0), alloc::stop);
    let totals = tracer.map_or_else(Vec::new, |tracer| {
        let trace = tracer.snapshot();
        TRACE_PHASES
            .iter()
            .map(|p| {
                let phase = trace.phase(p);
                (
                    phase.events.iter().map(|e| e.n).sum(),
                    phase.events.iter().map(|e| e.bytes).sum(),
                )
            })
            .collect()
    });
    (counts, allocs, totals)
}

/// Runs `pass` on serial contexts four times: twice untraced with the
/// allocation counter on, twice traced. Aborts unless the two runs of each
/// kind agree to the unit, then records per-operation averages.
pub fn serial_counts(layers: &mut Layers, mut pass: impl FnMut(&ExecCtx, &Meter) -> PassCounts) {
    let first = run_pass(&mut pass, false);
    let second = run_pass(&mut pass, false);
    if first != second {
        wrong_answer(&format!(
            "two serial passes disagree: {:?} vs {:?}",
            (&first.0, first.1),
            (&second.0, second.1)
        ));
    }
    let (counts, (allocs, bytes), _) = first;
    let t1 = run_pass(&mut pass, true);
    let t2 = run_pass(&mut pass, true);
    if t1 != t2 || t1.0 != counts {
        wrong_answer("two traced serial passes disagree");
    }
    let ops = counts.ops.max(1) as f64;
    let per_op = |v: u64| v as f64 / ops;
    layers.set("mst.witness_hits", per_op(counts.witness_hits));
    layers.set("mst.researches", per_op(counts.researches));
    layers.set("mst.snapshot_adopts", per_op(counts.snapshot_adopts));
    let queries = counts.witness_hits + counts.researches;
    layers.set(
        "mst.witness_hit_ratio",
        if queries == 0 {
            0.0
        } else {
            counts.witness_hits as f64 / queries as f64
        },
    );
    layers.set("core.levels", per_op(counts.levels));
    layers.set("core.level_edges", per_op(counts.level_edges));
    layers.set("exec.allocs", per_op(allocs));
    layers.set("exec.alloc_bytes", per_op(bytes));
    for (phase, (elements, bytes)) in TRACE_PHASES.iter().zip(&t1.2) {
        let (e, b) = trace_names(phase);
        layers.set(e, per_op(*elements));
        layers.set(b, per_op(*bytes));
    }
}

fn trace_names(phase: &str) -> (&'static str, &'static str) {
    match phase {
        "emst_build" => ("trace.emst_build.elements", "trace.emst_build.bytes"),
        "emst_core" => ("trace.emst_core.elements", "trace.emst_core.bytes"),
        "emst_boruvka" => ("trace.emst_boruvka.elements", "trace.emst_boruvka.bytes"),
        "sort" => ("trace.sort.elements", "trace.sort.bytes"),
        "contraction" => ("trace.contraction.elements", "trace.contraction.bytes"),
        _ => ("trace.expansion.elements", "trace.expansion.bytes"),
    }
}
