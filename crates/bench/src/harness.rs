//! Shared measurement machinery for the figure binaries.

use std::sync::Arc;
use std::time::Instant;

use pandora_core::baseline::dendrogram_union_find_mt;
use pandora_core::{pandora, DendrogramWorkspace, Edge, PhaseTimings, SortedMst};
use pandora_exec::{ExecCtx, ScratchPool};
use pandora_hdbscan::{ClusterRequest, DatasetIndex, Hdbscan, HdbscanParams};
use pandora_mst::{
    emst, emst_from_index, nnchain_merges, EmstIndex, EmstScratch, Linkage, PointSet, StageTimings,
};

/// Everything the figure binaries need from one dataset run: wall-clock
/// times measured on this host plus the dendrogram's shape.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Point count.
    pub n: usize,
    /// Measured EMST wall time (tree build + core distances + Borůvka).
    pub mst_wall_s: f64,
    /// EMST stage decomposition (build / core / Borůvka).
    pub emst_timings: StageTimings,
    /// Measured PANDORA phase times (sort / contraction / expansion).
    pub pandora_wall: PhaseTimings,
    /// Measured UnionFind-MT baseline: (parallel sort, sequential pass).
    pub ufmt_wall: (f64, f64),
    /// Dendrogram skew (height / log₂ n, Table 2's `Imb`).
    pub skew: f64,
    /// PANDORA contraction level count.
    pub n_levels: usize,
}

/// Runs EMST + both dendrogram algorithms on `points`, timing each stage.
pub fn run_pipeline(points: &PointSet, min_pts: usize) -> PipelineRun {
    let ctx = ExecCtx::threads();
    let n = points.len();

    let t = Instant::now();
    let result = emst(&ctx, points, min_pts);
    let edges: Vec<Edge> = result.edges;
    let mst_wall_s = t.elapsed().as_secs_f64();

    let (dendro, stats) = pandora::dendrogram_with_stats(&ctx, n, &edges);
    let (_d2, uf_sort_s, uf_pass_s) = dendrogram_union_find_mt(&ctx, n, &edges);

    PipelineRun {
        n,
        mst_wall_s,
        emst_timings: result.timings,
        pandora_wall: stats.timings,
        ufmt_wall: (uf_sort_s, uf_pass_s),
        skew: dendro.skewness(),
        n_levels: stats.n_levels,
    }
}

/// Runs the full pipeline once per `min_pts` through a **shared
/// substrate** ([`EmstIndex`] + [`EmstScratch`] + [`DendrogramWorkspace`]):
/// the kd-tree is built once, one k-NN pass at the sweep maximum serves
/// every member's core distances, and all stage buffers are recycled — the
/// serving-shaped counterpart of calling [`run_pipeline`] per `min_pts`,
/// with bit-identical results.
///
/// The shared wall seconds (tree build + k-NN rows) are returned
/// separately, and `emst_timings.tree_build_s` is 0 for every member,
/// since the prepared substrate is reused.
pub fn run_pipeline_swept(points: &PointSet, min_pts_list: &[usize]) -> (f64, Vec<PipelineRun>) {
    let ctx = ExecCtx::threads();
    let n = points.len();

    let Some(&max) = min_pts_list.iter().max() else {
        return (0.0, Vec::new());
    };
    let index = EmstIndex::freeze(&ctx, points.clone(), max).expect("bench sweep freezes cleanly");
    let prepare_s = index.build_seconds() + index.rows_seconds();
    let mut emst_scratch = EmstScratch::new();
    let mut dendro_ws = DendrogramWorkspace::new();

    let runs = min_pts_list
        .iter()
        .map(|&min_pts| {
            let t = Instant::now();
            let result = emst_from_index(&ctx, &index, min_pts, &mut emst_scratch)
                .expect("valid sweep member");
            let edges: Vec<Edge> = result.edges;
            let mst_wall_s = t.elapsed().as_secs_f64();

            // PANDORA through the reusable dendrogram workspace (input
            // sort counted into the sort phase, as the one-shot path does).
            let sort_start = Instant::now();
            let mst = SortedMst::from_edges(&ctx, n, &edges);
            let input_sort_s = sort_start.elapsed().as_secs_f64();
            let (dendro, mut stats) =
                pandora::dendrogram_from_sorted_with(&ctx, &mst, &mut dendro_ws);
            stats.timings.sort_s += input_sort_s;

            // UnionFind-MT baseline (unchanged: the figure compares
            // against the one-shot CPU baseline).
            let (_d2, uf_sort_s, uf_pass_s) = dendrogram_union_find_mt(&ctx, n, &edges);

            PipelineRun {
                n,
                mst_wall_s,
                emst_timings: result.timings,
                pandora_wall: stats.timings,
                ufmt_wall: (uf_sort_s, uf_pass_s),
                skew: dendro.skewness(),
                n_levels: stats.n_levels,
            }
        })
        .collect();
    (prepare_s, runs)
}

/// Measured sweep-vs-cold amortization: wall seconds of one sweep (a
/// [`DatasetIndex`] frozen at the list's maximum, then one
/// [`pandora_hdbscan::Session`] answering every member) against the sum of
/// one-shot [`Hdbscan::run`] calls over the same `min_pts` list
/// (identical results; best of `reps` for each side).
#[derive(Debug, Clone)]
pub struct EngineCanary {
    /// Sweep wall seconds, freeze included (tree + k-NN shared, buffers
    /// pooled).
    pub sweep_s: f64,
    /// Sum of cold one-shot wall seconds.
    pub cold_s: f64,
    /// `cold_s / sweep_s`.
    pub speedup: f64,
}

/// Runs the sweep and the cold one-shot baseline (best of `reps` each)
/// and asserts the labels agree — the CI engine canary's measurement.
pub fn engine_vs_cold(points: &PointSet, min_pts_list: &[usize], reps: usize) -> EngineCanary {
    let ctx = ExecCtx::threads();
    let max = min_pts_list.iter().copied().max().unwrap_or(1);
    let mut sweep_s = f64::INFINITY;
    let mut sweep_labels: Vec<Vec<i32>> = Vec::new();
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let index = DatasetIndex::freeze_with_ctx(ctx.clone(), points.clone(), max)
            .map(Arc::new)
            .expect("bench sweep freezes cleanly");
        let mut session = index.session();
        let results: Vec<_> = min_pts_list
            .iter()
            .map(|&min_pts| {
                session
                    .run(&ClusterRequest::new().min_pts(min_pts))
                    .expect("valid sweep member")
            })
            .collect();
        let spent = t.elapsed().as_secs_f64();
        if spent < sweep_s {
            sweep_s = spent;
        }
        sweep_labels = results.into_iter().map(|r| r.labels).collect();
    }
    let mut cold_s = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let cold: Vec<Vec<i32>> = min_pts_list
            .iter()
            .map(|&min_pts| {
                Hdbscan::with_ctx(
                    HdbscanParams {
                        min_pts,
                        ..Default::default()
                    },
                    ctx.clone(),
                )
                .run(points)
                .labels
            })
            .collect();
        let spent = t.elapsed().as_secs_f64();
        if spent < cold_s {
            cold_s = spent;
        }
        assert_eq!(cold, sweep_labels, "sweep and one-shot labels diverged");
    }
    EngineCanary {
        sweep_s,
        cold_s,
        speedup: cold_s / sweep_s.max(1e-12),
    }
}

/// Measured concurrent-serving throughput over one shared
/// [`DatasetIndex`]: requests/second at 1 and at `t_many` serving
/// threads, same request mix, same total request count.
#[derive(Debug, Clone)]
pub struct ServeCanary {
    /// Requests/second with a single serving thread.
    pub rps_t1: f64,
    /// Requests/second with `t_many` serving threads over the same index.
    pub rps_t_many: f64,
    /// The "many" thread count measured.
    pub t_many: usize,
    /// Total requests answered per measurement.
    pub requests: usize,
}

/// Answers `total_requests` clustering requests (a fixed `minPts` mix)
/// against one `Arc<DatasetIndex>` using `threads` serving threads, each
/// with its own serial-context session (request-level parallelism), and
/// returns the wall seconds. Labels are sanity-checked against `expect`
/// (one labelling per mix entry, computed by the caller) so a throughput
/// win can never hide a wrong answer.
fn serve_wall_s(
    index: &Arc<DatasetIndex>,
    mix: &[ClusterRequest],
    expect: &[Vec<i32>],
    threads: usize,
    total_requests: usize,
) -> f64 {
    let per_thread = total_requests.div_ceil(threads.max(1));
    let t = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let index = Arc::clone(index);
            scope.spawn(move || {
                // Serial stage dispatch: with T sessions in flight the
                // request-level parallelism already covers the lanes.
                let mut session = index.session_with_ctx(ExecCtx::serial());
                for i in 0..per_thread {
                    let which = (thread + i) % mix.len();
                    let result = session
                        .run(&mix[which])
                        .expect("bench requests are within the frozen ceiling");
                    assert_eq!(
                        result.labels, expect[which],
                        "thread {thread} request {i}: serving diverged from one-shot"
                    );
                }
            });
        }
    });
    t.elapsed().as_secs_f64()
}

/// Measures [`ServeCanary`]: freezes one index over `points`, computes the
/// ground-truth labelling per mix member once, then times the same total
/// request volume at 1 serving thread and at `t_many` (best of `reps`
/// each). Every served answer is asserted bit-identical to the one-shot
/// labelling, so the canary measures *correct* concurrent serving only.
pub fn serve_throughput(
    points: &PointSet,
    min_pts_mix: &[usize],
    t_many: usize,
    requests_per_thread: usize,
    reps: usize,
) -> ServeCanary {
    let ceiling = min_pts_mix.iter().copied().max().unwrap_or(2);
    let index = Arc::new(
        DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points.clone(), ceiling)
            .expect("bench dataset freezes"),
    );
    let mix: Vec<ClusterRequest> = min_pts_mix
        .iter()
        .map(|&m| ClusterRequest::new().min_pts(m))
        .collect();
    let expect: Vec<Vec<i32>> = mix
        .iter()
        .map(|request| {
            Hdbscan::with_ctx(request.to_params(), ExecCtx::serial())
                .run(points)
                .labels
        })
        .collect();
    let total_requests = requests_per_thread * t_many;
    let best = |threads: usize| -> f64 {
        let mut wall = f64::INFINITY;
        for _ in 0..reps.max(1) {
            wall = wall.min(serve_wall_s(&index, &mix, &expect, threads, total_requests));
        }
        wall
    };
    let wall_t1 = best(1);
    let wall_t_many = best(t_many);
    ServeCanary {
        rps_t1: total_requests as f64 / wall_t1.max(1e-12),
        rps_t_many: total_requests as f64 / wall_t_many.max(1e-12),
        t_many,
        requests: total_requests,
    }
}

/// Measured daemon canary: end-to-end requests/second through the
/// `pandorad` socket path (TCP accept → parse → queue → worker lane →
/// session → canonical JSON), at 1 worker lane and at `w_many`.
#[derive(Debug, Clone)]
pub struct DaemonCanary {
    /// Requests/second with a single worker lane.
    pub rps_w1: f64,
    /// Requests/second with `w_many` worker lanes over the same index.
    pub rps_w_many: f64,
    /// The "many" lane count measured.
    pub w_many: usize,
    /// Total requests answered per measurement.
    pub requests: usize,
}

/// Measures [`DaemonCanary`]: freezes one index, starts a real `Daemon` on
/// an ephemeral port with 1 and then `w_many` worker lanes, and drives the
/// same `w_many` concurrent TCP clients against both (call–response, every
/// client a distinct request stream so nothing coalesces). Every wire
/// reply is asserted byte-identical to the canonical encoding of the
/// in-process `Session::run` result, so the canary measures *correct*
/// serving only. Best of `reps` per lane count.
pub fn daemon_rps(
    points: &PointSet,
    min_pts_mix: &[usize],
    w_many: usize,
    requests_per_client: usize,
    reps: usize,
) -> DaemonCanary {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    use pandora_hdbscan::daemon::{proto, Daemon, DaemonConfig};

    let ceiling = min_pts_mix.iter().copied().max().unwrap_or(2);
    let index = Arc::new(
        DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points.clone(), ceiling)
            .expect("bench dataset freezes"),
    );
    // Per-client request streams: the same minPts mix under a per-client
    // min_cluster_size, so concurrent clients never send identical
    // requests (coalescing would collapse the offered load and the canary
    // would measure the coalescer, not the lanes).
    let clients = w_many.max(1);
    let payloads: Vec<Vec<String>> = (0..clients)
        .map(|c| {
            let mut session = index.session_with_ctx(ExecCtx::serial());
            min_pts_mix
                .iter()
                .map(|&m| {
                    let request = ClusterRequest::new().min_pts(m).min_cluster_size(3 + c);
                    let result = session
                        .run(&request)
                        .expect("bench requests are within the frozen ceiling");
                    proto::cluster_result(&result).to_string()
                })
                .collect()
        })
        .collect();

    let measure = |workers: usize| -> f64 {
        let daemon = Daemon::bind(
            "127.0.0.1:0",
            DaemonConfig::new().workers(workers).queue_depth(256),
        )
        .expect("ephemeral bind");
        daemon
            .registry()
            .register("bench", Arc::clone(&index), false)
            .expect("fresh registry");
        let addr = daemon.local_addr();
        let payloads = &payloads;
        let t = Instant::now();
        std::thread::scope(|scope| {
            for (c, client_payloads) in payloads.iter().enumerate() {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).expect("set_nodelay");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut writer = stream;
                    let mut line = String::new();
                    for i in 0..requests_per_client {
                        let which = (c + i) % min_pts_mix.len();
                        let id = (c * 100_000 + i) as i64;
                        // The whole line in one write: `writeln!` on a raw
                        // socket splits it, and Nagle then holds the tail
                        // for the daemon's delayed ACK.
                        let mut request = format!(
                            r#"{{"id":{id},"method":"cluster","params":{{"dataset":"bench","min_pts":{},"min_cluster_size":{}}}}}"#,
                            min_pts_mix[which],
                            3 + c
                        );
                        request.push('\n');
                        writer.write_all(request.as_bytes()).expect("send");
                        line.clear();
                        reader.read_line(&mut line).expect("recv");
                        // The canonical writer emits exactly
                        // {"id":ID,"result":PAYLOAD} — concatenating avoids
                        // re-parsing the payload (an f32→f64 round trip
                        // would not be byte-comparable).
                        let expected =
                            format!(r#"{{"id":{id},"result":{}}}"#, client_payloads[which]);
                        assert_eq!(
                            line.trim_end(),
                            expected,
                            "client {c} request {i}: daemon diverged from Session::run"
                        );
                    }
                });
            }
        });
        let wall = t.elapsed().as_secs_f64();
        daemon.shutdown();
        daemon.join();
        wall
    };

    let total_requests = clients * requests_per_client;
    let best = |workers: usize| -> f64 {
        let mut wall = f64::INFINITY;
        for _ in 0..reps.max(1) {
            wall = wall.min(measure(workers));
        }
        wall
    };
    let wall_w1 = best(1);
    let wall_w_many = best(w_many);
    DaemonCanary {
        rps_w1: total_requests as f64 / wall_w1.max(1e-12),
        rps_w_many: total_requests as f64 / wall_w_many.max(1e-12),
        w_many,
        requests: total_requests,
    }
}

/// Runs the EMST stage under a serial and a threaded context (best of
/// `reps` runs each) and returns `(serial, threaded, threaded_lanes)`.
///
/// This is the CI "parallelism actually engaged" canary: a regression that
/// silently serializes (or slows) the threaded EMST path shows up as
/// `threaded.total() >= serial.total()` on any multi-core host.
pub fn emst_serial_vs_threaded(
    points: &PointSet,
    min_pts: usize,
    reps: usize,
) -> (StageTimings, StageTimings, usize) {
    let best_of = |ctx: &ExecCtx| -> StageTimings {
        let mut best: Option<StageTimings> = None;
        for _ in 0..reps.max(1) {
            let run = emst(ctx, points, min_pts);
            if best.is_none_or(|b: StageTimings| run.timings.total() < b.total()) {
                best = Some(run.timings);
            }
        }
        best.expect("at least one rep")
    };
    let serial = best_of(&ExecCtx::serial());
    let threaded_ctx = ExecCtx::threads();
    let lanes = threaded_ctx.lanes();
    let threaded = best_of(&threaded_ctx);
    (serial, threaded, lanes)
}

/// Measured cold-vs-warm EMST canary: wall seconds of a cold one-shot
/// [`emst()`](fn@emst) run (tree build + k-NN + Borůvka, nothing reused) against a
/// warm frozen-index run (substrate paid, scratch pooled, endgame cache
/// primed) over the same points and `min_pts`.
#[derive(Debug, Clone)]
pub struct ColdWarmCanary {
    /// Cold one-shot EMST wall seconds (best of reps).
    pub cold_s: f64,
    /// Warm frozen-index EMST wall seconds (best of reps, after priming).
    pub warm_s: f64,
}

impl ColdWarmCanary {
    /// `cold_s / warm_s` — how much of the round floor the cold path still
    /// pays relative to a fully warm request.
    pub fn ratio(&self) -> f64 {
        self.cold_s / self.warm_s.max(1e-12)
    }
}

/// Measures [`ColdWarmCanary`] on the threaded context: cold = best-of-reps
/// full [`emst()`](fn@emst) (the first-request cost the merge-surviving witnesses
/// attack), warm = best-of-reps [`emst_from_index`] through one primed
/// [`EmstScratch`] (the steady-state serving cost). Edge sets are asserted
/// identical before the timings are trusted.
pub fn emst_cold_vs_warm(points: &PointSet, min_pts: usize, reps: usize) -> ColdWarmCanary {
    let ctx = ExecCtx::threads();
    let mut cold_s = f64::INFINITY;
    let mut cold_edges: Vec<Edge> = Vec::new();
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let run = emst(&ctx, points, min_pts);
        let spent = t.elapsed().as_secs_f64();
        if spent < cold_s {
            cold_s = spent;
        }
        cold_edges = run.edges;
    }
    let index = EmstIndex::freeze(&ctx, points.clone(), min_pts.max(1))
        .expect("bench dataset freezes cleanly");
    let mut scratch = EmstScratch::new();
    let _ = emst_from_index(&ctx, &index, min_pts, &mut scratch).expect("priming run"); // warm
    let mut warm_s = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let run = emst_from_index(&ctx, &index, min_pts, &mut scratch).expect("warm run");
        let spent = t.elapsed().as_secs_f64();
        if spent < warm_s {
            warm_s = spent;
        }
        assert_eq!(run.edges.len(), cold_edges.len());
        for (a, b) in run.edges.iter().zip(&cold_edges) {
            assert_eq!(
                (a.u, a.v, a.w.to_bits()),
                (b.u, b.v, b.w.to_bits()),
                "warm index run diverged from the cold path"
            );
        }
    }
    ColdWarmCanary { cold_s, warm_s }
}

/// Measured dendrogram-stage canary: per-phase α-contraction wall times
/// under a serial and a threaded context over the same sorted MST (best
/// of `reps` each; both runs asserted bit-identical before timings are
/// trusted).
#[derive(Debug, Clone)]
pub struct DendroCanary {
    /// Vertex count of the measured MST.
    pub n: usize,
    /// α-contraction phases on the serial context.
    pub serial: PhaseTimings,
    /// α-contraction phases on the threaded context.
    pub threaded: PhaseTimings,
    /// Threaded-context lane count.
    pub lanes: usize,
}

impl DendroCanary {
    /// α-contraction serial/threaded speedup.
    pub fn speedup(&self) -> f64 {
        self.serial.total() / self.threaded.total().max(1e-12)
    }
}

/// Measures [`DendroCanary`] on `points`' mutual-reachability MST: one
/// EMST and canonical sort up front (shared by every timed run, so only
/// the dendrogram stage is measured), then each context best-of-reps
/// through a warm [`DendrogramWorkspace`].
///
/// This is the CI "dendrogram parallelism actually engaged" canary,
/// mirroring [`emst_serial_vs_threaded`].
pub fn dendro_serial_vs_threaded(points: &PointSet, min_pts: usize, reps: usize) -> DendroCanary {
    let threaded_ctx = ExecCtx::threads();
    let lanes = threaded_ctx.lanes();
    let result = emst(&threaded_ctx, points, min_pts);
    let mst = SortedMst::from_edges(&threaded_ctx, points.len(), &result.edges);

    let best_alpha = |ctx: &ExecCtx| -> (pandora_core::Dendrogram, PhaseTimings) {
        let mut ws = DendrogramWorkspace::new();
        let _ = pandora::dendrogram_from_sorted_with(ctx, &mst, &mut ws); // warm
        let mut best: Option<(pandora_core::Dendrogram, PhaseTimings)> = None;
        for _ in 0..reps.max(1) {
            let (d, stats) = pandora::dendrogram_from_sorted_with(ctx, &mst, &mut ws);
            if best
                .as_ref()
                .is_none_or(|(_, b)| stats.timings.total() < b.total())
            {
                best = Some((d, stats.timings));
            }
        }
        best.expect("at least one rep")
    };
    let serial_ctx = ExecCtx::serial();
    let (d_serial, serial) = best_alpha(&serial_ctx);
    let (d_threaded, threaded) = best_alpha(&threaded_ctx);
    assert_eq!(
        d_serial, d_threaded,
        "α-contraction serial/threaded diverged"
    );

    DendroCanary {
        n: points.len(),
        serial,
        threaded,
        lanes,
    }
}

/// Measured NN-chain canary: Ward-linkage merge construction raced on a
/// serial vs a threaded context over the same points (best of `reps` each;
/// merge lists asserted bit-identical before timings are trusted).
///
/// Ward exercises the matrix-free centroid substrate — the one whose O(n)
/// memory footprint makes NN-chain serving viable at ≥ 20k points, and
/// whose candidate-NN scans are the engine's parallel section — so this is
/// the CI "NN-chain parallelism actually engaged" canary, mirroring
/// [`dendro_serial_vs_threaded`].
#[derive(Debug, Clone)]
pub struct NnchainCanary {
    /// Point count of the measured run.
    pub n: usize,
    /// NN-chain total (init + chain) on the serial context.
    pub serial_s: f64,
    /// NN-chain total (init + chain) on the threaded context.
    pub threaded_s: f64,
    /// Threaded-context lane count.
    pub lanes: usize,
}

impl NnchainCanary {
    /// NN-chain serial/threaded speedup.
    pub fn speedup(&self) -> f64 {
        self.serial_s / self.threaded_s.max(1e-12)
    }
}

/// Measures [`NnchainCanary`]: Ward-linkage NN-chain over Euclidean
/// distances (the serving tier's Ward configuration), best of `reps` per
/// context through a warm [`ScratchPool`], outputs asserted bit-identical
/// across contexts before the timings are returned.
pub fn nnchain_serial_vs_threaded(points: &PointSet, reps: usize) -> NnchainCanary {
    let best_of = |ctx: &ExecCtx| -> (Vec<Edge>, f64) {
        let pool = ScratchPool::new();
        let _ = nnchain_merges(ctx, points, &[], Linkage::Ward, false, &pool); // warm
        let mut best: Option<(Vec<Edge>, f64)> = None;
        for _ in 0..reps.max(1) {
            let run = nnchain_merges(ctx, points, &[], Linkage::Ward, false, &pool);
            let spent = run.init_s + run.chain_s;
            if best.as_ref().is_none_or(|&(_, b)| spent < b) {
                best = Some((run.merges, spent));
            }
        }
        assert_eq!(pool.outstanding(), 0, "NN-chain leaked pool leases");
        best.expect("at least one rep")
    };
    let (m_serial, serial_s) = best_of(&ExecCtx::serial());
    let threaded_ctx = ExecCtx::threads();
    let lanes = threaded_ctx.lanes();
    let (m_threaded, threaded_s) = best_of(&threaded_ctx);
    assert_eq!(m_serial.len(), m_threaded.len());
    for (a, b) in m_serial.iter().zip(&m_threaded) {
        assert_eq!(
            (a.u, a.v, a.w.to_bits()),
            (b.u, b.v, b.w.to_bits()),
            "NN-chain serial/threaded diverged"
        );
    }

    NnchainCanary {
        n: points.len(),
        serial_s,
        threaded_s,
        lanes,
    }
}

/// Writes the `BENCH_ci.json` canary payload: per-phase milliseconds for
/// the serial and threaded EMST runs, the thread count, and (when
/// measured) the engine-sweep-vs-cold-runs amortization, the
/// concurrent-serving throughput (`serve_rps_t1` / `serve_rps_t4`), the
/// dendrogram canary, and the NN-chain canary (`nnchain_*`), as one
/// stable hand-rolled JSON object (no serde in the offline environment).
#[expect(
    clippy::too_many_arguments,
    reason = "one writer for the whole canary file"
)]
pub fn write_bench_ci_json(
    path: &str,
    n: usize,
    min_pts: usize,
    serial: &StageTimings,
    threaded: &StageTimings,
    lanes: usize,
    engine: Option<&EngineCanary>,
    serve: Option<&ServeCanary>,
    dendro: Option<&DendroCanary>,
    nnchain: Option<&NnchainCanary>,
    daemon: Option<&DaemonCanary>,
    cold: Option<&ColdWarmCanary>,
) -> std::io::Result<()> {
    let phase = |t: &StageTimings| {
        format!(
            "{{\"build_ms\": {:.3}, \"core_ms\": {:.3}, \"boruvka_ms\": {:.3}, \"emst_ms\": {:.3}}}",
            t.tree_build_s * 1e3,
            t.core_s * 1e3,
            t.mst_s * 1e3,
            t.total() * 1e3
        )
    };
    let engine_json = engine.map_or(String::new(), |e| {
        format!(
            ",\n  \"engine\": {{\"sweep_ms\": {:.3}, \"cold_ms\": {:.3}, \"speedup\": {:.3}}}",
            e.sweep_s * 1e3,
            e.cold_s * 1e3,
            e.speedup
        )
    });
    let serve_json = serve.map_or(String::new(), |s| {
        format!(
            ",\n  \"serve_rps_t1\": {:.3},\n  \"serve_rps_t{}\": {:.3},\n  \
             \"serve_requests\": {}",
            s.rps_t1, s.t_many, s.rps_t_many, s.requests
        )
    });
    let dendro_json = dendro.map_or(String::new(), |d| {
        format!(
            ",\n  \"dendro_n\": {},\n  \"dendro_serial_ms\": {:.3},\n  \
             \"dendro_threaded_ms\": {:.3},\n  \
             \"dendro_speedup\": {:.3}",
            d.n,
            d.serial.total() * 1e3,
            d.threaded.total() * 1e3,
            d.speedup()
        )
    });
    let nnchain_json = nnchain.map_or(String::new(), |c| {
        format!(
            ",\n  \"nnchain_n\": {},\n  \"nnchain_serial_ms\": {:.3},\n  \
             \"nnchain_threaded_ms\": {:.3},\n  \"nnchain_speedup\": {:.3}",
            c.n,
            c.serial_s * 1e3,
            c.threaded_s * 1e3,
            c.speedup()
        )
    });
    let daemon_json = daemon.map_or(String::new(), |d| {
        format!(
            ",\n  \"daemon_rps_w1\": {:.3},\n  \"daemon_rps_w{}\": {:.3},\n  \
             \"daemon_requests\": {}",
            d.rps_w1, d.w_many, d.rps_w_many, d.requests
        )
    });
    let cold_json = cold.map_or(String::new(), |c| {
        format!(
            ",\n  \"emst_cold_ms\": {:.3},\n  \"emst_warm_ms\": {:.3},\n  \
             \"emst_cold_warm_ratio\": {:.3}",
            c.cold_s * 1e3,
            c.warm_s * 1e3,
            c.ratio()
        )
    });
    let json = format!(
        "{{\n  \"n\": {n},\n  \"min_pts\": {min_pts},\n  \"threads\": {lanes},\n  \
         \"serial\": {},\n  \"threaded\": {},\n  \"speedup\": {:.3}{engine_json}{serve_json}\
         {dendro_json}{nnchain_json}{daemon_json}{cold_json}\n}}\n",
        phase(serial),
        phase(threaded),
        serial.total() / threaded.total().max(1e-12)
    );
    std::fs::write(path, json)
}

/// Millions of points per second.
pub fn mpoints(n: usize, seconds: f64) -> f64 {
    n as f64 / seconds / 1e6
}

/// Fixed-width table printer for the figure binaries.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats seconds with sensible units.
pub fn fmt_s(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_data::synthetic::uniform;

    #[test]
    fn pipeline_run_produces_times() {
        let points = uniform(3000, 2, 1);
        let run = run_pipeline(&points, 2);
        assert_eq!(run.n, 3000);
        assert!(run.pandora_wall.total() > 0.0);
        assert!(run.skew >= 1.0);
    }

    #[test]
    fn swept_pipeline_matches_one_shot_runs() {
        let points = uniform(2000, 2, 3);
        let (_prepare_s, runs) = run_pipeline_swept(&points, &[2, 4]);
        assert_eq!(runs.len(), 2);
        for (run, &min_pts) in runs.iter().zip(&[2usize, 4]) {
            let one_shot = run_pipeline(&points, min_pts);
            // Same dendrogram structure (skew is a pure function of it).
            assert_eq!(run.skew, one_shot.skew, "min_pts={min_pts}");
            assert_eq!(run.n_levels, one_shot.n_levels);
            // Warm members never rebuild the tree.
            assert_eq!(run.emst_timings.tree_build_s, 0.0);
        }
    }

    #[test]
    fn engine_canary_reports_consistent_results() {
        let points = uniform(1500, 2, 9);
        let canary = engine_vs_cold(&points, &[2, 4], 1);
        assert!(canary.sweep_s > 0.0 && canary.cold_s > 0.0);
        assert!(canary.speedup > 0.0);
    }

    #[test]
    fn serve_canary_measures_both_thread_counts() {
        // Small volume: the point is the machinery (threads spawn, every
        // answer verified bit-identical inside serve_wall_s), not the
        // throughput numbers themselves.
        let points = uniform(800, 2, 5);
        let canary = serve_throughput(&points, &[2, 4], 2, 2, 1);
        assert_eq!(canary.t_many, 2);
        assert_eq!(canary.requests, 4);
        assert!(canary.rps_t1 > 0.0 && canary.rps_t_many > 0.0);
    }

    #[test]
    fn nnchain_canary_verifies_before_timing() {
        // Small n: the point is the machinery (warm pool, bit-identity
        // asserted across contexts inside), not the speedup number.
        let points = uniform(600, 2, 7);
        let canary = nnchain_serial_vs_threaded(&points, 1);
        assert_eq!(canary.n, 600);
        assert!(canary.serial_s > 0.0 && canary.threaded_s > 0.0);
        assert!(canary.speedup() > 0.0);
        assert!(canary.lanes >= 1);
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(fmt_s(2.0), "2.00s");
        assert_eq!(fmt_s(0.002), "2.00ms");
    }
}
