//! The serving API's contract, stress-tested: one `Arc<DatasetIndex>`
//! shared by many threads must answer every mixed request **bit-identical**
//! to the cold one-shot pipeline, with the scratch books balanced and no
//! panic reachable from user input — whether the index's hierarchy cache
//! answers a request or not.
//!
//! The CI thread matrix runs this file under both `PANDORA_THREADS=1` and
//! `PANDORA_THREADS=4`, so the threaded-context paths (`ExecCtx::threads`
//! inside a serving thread, concurrent broadcasts on the global pool) are
//! exercised at both extremes.

use std::collections::HashSet;
use std::sync::Arc;

use rand::prelude::*;

use pandora::data::synthetic::gaussian_blobs;
use pandora::exec::ExecCtx;
use pandora::hdbscan::{
    ClusterRequest, DatasetIndex, Hdbscan, HdbscanResult, Linkage, MetricKind, PandoraError,
};
use pandora::mst::PointSet;

/// Asserts two pipeline results agree in every deterministic field.
fn assert_results_identical(a: &HdbscanResult, b: &HdbscanResult, what: &str) {
    assert_eq!(a.core2, b.core2, "{what}: core distances");
    assert_eq!(a.mst.src, b.mst.src, "{what}: MST sources");
    assert_eq!(a.mst.dst, b.mst.dst, "{what}: MST destinations");
    assert_eq!(a.mst.weight, b.mst.weight, "{what}: MST weights");
    assert_eq!(a.dendrogram, b.dendrogram, "{what}: dendrogram");
    let (ca, cb) = (&a.condensed, &b.condensed);
    assert_eq!(ca.parent, cb.parent, "{what}: condensed parents");
    assert_eq!(ca.child, cb.child, "{what}: condensed children");
    assert_eq!(ca.lambda, cb.lambda, "{what}: condensed lambdas");
    assert_eq!(ca.size, cb.size, "{what}: condensed sizes");
    assert_eq!(ca.cluster_birth, cb.cluster_birth, "{what}: cluster births");
    assert_eq!(
        ca.cluster_parent, cb.cluster_parent,
        "{what}: cluster parents"
    );
    assert_eq!(a.labels, b.labels, "{what}: labels");
    assert_eq!(a.probabilities, b.probabilities, "{what}: probabilities");
    assert_eq!(a.stabilities, b.stabilities, "{what}: stabilities");
}

/// A cold reference for `request`: a fresh index frozen at the request's
/// own `min_pts` and one run on a fresh session — for a default request,
/// exactly what `Hdbscan::run` does.
fn cold_run(points: &PointSet, request: &ClusterRequest) -> HdbscanResult {
    let index = DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points.clone(), request.min_pts)
        .expect("freeze");
    Arc::new(index)
        .session()
        .run(request)
        .expect("every mix member is a valid request")
}

/// What the index's hierarchy cache keys `request` by: `min_pts`, the
/// resolved linkage and the effective metric.
fn hierarchy_key(request: &ClusterRequest) -> (usize, Linkage, MetricKind) {
    let linkage = request.linkage.unwrap_or_default();
    (request.min_pts, linkage, request.effective_metric(linkage))
}

#[test]
fn concurrent_sessions_are_bit_identical_to_cold_runs() {
    const THREADS: usize = 4;
    const REQUESTS_PER_THREAD: usize = 16;
    const STREAM_SEED: u64 = 0x5EED_CAC4E;

    let (points, _) = gaussian_blobs(900, 2, 4, 110.0, 0.9, 31);
    // The mixed request matrix: minPts and min_cluster_size both vary, so
    // concurrent sessions exercise different row prefixes, different
    // metric ranks in the endgame cache, and different condense cuts.
    // Several members share a hierarchy and differ only in extraction
    // parameters (cache hits); an explicit Euclidean metric and two
    // NN-chain linkages give keys of their own.
    let mix = [
        ClusterRequest::new().min_pts(2),
        ClusterRequest::new().min_pts(3).min_cluster_size(3),
        ClusterRequest::new().min_pts(8).min_cluster_size(10),
        ClusterRequest::new().min_pts(16),
        ClusterRequest::new().min_pts(1), // plain single linkage
        ClusterRequest::new().min_pts(4).allow_single_cluster(true),
        ClusterRequest::new().min_pts(2).min_cluster_size(12),
        ClusterRequest::new()
            .min_pts(8)
            .min_cluster_size(3)
            .allow_single_cluster(true),
        ClusterRequest::new().min_pts(7).min_cluster_size(8),
        ClusterRequest::new().min_pts(4),
        ClusterRequest::new()
            .min_pts(6)
            .metric(MetricKind::Euclidean),
        ClusterRequest::new()
            .min_pts(6)
            .min_cluster_size(20)
            .metric(MetricKind::Euclidean),
        ClusterRequest::new()
            .min_pts(3)
            .min_cluster_size(8)
            .linkage(Linkage::Average),
        ClusterRequest::new().min_pts(2).linkage(Linkage::Ward),
        ClusterRequest::new().min_pts(12).min_cluster_size(6),
        ClusterRequest::new().min_pts(5),
    ];
    let keys: Vec<_> = mix.iter().map(hierarchy_key).collect();
    let distinct_keys = keys.iter().collect::<HashSet<_>>().len();

    // Ground truth per mix member, computed cold (fresh substrate each).
    let cold: Vec<HdbscanResult> = mix.iter().map(|r| cold_run(&points, r)).collect();

    // One seeded stream, split into one slice per serving thread.
    let mut rng = StdRng::seed_from_u64(STREAM_SEED);
    let stream: Vec<usize> = (0..THREADS * REQUESTS_PER_THREAD)
        .map(|_| rng.gen_range(0..mix.len()))
        .collect();

    for (name, ctx) in [
        ("serial", ExecCtx::serial()),
        ("threaded", ExecCtx::threads()),
    ] {
        let index =
            Arc::new(DatasetIndex::freeze(points.clone(), 16).expect("finite dataset freezes"));

        // N threads × M requests, distinct requests genuinely in flight
        // simultaneously. Each thread returns its hits (the runs whose
        // front-half timings read 0) and its re-misses (runs that missed
        // a key this session had already run: the key was evicted since,
        // and the session's warm scratch computed it again).
        let (hits, re_misses) = std::thread::scope(|scope| {
            let handles: Vec<_> = stream
                .chunks(REQUESTS_PER_THREAD)
                .enumerate()
                .map(|(thread, slice)| {
                    let (index, ctx, mix, cold, keys) = (&index, &ctx, &mix, &cold, &keys);
                    scope.spawn(move || {
                        let mut session = index.session_with_ctx(ctx.clone());
                        let mut seen = HashSet::new();
                        let (mut hits, mut re_misses) = (0u64, 0u64);
                        for (i, &which) in slice.iter().enumerate() {
                            let what = format!("{name}: thread {thread} request {i} (mix {which})");
                            let served = session
                                .run(&mix[which])
                                .expect("every mix member is a valid request");
                            assert_results_identical(&served, &cold[which], &what);
                            assert_eq!(session.scratch_outstanding(), 0, "{what}: leaked scratch");
                            let t = served.timings;
                            if t.core_s == 0.0 && t.mst_s == 0.0 && t.dendrogram_s == 0.0 {
                                hits += 1;
                                let phases = served.pandora_stats.timings;
                                assert_eq!(phases.total(), 0.0, "{what}: hit phase timings");
                            } else {
                                assert!(
                                    t.dendrogram_s > 0.0,
                                    "{what}: a miss times its dendrogram"
                                );
                                if seen.contains(&keys[which]) {
                                    re_misses += 1;
                                }
                            }
                            seen.insert(keys[which]);
                        }
                        (hits, re_misses)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serving thread"))
                .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm))
        });

        let stats = index.hierarchy_stats();
        assert_eq!(
            stats.hits + stats.misses,
            stream.len() as u64,
            "{name}: every run is one hit or one miss"
        );
        assert_eq!(
            stats.hits, hits,
            "{name}: exactly the hits read 0 front-half timings"
        );
        assert!(
            stats.entries < distinct_keys,
            "{name}: the budget must admit fewer than the {distinct_keys} keys ({stats:?})"
        );
        assert!(
            re_misses > 0,
            "{name}: evicted keys must miss again ({stats:?})"
        );

        // Every session parked its scratch on drop; the pool serves it back.
        assert_eq!(index.pooled_sessions(), THREADS);
        let mut warm = index.session();
        assert_eq!(index.pooled_sessions(), THREADS - 1);
        let served = warm.run(&mix[0]).expect("warm session still serves");
        assert_results_identical(
            &served,
            &cold[0],
            &format!("{name}: post-stress warm session"),
        );
    }
}

#[test]
fn serving_threads_may_use_the_shared_thread_pool() {
    // Sessions dispatching stages on ExecCtx::threads() from multiple
    // serving threads broadcast concurrently on the process-global pool;
    // results must still be exact (the pool serializes regions, never
    // corrupts them).
    let (points, _) = gaussian_blobs(500, 3, 3, 80.0, 1.0, 7);
    let cold = Hdbscan::with_ctx(
        ClusterRequest::new().min_pts(4).to_params(),
        ExecCtx::serial(),
    )
    .run(&points);
    let index = Arc::new(DatasetIndex::freeze(points, 8).expect("freeze"));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let index = Arc::clone(&index);
            let cold = &cold;
            scope.spawn(move || {
                let mut session = index.session_with_ctx(ExecCtx::threads());
                for _ in 0..3 {
                    let served = session
                        .run(&ClusterRequest::new().min_pts(4))
                        .expect("valid request");
                    assert_results_identical(&served, cold, "threaded-ctx session");
                }
            });
        }
    });
}

#[test]
fn a_second_session_warms_from_the_shared_endgame_store() {
    // The endgame store lives on the frozen index, not inside any session:
    // the first request against a dataset publishes its endgame snapshots,
    // and a session drawn cold afterwards — while the first still holds its
    // scratch, so nothing warm can be handed over through the park pool —
    // adopts them instead of re-proving the bounds from scratch. Observable
    // as an adoption tick plus a strictly smaller tree re-search bill on
    // the engine counters, with answers still bit-identical to cold.
    //
    // The two requests differ in `min_pts` (4, then 5), so they share no
    // hierarchy-cache key: the second run is a miss that really reaches
    // Borůvka. The first run's snapshots are of a lower rank, which the
    // second run may adopt.
    let (points, _) = gaussian_blobs(600, 2, 4, 160.0, 0.8, 21);
    let cold_at = |min_pts: usize| {
        Hdbscan::with_ctx(
            ClusterRequest::new().min_pts(min_pts).to_params(),
            ExecCtx::serial(),
        )
        .run(&points)
    };
    let index = Arc::new(DatasetIndex::freeze(points.clone(), 8).expect("freeze"));
    let stats = index.emst().stats();
    assert_eq!(stats.snapshot_adopts(), 0, "no adoption before any request");

    let mut first = index.session();
    let served = first
        .run(&ClusterRequest::new().min_pts(4))
        .expect("valid request");
    assert_results_identical(&served, &cold_at(4), "first (cold-store) session");
    assert!(
        index.emst().endgame_store().is_published(),
        "the first request must publish its endgame snapshots"
    );
    assert_eq!(
        stats.snapshot_adopts(),
        0,
        "the first session had nothing to adopt"
    );
    let first_searches = stats.researches();
    assert!(
        first_searches > 0,
        "separated blobs must force real endgame re-searches on a cold run"
    );

    // `first` is still alive, so this session starts from a fresh scratch.
    let mut second = index.session();
    let served = second
        .run(&ClusterRequest::new().min_pts(5))
        .expect("valid request");
    assert_results_identical(&served, &cold_at(5), "second (adopting) session");
    assert_eq!(
        stats.snapshot_adopts(),
        1,
        "the second session's cold scratch must adopt the published set"
    );
    let second_searches = stats.researches() - first_searches;
    assert!(
        second_searches < first_searches,
        "adopted endgame bounds must cut the re-search bill: \
         {second_searches} vs cold {first_searches}"
    );
}

#[test]
fn no_user_input_reaches_a_panic_in_the_serving_api() {
    // The acceptance checklist's error paths: non-finite coordinates,
    // min_pts ∈ {0, n + 1}, empty dataset — all errors, never panics.
    assert_eq!(
        PointSet::try_new(vec![1.0, f32::NAN, 2.0, 3.0], 2).err(),
        Some(PandoraError::NonFinite { point: 0, dim: 1 })
    );
    assert_eq!(
        PointSet::try_new(vec![1.0, 2.0, 3.0], 2).err(),
        Some(PandoraError::BadShape { len: 3, dim: 2 })
    );
    assert_eq!(
        DatasetIndex::freeze(PointSet::try_new(vec![], 2).expect("empty set is valid"), 2).err(),
        Some(PandoraError::EmptyDataset)
    );

    let (points, _) = gaussian_blobs(60, 2, 2, 40.0, 0.5, 3);
    let n = points.len();
    let index = Arc::new(DatasetIndex::freeze(points, n).expect("freeze at the n ceiling"));
    let mut session = index.session();
    // min_pts = n is the largest valid request; 0 and n + 1 are errors.
    assert!(session.run(&ClusterRequest::new().min_pts(n)).is_ok());
    for bad in [0usize, n + 1] {
        let err = session.run(&ClusterRequest::new().min_pts(bad));
        assert!(
            matches!(
                err,
                Err(PandoraError::BadParams {
                    param: "min_pts",
                    ..
                })
            ),
            "min_pts={bad} gave {err:?}"
        );
    }
    assert!(session
        .run(&ClusterRequest::new().min_cluster_size(0))
        .is_err());
    // Rejected requests leave the session fully serviceable.
    assert_eq!(session.scratch_outstanding(), 0);
    assert!(session.run(&ClusterRequest::new()).is_ok());
}

#[test]
fn request_order_cannot_leak_state_between_sessions() {
    // Two sessions over one index, interleaved wildly different requests:
    // the endgame cache and pooled buffers inside each session must never
    // bleed into the other's answers (each is compared against cold).
    // Repeats of a min_pts are hierarchy-cache hits here; the eviction
    // stream of `concurrent_sessions_are_bit_identical_to_cold_runs`
    // covers warm Borůvka runs after other requests.
    let (points, _) = gaussian_blobs(400, 2, 3, 70.0, 0.8, 13);
    let orders: [&[usize]; 2] = [&[16, 2, 8, 2, 16], &[2, 16, 2, 8, 8]];
    let cold: Vec<HdbscanResult> = [2usize, 8, 16]
        .iter()
        .map(|&m| {
            Hdbscan::with_ctx(
                ClusterRequest::new().min_pts(m).to_params(),
                ExecCtx::serial(),
            )
            .run(&points)
        })
        .collect();
    let which = |m: usize| {
        [2usize, 8, 16]
            .iter()
            .position(|&x| x == m)
            .expect("member")
    };
    let index = Arc::new(DatasetIndex::freeze(points, 16).expect("freeze"));
    std::thread::scope(|scope| {
        for order in orders {
            let index = Arc::clone(&index);
            let cold = &cold;
            scope.spawn(move || {
                let mut session = index.session();
                for &m in order {
                    let served = session
                        .run(&ClusterRequest::new().min_pts(m))
                        .expect("valid request");
                    assert_results_identical(&served, &cold[which(m)], &format!("minPts={m}"));
                }
            });
        }
    });
}
