//! The EMST stage: an immutable, `Send + Sync` index over one dataset,
//! shared by arbitrarily many concurrent requests, and the one-shot
//! [`emst`] built on it.
//!
//! cuSLINK ships its pipeline as independently reusable building blocks
//! behind a stable API, and ParChain's framework draws the same boundary
//! between the immutable proximity substrate and per-query state. This
//! module is that boundary for the EMST stage:
//!
//! * [`EmstIndex`] — everything that is **read-only after a freeze step**:
//!   the validated [`PointSet`], the kd-tree (with its AoSoA leaf blocks),
//!   and one sorted k-NN pass captured at the largest `minPts` the index
//!   will serve (plus [`ROW_SLACK`] spare neighbours, so the Borůvka row
//!   screen stays exact at the ceiling). The index is `Send + Sync`; wrap
//!   it in an `Arc` and every serving thread reads the same tree.
//! * [`EmstScratch`] — everything a single request mutates: the pooled
//!   Borůvka round buffers, the per-node core-minimum bounds, and the
//!   cross-run [`EndgameCache`]. Cheap to create, reusable across
//!   requests, never shared between two in-flight runs.
//!
//! [`emst_from_index`] answers one `minPts` request from the pair. A
//! one-shot [`emst`] is one freeze plus one such request, so every EMST in
//! the stack runs the same code: the kd-tree build (traced phase
//! `emst_build`), the sorted k-NN rows and core distances by prefix
//! (`emst_core`), and Borůvka with the row screen, the merge-surviving
//! witnesses and the subtree core bounds engaged (`emst_boruvka`). The
//! index entry points are fallible: bad datasets and bad parameters come
//! back as [`PandoraError`], never a panic.

// PL001 (docs/ANALYSIS.md): no panic path here or in any submodule.
#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::unwrap_used,
    clippy::expect_used
)]

use std::time::Instant;

use pandora_core::Edge;
use pandora_exec::{ExecCtx, ScratchPool, UnsafeSlice, DEFAULT_GRAIN};

use crate::boruvka::{boruvka_mst, BoruvkaExtras, BoruvkaStats, EndgameCache, EndgameStore};
use crate::error::PandoraError;
use crate::kdtree::{KdTree, TreeOrdered};
use crate::knn::{knn_rows_into, KnnRows};
use crate::metric::{Euclidean, MetricKind, TreeMutualReachability};
use crate::point::PointSet;

/// Extra neighbours captured past the largest `minPts` an index serves.
///
/// The row screen proves a row-resolved winner exact only when it sits
/// *strictly below* the row's k-th distance; at `minPts = k + 1` the core
/// distance **is** the k-th distance, so a slack-free row can never certify
/// the ceiling itself. A few spare neighbours restore the screen for every
/// `minPts` up to the ceiling at a marginal one-off k-NN cost.
pub const ROW_SLACK: usize = 8;

/// Per-stage wall-clock seconds of one pipeline run. The EMST stage fills
/// the first three fields; the HDBSCAN\* pipeline adds the dendrogram and
/// the extraction.
///
/// A stage a run did not execute reads 0. A request served from a frozen
/// index never builds the kd-tree (`tree_build_s`; the freeze paid it), and
/// when the serving tier's cache of finished hierarchies answers a request
/// it also skips the core distances, the spanning tree and the dendrogram
/// (`core_s`, `mst_s`, `dendrogram_s`): only `extract_s` is spent.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// kd-tree construction.
    pub tree_build_s: f64,
    /// Core-distance k-NN queries.
    pub core_s: f64,
    /// Spanning tree: Borůvka MST (or the NN-chain merges).
    pub mst_s: f64,
    /// Dendrogram construction (all PANDORA phases).
    pub dendrogram_s: f64,
    /// Condensed tree + stability extraction.
    pub extract_s: f64,
}

impl StageTimings {
    /// Total pipeline seconds.
    pub fn total(&self) -> f64 {
        self.tree_build_s + self.core_s + self.mst_s + self.dendrogram_s + self.extract_s
    }

    /// The paper's "EMST" stage (tree build + core distances + Borůvka).
    pub fn emst_s(&self) -> f64 {
        self.tree_build_s + self.core_s + self.mst_s
    }
}

/// The result of an EMST run.
#[derive(Debug, Clone)]
pub struct Emst {
    /// The `n − 1` MST edges (weights are metric distances, not squared).
    pub edges: Vec<Edge>,
    /// Squared core distance per point (all zero when `min_pts <= 1`).
    pub core2: Vec<f32>,
    /// Stage timings (the dendrogram and extraction fields read 0).
    pub timings: StageTimings,
}

/// Runs the whole EMST stage once on `points`: one [`EmstIndex::freeze`]
/// at ceiling `min_pts`, then one [`emst_from_index`] request.
///
/// Returns the mutual-reachability MST for `min_pts >= 2` and the
/// Euclidean MST otherwise (`min_pts = 0` counts as 1). An empty set
/// returns no edges and no core distances. The timings include the
/// freeze: `tree_build_s` is the kd-tree build and `core_s` adds the k-NN
/// pass.
///
/// # Panics
///
/// Panics if `min_pts` exceeds the point count for a set of two or more
/// points (the `min_pts`-th neighbour does not exist), before anything
/// dataset-sized is allocated. Serving code should freeze an
/// [`EmstIndex`] instead, which reports this as an error.
pub fn emst(ctx: &ExecCtx, points: &PointSet, min_pts: usize) -> Emst {
    if points.is_empty() {
        return Emst {
            edges: Vec::new(),
            core2: Vec::new(),
            timings: StageTimings::default(),
        };
    }
    let min_pts = min_pts.max(1);
    let run = check_min_pts(min_pts, points.len(), "min_pts")
        .and_then(|()| EmstIndex::freeze(ctx, points.clone(), min_pts))
        .and_then(|index| {
            let mut run = emst_from_index(ctx, &index, min_pts, &mut EmstScratch::new())?;
            run.timings.tree_build_s = index.build_s;
            run.timings.core_s += index.rows_s;
            Ok(run)
        });
    #[expect(
        clippy::panic,
        reason = "the one-shot entry documents this panic; serving code freezes an index and gets the error"
    )]
    let emst = run.unwrap_or_else(|e| panic!("{e}"));
    emst
}

/// Mutual-reachability MST with **caller-provided** squared core distances
/// (e.g. subset MSTs evaluated under a global metric, as DBCV needs).
///
/// `core2` holds one value per point index. Builds the tree, rearranges
/// the core distances into tree order, computes the subtree core minima
/// for pruning, and runs Borůvka; `core2.len()` must equal
/// `points.len()`.
pub fn emst_with_core2(ctx: &ExecCtx, points: &PointSet, core2: &[f32]) -> Vec<Edge> {
    assert_eq!(core2.len(), points.len(), "one core distance per point");
    let tree = KdTree::build(ctx, points);
    let core2 = tree.in_tree_order(core2);
    let mut node_core2 = Vec::new();
    tree.min_core2_into(&core2, &mut node_core2);
    let extras = BoruvkaExtras {
        node_core2: &node_core2,
        ..Default::default()
    };
    let metric = TreeMutualReachability { core2: &core2 };
    boruvka_mst(ctx, points, &tree, &metric, extras, &ScratchPool::new())
}

/// An immutable, shareable EMST substrate for one dataset (module docs).
///
/// Everything inside is read-only after [`EmstIndex::freeze`] returns, so
/// `&EmstIndex` (typically through an `Arc`) can serve any number of
/// concurrent [`emst_from_index`] calls, each with its own
/// [`EmstScratch`].
#[derive(Debug)]
pub struct EmstIndex {
    /// Process-unique identity of this freeze (see [`EmstIndex::instance_id`]).
    id: u64,
    points: PointSet,
    tree: KdTree,
    /// The largest `minPts` this index serves.
    max_min_pts: usize,
    /// Neighbours captured per sorted row (0 when `n <= 1`).
    rows_k: usize,
    row_d2: Vec<f32>,
    row_idx: Vec<u32>,
    build_s: f64,
    rows_s: f64,
    /// Shared endgame-snapshot store: the best endgame bounds any request
    /// against this index has produced, published for every other scratch
    /// set to adopt. Living on the index makes the `instance_id` binding
    /// structural — a snapshot can never outlive or migrate off the freeze
    /// it was proved against.
    endgame_store: EndgameStore,
    /// Aggregate Borůvka effectiveness counters across every request
    /// served from this index (witness hits, re-searches, snapshot
    /// adoptions).
    stats: BoruvkaStats,
}

/// Compile-time proof the index is shareable across serving threads.
fn _assert_index_is_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<EmstIndex>();
}

impl EmstIndex {
    /// Freezes the EMST substrate for `points`: builds the kd-tree and
    /// captures sorted k-NN rows wide enough for every request with
    /// `min_pts <= max_min_pts` (plus [`ROW_SLACK`] spare neighbours).
    /// Takes ownership of the points — the index must outlive any borrower
    /// relationship to stay `'static`-shareable behind an `Arc`.
    ///
    /// # Errors
    ///
    /// * [`PandoraError::EmptyDataset`] — `points` holds no points;
    /// * [`PandoraError::BadParams`] — `max_min_pts` is 0, or exceeds the
    ///   point count (for two or more points).
    pub fn freeze(
        ctx: &ExecCtx,
        points: PointSet,
        max_min_pts: usize,
    ) -> Result<Self, PandoraError> {
        let n = points.len();
        if n == 0 {
            return Err(PandoraError::EmptyDataset);
        }
        check_min_pts(max_min_pts, n, "max_min_pts")?;

        ctx.set_phase("emst_build");
        let t = Instant::now();
        let tree = KdTree::build(ctx, &points);
        let build_s = t.elapsed().as_secs_f64();

        // One sorted pass at the ceiling; every smaller minPts is a prefix.
        let rows_k = if n > 1 {
            (max_min_pts - 1 + ROW_SLACK).min(n - 1)
        } else {
            0
        };
        ctx.set_phase("emst_core");
        let t = Instant::now();
        let (mut row_d2, mut row_idx) = (Vec::new(), Vec::new());
        if rows_k > 0 {
            knn_rows_into(ctx, &points, &tree, rows_k, &mut row_d2, &mut row_idx);
        }
        let rows_s = t.elapsed().as_secs_f64();

        // Process-unique freeze id: scratch sets bind their cross-run
        // caches to it, so bounds proved against one index can never be
        // applied to another (indexes are immutable, so identity — not a
        // content hash — is sufficient and O(1)).
        static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        Ok(Self {
            // ORDERING: process-unique id: the RMW can never dispense duplicates, and nothing orders against it
            id: NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            points,
            tree,
            max_min_pts,
            rows_k,
            row_d2,
            row_idx,
            build_s,
            rows_s,
            endgame_store: EndgameStore::new(),
            stats: BoruvkaStats::new(),
        })
    }

    /// The indexed dataset.
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// The frozen kd-tree.
    pub fn tree(&self) -> &KdTree {
        &self.tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points (never true: freezing an empty
    /// dataset is rejected — kept for clippy's `len`-without-`is_empty`).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The largest `minPts` this index serves.
    pub fn max_min_pts(&self) -> usize {
        self.max_min_pts
    }

    /// Neighbours captured per sorted k-NN row.
    pub fn rows_k(&self) -> usize {
        self.rows_k
    }

    /// Borrowed view of the sorted k-NN rows, in tree order (see
    /// [`KnnRows`]; `None` for single-point datasets, which have no
    /// neighbours to capture).
    pub fn rows(&self) -> Option<KnnRows<'_>> {
        (self.rows_k > 0).then_some(KnnRows {
            k: self.rows_k,
            d2: &self.row_d2,
            idx: &self.row_idx,
        })
    }

    /// Process-unique identity of this freeze. Two indexes never share an
    /// id, so per-scratch cross-run caches keyed on it can never transfer
    /// bounds between datasets.
    pub fn instance_id(&self) -> u64 {
        self.id
    }

    /// The shared endgame-snapshot store for this freeze. Requests served
    /// through [`emst_from_index`] adopt from and publish to it
    /// automatically; it is exposed so serving layers can reason about (and
    /// test) warm-up behaviour.
    pub fn endgame_store(&self) -> &EndgameStore {
        &self.endgame_store
    }

    /// Aggregate Borůvka effectiveness counters for every request served
    /// from this index: merge-surviving witness hits, fallback
    /// `nearest_foreign` re-searches, and shared-snapshot
    /// adoptions.
    pub fn stats(&self) -> &BoruvkaStats {
        &self.stats
    }

    /// Seconds the freeze spent building the kd-tree.
    pub fn build_seconds(&self) -> f64 {
        self.build_s
    }

    /// Seconds the freeze spent capturing the k-NN rows.
    pub fn rows_seconds(&self) -> f64 {
        self.rows_s
    }

    /// Fills `core2` with every point's squared core distance for
    /// `min_pts`, one per point index, by prefix lookup into the frozen
    /// rows — bit-identical to a fresh k-NN query at that `min_pts` (the
    /// multiset of k-nearest distances is unique). `core2` is cleared and
    /// resized.
    ///
    /// # Errors
    ///
    /// [`PandoraError::BadParams`] when `min_pts` is 0, exceeds the point
    /// count, or exceeds [`EmstIndex::max_min_pts`].
    pub fn core2_into(
        &self,
        ctx: &ExecCtx,
        min_pts: usize,
        core2: &mut Vec<f32>,
    ) -> Result<(), PandoraError> {
        self.check_request(min_pts)?;
        core2.clear();
        core2.resize(self.points.len(), 0.0);
        self.fill_core2(ctx, min_pts, core2, None);
        Ok(())
    }

    /// Reads the core distances for a validated `min_pts` down the rows in
    /// one pass: the `(min_pts − 2)`-th entry of a sorted row is the exact
    /// distance to the `(min_pts − 1)`-th nearest neighbour. Writes them
    /// per point index into `by_point` and, when given, per tree position
    /// into `tree_order`; both must hold zeros, which `min_pts <= 1`
    /// leaves in place.
    fn fill_core2(
        &self,
        ctx: &ExecCtx,
        min_pts: usize,
        by_point: &mut [f32],
        tree_order: Option<&mut [f32]>,
    ) {
        let n = self.points.len();
        if min_pts < 2 || n <= 1 {
            return;
        }
        debug_assert!(self.rows_k >= min_pts - 1);
        let (k, row_d2, perm) = (self.rows_k, &self.row_d2, self.tree.perm());
        let by_point = UnsafeSlice::new(by_point);
        let tree_order = tree_order.map(UnsafeSlice::new);
        ctx.for_each_chunk(n, DEFAULT_GRAIN, |range| {
            for r in range {
                let c = row_d2[r * k + (min_pts - 2)];
                // SAFETY: `perm` is a permutation and chunks are disjoint,
                // so slots perm[r] and r are written by this iteration
                // alone.
                unsafe {
                    by_point.write(perm[r] as usize, c);
                    if let Some(tree_order) = &tree_order {
                        tree_order.write(r, c);
                    }
                }
            }
        });
    }

    /// Validates a request's `min_pts` against this index.
    fn check_request(&self, min_pts: usize) -> Result<(), PandoraError> {
        check_min_pts(min_pts, self.points.len(), "min_pts")?;
        if min_pts > self.max_min_pts {
            return Err(PandoraError::BadParams {
                param: "min_pts",
                value: min_pts,
                reason: "exceeds the minPts ceiling this index was frozen for",
            });
        }
        Ok(())
    }
}

/// Shared `minPts` range validation (freeze ceiling and per-request).
fn check_min_pts(min_pts: usize, n: usize, param: &'static str) -> Result<(), PandoraError> {
    if min_pts == 0 {
        return Err(PandoraError::BadParams {
            param,
            value: min_pts,
            reason: "must be at least 1",
        });
    }
    if n >= 2 && min_pts > n {
        return Err(PandoraError::BadParams {
            param,
            value: min_pts,
            reason: "exceeds the number of points (the minPts-th neighbour does not exist)",
        });
    }
    Ok(())
}

/// The mutable half of a request: pooled round buffers, per-request
/// pruning bounds and the cross-run endgame cache. One per in-flight run;
/// reuse across sequential runs keeps the steady state allocation-free.
///
/// A scratch set may be reused across **different** indexes too: it
/// remembers which index its cross-run endgame bounds were proved
/// against ([`EmstIndex::instance_id`]) and drops them on a switch, so
/// stale bounds from one dataset can never leak into another's MST. (The
/// buffer pool itself is content-free and carries over freely.)
#[derive(Debug, Default)]
pub struct EmstScratch {
    pool: ScratchPool,
    endgame: EndgameCache,
    node_core2: Vec<f32>,
    /// `instance_id` of the index the endgame bounds belong to.
    bound_to: Option<u64>,
}

impl EmstScratch {
    /// Creates an empty (cold) scratch set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The backing buffer pool (for allocation/leak accounting).
    pub fn pool(&self) -> &ScratchPool {
        &self.pool
    }

    /// Whether the cross-run endgame cache holds transferable bounds.
    pub fn endgame_is_warm(&self) -> bool {
        self.endgame.is_warm()
    }

    /// Points the cross-run caches at `index`, discarding them if they
    /// were proved against a different one.
    fn rebind(&mut self, index: &EmstIndex) {
        if self.bound_to != Some(index.id) {
            self.endgame.clear();
            self.bound_to = Some(index.id);
        }
    }
}

/// Answers one `minPts` request from a frozen [`EmstIndex`] and a
/// per-request [`EmstScratch`].
///
/// The returned MST edges and core distances are **bit-identical** to a
/// bare Borůvka run over fresh core distances at the same `min_pts`: the
/// row screen, the endgame transfer and the subtree bounds are all
/// strictly conservative. Reported [`StageTimings`] cover only this call
/// (`tree_build_s` is always 0 — the build was paid by the freeze).
///
/// # Errors
///
/// [`PandoraError::BadParams`] when `min_pts` is 0, exceeds the point
/// count, or exceeds the index's frozen ceiling.
pub fn emst_from_index(
    ctx: &ExecCtx,
    index: &EmstIndex,
    min_pts: usize,
    scratch: &mut EmstScratch,
) -> Result<Emst, PandoraError> {
    emst_from_index_with(ctx, index, min_pts, MetricKind::MutualReachability, scratch)
}

/// [`emst_from_index`] with an explicit per-request base metric.
///
/// [`MetricKind::MutualReachability`] is the HDBSCAN\* default;
/// [`MetricKind::Euclidean`] builds the plain Euclidean MST while still
/// reporting the core distances for `min_pts` (they simply do not enter
/// the metric). Bit-identical to [`emst_from_index`] under the default.
///
/// # Errors
///
/// As [`emst_from_index`].
pub fn emst_from_index_with(
    ctx: &ExecCtx,
    index: &EmstIndex,
    min_pts: usize,
    metric: MetricKind,
    scratch: &mut EmstScratch,
) -> Result<Emst, PandoraError> {
    ctx.set_phase("emst_core");
    let t = Instant::now();
    index.check_request(min_pts)?;
    // The run reads the core distances in tree order; the result reports
    // them per point index.
    let mut tree_core2 = scratch.pool.take_f32();
    tree_core2.resize(index.len(), 0.0);
    let mut core2 = vec![0.0f32; index.len()];
    index.fill_core2(ctx, min_pts, &mut core2, Some(&mut tree_core2));
    let tree_core2 = TreeOrdered::from_vec(tree_core2);
    scratch.rebind(index);
    // Cold scratch sets warm up from the best snapshot any earlier request
    // against this index published (module docs: the store lives on the
    // index, so the bounds are guaranteed to have been proved right here).
    if scratch.endgame.adopt_from(&index.endgame_store) {
        index.stats.note_adopt();
    }
    let core_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    // Per-request metric selection: an explicitly Euclidean request (or a
    // mutual-reachability one at `min_pts ≤ 1`, where every core distance
    // is zero) takes the plain-Euclidean arm regardless of `min_pts`.
    let euclidean = metric.effectively_euclidean(min_pts);
    if !euclidean && index.len() > 1 {
        // Per-subtree core minima for mutual-reachability pruning — a
        // property of this request, computed into scratch so the shared
        // tree stays untouched.
        index
            .tree
            .min_core2_into(&tree_core2, &mut scratch.node_core2);
    } else {
        scratch.node_core2.clear();
    }
    ctx.set_phase("emst_boruvka");
    // The endgame cache's metric rank is the `minPts` the bounds were
    // proved under (1 = plain Euclidean, the base of the monotone family —
    // which is why the Euclidean arm always registers rank 1, even when a
    // request pairs the Euclidean metric with a larger `min_pts`).
    let (points, tree, pool) = (&index.points, &index.tree, &scratch.pool);
    let edges = if euclidean {
        let extras = BoruvkaExtras {
            rows: index.rows(),
            cache: Some((&mut scratch.endgame, 1)),
            stats: Some(&index.stats),
            ..Default::default()
        };
        boruvka_mst(ctx, points, tree, &Euclidean, extras, pool)
    } else {
        let extras = BoruvkaExtras {
            rows: index.rows(),
            node_core2: &scratch.node_core2,
            cache: Some((&mut scratch.endgame, min_pts)),
            stats: Some(&index.stats),
        };
        let metric = TreeMutualReachability { core2: &tree_core2 };
        boruvka_mst(ctx, points, tree, &metric, extras, pool)
    };
    pool.put_f32(tree_core2.into_vec());
    let mst_s = t.elapsed().as_secs_f64();
    // Offer this run's endgame bounds back to the shared store so the next
    // cold scratch (another session, another daemon lane) starts warm.
    scratch.endgame.publish_to(&index.endgame_store);

    Ok(Emst {
        edges,
        core2,
        timings: StageTimings {
            core_s,
            mst_s,
            ..Default::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::core_distances2;
    use crate::kruskal::total_weight;
    use crate::metric::{Metric, MutualReachability};
    use crate::prim::prim_mst;
    use rand::prelude::*;

    fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        PointSet::new(
            (0..n * dim).map(|_| rng.gen_range(-5.0..5.0f32)).collect(),
            dim,
        )
    }

    /// An EMST that shares nothing with the index path but the kernels:
    /// fresh core distances and a bare Borůvka run (no rows, witnesses,
    /// subtree bounds or endgame cache).
    fn reference(ctx: &ExecCtx, points: &PointSet, min_pts: usize) -> Emst {
        let tree = KdTree::build(ctx, points);
        let core2 = core_distances2(ctx, points, &tree, min_pts.max(1));
        let pool = ScratchPool::new();
        let extras = BoruvkaExtras::default();
        let edges = if min_pts <= 1 {
            boruvka_mst(ctx, points, &tree, &Euclidean, extras, &pool)
        } else {
            let tree_core2 = tree.in_tree_order(&core2);
            let metric = TreeMutualReachability { core2: &tree_core2 };
            boruvka_mst(ctx, points, &tree, &metric, extras, &pool)
        };
        Emst {
            edges,
            core2,
            timings: StageTimings::default(),
        }
    }

    fn assert_same_emst(got: &Emst, want: &Emst, what: &str) {
        assert_eq!(got.core2, want.core2, "{what}");
        assert_eq!(got.edges.len(), want.edges.len(), "{what}");
        for (a, b) in got.edges.iter().zip(want.edges.iter()) {
            assert_eq!(
                (a.u, a.v, a.w.to_bits()),
                (b.u, b.v, b.w.to_bits()),
                "{what}"
            );
        }
    }

    #[test]
    fn emst_matches_the_reference_and_prim() {
        let ctx = ExecCtx::serial();
        let points = random_points(300, 3, 7);
        for min_pts in [0usize, 1, 2, 5] {
            let result = emst(&ctx, &points, min_pts);
            assert_same_emst(&result, &reference(&ctx, &points, min_pts), "one-shot");
            let core2 = &result.core2;
            let expect = if min_pts <= 1 {
                assert!(core2.iter().all(|&c| c == 0.0));
                prim_mst(&points, &Euclidean)
            } else {
                prim_mst(&points, &MutualReachability { core2 })
            };
            let (wa, wb) = (total_weight(&result.edges), total_weight(&expect));
            assert!((wa - wb).abs() < 1e-3 * wb.max(1.0), "{wa} vs {wb}");
        }
    }

    #[test]
    fn emst_timings_include_the_freeze_and_every_phase_is_traced() {
        let (ctx, tracer) = ExecCtx::serial().with_tracing();
        let points = random_points(400, 2, 5);
        let result = emst(&ctx, &points, 2);
        assert!(result.timings.tree_build_s > 0.0);
        assert!(result.timings.core_s > 0.0);
        assert!(result.timings.mst_s > 0.0);
        assert_eq!(result.timings.total(), result.timings.emst_s());
        let phases = tracer.snapshot().phases();
        for phase in ["emst_build", "emst_core", "emst_boruvka"] {
            assert!(phases.contains(&phase), "missing phase {phase}");
        }
    }

    #[test]
    fn emst_on_tiny_and_empty_inputs() {
        let ctx = ExecCtx::serial();
        // Degenerate sets stay trivially well-defined for any min_pts
        // (there is no neighbour, but also nothing to cluster).
        for min_pts in [0usize, 1, 2, 7] {
            let empty = emst(&ctx, &PointSet::new(vec![], 2), min_pts);
            assert!(empty.edges.is_empty() && empty.core2.is_empty());
            let one = emst(&ctx, &PointSet::new(vec![0.0, 0.0], 2), min_pts);
            assert!(one.edges.is_empty());
            assert_eq!(one.core2, vec![0.0]);
        }
    }

    #[test]
    fn with_custom_core2_respects_metric() {
        let ctx = ExecCtx::serial();
        let points = random_points(120, 2, 9);
        // Inflated core distances dominate every pairwise distance.
        let core2 = vec![1.0e6f32; 120];
        let edges = emst_with_core2(&ctx, &points, &core2);
        assert_eq!(edges.len(), 119);
        let metric = MutualReachability { core2: &core2 };
        assert!(metric.dist2(&points, 0, 1) == 1.0e6);
        assert!(edges.iter().all(|e| (e.w - 1000.0).abs() < 1e-3));
    }

    #[test]
    fn frozen_index_matches_the_reference_exactly() {
        let ctx = ExecCtx::serial();
        let points = random_points(400, 3, 11);
        let index = EmstIndex::freeze(&ctx, points.clone(), 16).expect("freeze a valid dataset");
        let mut scratch = EmstScratch::new();
        for min_pts in [1usize, 2, 4, 8, 16] {
            let served =
                emst_from_index(&ctx, &index, min_pts, &mut scratch).expect("valid request");
            let want = reference(&ctx, &points, min_pts);
            assert_same_emst(&served, &want, &format!("min_pts={min_pts}"));
            assert_eq!(served.timings.tree_build_s, 0.0);
        }
        assert_eq!(index.rows_k(), 15 + ROW_SLACK);
        assert_eq!(scratch.pool().outstanding(), 0);
    }

    #[test]
    fn shared_index_serves_concurrent_scratches() {
        // One &EmstIndex, many threads, each with its own EmstScratch —
        // all answers identical to the reference.
        let ctx = ExecCtx::serial();
        let points = random_points(300, 2, 7);
        let index =
            std::sync::Arc::new(EmstIndex::freeze(&ctx, points.clone(), 8).expect("freeze"));
        let wants: Vec<_> = [2usize, 4, 8]
            .iter()
            .map(|&m| reference(&ctx, &points, m))
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let index = std::sync::Arc::clone(&index);
                std::thread::spawn(move || {
                    let ctx = ExecCtx::serial();
                    let mut scratch = EmstScratch::new();
                    let mine = [2usize, 4, 8][t % 3];
                    emst_from_index(&ctx, &index, mine, &mut scratch)
                        .map(|r| (mine, r))
                        .expect("valid request")
                })
            })
            .collect();
        for h in handles {
            let (mine, served) = h.join().expect("serving thread");
            let want = &wants[[2usize, 4, 8]
                .iter()
                .position(|&m| m == mine)
                .expect("member")];
            assert_same_emst(&served, want, &format!("min_pts={mine}"));
        }
    }

    #[test]
    fn freeze_rejects_bad_inputs_without_panicking() {
        let ctx = ExecCtx::serial();
        assert_eq!(
            EmstIndex::freeze(&ctx, PointSet::new(vec![], 2), 2).err(),
            Some(PandoraError::EmptyDataset)
        );
        let points = random_points(5, 2, 1);
        assert!(matches!(
            EmstIndex::freeze(&ctx, points.clone(), 0).err(),
            Some(PandoraError::BadParams {
                param: "max_min_pts",
                value: 0,
                ..
            })
        ));
        assert!(matches!(
            EmstIndex::freeze(&ctx, points, 6).err(),
            Some(PandoraError::BadParams {
                param: "max_min_pts",
                value: 6,
                ..
            })
        ));
    }

    #[test]
    fn requests_outside_the_frozen_range_error() {
        let ctx = ExecCtx::serial();
        let index = EmstIndex::freeze(&ctx, random_points(40, 2, 3), 4).expect("freeze");
        let mut scratch = EmstScratch::new();
        for bad in [0usize, 5, 41] {
            let err = emst_from_index(&ctx, &index, bad, &mut scratch).err();
            assert!(
                matches!(
                    err,
                    Some(PandoraError::BadParams {
                        param: "min_pts",
                        ..
                    })
                ),
                "min_pts={bad} gave {err:?}"
            );
        }
        // The books stay balanced even across rejected requests.
        assert_eq!(scratch.pool().outstanding(), 0);
    }

    #[test]
    fn single_point_dataset_serves_trivially() {
        let ctx = ExecCtx::serial();
        let index = EmstIndex::freeze(&ctx, PointSet::new(vec![1.0, 2.0], 2), 4).expect("freeze");
        assert_eq!(index.rows_k(), 0);
        let mut scratch = EmstScratch::new();
        let served = emst_from_index(&ctx, &index, 2, &mut scratch).expect("serve");
        assert!(served.edges.is_empty());
        assert_eq!(served.core2, vec![0.0]);
    }

    #[test]
    fn scratch_reuse_across_different_indexes_stays_exact() {
        // Regression (review finding): the endgame cache validates
        // snapshots only by shape, so reusing one scratch across two
        // same-size indexes of DIFFERENT datasets must drop the bounds —
        // otherwise geometry proved on A silently corrupts B's MST.
        let ctx = ExecCtx::serial();
        let a_points = random_points(300, 2, 1);
        let b_points = random_points(300, 2, 99); // same n/dim, different data
        let a = EmstIndex::freeze(&ctx, a_points, 8).expect("freeze A");
        let b = EmstIndex::freeze(&ctx, b_points.clone(), 8).expect("freeze B");
        let mut scratch = EmstScratch::new();
        // Warm the endgame bounds on A...
        let _ = emst_from_index(&ctx, &a, 2, &mut scratch).expect("serve A");
        let _ = emst_from_index(&ctx, &a, 4, &mut scratch).expect("serve A again");
        assert!(scratch.endgame_is_warm());
        // ...then serve B with the SAME scratch: bounds must be dropped
        // (rebind) and the answer must equal B's reference exactly.
        let served = emst_from_index(&ctx, &b, 4, &mut scratch).expect("serve B");
        assert_same_emst(&served, &reference(&ctx, &b_points, 4), "index B");
    }

    /// Well-separated blobs: late Borůvka rounds have blob-sized
    /// components whose interiors cannot resolve from k-NN rows (every row
    /// member is domestic), forcing real endgame tree searches — the
    /// workload the snapshot store exists for.
    fn blob_points(per_blob: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [
            (-40.0f32, -40.0f32),
            (40.0, -40.0),
            (-40.0, 40.0),
            (40.0, 40.0),
        ];
        let mut data = Vec::with_capacity(per_blob * centers.len() * 2);
        for &(cx, cy) in &centers {
            for _ in 0..per_blob {
                data.push(cx + rng.gen_range(-2.0..2.0f32));
                data.push(cy + rng.gen_range(-2.0..2.0f32));
            }
        }
        PointSet::new(data, 2)
    }

    #[test]
    fn second_scratch_adopts_the_shared_endgame_snapshot() {
        // The cross-session tentpole property at the mst layer: the first
        // request publishes its endgame snapshots to the index's shared
        // store, and a brand-new (cold) scratch set adopts them — dropping
        // its re-search volume below the cold run's — while staying
        // bit-identical to the reference.
        let ctx = ExecCtx::serial();
        let points = blob_points(150, 21);
        let index = EmstIndex::freeze(&ctx, points.clone(), 8).expect("freeze");
        assert!(!index.endgame_store().is_published());
        assert_eq!(index.stats().snapshot_adopts(), 0);

        let mut s1 = EmstScratch::new();
        let first = emst_from_index(&ctx, &index, 4, &mut s1).expect("serve");
        assert!(
            index.endgame_store().is_published(),
            "the first completed run must publish its snapshots"
        );
        assert_eq!(
            index.stats().snapshot_adopts(),
            0,
            "nothing to adopt on an empty store"
        );
        let cold_searches = index.stats().researches();
        assert!(cold_searches > 0);

        let mut s2 = EmstScratch::new();
        let second = emst_from_index(&ctx, &index, 4, &mut s2).expect("serve");
        assert_eq!(
            index.stats().snapshot_adopts(),
            1,
            "a cold scratch must adopt the published set"
        );
        let warm_searches = index.stats().researches() - cold_searches;
        assert!(
            warm_searches < cold_searches,
            "adopted bounds must cut re-searches ({warm_searches} vs {cold_searches})"
        );

        // Bit-identical to the reference.
        let want = reference(&ctx, &points, 4);
        assert_same_emst(&first, &want, "publishing run");
        assert_same_emst(&second, &want, "adopting run");
    }

    #[test]
    fn lower_rank_runs_replace_the_published_set() {
        // Publish policy: steady-state streams at one rank publish once;
        // only a strictly lower rank (bounds valid for strictly more
        // future requests) replaces the stored set.
        let ctx = ExecCtx::serial();
        let index = EmstIndex::freeze(&ctx, random_points(300, 2, 33), 8).expect("freeze");
        let mut scratch = EmstScratch::new();
        let _ = emst_from_index(&ctx, &index, 4, &mut scratch).expect("serve");
        assert_eq!(index.endgame_store().publishes(), 1);
        let _ = emst_from_index(&ctx, &index, 4, &mut scratch).expect("serve");
        assert_eq!(
            index.endgame_store().publishes(),
            1,
            "same rank must not republish"
        );
        let _ = emst_from_index(&ctx, &index, 2, &mut scratch).expect("serve");
        assert_eq!(
            index.endgame_store().publishes(),
            2,
            "a lower rank replaces the set"
        );
        let _ = emst_from_index(&ctx, &index, 8, &mut scratch).expect("serve");
        assert_eq!(
            index.endgame_store().publishes(),
            2,
            "a higher rank never replaces"
        );
    }

    #[test]
    fn witness_hits_accumulate_on_the_index_stats() {
        let ctx = ExecCtx::serial();
        let index = EmstIndex::freeze(&ctx, random_points(500, 3, 5), 8).expect("freeze");
        let mut scratch = EmstScratch::new();
        let _ = emst_from_index(&ctx, &index, 4, &mut scratch).expect("serve");
        let stats = index.stats();
        assert!(
            stats.witness_hits() + stats.researches() > 0,
            "a full run must account its queries"
        );
    }

    #[test]
    fn warm_scratch_keeps_endgame_bounds() {
        let ctx = ExecCtx::serial();
        let index = EmstIndex::freeze(&ctx, random_points(200, 2, 9), 8).expect("freeze");
        let mut scratch = EmstScratch::new();
        assert!(!scratch.endgame_is_warm());
        let _ = emst_from_index(&ctx, &index, 2, &mut scratch).expect("serve");
        assert!(
            scratch.endgame_is_warm(),
            "run one must stage endgame bounds"
        );
        let hits_before = scratch.pool().reuse_hits();
        let _ = emst_from_index(&ctx, &index, 4, &mut scratch).expect("serve");
        assert!(
            scratch.pool().reuse_hits() > hits_before,
            "warm runs must reuse pooled buffers"
        );
    }
}
