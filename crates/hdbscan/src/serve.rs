//! The serving API, and the one path every HDBSCAN\* run takes: one
//! shared [`DatasetIndex`], many per-request [`Session`]s.
//!
//! A serving deployment wants T threads answering clustering requests over
//! the same dataset simultaneously, and a `minPts` sweep wants to pay the
//! spatial substrate once. This module splits the pipeline along the
//! read/write boundary the PANDORA stages already have:
//!
//! * [`DatasetIndex`] — the shared tier: a validated point set, the
//!   frozen kd-tree with its AoSoA leaf blocks, and sorted k-NN rows wide
//!   enough for every `minPts` up to the freeze ceiling, all immutable
//!   after the freeze; plus a bounded cache of finished hierarchies that
//!   lets requests differing only in extraction parameters skip the
//!   spanning tree and the dendrogram. `Send + Sync`; wrap it in an
//!   [`Arc`] and share it.
//! * [`Session`] — the cheap mutable tier: pooled Borůvka round buffers,
//!   the dendrogram workspace and the endgame cache. Each in-flight
//!   request owns one; finished sessions return their scratch to a
//!   thread-safe pool inside the index, so the steady state allocates
//!   nothing per request.
//! * [`ClusterRequest`] — a typed, validated description of one query.
//!
//! Every entry point is **fallible**: bad datasets and bad parameters come
//! back as [`PandoraError`] values instead of panics, so one malformed
//! request degrades one response, never the process. Results are
//! **bit-identical** to the one-shot [`crate::Hdbscan::run`] path in both
//! serial and threaded contexts (enforced by `tests/serve_concurrent.rs`).
//!
//! ```
//! use std::sync::Arc;
//! use pandora_hdbscan::{ClusterRequest, DatasetIndex};
//! use pandora_mst::PointSet;
//!
//! let mut coords = Vec::new();
//! for i in 0..40 {
//!     coords.extend_from_slice(&[i as f32 * 0.01, 0.0]);
//!     coords.extend_from_slice(&[50.0 + i as f32 * 0.01, 0.0]);
//! }
//! let points = PointSet::try_new(coords, 2)?;
//! let index = Arc::new(DatasetIndex::freeze(points, 8)?);
//!
//! // Any number of threads can hold sessions over the same index.
//! let mut session = index.session();
//! let result = session.run(&ClusterRequest::new().min_pts(4))?;
//! assert_eq!(result.n_clusters(), 2);
//! # Ok::<(), pandora_mst::PandoraError>(())
//! ```

// PL001 (docs/ANALYSIS.md): no panic path here or in any submodule.
#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::unwrap_used,
    clippy::expect_used
)]

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use pandora_core::{dendrogram_from_sorted_with, DendrogramWorkspace, Edge, SortedMst};
use pandora_exec::ExecCtx;
use pandora_mst::{
    emst_from_index_with, nnchain_from_index, EmstIndex, EmstScratch, Linkage, MetricKind,
    PandoraError, PointSet,
};

use crate::condensed::condense;
use crate::pipeline::{HdbscanParams, HdbscanResult, StageTimings};
use crate::stability::{cluster_stabilities, extract_labels, select_clusters};

mod hierarchy;

pub use hierarchy::HierarchyStats;
use hierarchy::{Hierarchy, HierarchyCache, HierarchyKey};

/// One validated clustering request: the per-query parameters of a
/// [`Session::run`].
///
/// Built with a fluent, infallible builder; range validation happens at
/// [`Session::run`] against the concrete index (whether `min_pts` fits the
/// dataset and the freeze ceiling is a property of the pair, not of the
/// request alone).
///
/// ```
/// use pandora_hdbscan::ClusterRequest;
///
/// let request = ClusterRequest::new()
///     .min_pts(8)
///     .min_cluster_size(10)
///     .allow_single_cluster(true);
/// assert_eq!(request.min_pts, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[must_use = "a request does nothing until passed to Session::run"]
pub struct ClusterRequest {
    /// HDBSCAN\* `minPts` (neighbours including self defining the core
    /// distance). Must be `1..=min(n, index ceiling)` at run time.
    pub min_pts: usize,
    /// Minimum condensed-cluster size. Must be at least 1 at run time.
    pub min_cluster_size: usize,
    /// Whether the root may be selected as a flat cluster.
    pub allow_single_cluster: bool,
    /// Linkage criterion. `None` (the default) runs single linkage
    /// ([`Linkage::default`]); no environment variable changes that.
    /// Single linkage keeps the Borůvka EMST fast path; the other criteria
    /// run the NN-chain engine over the same frozen substrate.
    pub linkage: Option<Linkage>,
    /// Distance-metric override. `None` (the default) picks the natural
    /// metric for the resolved linkage: mutual reachability for single /
    /// complete / average (the HDBSCAN\* convention), plain Euclidean for
    /// Ward (whose variance objective is only defined there). Explicitly
    /// requesting [`MetricKind::MutualReachability`] together with Ward
    /// and `min_pts >= 2` is rejected at run time.
    pub metric: Option<MetricKind>,
}

impl Default for ClusterRequest {
    fn default() -> Self {
        let params = HdbscanParams::default();
        Self {
            min_pts: params.min_pts,
            min_cluster_size: params.min_cluster_size,
            allow_single_cluster: params.allow_single_cluster,
            linkage: None,
            metric: None,
        }
    }
}

impl ClusterRequest {
    /// A request with the stack's default parameters (`min_pts = 2`,
    /// `min_cluster_size = 5`, no single-cluster selection).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `minPts` (the core-distance neighbour count, including self).
    pub fn min_pts(mut self, min_pts: usize) -> Self {
        self.min_pts = min_pts;
        self
    }

    /// Sets the minimum condensed-cluster size.
    pub fn min_cluster_size(mut self, min_cluster_size: usize) -> Self {
        self.min_cluster_size = min_cluster_size;
        self
    }

    /// Sets whether the root may be selected as a flat cluster.
    pub fn allow_single_cluster(mut self, allow: bool) -> Self {
        self.allow_single_cluster = allow;
        self
    }

    /// Pins the linkage criterion for this request (single linkage when
    /// left unset).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pandora_hdbscan::{ClusterRequest, DatasetIndex};
    /// use pandora_mst::{Linkage, PointSet};
    ///
    /// let points = PointSet::try_new((0..64).map(|i| i as f32).collect(), 2)?;
    /// let index = Arc::new(DatasetIndex::freeze(points, 4)?);
    /// let mut session = index.session();
    ///
    /// // Ward linkage over the same frozen index; single (the default)
    /// // would keep the Borůvka EMST fast path instead.
    /// let result = session.run(&ClusterRequest::new().linkage(Linkage::Ward))?;
    /// assert_eq!(result.labels.len(), 32);
    /// # Ok::<(), pandora_mst::PandoraError>(())
    /// ```
    pub fn linkage(mut self, linkage: Linkage) -> Self {
        self.linkage = Some(linkage);
        self
    }

    /// Pins the distance metric for this request instead of the resolved
    /// linkage's natural default (mutual reachability for single /
    /// complete / average, Euclidean for Ward).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pandora_hdbscan::{ClusterRequest, DatasetIndex};
    /// use pandora_mst::{MetricKind, PandoraError, PointSet};
    ///
    /// let points = PointSet::try_new((0..64).map(|i| i as f32).collect(), 2)?;
    /// let index = Arc::new(DatasetIndex::freeze(points, 4)?);
    /// let mut session = index.session();
    ///
    /// // Plain single-linkage over raw Euclidean distances (no mutual-
    /// // reachability smoothing, whatever min_pts says).
    /// let request = ClusterRequest::new()
    ///     .min_pts(4)
    ///     .metric(MetricKind::Euclidean);
    /// assert!(session.run(&request).is_ok());
    /// # Ok::<(), PandoraError>(())
    /// ```
    pub fn metric(mut self, metric: MetricKind) -> Self {
        self.metric = Some(metric);
        self
    }

    /// The metric this request runs under once `linkage` has been
    /// resolved: the explicit override if set, otherwise the linkage's
    /// natural default.
    pub fn effective_metric(&self, linkage: Linkage) -> MetricKind {
        self.metric.unwrap_or(match linkage {
            Linkage::Ward => MetricKind::Euclidean,
            _ => MetricKind::MutualReachability,
        })
    }

    /// The equivalent parameters of the one-shot [`crate::Hdbscan`] driver.
    pub fn to_params(&self) -> HdbscanParams {
        HdbscanParams {
            min_pts: self.min_pts,
            min_cluster_size: self.min_cluster_size,
            allow_single_cluster: self.allow_single_cluster,
        }
    }
}

/// The per-session mutable state, pooled inside the index between
/// sessions so steady-state serving allocates nothing per request.
#[derive(Debug, Default)]
struct SessionState {
    emst: EmstScratch,
    dendro: DendrogramWorkspace,
}

/// Fewest scratch sets an index will agree to retain for recycling. The
/// actual cap scales with the execution context's worker lanes (see
/// [`DatasetIndex::pooled_cap`]) but never drops below this floor, so
/// small thread pools still absorb modest session bursts warm.
const MIN_POOLED_SESSIONS: usize = 16;

/// The `Arc`-shareable tier of the serving API: one dataset, frozen once,
/// read by every concurrent request (see the module docs).
///
/// Besides the frozen substrate, the index owns two pieces of shared state
/// that never change a result: the parked scratch of finished sessions,
/// and a cache of finished hierarchies. A hierarchy (core distances,
/// canonical spanning tree, dendrogram and its level statistics) is keyed
/// by `min_pts`, the resolved linkage and the effective metric. The cache
/// holds at most as many bytes as the index's sorted k-NN rows
/// (`rows_k × n × 8`; an entry costs about 28 bytes per point) and evicts
/// the least recently used entry first. It lives and dies with the index:
/// a replacement index starts empty.
/// [`DatasetIndex::hierarchy_stats`] reports it.
pub struct DatasetIndex {
    emst: EmstIndex,
    ctx: ExecCtx,
    /// Scratch sets of finished sessions, recycled into new ones.
    pool: Mutex<Vec<SessionState>>,
    /// Most scratch sets the pool retains (see [`DatasetIndex::pooled_cap`]).
    pool_cap: usize,
    /// Finished hierarchies of recent requests (see the type docs).
    hierarchies: HierarchyCache,
}

/// Compile-time proof the index can be shared across serving threads and
/// sessions can be moved into them.
fn _assert_send_sync() {
    fn shared<T: Send + Sync>() {}
    fn movable<T: Send>() {}
    shared::<DatasetIndex>();
    movable::<Session>();
}

impl std::fmt::Debug for DatasetIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetIndex")
            .field("n", &self.emst.len())
            .field("dim", &self.emst.points().dim())
            .field("max_min_pts", &self.emst.max_min_pts())
            .field("pooled_sessions", &self.pool.lock().len())
            .finish_non_exhaustive()
    }
}

impl DatasetIndex {
    /// Freezes a dataset into a shareable index on the global thread pool:
    /// validates the points (already done if they came through
    /// [`PointSet::try_new`]), builds the kd-tree, and captures one sorted
    /// k-NN pass wide enough for every request with
    /// `min_pts <= max_min_pts`.
    ///
    /// The freeze is the only expensive step of the serving API; sessions
    /// drawn afterwards are cheap and the index never changes again.
    ///
    /// # Errors
    ///
    /// * [`PandoraError::EmptyDataset`] — no points to index;
    /// * [`PandoraError::BadParams`] — `max_min_pts` is 0 or exceeds the
    ///   point count (for two or more points).
    ///
    /// ```
    /// use pandora_hdbscan::DatasetIndex;
    /// use pandora_mst::{PandoraError, PointSet};
    ///
    /// let points = PointSet::try_new(vec![0.0, 0.0, 1.0, 0.0, 5.0, 1.0], 2)?;
    /// let index = DatasetIndex::freeze(points, 3)?;
    /// assert_eq!(index.len(), 3);
    /// assert_eq!(index.max_min_pts(), 3);
    ///
    /// // Bad ceilings are errors, not panics.
    /// let empty = DatasetIndex::freeze(PointSet::try_new(vec![], 2)?, 2);
    /// assert_eq!(empty.err(), Some(PandoraError::EmptyDataset));
    /// # Ok::<(), PandoraError>(())
    /// ```
    pub fn freeze(points: PointSet, max_min_pts: usize) -> Result<Self, PandoraError> {
        Self::freeze_with_ctx(ExecCtx::threads(), points, max_min_pts)
    }

    /// [`DatasetIndex::freeze`] on a caller-chosen execution context; the
    /// context also becomes the default for sessions drawn from this index.
    pub fn freeze_with_ctx(
        ctx: ExecCtx,
        points: PointSet,
        max_min_pts: usize,
    ) -> Result<Self, PandoraError> {
        let emst = EmstIndex::freeze(&ctx, points, max_min_pts)?;
        // Scale the parked-scratch cap with the serving concurrency the
        // context implies (`PANDORA_THREADS` worker lanes): a daemon running
        // W lanes churns up to 2·W sessions through overlapping check-ins,
        // while a small pool has no use for dozens of parked O(n) sets.
        let pool_cap = (2 * ctx.lanes()).max(MIN_POOLED_SESSIONS);
        // The hierarchy cache may hold as much as the rows themselves: one
        // f32 distance and one u32 index per captured neighbour.
        let row_bytes = std::mem::size_of::<f32>() + std::mem::size_of::<u32>();
        let hierarchies = HierarchyCache::new(emst.rows_k() * emst.len() * row_bytes);
        Ok(Self {
            emst,
            ctx,
            pool: Mutex::new(Vec::new()),
            pool_cap,
            hierarchies,
        })
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.emst.len()
    }

    /// Whether the index holds no points (never true — freezing an empty
    /// dataset is rejected).
    pub fn is_empty(&self) -> bool {
        self.emst.is_empty()
    }

    /// The largest `min_pts` a request against this index may carry.
    pub fn max_min_pts(&self) -> usize {
        self.emst.max_min_pts()
    }

    /// The frozen EMST substrate (tree, rows, dataset).
    pub fn emst(&self) -> &EmstIndex {
        &self.emst
    }

    /// The execution context sessions inherit by default.
    pub fn ctx(&self) -> &ExecCtx {
        &self.ctx
    }

    /// Scratch sets currently parked in the session pool.
    pub fn pooled_sessions(&self) -> usize {
        self.pool.lock().len()
    }

    /// Most scratch sets the session pool retains: twice the execution
    /// context's worker lanes, floored at 16. Beyond
    /// the cap, dropped sessions free their scratch instead of parking it,
    /// bounding the index's burst-memory high-water mark while still
    /// serving every steady-state lane a warm set.
    pub fn pooled_cap(&self) -> usize {
        self.pool_cap
    }

    /// Hits, misses, entries held and bytes held of the index's cache of
    /// finished hierarchies (see the type docs). Every successful
    /// [`Session::run`] is exactly one hit or one miss.
    pub fn hierarchy_stats(&self) -> HierarchyStats {
        self.hierarchies.stats()
    }

    /// Draws a session on the index's own execution context. Cheap: the
    /// scratch set is recycled from a finished session when one is pooled.
    #[must_use = "a session serves nothing until run() is called"]
    pub fn session(self: &Arc<Self>) -> Session {
        self.session_with_ctx(self.ctx.clone())
    }

    /// Draws a session that dispatches its stages on a caller-chosen
    /// context — e.g. [`ExecCtx::serial`] when request-level parallelism
    /// (many sessions on many threads) already saturates the machine.
    #[must_use = "a session serves nothing until run() is called"]
    pub fn session_with_ctx(self: &Arc<Self>, ctx: ExecCtx) -> Session {
        let state = self.pool.lock().pop().unwrap_or_default();
        Session {
            index: Arc::clone(self),
            ctx,
            state,
        }
    }

    /// Returns a finished session's scratch to the pool — unless the pool
    /// already holds [`DatasetIndex::pooled_cap`] sets, in which case the
    /// scratch is simply dropped. The cap bounds the index's memory
    /// high-water mark: a burst of K concurrent sessions must not leave K
    /// dataset-sized scratch sets resident for the index's lifetime.
    fn check_in(&self, state: SessionState) {
        let mut pool = self.pool.lock();
        if pool.len() < self.pool_cap {
            pool.push(state);
        }
    }
}

/// The mutable tier of one in-flight request stream: borůvka round
/// buffers, dendrogram workspace and endgame cache, bound to one shared
/// [`DatasetIndex`] (see the module docs).
///
/// A session is `Send` (move it into a serving thread); running takes
/// `&mut self`, so two concurrent requests take two sessions. Dropping a
/// session parks its scratch in the index's pool for the next one.
#[derive(Debug)]
pub struct Session {
    index: Arc<DatasetIndex>,
    ctx: ExecCtx,
    state: SessionState,
}

impl Session {
    /// The index this session serves.
    pub fn index(&self) -> &Arc<DatasetIndex> {
        &self.index
    }

    /// Leased-but-unreturned scratch buffers (0 between runs — the leak
    /// accounting the stress tests assert on).
    pub fn scratch_outstanding(&self) -> usize {
        self.state.emst.pool().outstanding() + self.state.dendro.scratch().outstanding()
    }

    /// Answers one clustering request, reusing every warm stage buffer.
    ///
    /// After validation, the request's hierarchy key (`min_pts`, resolved
    /// linkage, effective metric) is looked up in the index's cache of
    /// finished hierarchies (see [`DatasetIndex`]). On a hit, the cached
    /// core distances, spanning tree and dendrogram are copied into the
    /// result and only condensing, selection and labelling run. On a miss,
    /// the full pipeline runs and its hierarchy is offered to the cache.
    ///
    /// For single linkage (the default), the result is **bit-identical**
    /// to [`crate::Hdbscan::run`] with the request's parameters, hit or
    /// miss — the frozen rows, the pooled buffers, the endgame cache and
    /// the hierarchy cache are all strictly conservative optimizations.
    /// Only the timings tell them apart: `timings.tree_build_s` is always
    /// 0 (the substrate was paid once, at [`DatasetIndex::freeze`]), and on
    /// a hit `core_s`, `mst_s`, `dendrogram_s` and `pandora_stats.timings`
    /// read 0 as well. Other linkage criteria run the NN-chain engine over
    /// the same substrate (see [`ClusterRequest::linkage`]).
    ///
    /// # Errors
    ///
    /// [`PandoraError::BadParams`] when `min_pts` is 0, exceeds the point
    /// count, or exceeds the index's freeze ceiling; when
    /// `min_cluster_size` is 0; or when the request pairs Ward linkage
    /// with an explicit mutual-reachability metric at `min_pts >= 2` (an
    /// undefined combination). A rejected request leaves the session
    /// fully reusable.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pandora_hdbscan::{ClusterRequest, DatasetIndex};
    /// use pandora_mst::{PandoraError, PointSet};
    ///
    /// let points = PointSet::try_new((0..64).map(|i| i as f32).collect(), 2)?;
    /// let index = Arc::new(DatasetIndex::freeze(points, 4)?);
    /// let mut session = index.session();
    ///
    /// let labels = session.run(&ClusterRequest::new().min_pts(3))?.labels;
    /// assert_eq!(labels.len(), 32);
    ///
    /// // A min_pts above the freeze ceiling is an error, not a panic.
    /// let err = session.run(&ClusterRequest::new().min_pts(9));
    /// assert!(matches!(err, Err(PandoraError::BadParams { .. })));
    /// # Ok::<(), PandoraError>(())
    /// ```
    pub fn run(&mut self, request: &ClusterRequest) -> Result<HdbscanResult, PandoraError> {
        if request.min_cluster_size == 0 {
            return Err(PandoraError::BadParams {
                param: "min_cluster_size",
                value: 0,
                reason: "must be at least 1",
            });
        }
        let linkage = request.linkage.unwrap_or_default();
        let metric = request.effective_metric(linkage);
        if linkage == Linkage::Ward && !metric.effectively_euclidean(request.min_pts) {
            // An explicit mutual-reachability override (the linkage default
            // would have picked Euclidean): Ward's variance objective has
            // no mutual-reachability analogue, so the combination is a
            // request error, not a silent reinterpretation.
            return Err(PandoraError::BadParams {
                param: "metric",
                value: request.min_pts,
                reason: "Ward linkage is undefined over mutual reachability; \
                         request the Euclidean metric (or min_pts = 1)",
            });
        }
        let ctx = self.ctx.clone();
        let key = HierarchyKey {
            min_pts: request.min_pts,
            linkage,
            metric,
        };
        if let Some(cached) = self.index.hierarchies.get(&key) {
            return Ok(extract_clusters(
                &ctx,
                Hierarchy::clone(&cached),
                request,
                StageTimings::default(),
            ));
        }

        // Spanning-structure stage against the frozen substrate. Single
        // linkage keeps the Borůvka EMST fast path (phases emst_core /
        // emst_boruvka; the build was paid by the freeze); the other
        // criteria run the NN-chain engine, whose merge sequence is itself
        // a spanning tree the downstream stages consume unchanged.
        let emst = if linkage.uses_emst_fast_path() {
            emst_from_index_with(
                &ctx,
                &self.index.emst,
                request.min_pts,
                metric,
                &mut self.state.emst,
            )?
        } else {
            nnchain_from_index(
                &ctx,
                &self.index.emst,
                request.min_pts,
                linkage,
                metric,
                &mut self.state.emst,
            )?
        };
        let mut timings = emst.timings;
        let hierarchy = finish_hierarchy(
            &ctx,
            self.index.len(),
            emst.core2,
            &emst.edges,
            &mut self.state.dendro,
            &mut timings,
        );
        self.index.hierarchies.insert(key, &hierarchy);
        Ok(extract_clusters(&ctx, hierarchy, request, timings))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.index.check_in(std::mem::take(&mut self.state));
    }
}

/// The hierarchy half of the pipeline, shared by a cache miss in
/// [`Session::run`] and the empty-set path of [`crate::Hdbscan::run`]
/// (which has no index to draw a session from): sorts the spanning tree
/// into canonical order and builds its dendrogram by α-contraction through
/// the reusable workspace. Sets `timings.dendrogram_s` (sort included).
pub(crate) fn finish_hierarchy(
    ctx: &ExecCtx,
    n: usize,
    core2: Vec<f32>,
    edges: &[Edge],
    dendro_ws: &mut DendrogramWorkspace,
    timings: &mut StageTimings,
) -> Hierarchy {
    let t = Instant::now();
    ctx.set_phase("sort");
    let mst = SortedMst::from_edges(ctx, n, edges);
    let input_sort_s = t.elapsed().as_secs_f64();
    let (dendrogram, mut pandora_stats) = dendrogram_from_sorted_with(ctx, &mst, dendro_ws);
    pandora_stats.timings.sort_s += input_sort_s;
    timings.dendrogram_s = t.elapsed().as_secs_f64();
    Hierarchy {
        core2,
        mst,
        dendrogram,
        pandora_stats,
    }
}

/// The extraction half of the pipeline, shared by every path: condenses
/// the hierarchy's dendrogram, selects flat clusters and labels the
/// points. Of `request`, only `min_cluster_size` and
/// `allow_single_cluster` are read.
pub(crate) fn extract_clusters(
    ctx: &ExecCtx,
    hierarchy: Hierarchy,
    request: &ClusterRequest,
    mut timings: StageTimings,
) -> HdbscanResult {
    let t = Instant::now();
    ctx.set_phase("extract");
    let condensed = condense(&hierarchy.dendrogram, request.min_cluster_size);
    let stabilities = cluster_stabilities(&condensed);
    let selected = select_clusters(&condensed, &stabilities, request.allow_single_cluster);
    let (labels, probabilities) = extract_labels(&condensed, &selected);
    timings.extract_s = t.elapsed().as_secs_f64();

    let Hierarchy {
        core2,
        mst,
        dendrogram,
        pandora_stats,
    } = hierarchy;
    HdbscanResult {
        core2,
        mst,
        dendrogram,
        condensed,
        stabilities,
        labels,
        probabilities,
        timings,
        pandora_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Hdbscan;
    use pandora_data::synthetic::gaussian_blobs;

    fn assert_identical(a: &HdbscanResult, b: &HdbscanResult, what: &str) {
        assert_eq!(a.core2, b.core2, "{what}: core2");
        assert_eq!(a.mst.src, b.mst.src, "{what}: mst src");
        assert_eq!(a.mst.dst, b.mst.dst, "{what}: mst dst");
        assert_eq!(a.mst.weight, b.mst.weight, "{what}: mst weights");
        assert_eq!(a.dendrogram, b.dendrogram, "{what}: dendrogram");
        assert_eq!(a.labels, b.labels, "{what}: labels");
        assert_eq!(a.probabilities, b.probabilities, "{what}: probabilities");
    }

    #[test]
    fn session_matches_one_shot_pipeline() {
        let (points, _) = gaussian_blobs(500, 2, 3, 90.0, 0.8, 17);
        let ctx = ExecCtx::serial();
        let index = Arc::new(
            DatasetIndex::freeze_with_ctx(ctx.clone(), points.clone(), 16).expect("freeze"),
        );
        let mut session = index.session();
        for min_pts in [2usize, 4, 8, 16] {
            let request = ClusterRequest::new().min_pts(min_pts);
            let served = session.run(&request).expect("valid request");
            let one_shot = Hdbscan::with_ctx(request.to_params(), ctx.clone()).run(&points);
            assert_identical(&served, &one_shot, &format!("min_pts={min_pts}"));
            assert_eq!(served.timings.tree_build_s, 0.0);
        }
        assert_eq!(session.scratch_outstanding(), 0);
    }

    #[test]
    fn sessions_recycle_scratch_through_the_index_pool() {
        let (points, _) = gaussian_blobs(300, 2, 2, 60.0, 0.7, 3);
        let index =
            Arc::new(DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points, 8).expect("freeze"));
        assert_eq!(index.pooled_sessions(), 0);
        {
            let mut session = index.session();
            let _ = session.run(&ClusterRequest::new()).expect("run");
        }
        assert_eq!(index.pooled_sessions(), 1, "drop must park the scratch");
        {
            // The next session must pick the warm scratch back up.
            let mut session = index.session();
            assert_eq!(index.pooled_sessions(), 0);
            let before = session.state.emst.pool().reuse_hits();
            let _ = session.run(&ClusterRequest::new().min_pts(4)).expect("run");
            assert!(
                session.state.emst.pool().reuse_hits() > before,
                "recycled scratch must serve warm buffers"
            );
        }
        assert_eq!(index.pooled_sessions(), 1);
    }

    #[test]
    fn session_pool_is_capped_after_a_burst() {
        // A burst of concurrent sessions must not leave an unbounded pile
        // of dataset-sized scratch sets parked in the index forever.
        let (points, _) = gaussian_blobs(80, 2, 2, 40.0, 0.6, 9);
        let index =
            Arc::new(DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points, 4).expect("freeze"));
        // A serial context has one lane, so the cap sits at the floor.
        assert_eq!(index.pooled_cap(), MIN_POOLED_SESSIONS);
        let burst: Vec<Session> = (0..index.pooled_cap() + 8)
            .map(|_| index.session())
            .collect();
        drop(burst);
        assert_eq!(index.pooled_sessions(), index.pooled_cap());
        // The pool still serves warm sessions normally.
        let mut session = index.session();
        assert!(session.run(&ClusterRequest::new()).is_ok());
    }

    #[test]
    fn session_pool_cap_scales_with_worker_lanes() {
        // A wide execution context implies matching request concurrency, so
        // the parked-scratch cap follows the lane count instead of pinning
        // every deployment to the 16-entry floor.
        let (points, _) = gaussian_blobs(60, 2, 2, 40.0, 0.6, 9);
        let pool = Arc::new(pandora_exec::pool::ThreadPool::new(12));
        let ctx = ExecCtx::on_pool(pool);
        assert_eq!(ctx.lanes(), 12);
        let index = Arc::new(DatasetIndex::freeze_with_ctx(ctx, points, 4).expect("freeze"));
        assert_eq!(index.pooled_cap(), 24);
        let burst: Vec<Session> = (0..index.pooled_cap() + 4)
            .map(|_| index.session())
            .collect();
        drop(burst);
        assert_eq!(index.pooled_sessions(), index.pooled_cap());
    }

    #[test]
    fn bad_requests_error_and_leave_the_session_usable() {
        let (points, _) = gaussian_blobs(100, 2, 2, 50.0, 0.6, 5);
        let index =
            Arc::new(DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points, 8).expect("freeze"));
        let mut session = index.session();
        for request in [
            ClusterRequest::new().min_pts(0),
            ClusterRequest::new().min_pts(101),
            ClusterRequest::new().min_pts(9), // above the freeze ceiling
            ClusterRequest::new().min_cluster_size(0),
        ] {
            let err = session.run(&request);
            assert!(
                matches!(err, Err(PandoraError::BadParams { .. })),
                "{request:?} gave {err:?}"
            );
        }
        assert_eq!(session.scratch_outstanding(), 0);
        let ok = session
            .run(&ClusterRequest::new())
            .expect("session survives");
        assert_eq!(ok.labels.len(), 100);
    }

    #[test]
    fn freeze_is_fallible_not_panicking() {
        assert_eq!(
            DatasetIndex::freeze(PointSet::new(vec![], 3), 2).err(),
            Some(PandoraError::EmptyDataset)
        );
        let (points, _) = gaussian_blobs(10, 2, 1, 10.0, 0.5, 1);
        assert!(matches!(
            DatasetIndex::freeze(points.clone(), 0).err(),
            Some(PandoraError::BadParams {
                param: "max_min_pts",
                ..
            })
        ));
        assert!(matches!(
            DatasetIndex::freeze(points, 11).err(),
            Some(PandoraError::BadParams {
                param: "max_min_pts",
                ..
            })
        ));
    }

    #[test]
    fn request_builder_round_trips_params() {
        let request = ClusterRequest::new()
            .min_pts(7)
            .min_cluster_size(9)
            .allow_single_cluster(true);
        let params = request.to_params();
        assert_eq!(params.min_pts, 7);
        assert_eq!(params.min_cluster_size, 9);
        assert!(params.allow_single_cluster);
        assert_eq!(ClusterRequest::default(), ClusterRequest::new());
        assert_eq!(ClusterRequest::new().linkage, None);
        assert_eq!(
            ClusterRequest::new().linkage(Linkage::Ward).linkage,
            Some(Linkage::Ward)
        );
        assert_eq!(
            ClusterRequest::new().metric(MetricKind::Euclidean).metric,
            Some(MetricKind::Euclidean)
        );
    }

    #[test]
    fn effective_metric_defaults_follow_the_linkage() {
        let request = ClusterRequest::new();
        assert_eq!(
            request.effective_metric(Linkage::Single),
            MetricKind::MutualReachability
        );
        assert_eq!(
            request.effective_metric(Linkage::Ward),
            MetricKind::Euclidean
        );
        // An explicit override beats the linkage default.
        let explicit = ClusterRequest::new().metric(MetricKind::MutualReachability);
        assert_eq!(
            explicit.effective_metric(Linkage::Ward),
            MetricKind::MutualReachability
        );
    }

    #[test]
    fn every_linkage_serves_and_single_stays_on_the_fast_path() {
        let (points, _) = gaussian_blobs(240, 3, 3, 70.0, 0.8, 23);
        let index =
            Arc::new(DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points, 8).expect("freeze"));
        let mut session = index.session();
        let baseline = session
            .run(&ClusterRequest::new().min_pts(4))
            .expect("default request");
        for linkage in Linkage::ALL {
            let served = session
                .run(&ClusterRequest::new().min_pts(4).linkage(linkage))
                .expect("every linkage serves");
            assert_eq!(served.labels.len(), 240, "{linkage}");
            served.dendrogram.validate().expect("valid dendrogram");
            assert_eq!(session.scratch_outstanding(), 0, "{linkage}");
            if linkage == Linkage::Single {
                // An explicit Single request is the default path, bit for bit.
                assert_identical(&served, &baseline, "explicit single");
            }
        }
    }

    #[test]
    fn ward_over_explicit_mutual_reachability_is_rejected() {
        let (points, _) = gaussian_blobs(60, 2, 2, 40.0, 0.6, 7);
        let index =
            Arc::new(DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points, 4).expect("freeze"));
        let mut session = index.session();
        let bad = ClusterRequest::new()
            .min_pts(3)
            .linkage(Linkage::Ward)
            .metric(MetricKind::MutualReachability);
        assert!(matches!(
            session.run(&bad),
            Err(PandoraError::BadParams {
                param: "metric",
                ..
            })
        ));
        // At min_pts = 1 mutual reachability degenerates to Euclidean, so
        // the same spelling is allowed; Ward alone picks Euclidean itself.
        assert!(session.run(&bad.min_pts(1)).is_ok());
        assert!(session
            .run(&ClusterRequest::new().min_pts(3).linkage(Linkage::Ward))
            .is_ok());
        assert_eq!(session.scratch_outstanding(), 0);
    }
}
