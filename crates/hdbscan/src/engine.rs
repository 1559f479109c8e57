//! The long-lived HDBSCAN\* engine: one dataset, many `minPts` queries —
//! now a **thin shim over the two-tier serving API**.
//!
//! [`HdbscanEngine`] predates [`crate::serve::DatasetIndex`] /
//! [`crate::serve::Session`]: it is `&mut self`, lifetime-bound to one
//! borrower, and panics on bad input. Since the serving redesign it simply
//! freezes an index on first use and delegates every run to a session —
//! same substrate sharing, same bit-identical results, one implementation.
//! New code should hold a [`DatasetIndex`] directly (it adds concurrency
//! and fallible APIs); the engine remains for the sequential sweep
//! ergonomics its callers already rely on:
//!
//! ```
//! use pandora_hdbscan::{Hdbscan, HdbscanParams};
//! use pandora_mst::PointSet;
//!
//! let mut coords = Vec::new();
//! for i in 0..40 {
//!     coords.extend_from_slice(&[i as f32 * 0.01, 0.0]);
//!     coords.extend_from_slice(&[50.0 + i as f32 * 0.01, 0.0]);
//! }
//! let points = PointSet::new(coords, 2);
//! let mut engine = Hdbscan::new(HdbscanParams::default()).engine(&points);
//! let sweep = engine.sweep_min_pts(&[2, 4, 8]);
//! assert_eq!(sweep.len(), 3);
//! assert!(sweep.iter().all(|r| r.n_clusters() == 2));
//! ```
//!
//! Every [`HdbscanResult`] an engine produces is **bit-identical** to the
//! corresponding one-shot [`Hdbscan::run`] — MST edges, dendrogram, labels
//! and all — in both serial and threaded contexts (enforced by
//! `tests/engine_equivalence.rs`). What changes is the cost: a sweep pays
//! one kd-tree build and one k-NN pass instead of one per member, and
//! repeat runs allocate only their outputs.
//!
//! Engine requests leave the linkage and metric unset, so they follow the
//! same resolution as any other session request (`PANDORA_LINKAGE` env,
//! then single linkage on the EMST fast path — see
//! [`crate::serve::ClusterRequest`]).

use std::sync::Arc;

use pandora_core::{DendrogramBackend, DendrogramWorkspace};
use pandora_exec::ExecCtx;
use pandora_mst::PointSet;

use crate::pipeline::{Hdbscan, HdbscanParams, HdbscanResult, StageTimings};
use crate::serve::{extract_clusters, finish_hierarchy, ClusterRequest, DatasetIndex, Session};

/// A reusable HDBSCAN\* pipeline bound to one dataset (see module docs).
///
/// Created by [`Hdbscan::engine`]; borrows the point set for its lifetime.
/// Deprecated in spirit (not yet in attribute — the figure binaries still
/// sweep through it): new code should freeze a
/// [`DatasetIndex`] and draw [`Session`]s,
/// which this engine now merely wraps.
pub struct HdbscanEngine<'a> {
    params: HdbscanParams,
    ctx: ExecCtx,
    points: &'a PointSet,
    /// The frozen substrate (`None` until the first run or `prepare`).
    index: Option<Arc<DatasetIndex>>,
    /// The engine's single long-lived session over `index`.
    session: Option<Session>,
    /// Workspace for the empty-dataset bypass (no index exists for n = 0).
    empty_dendro: DendrogramWorkspace,
}

impl<'a> HdbscanEngine<'a> {
    pub(crate) fn new(params: HdbscanParams, ctx: ExecCtx, points: &'a PointSet) -> Self {
        Self {
            params,
            ctx,
            points,
            index: None,
            session: None,
            empty_dendro: DendrogramWorkspace::new(),
        }
    }

    /// The driver parameters (`min_cluster_size` / `allow_single_cluster`
    /// apply to every run; `min_pts` is what the one-shot
    /// [`Hdbscan::run`] wrapper passes to [`HdbscanEngine::run_with`]).
    pub fn params(&self) -> &HdbscanParams {
        &self.params
    }

    /// The dataset this engine serves.
    pub fn points(&self) -> &PointSet {
        self.points
    }

    /// The frozen index backing this engine (`None` until the first run or
    /// [`HdbscanEngine::prepare`]). Clone the `Arc` to share the same
    /// substrate with concurrent sessions.
    pub fn index(&self) -> Option<&Arc<DatasetIndex>> {
        self.index.as_ref()
    }

    /// The engine's session (`None` until the first run or `prepare`) —
    /// exposes the scratch accounting the leak tests assert on.
    pub fn session(&self) -> Option<&Session> {
        self.session.as_ref()
    }

    /// Pre-warms the shared substrate for requests up to `max_min_pts`:
    /// freezes a [`DatasetIndex`] whose kd-tree and k-NN rows (with slack,
    /// see [`pandora_mst::ROW_SLACK`]) cover every `min_pts ≤ max_min_pts`.
    /// Returns the seconds spent (0 when already frozen wide enough).
    ///
    /// Calling this first keeps a descending or unsorted sweep from
    /// re-freezing at each widening request.
    ///
    /// # Panics
    ///
    /// Panics if `max_min_pts` exceeds the point count (for two or more
    /// points), exactly like the one-shot pipeline.
    pub fn prepare(&mut self, max_min_pts: usize) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let needed = max_min_pts.max(1);
        if self
            .index
            .as_ref()
            .is_some_and(|index| index.max_min_pts() >= needed)
        {
            return 0.0;
        }
        // Widening re-freeze: cover everything served before as well, so
        // alternating wide/narrow requests never thrash the ceiling down.
        let ceiling = needed.max(self.index.as_ref().map_or(0, |i| i.max_min_pts()));
        let index = DatasetIndex::freeze_with_ctx(self.ctx.clone(), self.points.clone(), ceiling)
            .unwrap_or_else(|e| panic!("{e}"));
        let spent = index.freeze_seconds();
        let index = Arc::new(index);
        // A fresh index invalidates nothing semantically (results are
        // dataset + minPts functions), but the session's endgame cache is
        // kept by re-drawing from the old session's pool via drop order:
        // the old session parks its scratch in the *old* index, which is
        // dropped with it, so the new session starts cold. Correctness is
        // unaffected (the cache is purely an optimization).
        self.session = Some(index.session_with_ctx(self.ctx.clone()));
        self.index = Some(index);
        spent
    }

    /// Runs the full pipeline for one `min_pts`, reusing every warm stage.
    ///
    /// The first call (or a call widening the frozen `minPts` ceiling)
    /// pays the shared substrate cost and reports it in
    /// [`StageTimings::tree_build_s`] / [`StageTimings::core_s`]; warm runs
    /// report only their incremental work.
    ///
    /// # Panics
    ///
    /// Panics if `min_pts` is 0 or (for two or more points) exceeds the
    /// point count, exactly like the one-shot pipeline. The concurrent
    /// serving API ([`Session::run`]) reports these as errors instead.
    pub fn run_with(&mut self, min_pts: usize) -> HdbscanResult {
        if min_pts == 0 {
            // Rejected before the empty-dataset bypass and before freezing,
            // so the panic names the actual offender on every input (the
            // legacy engine rejected min_pts = 0 unconditionally too).
            panic!("invalid min_pts = 0: must be at least 1");
        }
        if self.points.is_empty() {
            // No index exists for an empty dataset; run the back half of
            // the pipeline directly over an empty MST (legacy behavior:
            // nothing to cluster, nothing to mis-serve).
            let ctx = self.ctx.clone();
            let request = self.request_with(min_pts);
            let mut timings = StageTimings::default();
            let hierarchy = finish_hierarchy(
                &ctx,
                0,
                Vec::new(),
                &[],
                DendrogramBackend::resolve(request.dendrogram).concrete_for(0),
                &mut self.empty_dendro,
                &mut timings,
            );
            return extract_clusters(&ctx, hierarchy, &request, timings);
        }
        let freeze_s = self.prepare(min_pts);
        let request = self.request_with(min_pts);
        let session = self.session.as_mut().expect("prepare froze an index");
        let mut result = session.run(&request).unwrap_or_else(|e| panic!("{e}"));
        if freeze_s > 0.0 {
            // This run paid the freeze: surface it in the stage timings the
            // way the pre-index engine reported its lazy tree build.
            let index = self.index.as_ref().expect("prepare froze an index");
            result.timings.tree_build_s += index.emst().build_seconds();
            result.timings.core_s += index.emst().rows_seconds();
        }
        result
    }

    /// Runs the pipeline once per entry of `min_pts_list` (in order),
    /// amortizing the kd-tree build and a single widest k-NN pass across
    /// the whole sweep — the engine's reason to exist. Results are
    /// bit-identical to running [`Hdbscan::run`] per entry.
    pub fn sweep_min_pts(&mut self, min_pts_list: &[usize]) -> Vec<HdbscanResult> {
        if let Some(&max) = min_pts_list.iter().max() {
            self.prepare(max);
        }
        min_pts_list.iter().map(|&m| self.run_with(m)).collect()
    }

    /// The engine's driver parameters specialized to one `min_pts`.
    fn request_with(&self, min_pts: usize) -> ClusterRequest {
        ClusterRequest::new()
            .min_pts(min_pts)
            .min_cluster_size(self.params.min_cluster_size)
            .allow_single_cluster(self.params.allow_single_cluster)
    }
}

impl Hdbscan {
    /// Creates a long-lived engine over `points`, inheriting this driver's
    /// parameters and execution context.
    ///
    /// The engine is lazy: the index is frozen by the first run (or by
    /// [`HdbscanEngine::prepare`] / [`HdbscanEngine::sweep_min_pts`]).
    /// For concurrent serving, freeze a [`DatasetIndex`]
    /// instead and draw one [`Session`] per thread.
    pub fn engine<'a>(&self, points: &'a PointSet) -> HdbscanEngine<'a> {
        HdbscanEngine::new(*self.params(), self.ctx().clone(), points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_data::synthetic::gaussian_blobs;

    #[test]
    fn sweep_matches_one_shot_runs() {
        let (points, _) = gaussian_blobs(500, 2, 3, 90.0, 0.8, 17);
        let driver = Hdbscan::with_ctx(HdbscanParams::default(), ExecCtx::serial());
        let mut engine = driver.engine(&points);
        let sweep = engine.sweep_min_pts(&[2, 4, 8, 16]);
        for (result, &min_pts) in sweep.iter().zip(&[2usize, 4, 8, 16]) {
            let one_shot = Hdbscan::with_ctx(
                HdbscanParams {
                    min_pts,
                    ..Default::default()
                },
                ExecCtx::serial(),
            )
            .run(&points);
            assert_eq!(result.core2, one_shot.core2, "min_pts={min_pts}");
            assert_eq!(result.mst.src, one_shot.mst.src);
            assert_eq!(result.mst.dst, one_shot.mst.dst);
            assert_eq!(result.mst.weight, one_shot.mst.weight);
            assert_eq!(result.dendrogram, one_shot.dendrogram);
            assert_eq!(result.labels, one_shot.labels);
        }
    }

    #[test]
    fn warm_runs_skip_the_shared_substrate() {
        let (points, _) = gaussian_blobs(400, 3, 2, 60.0, 1.0, 5);
        let mut engine = Hdbscan::new(HdbscanParams::default()).engine(&points);
        engine.prepare(16);
        let warm = engine.run_with(4);
        assert_eq!(warm.timings.tree_build_s, 0.0);
        assert!(warm.timings.mst_s > 0.0);
        // Buffers all returned between runs.
        let session = engine.session().expect("engine is warm");
        assert_eq!(session.scratch_outstanding(), 0);
    }

    #[test]
    fn engine_serves_repeated_identical_requests() {
        let (points, _) = gaussian_blobs(300, 2, 3, 70.0, 0.6, 23);
        let mut engine = Hdbscan::new(HdbscanParams::default()).engine(&points);
        let a = engine.run_with(4);
        let b = engine.run_with(4);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.mst.weight, b.mst.weight);
    }

    #[test]
    fn widening_requests_refreeze_and_stay_exact() {
        // Request orders a frozen index cannot serve must transparently
        // re-freeze at the wider ceiling (the legacy grow-on-demand
        // contract) — and stay bit-identical to cold runs.
        let (points, _) = gaussian_blobs(200, 2, 2, 50.0, 0.8, 7);
        let mut engine = Hdbscan::new(HdbscanParams::default()).engine(&points);
        let ctx = ExecCtx::serial();
        for &min_pts in &[2usize, 8, 4, 16, 2] {
            let warm = engine.run_with(min_pts);
            let cold = Hdbscan::with_ctx(
                HdbscanParams {
                    min_pts,
                    ..Default::default()
                },
                ctx.clone(),
            )
            .run(&points);
            assert_eq!(warm.labels, cold.labels, "min_pts={min_pts}");
            assert_eq!(warm.mst.weight, cold.mst.weight, "min_pts={min_pts}");
        }
        assert_eq!(
            engine.index().map(|i| i.max_min_pts()),
            Some(16),
            "the ceiling must only widen"
        );
    }

    #[test]
    #[should_panic(expected = "min_pts = 0")]
    fn zero_min_pts_still_panics_like_the_legacy_engine() {
        let (points, _) = gaussian_blobs(50, 2, 1, 20.0, 0.5, 2);
        let mut engine = Hdbscan::new(HdbscanParams::default()).engine(&points);
        let _ = engine.run_with(0);
    }
}
