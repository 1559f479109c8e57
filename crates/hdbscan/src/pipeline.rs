//! The full HDBSCAN\* pipeline (paper §6.5):
//!
//! 1. core distances via k-NN (`minPts`);
//! 2. MST under the mutual reachability distance (parallel Borůvka);
//! 3. single-linkage dendrogram (PANDORA);
//! 4. condensed tree + stability-optimal flat clusters.
//!
//! Every stage is timed separately, matching the decompositions in the
//! paper's Figures 1, 12 and 15.
//!
//! This one-shot driver is pinned to the pipeline above: single linkage on
//! the Borůvka EMST fast path. The serving API
//! ([`crate::serve::ClusterRequest::linkage`]) additionally dispatches
//! complete / average / Ward linkage through the NN-chain engine; stage 2
//! then produces the merge sequence (itself a spanning tree) instead of
//! the EMST, and stages 3–4 run unchanged.

use pandora_core::{Dendrogram, PandoraStats, SortedMst};
use pandora_exec::ExecCtx;
use pandora_mst::PointSet;

use crate::condensed::CondensedTree;

/// HDBSCAN\* parameters.
#[derive(Debug, Clone, Copy)]
pub struct HdbscanParams {
    /// `minPts`: neighbours (incl. self) defining the core distance.
    /// The paper's default is 2 (§6.5 "we use the default mpts = 2").
    pub min_pts: usize,
    /// Minimum cluster size for the condensed tree.
    pub min_cluster_size: usize,
    /// Whether the root may be selected as a flat cluster.
    pub allow_single_cluster: bool,
}

impl Default for HdbscanParams {
    fn default() -> Self {
        Self {
            min_pts: 2,
            min_cluster_size: 5,
            allow_single_cluster: false,
        }
    }
}

/// Per-stage wall-clock seconds.
///
/// A stage a run did not execute reads 0. A [`crate::Session::run`] never
/// builds the kd-tree (`tree_build_s`; the freeze paid it), and when the
/// index's hierarchy cache answers the request it also skips the core
/// distances, the spanning tree and the dendrogram (`core_s`, `mst_s`,
/// `dendrogram_s`): only `extract_s` is spent.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// kd-tree construction.
    pub tree_build_s: f64,
    /// Core-distance k-NN queries.
    pub core_s: f64,
    /// Borůvka MST under mutual reachability.
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

/// The output of a full HDBSCAN\* run.
#[derive(Debug, Clone)]
pub struct HdbscanResult {
    /// Squared core distance per point (`minPts`-th neighbour).
    pub core2: Vec<f32>,
    /// The mutual-reachability MST in canonical (weight-descending) order.
    pub mst: SortedMst,
    /// The single-linkage dendrogram over that MST.
    pub dendrogram: Dendrogram,
    /// The condensed cluster tree.
    pub condensed: CondensedTree,
    /// Stability of each condensed cluster.
    pub stabilities: Vec<f64>,
    /// Flat cluster label per point (−1 = noise).
    pub labels: Vec<i32>,
    /// Membership probability per point.
    pub probabilities: Vec<f32>,
    /// Stage timings.
    pub timings: StageTimings,
    /// PANDORA level/phase statistics.
    pub pandora_stats: PandoraStats,
}

impl HdbscanResult {
    /// Number of flat clusters.
    pub fn n_clusters(&self) -> usize {
        self.labels
            .iter()
            .copied()
            .max()
            .map_or(0, |m| (m + 1) as usize)
    }

    /// Number of noise points.
    pub fn n_noise(&self) -> usize {
        self.labels.iter().filter(|&&l| l == -1).count()
    }

    /// Flat clusters from cutting the *single-linkage* hierarchy at a
    /// mutual-reachability distance threshold (DBSCAN\*-style).
    pub fn cut(&self, threshold: f32) -> Vec<u32> {
        self.dendrogram.cut(threshold, &self.mst.src, &self.mst.dst)
    }
}

/// The HDBSCAN\* driver.
#[derive(Clone)]
pub struct Hdbscan {
    params: HdbscanParams,
    ctx: ExecCtx,
}

impl Hdbscan {
    /// Creates a driver on the global thread pool.
    pub fn new(params: HdbscanParams) -> Self {
        Self {
            params,
            ctx: ExecCtx::threads(),
        }
    }

    /// Creates a driver on a caller-chosen execution context.
    pub fn with_ctx(params: HdbscanParams, ctx: ExecCtx) -> Self {
        Self { params, ctx }
    }

    /// The parameters.
    pub fn params(&self) -> &HdbscanParams {
        &self.params
    }

    /// The execution context runs are dispatched on.
    pub fn ctx(&self) -> &ExecCtx {
        &self.ctx
    }

    /// Runs the full pipeline once.
    ///
    /// Thin wrapper over a one-off [`crate::engine::HdbscanEngine`]: build
    /// the stage workspaces, answer this one request, drop them. Serving
    /// several requests over the same dataset (or sweeping `minPts`) should
    /// hold an engine instead — [`Hdbscan::engine`] — which amortizes the
    /// kd-tree build, the k-NN pass and every stage buffer across runs
    /// while producing bit-identical results.
    pub fn run(&self, points: &PointSet) -> HdbscanResult {
        self.engine(points).run_with(self.params.min_pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_data::synthetic::gaussian_blobs;

    #[test]
    fn recovers_three_blobs() {
        let (points, truth) = gaussian_blobs(600, 2, 3, 100.0, 0.5, 7);
        let result = Hdbscan::with_ctx(HdbscanParams::default(), ExecCtx::serial()).run(&points);
        assert_eq!(result.n_clusters(), 3);
        // Labels must be consistent with ground truth up to permutation:
        // same-truth pairs share a label.
        for i in (0..600).step_by(37) {
            for j in (0..600).step_by(41) {
                if result.labels[i] >= 0 && result.labels[j] >= 0 {
                    assert_eq!(
                        truth[i] == truth[j],
                        result.labels[i] == result.labels[j],
                        "points {i},{j}"
                    );
                }
            }
        }
        // Tight blobs: almost nothing is noise.
        assert!(result.n_noise() < 30, "noise = {}", result.n_noise());
    }

    #[test]
    fn min_pts_changes_mst_weights() {
        let (points, _) = gaussian_blobs(300, 2, 2, 50.0, 1.0, 3);
        let ctx = ExecCtx::serial();
        let r2 = Hdbscan::with_ctx(
            HdbscanParams {
                min_pts: 2,
                ..Default::default()
            },
            ctx.clone(),
        )
        .run(&points);
        let r16 = Hdbscan::with_ctx(
            HdbscanParams {
                min_pts: 16,
                ..Default::default()
            },
            ctx,
        )
        .run(&points);
        let w2: f64 = r2.mst.weight.iter().map(|&w| w as f64).sum();
        let w16: f64 = r16.mst.weight.iter().map(|&w| w as f64).sum();
        // Mutual reachability distances grow with minPts.
        assert!(w16 > w2, "{w16} vs {w2}");
    }

    #[test]
    fn noise_points_detected() {
        // Two dense blobs plus far-away isolated points.
        let (mut blob_pts, _) = gaussian_blobs(200, 2, 2, 100.0, 0.3, 5);
        let mut coords = blob_pts.coords().to_vec();
        coords.extend_from_slice(&[5000.0, 5000.0, -4000.0, 7000.0, 9000.0, -3000.0]);
        blob_pts = PointSet::new(coords, 2);
        let result = Hdbscan::with_ctx(HdbscanParams::default(), ExecCtx::serial()).run(&blob_pts);
        assert_eq!(result.n_clusters(), 2);
        for outlier in 200..203 {
            assert_eq!(result.labels[outlier], -1, "outlier {outlier} not noise");
        }
    }

    #[test]
    fn timings_are_populated() {
        let (points, _) = gaussian_blobs(400, 3, 2, 60.0, 1.0, 1);
        let result = Hdbscan::new(HdbscanParams::default()).run(&points);
        assert!(result.timings.total() > 0.0);
        assert!(result.timings.emst_s() > 0.0);
        assert_eq!(result.pandora_stats.level_edge_counts[0], 399);
    }

    #[test]
    fn deterministic_across_runs() {
        let (points, _) = gaussian_blobs(500, 2, 4, 80.0, 0.8, 11);
        let a = Hdbscan::new(HdbscanParams::default()).run(&points);
        let b = Hdbscan::new(HdbscanParams::default()).run(&points);
        assert_eq!(a.labels, b.labels);
    }
}
