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
//! This one-shot driver runs the pipeline above through the serving API:
//! one frozen [`DatasetIndex`] and one session request, which leaves the
//! linkage unset. That means single linkage on the Borůvka EMST fast path
//! unless `PANDORA_LINKAGE` names another criterion; the serving API
//! ([`crate::serve::ClusterRequest::linkage`]) dispatches complete /
//! average / Ward linkage through the NN-chain engine, where stage 2
//! produces the merge sequence (itself a spanning tree) instead of the
//! EMST and stages 3–4 run unchanged.

use std::sync::Arc;

use pandora_core::{Dendrogram, DendrogramWorkspace, PandoraStats, SortedMst};
use pandora_exec::ExecCtx;
use pandora_mst::PointSet;
// Defined once, next to the EMST result it starts out in.
pub use pandora_mst::StageTimings;

use crate::condensed::CondensedTree;
use crate::serve::{extract_clusters, finish_hierarchy, ClusterRequest, DatasetIndex};

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

    /// Runs the full pipeline once: one [`DatasetIndex`] freeze at ceiling
    /// `min_pts`, then one [`crate::Session::run`].
    ///
    /// Serving several requests over the same dataset (or sweeping
    /// `minPts`) should freeze the index once and hold a session instead,
    /// which amortizes the kd-tree build, the k-NN pass and every stage
    /// buffer across runs while producing bit-identical results. The
    /// timings of this run include the freeze (`tree_build_s`, and the
    /// k-NN pass in `core_s`). An empty point set yields an empty result.
    ///
    /// # Panics
    ///
    /// Panics if `min_pts` is 0, if it exceeds the point count (for two or
    /// more points), or if `min_cluster_size` is 0. The serving API
    /// ([`DatasetIndex`] and [`crate::Session`]) reports these as errors.
    pub fn run(&self, points: &PointSet) -> HdbscanResult {
        let params = self.params;
        assert!(
            params.min_pts >= 1,
            "invalid min_pts = 0: must be at least 1"
        );
        let request = ClusterRequest::new()
            .min_pts(params.min_pts)
            .min_cluster_size(params.min_cluster_size)
            .allow_single_cluster(params.allow_single_cluster);
        if points.is_empty() {
            // No index exists for an empty dataset: run the back half of the
            // pipeline over an empty spanning tree.
            let mut timings = StageTimings::default();
            let mut dendro = DendrogramWorkspace::new();
            let hierarchy =
                finish_hierarchy(&self.ctx, 0, Vec::new(), &[], &mut dendro, &mut timings);
            return extract_clusters(&self.ctx, hierarchy, &request, timings);
        }
        let index = DatasetIndex::freeze_with_ctx(self.ctx.clone(), points.clone(), params.min_pts)
            .map(Arc::new)
            .unwrap_or_else(|e| panic!("{e}"));
        let mut result = index
            .session()
            .run(&request)
            .unwrap_or_else(|e| panic!("{e}"));
        result.timings.tree_build_s = index.emst().build_seconds();
        result.timings.core_s += index.emst().rows_seconds();
        result
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
    #[should_panic(expected = "min_pts = 0")]
    fn zero_min_pts_panics() {
        let (points, _) = gaussian_blobs(50, 2, 1, 20.0, 0.5, 2);
        let params = HdbscanParams {
            min_pts: 0,
            ..Default::default()
        };
        let _ = Hdbscan::new(params).run(&points);
    }

    #[test]
    #[should_panic(expected = "min_pts = 0")]
    fn zero_min_pts_panics_on_an_empty_set() {
        let params = HdbscanParams {
            min_pts: 0,
            ..Default::default()
        };
        let _ = Hdbscan::new(params).run(&PointSet::new(vec![], 2));
    }

    #[test]
    fn deterministic_across_runs() {
        let (points, _) = gaussian_blobs(500, 2, 4, 80.0, 0.8, 11);
        let a = Hdbscan::new(HdbscanParams::default()).run(&points);
        let b = Hdbscan::new(HdbscanParams::default()).run(&points);
        assert_eq!(a.labels, b.labels);
    }
}
