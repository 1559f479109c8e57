//! # pandora
//!
//! A from-scratch Rust reproduction of **PANDORA** (Sao, Prokopenko,
//! Lebrun-Grandié, ICPP 2024): a work-optimal, fully parallel algorithm for
//! constructing single-linkage dendrograms from minimum spanning trees, and
//! the full HDBSCAN\* stack built around it.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`exec`] — parallel execution substrate (thread pool, parallel
//!   for/reduce/scan, sorts, lock-free union-find, device cost models);
//! * [`core`] — the PANDORA dendrogram algorithm and its baselines;
//! * [`mst`] — kd-tree, k-nearest-neighbour and Borůvka Euclidean MST;
//! * [`data`] — synthetic dataset generators mirroring the paper's Table 2;
//! * [`hdbscan`] — HDBSCAN\* pipeline (condensed tree, stability extraction).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use pandora::hdbscan::{ClusterRequest, DatasetIndex};
//! use pandora::mst::PointSet;
//!
//! // Three tight 2-D blobs.
//! let mut coords = Vec::new();
//! for c in 0..3 {
//!     for i in 0..50 {
//!         let (cx, cy) = (c as f32 * 10.0, c as f32 * -7.0);
//!         coords.push(cx + (i % 7) as f32 * 0.01);
//!         coords.push(cy + (i / 7) as f32 * 0.01);
//!     }
//! }
//!
//! // Serving tier 1: validate + freeze the dataset once (kd-tree, AoSoA
//! // leaf blocks, sorted k-NN rows for every minPts ≤ 8). Immutable and
//! // Send + Sync — share the Arc with every serving thread.
//! let points = PointSet::try_new(coords, 2)?;
//! let index = Arc::new(DatasetIndex::freeze(points, 8)?);
//!
//! // Serving tier 2: one cheap Session per in-flight request stream.
//! let mut session = index.session();
//! for min_pts in [2usize, 4, 8] {
//!     let result = session.run(&ClusterRequest::new().min_pts(min_pts))?;
//!     assert_eq!(result.n_clusters(), 3);
//! }
//!
//! // Bad requests come back as errors, never panics.
//! assert!(session.run(&ClusterRequest::new().min_pts(0)).is_err());
//! # Ok::<(), pandora::mst::PandoraError>(())
//! ```
//!
//! The one-shot driver ([`hdbscan::Hdbscan::run`]) is one freeze plus one
//! session run over the same two tiers, with bit-identical results.

pub use pandora_core as core;
pub use pandora_data as data;
pub use pandora_exec as exec;
pub use pandora_hdbscan as hdbscan;
pub use pandora_mst as mst;

/// The most commonly used items in one import.
pub mod prelude {
    pub use pandora_core::pandora::{dendrogram, dendrogram_with_stats};
    pub use pandora_core::{Dendrogram, Edge, SortedMst};
    pub use pandora_exec::{ExecCtx, ScratchPool};
    pub use pandora_hdbscan::{
        ClusterRequest, DatasetIndex, Hdbscan, HdbscanParams, HdbscanResult, Session,
    };
    pub use pandora_mst::{
        boruvka_mst, core_distances2, BoruvkaExtras, EmstIndex, EmstScratch, Euclidean, KdTree,
        Linkage, MetricKind, MutualReachability, PandoraError, PointSet, TreeMutualReachability,
    };
}
