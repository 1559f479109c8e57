//! # pandora-hdbscan
//!
//! HDBSCAN\* (Campello–Moulavi–Zimek–Sander, the paper's \[9\]) built on the
//! pandora stack: mutual-reachability core distances → parallel Borůvka MST
//! → PANDORA dendrogram → condensed tree → stability-optimal flat clusters.
//!
//! ```
//! use pandora_hdbscan::{Hdbscan, HdbscanParams};
//! use pandora_mst::PointSet;
//!
//! // Two obvious 2-D groups.
//! let mut coords = Vec::new();
//! for i in 0..20 {
//!     coords.extend_from_slice(&[i as f32 * 0.01, 0.0]);        // group A
//!     coords.extend_from_slice(&[100.0 + i as f32 * 0.01, 0.0]); // group B
//! }
//! let result = Hdbscan::new(HdbscanParams::default()).run(&PointSet::new(coords, 2));
//! assert_eq!(result.n_clusters(), 2);
//! ```

pub mod condensed;
pub mod daemon;
pub mod dbscan;
pub mod outlier;
pub mod pipeline;
pub mod serve;
pub mod stability;
pub mod validity;

pub use condensed::{condense, CondensedTree};
pub use dbscan::{dbscan_star, epsilon_profile};
pub use outlier::glosh_scores;
pub use pandora_mst::{Linkage, MetricKind};
pub use pipeline::{Hdbscan, HdbscanParams, HdbscanResult, StageTimings};
pub use serve::{ClusterRequest, DatasetIndex, HierarchyStats, Session};
pub use stability::{cluster_stabilities, extract_labels, select_clusters};
pub use validity::dbcv;

// The stack-wide error type lives in `pandora-mst` (the lowest layer that
// validates datasets); re-exported here so serving code can name it from
// the crate it actually calls.
pub use pandora_mst::PandoraError;
