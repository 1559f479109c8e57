//! # pandora-mst
//!
//! Euclidean and mutual-reachability minimum spanning trees — the substrate
//! the paper takes from ArborX (\[39\]) rebuilt in Rust:
//!
//! * [`point::PointSet`] — flat f32 point storage (rejects non-finite
//!   coordinates, so every distance downstream is finite);
//! * [`kdtree::KdTree`] — parallel-built bounding-box kd-tree with one
//!   leaf-tiled k-NN rows pass and one allocation-free, component-aware
//!   nearest-foreign search (SoA node metadata, cached splits,
//!   fixed-capacity traversal stacks, build on tree-ordered coordinates,
//!   2-D/3-D-specialized kernels);
//! * [`knn`] — batched k-NN rows / HDBSCAN\* core distances, computed
//!   leaf by leaf, with ties at the k-th distance going to the smaller
//!   index;
//! * [`boruvka`] — parallel Borůvka MST over any [`metric::TreeMetric`]
//!   (Euclidean or mutual reachability, read at kd-tree positions),
//!   warm-started across rounds;
//! * [`index`] — the EMST stage: the frozen, shareable
//!   [`index::EmstIndex`] (kd-tree plus sorted k-NN rows serving every
//!   `minPts` up to a ceiling by prefix), per-request
//!   [`index::EmstScratch`], and the one-shot [`index::emst`] (one freeze
//!   plus one request) with per-stage timings and kernel-trace phases;
//! * [`linkage`] / [`nnchain`] — the agglomerative generalization: a
//!   per-request [`linkage::Linkage`] (single / complete / average / Ward)
//!   served by a nearest-neighbor-chain engine (ParChain, arXiv
//!   2106.04727) over the same frozen substrate, with per-request
//!   [`metric::MetricKind`] selection;
//! * [`prim`] / [`kruskal`] — exact oracles and graph-input MST.

pub mod boruvka;
pub mod error;
pub mod index;
pub mod kdtree;
pub mod knn;
pub mod kruskal;
pub mod linkage;
pub mod metric;
pub mod nnchain;
pub mod point;
pub mod prim;

pub use boruvka::{
    boruvka_mst, row_witness_scan, BoruvkaExtras, BoruvkaStats, EndgameCache, EndgameStore,
    SnapshotSet,
};
pub use error::PandoraError;
pub use index::{
    emst, emst_from_index, emst_from_index_with, emst_with_core2, Emst, EmstIndex, EmstScratch,
    StageTimings, ROW_SLACK,
};
pub use kdtree::{ForeignSearch, KdTree, SearchWork, TreeOrdered};
pub use knn::{core_distances2, knn_rows_into, KnnRows};
pub use linkage::Linkage;
pub use metric::{
    Euclidean, Metric, MetricKind, MutualReachability, TreeMetric, TreeMutualReachability,
};
pub use nnchain::{nnchain_from_index, nnchain_merges, NnChainRun};
pub use point::PointSet;
