//! # pandora-data
//!
//! Synthetic dataset generators reproducing the *property profile* of the
//! PANDORA paper's evaluation datasets (Table 2): dimensionality and
//! dendrogram skew (`Imb` = height / log₂ n). Real HACC / NGSIM / PAMAP2 /
//! UCI data cannot ship with this reproduction; `docs/ARCHITECTURE.md`
//! (*Datasets*) maps each dataset to the generator that stands in for it.
//!
//! * [`synthetic`] — uniform, normal, Gaussian blobs;
//! * [`seed_spreader`] — Gan–Tao generator (`VisualVar*` / `VisualSim*`);
//! * [`cosmology`] — Soneira–Peebles hierarchical model (`Hacc*`);
//! * [`trajectories`] — GPS / road-network proxies;
//! * [`sensor`] — activity / texture / power proxies (4/5/7-D);
//! * [`registry`] — Table 2 as data: every row with paper metadata and a
//!   scaled generator;
//! * [`io`] — binary and CSV persistence.

pub mod cosmology;
pub mod io;
pub mod registry;
pub mod seed_spreader;
pub mod sensor;
pub mod synthetic;
pub mod trajectories;

pub use registry::{all_datasets, by_name, DatasetKind, DatasetSpec};
