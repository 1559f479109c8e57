//! # pandora-core
//!
//! A from-scratch implementation of **PANDORA** (Sao, Prokopenko,
//! Lebrun-Grandié, ICPP 2024): work-optimal parallel construction of
//! single-linkage dendrograms from minimum spanning trees by recursive tree
//! contraction.
//!
//! ## Algorithm (paper Algorithm 3)
//!
//! 1. **Sort** the MST edges by weight descending with a deterministic
//!    tie-break ([`SortedMst`]); edge 0 is the dendrogram root.
//! 2. **Contract** recursively ([`levels`]): classify edges as α / non-α
//!    from local incidence only (Eq. 2), contract the non-α forest with a
//!    lock-free union–find, recurse on the α-MST until no α edges remain
//!    (≤ ⌈log₂(n+1)⌉ levels, with `n_α ≤ (n−1)/2` per level).
//! 3. **Expand** ([`expansion`]): map every edge to its dendrogram chain in
//!    O(log n) level checks, sort the chains, stitch the parents.
//!
//! The result is a [`Dendrogram`]: parent pointers for every MST edge
//! (cluster) and vertex (point), total work `O(n log n)` — the lower bound
//! (paper Theorem 4) — independent of dendrogram skew.
//!
//! ## Entry points
//!
//! * [`pandora::dendrogram`] / [`pandora::dendrogram_with_stats`] — the
//!   parallel algorithm.
//! * [`baseline::dendrogram_union_find`] (+ `_mt`) — bottom-up baseline
//!   (paper Algorithm 2 / the `UnionFind-MT` comparison target).
//! * [`baseline::dendrogram_top_down`] — divide-and-conquer baseline
//!   (paper Algorithm 1).
//!
//! ```
//! use pandora_core::{Edge, pandora};
//! use pandora_exec::ExecCtx;
//!
//! let ctx = ExecCtx::threads();
//! // A tiny MST: 0-1 heavy, 1-2 light.
//! let edges = vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 1.0)];
//! let dendro = pandora::dendrogram(&ctx, 3, &edges);
//! assert_eq!(dendro.root(), Some(0));
//! dendro.validate().unwrap();
//! ```

pub mod baseline;
pub mod census;
pub mod dendrogram;
pub mod edge;
pub mod expansion;
pub mod levels;
pub mod pandora;
pub mod single_level;
pub mod validate;

pub use dendrogram::Dendrogram;
pub use edge::{Edge, SortedMst, INVALID};
pub use pandora::{
    dendrogram_from_sorted_with, dendrogram_with_stats, DendrogramBackend, DendrogramWorkspace,
    PandoraStats, PhaseTimings,
};
