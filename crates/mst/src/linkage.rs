//! Linkage selection for the agglomerative engine.
//!
//! The reproduction started as exactly one workload — single-linkage
//! mutual-reachability HDBSCAN\* — but the substrate underneath (frozen
//! kd-tree, sorted k-NN rows, pooled scratch, deterministic parallel
//! reductions) serves any reducible Lance–Williams linkage through the
//! nearest-neighbor-chain engine in [`crate::nnchain`] (per ParChain,
//! arXiv 2106.04727). This module defines *which* linkage a request runs
//! under. A request that names none runs the default, single linkage; no
//! environment variable changes that.
//!
//! # Which path each linkage takes
//!
//! * [`Linkage::Single`] — the fast Borůvka EMST path (dual-tree over the
//!   kd-tree); the NN-chain engine reproduces it bit-identically on
//!   tie-free inputs, which the differential suite enforces.
//! * [`Linkage::Complete`] / [`Linkage::Average`] — NN-chain over a
//!   condensed distance matrix with Lance–Williams updates.
//! * [`Linkage::Ward`] — NN-chain over cluster centroid/size arrays (the
//!   exact Ward objective, no matrix needed); defined only for the
//!   Euclidean base metric, which request validation enforces.

use std::fmt;

/// The agglomerative linkage criterion a clustering request runs under.
///
/// All four are *reducible* in the Lance–Williams sense, which is what
/// makes the nearest-neighbor-chain algorithm exact for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// Minimum distance between members (the HDBSCAN\* default, run when
    /// a request names no linkage; served by the Borůvka EMST fast path).
    #[default]
    Single,
    /// Maximum distance between members.
    Complete,
    /// Unweighted average of member-pair distances (UPGMA).
    Average,
    /// Ward's minimum-variance criterion (Euclidean only).
    Ward,
}

impl Linkage {
    /// Every linkage, in default-first order (for differential sweeps).
    pub const ALL: [Self; 4] = [Self::Single, Self::Complete, Self::Average, Self::Ward];

    /// The canonical spelling (also the wire spelling).
    pub fn name(self) -> &'static str {
        match self {
            Self::Single => "single",
            Self::Complete => "complete",
            Self::Average => "average",
            Self::Ward => "ward",
        }
    }

    /// Parses a linkage name (case-insensitive; accepts the canonical
    /// spellings plus common aliases). Returns `None` on anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "single" | "min" | "minimum" | "nearest" => Some(Self::Single),
            "complete" | "max" | "maximum" | "furthest" | "farthest" => Some(Self::Complete),
            "average" | "mean" | "upgma" => Some(Self::Average),
            "ward" | "variance" | "ward2" => Some(Self::Ward),
            _ => None,
        }
    }

    /// Whether this linkage is served by the Borůvka EMST fast path
    /// (`true` only for [`Linkage::Single`]; the rest route through
    /// [`crate::nnchain`]).
    pub fn uses_emst_fast_path(self) -> bool {
        self == Self::Single
    }
}

impl fmt::Display for Linkage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_names_and_aliases() {
        for l in Linkage::ALL {
            assert_eq!(Linkage::parse(l.name()), Some(l));
        }
        assert_eq!(Linkage::parse(" WARD "), Some(Linkage::Ward));
        assert_eq!(Linkage::parse("UPGMA"), Some(Linkage::Average));
        assert_eq!(Linkage::parse("max"), Some(Linkage::Complete));
        assert_eq!(Linkage::parse("median"), None);
        assert_eq!(Linkage::parse(""), None);
    }

    #[test]
    fn an_unnamed_linkage_is_single() {
        assert_eq!(Linkage::default(), Linkage::Single);
    }

    #[test]
    fn only_single_gets_the_fast_path() {
        assert!(Linkage::Single.uses_emst_fast_path());
        for l in [Linkage::Complete, Linkage::Average, Linkage::Ward] {
            assert!(!l.uses_emst_fast_path());
        }
    }

    #[test]
    fn display_matches_name() {
        for l in Linkage::ALL {
            assert_eq!(format!("{l}"), l.name());
        }
    }
}
