//! The stack-wide error type for fallible public entry points.
//!
//! The original reproduction surfaced every contract violation as a panic —
//! fine for a figure binary, fatal for a serving process where one bad
//! request must come back as an error response, not a crashed worker. Every
//! constructor and entry point of the serving API (`PointSet::try_new`,
//! `EmstIndex::freeze`, `DatasetIndex`/`Session` in `pandora-hdbscan`)
//! returns a [`PandoraError`] instead; the legacy panicking names remain as
//! thin wrappers that document the panic.

// PL001 (docs/ANALYSIS.md): no panic path here or in any submodule.
#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::unwrap_used,
    clippy::expect_used
)]

/// Why a dataset or clustering request was rejected.
///
/// Carried by every `Result`-returning entry point of the serving API.
/// Variants are structured (not stringly-typed) so a serving layer can map
/// them to error codes without parsing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PandoraError {
    /// A coordinate was NaN or infinite. A single non-finite coordinate
    /// poisons every distance comparison downstream (kd-tree splits,
    /// Borůvka candidate packing) and can turn release builds into
    /// infinite loops, so datasets are validated on construction.
    NonFinite {
        /// Index of the offending point.
        point: usize,
        /// Dimension within that point.
        dim: usize,
    },
    /// The flat coordinate buffer cannot be interpreted as points: its
    /// length is not a multiple of the dimensionality, or `dim` is zero.
    BadShape {
        /// Buffer length supplied.
        len: usize,
        /// Dimensionality supplied.
        dim: usize,
    },
    /// A request parameter is outside its valid range for this dataset
    /// (e.g. `min_pts == 0`, `min_pts > n`, `min_cluster_size == 0`, or a
    /// `min_pts` above what a frozen index captured).
    BadParams {
        /// Which parameter was rejected.
        param: &'static str,
        /// The supplied value.
        value: usize,
        /// Human-readable constraint that was violated.
        reason: &'static str,
    },
    /// The dataset holds no points, so there is nothing to index or serve.
    EmptyDataset,
}

impl std::fmt::Display for PandoraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PandoraError::NonFinite { point, dim } => {
                write!(f, "non-finite coordinate at point {point} dim {dim}")
            }
            PandoraError::BadShape { len, dim } => {
                if *dim == 0 {
                    write!(f, "dimension must be positive (got 0)")
                } else {
                    write!(
                        f,
                        "coordinate buffer of length {len} is not a multiple of dim {dim}"
                    )
                }
            }
            PandoraError::BadParams {
                param,
                value,
                reason,
            } => {
                write!(f, "invalid {param} = {value}: {reason}")
            }
            PandoraError::EmptyDataset => write!(f, "the dataset holds no points"),
        }
    }
}

impl std::error::Error for PandoraError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = PandoraError::NonFinite { point: 3, dim: 1 };
        assert_eq!(e.to_string(), "non-finite coordinate at point 3 dim 1");
        let e = PandoraError::BadShape { len: 5, dim: 2 };
        assert!(e.to_string().contains("not a multiple of dim"));
        let e = PandoraError::BadShape { len: 5, dim: 0 };
        assert!(e.to_string().contains("dimension must be positive"));
        let e = PandoraError::BadParams {
            param: "min_pts",
            value: 0,
            reason: "must be at least 1",
        };
        assert!(e.to_string().contains("min_pts = 0"));
        assert_eq!(
            PandoraError::EmptyDataset.to_string(),
            "the dataset holds no points"
        );
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&PandoraError::EmptyDataset);
    }
}
