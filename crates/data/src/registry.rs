//! The dataset registry mirroring the paper's Table 2.
//!
//! Every row of Table 2 maps to a generator in this crate (see
//! `docs/ARCHITECTURE.md`, *Datasets*). Generators are scaled by a
//! caller-chosen point count so experiments fit the host machine; paper
//! metadata (original size, measured dendrogram skew `Imb`) is carried along
//! so harnesses can print paper-vs-reproduction columns.

use pandora_mst::PointSet;

use crate::cosmology::SoneiraPeebles;
use crate::seed_spreader::{Density, SeedSpreader};
use crate::sensor::{activity, power, texture_features};
use crate::synthetic::{normal, uniform};
use crate::trajectories::{gps_trajectories, road_network};

/// The datasets of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// NGSIM vehicle GPS locations (2-D, 6M, Imb 1e3).
    Ngsimlocation3,
    /// 3D road network, x/y (2-D, 400K, Imb 150).
    RoadNetwork3,
    /// PAMAP2 activity monitoring (4-D, 3.8M, Imb 6e3).
    Pamap2,
    /// IKONOS farm VZ-features (5-D, 3.6M, Imb 5e4).
    Farm,
    /// Household power (7-D, 2.0M, Imb 1e3).
    Household,
    /// HACC cosmology, small run (3-D, 37M, Imb 1e5).
    Hacc37M,
    /// HACC cosmology, large run (3-D, 497M, Imb 6e5).
    Hacc497M,
    /// Gan–Tao variable-density (2-D, 10M, Imb 3e3).
    VisualVar10M2D,
    /// Gan–Tao variable-density (3-D, 10M, Imb 1e4).
    VisualVar10M3D,
    /// Gan–Tao similar-density (5-D, 10M, Imb 43).
    VisualSim10M5D,
    /// Random normal (2-D, 100M, Imb 1e5).
    Normal100M2D,
    /// Random normal (2-D, 300M, Imb 4e5).
    Normal300M2D,
    /// Random normal (3-D, 100M, Imb 4e5).
    Normal100M3D,
    /// Random uniform (2-D, 100M, Imb 1e5).
    Uniform100M2D,
    /// Random uniform (3-D, 100M, Imb 4e5).
    Uniform100M3D,
}

/// Static description of one Table 2 row.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Which dataset.
    pub kind: DatasetKind,
    /// Table 2 name.
    pub name: &'static str,
    /// Dimensionality.
    pub dim: usize,
    /// Point count used in the paper.
    pub paper_npts: u64,
    /// Dendrogram skew reported in the paper (`Imb` column).
    pub paper_imb: f64,
    /// Table 2 description.
    pub desc: &'static str,
}

/// All Table 2 rows, in the paper's order.
pub fn all_datasets() -> Vec<DatasetSpec> {
    use DatasetKind::*;
    vec![
        DatasetSpec {
            kind: Ngsimlocation3,
            name: "Ngsimlocation3",
            dim: 2,
            paper_npts: 6_000_000,
            paper_imb: 1e3,
            desc: "GPS loc",
        },
        DatasetSpec {
            kind: RoadNetwork3,
            name: "RoadNetwork3",
            dim: 2,
            paper_npts: 400_000,
            paper_imb: 150.0,
            desc: "Road network",
        },
        DatasetSpec {
            kind: Pamap2,
            name: "Pamap2",
            dim: 4,
            paper_npts: 3_800_000,
            paper_imb: 6e3,
            desc: "Activity monitoring",
        },
        DatasetSpec {
            kind: Farm,
            name: "Farm",
            dim: 5,
            paper_npts: 3_600_000,
            paper_imb: 5e4,
            desc: "VZ-features",
        },
        DatasetSpec {
            kind: Household,
            name: "Household",
            dim: 7,
            paper_npts: 2_000_000,
            paper_imb: 1e3,
            desc: "Household power",
        },
        DatasetSpec {
            kind: Hacc37M,
            name: "Hacc37M",
            dim: 3,
            paper_npts: 37_000_000,
            paper_imb: 1e5,
            desc: "Cosmology",
        },
        DatasetSpec {
            kind: Hacc497M,
            name: "Hacc497M",
            dim: 3,
            paper_npts: 497_000_000,
            paper_imb: 6e5,
            desc: "Cosmology",
        },
        DatasetSpec {
            kind: VisualVar10M2D,
            name: "VisualVar10M2D",
            dim: 2,
            paper_npts: 10_000_000,
            paper_imb: 3e3,
            desc: "GAN (var. density)",
        },
        DatasetSpec {
            kind: VisualVar10M3D,
            name: "VisualVar10M3D",
            dim: 3,
            paper_npts: 10_000_000,
            paper_imb: 1e4,
            desc: "GAN (var. density)",
        },
        DatasetSpec {
            kind: VisualSim10M5D,
            name: "VisualSim10M5D",
            dim: 5,
            paper_npts: 10_000_000,
            paper_imb: 43.0,
            desc: "GAN (sim. density)",
        },
        DatasetSpec {
            kind: Normal100M2D,
            name: "Normal100M2D",
            dim: 2,
            paper_npts: 100_000_000,
            paper_imb: 1e5,
            desc: "Random (normal)",
        },
        DatasetSpec {
            kind: Normal300M2D,
            name: "Normal300M2D",
            dim: 2,
            paper_npts: 300_000_000,
            paper_imb: 4e5,
            desc: "Random (normal)",
        },
        DatasetSpec {
            kind: Normal100M3D,
            name: "Normal100M3D",
            dim: 3,
            paper_npts: 100_000_000,
            paper_imb: 4e5,
            desc: "Random (normal)",
        },
        DatasetSpec {
            kind: Uniform100M2D,
            name: "Uniform100M2D",
            dim: 2,
            paper_npts: 100_000_000,
            paper_imb: 1e5,
            desc: "Random (uniform)",
        },
        DatasetSpec {
            kind: Uniform100M3D,
            name: "Uniform100M3D",
            dim: 3,
            paper_npts: 100_000_000,
            paper_imb: 4e5,
            desc: "Random (uniform)",
        },
    ]
}

/// Looks a dataset up by its Table 2 name.
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    all_datasets().into_iter().find(|d| d.name == name)
}

impl DatasetSpec {
    /// Generates a scaled instance with approximately `n` points.
    ///
    /// The exact count may differ slightly for generators with structural
    /// constraints (e.g. the cosmology model emits `halos × ηᴸ` points).
    pub fn generate(&self, n: usize, seed: u64) -> PointSet {
        use DatasetKind::*;
        match self.kind {
            Ngsimlocation3 => gps_trajectories(n, seed),
            RoadNetwork3 => road_network(n, seed),
            Pamap2 => activity(n, seed),
            Farm => texture_features(n, seed),
            Household => power(n, seed),
            Hacc37M | Hacc497M => SoneiraPeebles::with_target_size(n, 3).generate(seed),
            VisualVar10M2D => SeedSpreader::new(n, 2, Density::Variable).generate(seed),
            VisualVar10M3D => SeedSpreader::new(n, 3, Density::Variable).generate(seed),
            VisualSim10M5D => SeedSpreader::new(n, 5, Density::Similar).generate(seed),
            Normal100M2D | Normal300M2D => normal(n, 2, seed),
            Normal100M3D => normal(n, 3, seed),
            Uniform100M2D => uniform(n, 2, seed),
            Uniform100M3D => uniform(n, 3, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table2_shape() {
        let all = all_datasets();
        assert_eq!(all.len(), 15);
        for spec in &all {
            let ps = spec.generate(2000, 42);
            assert_eq!(ps.dim(), spec.dim, "{}", spec.name);
            assert!(
                ps.len() >= 500 && ps.len() <= 8000,
                "{}: scaled size {} far from target",
                spec.name,
                ps.len()
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("Hacc37M").unwrap().dim, 3);
        assert!(by_name("nope").is_none());
    }
}
