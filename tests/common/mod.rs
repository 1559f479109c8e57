//! Shared adversarial sorted-MST generator for the differential suites
//! (`dendrogram_differential.rs`, `census_crosscheck.rs`,
//! `extraction_differential.rs`), the independent EMST reference
//! ([`reference_emst`]) the index path is checked against, and the
//! reference extraction walks ([`extraction`]).
//!
//! [`mst_strategy`] implements the vendored-proptest [`Strategy`] trait
//! directly, so every case is a pure function of the RNG stream: the
//! standard `PROPTEST_CASE=<index>` replay path lands on the exact failing
//! tree, and [`MstCase::params`] carries the generating parameters into
//! failure messages.

#![allow(dead_code)] // each test binary uses a different subset

pub mod extraction;
pub mod linkage;

use proptest::prelude::*;
use rand::prelude::*;

use pandora::core::Edge;
use pandora::exec::{ExecCtx, ScratchPool};
use pandora::mst::{
    boruvka_mst, core_distances2, BoruvkaExtras, Emst, Euclidean, KdTree, MutualReachability,
    PointSet, StageTimings,
};

/// The EMST of `points` at `min_pts`, built without the index machinery:
/// fresh [`core_distances2`] and a bare [`boruvka_mst`] run
/// (`BoruvkaExtras::default()`: no k-NN rows, witnesses, subtree bounds or
/// endgame cache). `min_pts <= 1` gives the Euclidean MST with all-zero
/// core distances. Every acceleration the index engages is strictly
/// conservative, so its results must equal this one bit for bit.
pub fn reference_emst(ctx: &ExecCtx, points: &PointSet, min_pts: usize) -> Emst {
    let tree = KdTree::build(ctx, points);
    let core2 = core_distances2(ctx, points, &tree, min_pts.max(1));
    let pool = ScratchPool::new();
    let extras = BoruvkaExtras::default();
    let edges = if min_pts <= 1 {
        boruvka_mst(ctx, points, &tree, &Euclidean, extras, &pool)
    } else {
        let metric = MutualReachability { core2: &core2 };
        boruvka_mst(ctx, points, &tree, &metric, extras, &pool)
    };
    Emst {
        edges,
        core2,
        timings: StageTimings::default(),
    }
}

/// One generated test tree plus the parameters that produced it.
#[derive(Clone, Debug)]
pub struct MstCase {
    /// Vertex count (`edges.len() + 1`, except 0 for the empty tree).
    pub n_vertices: usize,
    /// Tree edges in generation order (NOT canonically sorted).
    pub edges: Vec<Edge>,
    /// Human-readable generating parameters, embedded in assert messages
    /// so a failure is diagnosable before it is replayed.
    pub params: String,
}

/// How edge weights are drawn — duplicate/tied weights are the adversarial
/// cases for the sorted-order tie-break.
#[derive(Clone, Copy, Debug)]
pub enum WeightMode {
    /// ~Distinct weights (2^20 levels; collisions possible but rare).
    Distinct,
    /// Heavily quantized: many ties, few distinct values.
    Quantized,
    /// Every weight equal: the dendrogram is decided by tie-break alone.
    AllEqual,
    /// Signed weights with both zeros: `-0.0` and `+0.0` are distinct
    /// weights to the canonical order, and negatives sort last. Never
    /// picked by [`mst_strategy`], so its case stream is unchanged.
    Signed,
}

impl WeightMode {
    /// Every mode, for suites that sweep them.
    pub const ALL: [WeightMode; 4] = [
        WeightMode::Distinct,
        WeightMode::Quantized,
        WeightMode::AllEqual,
        WeightMode::Signed,
    ];

    fn pick(rng: &mut StdRng) -> Self {
        match rng.gen_range(0..4u32) {
            0 => Self::AllEqual,
            1 => Self::Quantized,
            _ => Self::Distinct,
        }
    }

    fn draw(self, rng: &mut StdRng) -> f32 {
        match self {
            Self::Distinct => rng.gen_range(0..1 << 20) as f32 / 64.0,
            Self::Quantized => rng.gen_range(0..6) as f32 * 0.5,
            Self::AllEqual => 2.5,
            Self::Signed => match rng.gen_range(0..4u32) {
                0 => -0.0,
                1 => 0.0,
                _ => rng.gen_range(-64..64) as f32 * 0.25,
            },
        }
    }
}

/// The tree shapes the dendrogram stage is most sensitive to.
pub const SHAPES: [&str; 7] = [
    "tiny",  // n ∈ {0, 1, 2}: empty, vertex-only, single-edge
    "chain", // pure path: maximum dendrogram height
    "star",  // one hub: maximum degree, flattest hierarchy
    "balanced-binary",
    "caterpillar", // spine + legs: mixed chain/star
    "random-attach",
    "skewed-attach", // attach near the most recent vertex: deep and thin
];

/// A strategy over adversarial spanning trees.
///
/// Replayable by construction: values are drawn exclusively from the
/// passed RNG, which is exactly what the shim's `PROPTEST_CASE`
/// fast-forward assumes.
pub struct MstStrategy {
    /// Maximum vertex count for the non-tiny shapes (inclusive).
    pub max_n: usize,
}

/// Adversarial trees up to 400 vertices (the differential-suite default).
pub fn mst_strategy() -> MstStrategy {
    MstStrategy { max_n: 400 }
}

impl Strategy for MstStrategy {
    type Value = MstCase;

    fn generate(&self, rng: &mut StdRng) -> MstCase {
        let shape = SHAPES[rng.gen_range(0..SHAPES.len())];
        let wmode = WeightMode::pick(rng);
        let n = match shape {
            "tiny" => rng.gen_range(0..3usize),
            _ => rng.gen_range(3..=self.max_n),
        };
        let mut case = build_tree(shape, n, wmode, rng);
        // Feed the edges to consumers in a scrambled order: the canonical
        // sort, not generation order, must decide the dendrogram.
        case.edges.shuffle(rng);
        case
    }
}

fn build_tree(shape: &str, n: usize, wmode: WeightMode, rng: &mut StdRng) -> MstCase {
    let parent = |v: usize, rng: &mut StdRng| -> usize {
        match shape {
            "chain" => v - 1,
            "star" => 0,
            "balanced-binary" => (v - 1) / 2,
            // Even vertices form the spine, odd ones hang off it.
            "caterpillar" => {
                if v.is_multiple_of(2) {
                    v.saturating_sub(2)
                } else {
                    v - 1
                }
            }
            "skewed-attach" => v - 1 - rng.gen_range(0..2.min(v)),
            _ => rng.gen_range(0..v),
        }
    };
    let edges: Vec<Edge> = (1..n)
        .map(|v| {
            let p = parent(v, rng) as u32;
            let w = wmode.draw(rng);
            // Scrambled endpoint order: canonicalization is under test too.
            if rng.gen_bool(0.5) {
                Edge::new(p, v as u32, w)
            } else {
                Edge::new(v as u32, p, w)
            }
        })
        .collect();
    MstCase {
        n_vertices: n,
        edges,
        params: format!("shape={shape} n={n} weights={wmode:?}"),
    }
}

/// A deterministic tree of an exact shape, size and weight mode, with its
/// edges scrambled like [`mst_strategy`]'s (for suites that need sizes the
/// strategy does not sample).
pub fn tree_case(shape: &str, n: usize, wmode: WeightMode, seed: u64) -> MstCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut case = build_tree(shape, n, wmode, &mut rng);
    case.edges.shuffle(&mut rng);
    case
}

/// A deterministic all-equal-weights random tree (the n = 1000 tie-break
/// regression input; not a strategy so the size is exact, not sampled).
pub fn all_equal_weights_tree(n: usize, seed: u64) -> MstCase {
    let mut rng = StdRng::seed_from_u64(seed);
    build_tree("random-attach", n, WeightMode::AllEqual, &mut rng)
}
