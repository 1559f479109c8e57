//! Shared adversarial sorted-MST generator for the differential suites
//! (`dendrogram_differential.rs`, `census_crosscheck.rs`,
//! `extraction_differential.rs`), the bare-run EMST reference
//! ([`reference_emst`]) the index path is checked against, the brute-force
//! Borůvka ([`reference_boruvka`]) that shares no code with the library's,
//! and the reference extraction walks ([`extraction`]).
//!
//! [`mst_strategy`] implements the vendored-proptest [`Strategy`] trait
//! directly, so every case is a pure function of the RNG stream: the
//! standard `PROPTEST_CASE=<index>` replay path lands on the exact failing
//! tree, and [`MstCase::params`] carries the generating parameters into
//! failure messages.

#![allow(dead_code, reason = "each test binary uses a different subset")]

pub mod extraction;
pub mod linkage;

use proptest::prelude::*;
use rand::prelude::*;

use pandora::core::Edge;
use pandora::exec::{ExecCtx, ScratchPool};
use pandora::mst::{
    boruvka_mst, core_distances2, BoruvkaExtras, Emst, Euclidean, KdTree, Metric,
    MutualReachability, PointSet, StageTimings, TreeMutualReachability,
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
        let tree_core2 = tree.in_tree_order(&core2);
        let metric = TreeMutualReachability { core2: &tree_core2 };
        boruvka_mst(ctx, points, &tree, &metric, extras, &pool)
    };
    Emst {
        edges,
        core2,
        timings: StageTimings::default(),
    }
}

/// Squared core distances by brute force: per point, the `(min_pts − 1)`-th
/// smallest squared distance to another point (HDBSCAN\* counts the point
/// itself); all zero when `min_pts <= 1` or there is no other point.
pub fn brute_core2(points: &PointSet, min_pts: usize) -> Vec<f32> {
    let n = points.len();
    (0..n)
        .map(|q| {
            if min_pts <= 1 || n <= 1 {
                return 0.0;
            }
            let mut d: Vec<f32> = (0..n)
                .filter(|&p| p != q)
                .map(|p| points.dist2(q, p))
                .collect();
            d.sort_by(f32::total_cmp);
            d[min_pts - 2]
        })
        .collect()
}

/// Borůvka by brute force, sharing no code with the library's: no kd-tree,
/// no rows, no bounds, no atomics. Each round, every point finds its
/// canonical nearest foreign point — the smallest `(d2, p)` over all
/// points in other components, `d2` from [`Metric::dist2`]; every
/// component keeps its smallest `(d2, q)` proposal; the components' roots
/// are visited in ascending order, and a proposal becomes an edge
/// `(q, p, √d2)` when a union-by-min DSU still separates its endpoints.
/// These are the rules the library's output follows, so the two edge lists
/// must agree in order and bits.
pub fn reference_boruvka<M: Metric>(points: &PointSet, metric: &M) -> Vec<Edge> {
    let n = points.len();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let up = parent[parent[x as usize] as usize];
            parent[x as usize] = up;
            x = up;
        }
        x
    }
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    while edges.len() + 1 < n {
        let comp: Vec<u32> = (0..n as u32).map(|v| find(&mut parent, v)).collect();
        // Each point's canonical nearest foreign point.
        let nearest: Vec<(f32, u32)> = (0..n as u32)
            .map(|q| {
                let mut best = (f32::INFINITY, u32::MAX);
                for p in 0..n as u32 {
                    if comp[p as usize] == comp[q as usize] {
                        continue;
                    }
                    let d2 = metric.dist2(points, q, p);
                    if d2 < best.0 || (d2 == best.0 && p < best.1) {
                        best = (d2, p);
                    }
                }
                best
            })
            .collect();
        // Each component's smallest (d2, q) proposal, by root.
        let mut proposal: Vec<Option<(f32, u32)>> = vec![None; n];
        for q in 0..n as u32 {
            let d2 = nearest[q as usize].0;
            let slot = &mut proposal[comp[q as usize] as usize];
            if slot.is_none_or(|(b2, bq)| d2 < b2 || (d2 == b2 && q < bq)) {
                *slot = Some((d2, q));
            }
        }
        let before = edges.len();
        for root in 0..n as u32 {
            if comp[root as usize] != root {
                continue;
            }
            let Some((d2, q)) = proposal[root as usize] else {
                continue;
            };
            let p = nearest[q as usize].1;
            let (ra, rb) = (find(&mut parent, q), find(&mut parent, p));
            if ra != rb {
                parent[ra.max(rb) as usize] = ra.min(rb);
                edges.push(Edge::new(q, p, d2.sqrt()));
            }
        }
        assert!(edges.len() > before, "reference Borůvka made no progress");
    }
    edges
}

/// The EMST of `points` at `min_pts` by brute force — [`brute_core2`] and
/// [`reference_boruvka`], Euclidean when `min_pts <= 1` — for inputs small
/// enough to afford O(n²) work per round.
pub fn brute_emst(points: &PointSet, min_pts: usize) -> Emst {
    let core2 = brute_core2(points, min_pts);
    let edges = if min_pts <= 1 {
        reference_boruvka(points, &Euclidean)
    } else {
        reference_boruvka(points, &MutualReachability { core2: &core2 })
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
