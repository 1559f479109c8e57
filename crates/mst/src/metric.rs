//! Distance metrics for MST construction.
//!
//! HDBSCAN\* runs single-linkage over the **mutual reachability distance**
//! `d_mreach(a,b) = max(core_k(a), core_k(b), d(a,b))` (paper §6.5). All
//! internal computation uses *squared* distances: `max` commutes with the
//! monotone square, so comparisons are unaffected and `sqrt` is deferred to
//! the final edge weights.
//!
//! A metric comes in two numberings. [`Metric`] works on point indices and
//! has one method, `dist2`: Prim and DBCV call it. [`TreeMetric`] works on
//! kd-tree positions and is what the kernels call: the nearest-foreign
//! search finalizes its block distances with `refine_euclid2_at` and
//! prunes boxes with `box_bound2_at`, and Borůvka's row screen finalizes
//! row distances the same way. The distance kernels themselves (block,
//! point–box, block–box and box–box) are written once over `Dim`.

use crate::kdtree::TreeOrdered;
use crate::point::PointSet;

/// Which base dissimilarity a clustering request runs under — the
/// **per-request metric selection** the serving tier threads down to the
/// compute substrate (Borůvka EMST or the NN-chain engine), instead of the
/// metric being baked into call sites.
///
/// Both kinds are served from the same frozen spatial substrate: mutual
/// reachability is plain Euclidean plus a per-point core-distance floor, so
/// the kd-tree and k-NN rows never change shape with the metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MetricKind {
    /// HDBSCAN\*'s `d_mreach(a,b) = max(core_k(a), core_k(b), d(a,b))`
    /// (the default). Degenerates to Euclidean at `minPts ≤ 1`, where every
    /// core distance is zero.
    #[default]
    MutualReachability,
    /// Plain Euclidean distance, regardless of `minPts` (core distances are
    /// still computed for the result, they just do not enter the metric).
    Euclidean,
}

impl MetricKind {
    /// Every metric kind, in default-first order.
    pub const ALL: [Self; 2] = [Self::MutualReachability, Self::Euclidean];

    /// The canonical spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::MutualReachability => "mutual-reachability",
            Self::Euclidean => "euclidean",
        }
    }

    /// Parses a metric name (case-insensitive; accepts the canonical
    /// spellings plus common aliases). Returns `None` on anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "mutual-reachability" | "mutual_reachability" | "mreach" | "mutual" => {
                Some(Self::MutualReachability)
            }
            "euclidean" | "euclid" | "l2" => Some(Self::Euclidean),
            _ => None,
        }
    }

    /// Whether a request under this metric at `min_pts` is *effectively*
    /// Euclidean: either the metric is Euclidean outright, or it is mutual
    /// reachability with every core distance identically zero
    /// (`min_pts ≤ 1`). The dispatch layer uses this to pick the Euclidean
    /// Borůvka arm and to validate Ward requests.
    pub fn effectively_euclidean(self, min_pts: usize) -> bool {
        match self {
            Self::Euclidean => true,
            Self::MutualReachability => min_pts <= 1,
        }
    }
}

impl core::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A metric over **point indices**: every point argument is an index into
/// the [`PointSet`], and per-point data (e.g. core distances) is read per
/// index. Prim ([`crate::prim::prim_mst`]) and DBCV call it this way.
///
/// Borůvka and the nearest-foreign search number points by kd-tree
/// position instead and take a [`TreeMetric`].
///
/// All values are squared distances.
pub trait Metric: Sync {
    /// Squared distance between points `a` and `b`.
    fn dist2(&self, points: &PointSet, a: u32, b: u32) -> f32;
}

/// A metric over **kd-tree positions**, the numbering of
/// [`crate::boruvka::boruvka_mst`], [`crate::boruvka::row_witness_scan`]
/// and [`crate::kdtree::KdTree::nearest_foreign`]: every point argument
/// is a position `a` of the tree, standing for the point
/// `tree.perm()[a]`, and per-point data is read in tree order
/// ([`TreeOrdered`]), so the leaf scans stream it.
///
/// Implementations: [`Euclidean`] and [`TreeMutualReachability`] (core
/// distances in tree order). All values are squared distances.
pub trait TreeMetric: Sync {
    /// Finalizes a precomputed squared Euclidean distance between the points
    /// at positions `a` and `b` into this metric's squared distance. Must
    /// agree exactly with the same metric's [`Metric::dist2`] on the points
    /// `perm[a]` and `perm[b]`: the chunked leaf kernels
    /// ([`euclid_block_dist2`]) compute the Euclidean part for a whole
    /// block of points at once and hand each lane's result through here.
    fn refine_euclid2_at(&self, euclid_d2: f32, a: u32, b: u32) -> f32;

    /// Lower bound on the squared distance from the point at position `q`
    /// to any point inside a box `box_dist2` away whose points' smallest
    /// squared core distance is `box_min_core2`.
    fn box_bound2_at(&self, points: &PointSet, q: u32, box_dist2: f32, box_min_core2: f32) -> f32;
}

/// Width of the chunked leaf distance kernels: distances to this many
/// consecutive points are computed per inner-loop step.
///
/// Eight f32 lanes fill one AVX2 register (or two NEON registers), and the
/// kernels below are written as fixed-trip-count loops over contiguous
/// coordinates precisely so LLVM auto-vectorizes them at this width.
pub const LEAF_BLOCK: usize = 8;

/// A point dimensionality: fixed at compile time ([`Fixed`]) or read at
/// run time ([`Dyn`]).
///
/// The distance kernels below and the kd-tree's k-NN traversals are
/// written once, generic over this trait. Through `Fixed<2>` and
/// `Fixed<3>` every coordinate slice has a length the compiler knows, so
/// the loops unroll and the bounds checks vanish; every other dimension
/// runs the same code with a run-time length. [`with_dim!`] picks the
/// instance once per call from a point set's dimension.
pub(crate) trait Dim: Copy + Sync {
    /// Coordinates per point.
    fn get(self) -> usize;
}

/// A dimension known at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fixed<const D: usize>;

impl<const D: usize> Dim for Fixed<D> {
    #[inline(always)]
    fn get(self) -> usize {
        D
    }
}

/// A dimension read at run time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dyn(pub(crate) usize);

impl Dim for Dyn {
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }
}

/// Evaluates `$body` with `$d` bound to the [`Dim`] instance for the
/// dimension `$dim`: `Fixed<2>`, `Fixed<3>`, or `Dyn` for any other.
macro_rules! with_dim {
    ($dim:expr, $d:ident => $body:expr) => {
        match $dim {
            2 => {
                let $d = $crate::metric::Fixed::<2>;
                $body
            }
            3 => {
                let $d = $crate::metric::Fixed::<3>;
                $body
            }
            other => {
                let $d = $crate::metric::Dyn(other);
                $body
            }
        }
    };
}
pub(crate) use with_dim;

/// Squared Euclidean distances from `q` to the [`LEAF_BLOCK`] points of one
/// dimension-major block (`block[d * LEAF_BLOCK + j]` is coordinate `d` of
/// block point `j`), the kd-tree's AoSoA leaf layout.
///
/// Every dimension is a contiguous 8-lane subtract–square–accumulate with
/// a fixed trip count, the shape LLVM turns into packed vector ops. The
/// sum runs over the dimensions in order, starting from the first square,
/// so each lane equals [`PointSet::dist2`] bit for bit. Callers pass a
/// full block; padding lanes compute distances that are never read.
#[inline(always)]
pub(crate) fn block_dist2<D: Dim>(dim: D, q: &[f32], block: &[f32], out: &mut [f32; LEAF_BLOCK]) {
    let dim = dim.get();
    let (q, block) = (&q[..dim], &block[..dim * LEAF_BLOCK]);
    let (first, rest) = block.split_at(LEAF_BLOCK);
    for j in 0..LEAF_BLOCK {
        let diff = first[j] - q[0];
        out[j] = diff * diff;
    }
    for (lane, &qc) in rest.chunks_exact(LEAF_BLOCK).zip(&q[1..]) {
        for j in 0..LEAF_BLOCK {
            let diff = lane[j] - qc;
            out[j] += diff * diff;
        }
    }
}

/// Squared overshoot of `c` past the interval `[lo, hi]` (0 inside).
#[inline(always)]
fn axis_gap2(c: f32, lo: f32, hi: f32) -> f32 {
    let diff = (lo - c).max(c - hi).max(0.0);
    diff * diff
}

/// Squared distance from point `p` to the axis-aligned box `[lo, hi]`.
///
/// Summed over the dimensions in the order [`block_dist2`] uses, and
/// rounding is monotone, so the result never exceeds the computed distance
/// from `p` to any point inside the box: pruning on it is exact.
#[inline(always)]
pub(crate) fn box_dist2<D: Dim>(dim: D, p: &[f32], lo: &[f32], hi: &[f32]) -> f32 {
    let dim = dim.get();
    let (p, lo, hi) = (&p[..dim], &lo[..dim], &hi[..dim]);
    let mut acc = axis_gap2(p[0], lo[0], hi[0]);
    for d in 1..dim {
        acc += axis_gap2(p[d], lo[d], hi[d]);
    }
    acc
}

/// Squared distances from the [`LEAF_BLOCK`] points of one dimension-major
/// block (the layout of [`block_dist2`]) to the box `[lo, hi]`: 8 lanes of
/// [`box_dist2`] at once, summed over the dimensions in the same order, so
/// each lane equals `box_dist2` on that point bit for bit.
#[inline(always)]
pub(crate) fn box_block_dist2<D: Dim>(
    dim: D,
    block: &[f32],
    lo: &[f32],
    hi: &[f32],
    out: &mut [f32; LEAF_BLOCK],
) {
    let dim = dim.get();
    let (block, lo, hi) = (&block[..dim * LEAF_BLOCK], &lo[..dim], &hi[..dim]);
    let (first, rest) = block.split_at(LEAF_BLOCK);
    for j in 0..LEAF_BLOCK {
        out[j] = axis_gap2(first[j], lo[0], hi[0]);
    }
    for ((lane, &l), &h) in rest.chunks_exact(LEAF_BLOCK).zip(&lo[1..]).zip(&hi[1..]) {
        for j in 0..LEAF_BLOCK {
            out[j] += axis_gap2(lane[j], l, h);
        }
    }
}

/// Squared distance between the boxes `[a_lo, a_hi]` and `[b_lo, b_hi]`:
/// a lower bound, exact in the same sense as [`box_dist2`], on the
/// computed distance between any point of one box and any of the other.
#[inline(always)]
pub(crate) fn box_box_dist2<D: Dim>(
    dim: D,
    a_lo: &[f32],
    a_hi: &[f32],
    b_lo: &[f32],
    b_hi: &[f32],
) -> f32 {
    let dim = dim.get();
    let (a_lo, a_hi, b_lo, b_hi) = (&a_lo[..dim], &a_hi[..dim], &b_lo[..dim], &b_hi[..dim]);
    let gap2 = |d: usize| {
        let diff = (b_lo[d] - a_hi[d]).max(a_lo[d] - b_hi[d]).max(0.0);
        diff * diff
    };
    let mut acc = gap2(0);
    for d in 1..dim {
        acc += gap2(d);
    }
    acc
}

/// The 8-lane block distance (`block_dist2`) for a caller that does not
/// know the dimension in advance: dispatches on `q.len()` per call. The
/// nearest-foreign search uses it; batched callers dispatch once and call
/// the generic kernel.
#[inline]
pub fn euclid_block_dist2(q: &[f32], block: &[f32], out: &mut [f32; LEAF_BLOCK]) {
    debug_assert_eq!(block.len(), q.len() * LEAF_BLOCK);
    with_dim!(q.len(), d => block_dist2(d, q, block, out))
}

/// Squared distance from a point to an axis-aligned bounding box, the
/// point–box kernel (`box_dist2`) dispatched on `p.len()` per call, for
/// the same callers as [`euclid_block_dist2`].
#[inline(always)]
pub fn point_box_dist2(p: &[f32], bbox_min: &[f32], bbox_max: &[f32]) -> f32 {
    with_dim!(p.len(), d => box_dist2(d, p, bbox_min, bbox_max))
}

/// Plain Euclidean distance, under either numbering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Euclidean;

impl Metric for Euclidean {
    #[inline(always)]
    fn dist2(&self, points: &PointSet, a: u32, b: u32) -> f32 {
        points.dist2(a as usize, b as usize)
    }
}

impl TreeMetric for Euclidean {
    #[inline(always)]
    fn refine_euclid2_at(&self, euclid_d2: f32, _a: u32, _b: u32) -> f32 {
        euclid_d2
    }

    #[inline(always)]
    fn box_bound2_at(&self, _points: &PointSet, _q: u32, box_dist2: f32, _min_core2: f32) -> f32 {
        box_dist2
    }
}

/// HDBSCAN\*'s mutual reachability distance over squared core distances
/// per point index (a [`Metric`]). Borůvka takes
/// [`TreeMutualReachability`] instead.
#[derive(Debug, Clone, Copy)]
pub struct MutualReachability<'a> {
    /// Squared core distance (distance to the `minPts`-th neighbour) per point.
    pub core2: &'a [f32],
}

impl Metric for MutualReachability<'_> {
    #[inline(always)]
    fn dist2(&self, points: &PointSet, a: u32, b: u32) -> f32 {
        let d2 = points.dist2(a as usize, b as usize);
        d2.max(self.core2[a as usize]).max(self.core2[b as usize])
    }
}

/// Mutual reachability over squared core distances in **tree order** (a
/// [`TreeMetric`]), the form [`crate::boruvka::boruvka_mst`] reads:
/// `TreeMutualReachability { core2: &tree.in_tree_order(&core2) }` for
/// per-index `core2`. Equal to [`MutualReachability`] over the same core
/// distances, pair for pair.
///
/// ```
/// use pandora_exec::{ExecCtx, ScratchPool};
/// use pandora_mst::{boruvka_mst, core_distances2, BoruvkaExtras, KdTree, PointSet};
/// use pandora_mst::TreeMutualReachability;
///
/// let ctx = ExecCtx::serial();
/// let points = PointSet::new(vec![0.0, 0.0, 1.0, 0.0, 5.0, 5.0], 2);
/// let tree = KdTree::build(&ctx, &points);
/// let core2 = core_distances2(&ctx, &points, &tree, 2); // per point index
/// let core2 = tree.in_tree_order(&core2);
/// let metric = TreeMutualReachability { core2: &core2 };
/// let pool = ScratchPool::new();
/// let edges = boruvka_mst(&ctx, &points, &tree, &metric, BoruvkaExtras::default(), &pool);
/// assert_eq!(edges.len(), 2);
/// ```
///
/// Core distances per point index do not compile there:
///
/// ```compile_fail,E0277
/// use pandora_exec::{ExecCtx, ScratchPool};
/// use pandora_mst::{boruvka_mst, core_distances2, BoruvkaExtras, KdTree, PointSet};
/// use pandora_mst::MutualReachability;
///
/// let ctx = ExecCtx::serial();
/// let points = PointSet::new(vec![0.0, 0.0, 1.0, 0.0, 5.0, 5.0], 2);
/// let tree = KdTree::build(&ctx, &points);
/// let core2 = core_distances2(&ctx, &points, &tree, 2); // per point index
/// let metric = MutualReachability { core2: &core2 };
/// let pool = ScratchPool::new();
/// let edges = boruvka_mst(&ctx, &points, &tree, &metric, BoruvkaExtras::default(), &pool);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TreeMutualReachability<'a> {
    /// Squared core distance per tree position.
    pub core2: &'a TreeOrdered<f32>,
}

impl TreeMetric for TreeMutualReachability<'_> {
    #[inline(always)]
    fn refine_euclid2_at(&self, euclid_d2: f32, a: u32, b: u32) -> f32 {
        euclid_d2
            .max(self.core2[a as usize])
            .max(self.core2[b as usize])
    }

    #[inline(always)]
    fn box_bound2_at(&self, _points: &PointSet, q: u32, box_dist2: f32, min_core2: f32) -> f32 {
        // d_mreach(q, x) ≥ max(core(q), d(q,x), min core in box) for any x
        // in the box.
        box_dist2.max(self.core2[q as usize]).max(min_core2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_kind_parse_and_effective_euclidean() {
        for k in MetricKind::ALL {
            assert_eq!(MetricKind::parse(k.name()), Some(k));
        }
        assert_eq!(
            MetricKind::parse(" MREACH "),
            Some(MetricKind::MutualReachability)
        );
        assert_eq!(MetricKind::parse("L2"), Some(MetricKind::Euclidean));
        assert_eq!(MetricKind::parse("cosine"), None);
        assert!(MetricKind::Euclidean.effectively_euclidean(8));
        assert!(MetricKind::MutualReachability.effectively_euclidean(1));
        assert!(!MetricKind::MutualReachability.effectively_euclidean(2));
        assert_eq!(MetricKind::default(), MetricKind::MutualReachability);
    }

    #[test]
    fn point_box_distance() {
        let bbox_min = [0.0, 0.0];
        let bbox_max = [1.0, 1.0];
        assert_eq!(point_box_dist2(&[0.5, 0.5], &bbox_min, &bbox_max), 0.0);
        assert_eq!(point_box_dist2(&[2.0, 0.5], &bbox_min, &bbox_max), 1.0);
        assert_eq!(point_box_dist2(&[2.0, 2.0], &bbox_min, &bbox_max), 2.0);
        assert_eq!(point_box_dist2(&[-1.0, 0.5], &bbox_min, &bbox_max), 1.0);
    }

    #[test]
    fn mutual_reachability_takes_max() {
        let points = PointSet::new(vec![0.0, 0.0, 1.0, 0.0], 2);
        let core2 = vec![4.0, 0.25];
        let m = MutualReachability { core2: &core2 };
        // d² = 1, core²(0) = 4 dominates.
        assert_eq!(m.dist2(&points, 0, 1), 4.0);
        let m2 = MutualReachability { core2: &[0.0, 0.0] };
        assert_eq!(m2.dist2(&points, 0, 1), 1.0);
    }

    #[test]
    fn block_kernels_match_their_scalar_forms() {
        for dim in [1usize, 2, 3, 5] {
            // One full AoSoA block of deterministic coordinates plus a
            // query point; the kernels must agree bitwise with the scalar
            // paths (the tree's `refine_euclid2_at` contract and its exact
            // box pruning depend on it).
            let n = LEAF_BLOCK;
            let coords: Vec<f32> = (0..(n + 1) * dim)
                .map(|i| ((i * 37 % 101) as f32) * 0.25 - 12.0)
                .collect();
            let points = PointSet::new(coords, dim);
            let q = points.point(n);
            // Dimension-major block: lane d holds coordinate d of all points.
            let mut block = vec![0.0f32; LEAF_BLOCK * dim];
            for p in 0..n {
                for (d, &c) in points.point(p).iter().enumerate() {
                    block[d * LEAF_BLOCK + p] = c;
                }
            }
            let mut out = [0.0f32; LEAF_BLOCK];
            euclid_block_dist2(q, &block, &mut out);
            for (p, &got) in out.iter().enumerate() {
                assert_eq!(got, points.dist2(n, p), "dim={dim} p={p}");
            }
            // The block against a box around the query, so each lane
            // crosses it on some axes and lies inside it on others.
            let lo: Vec<f32> = q.iter().map(|&c| c - 3.0).collect();
            let hi: Vec<f32> = q.iter().map(|&c| c + 1.5).collect();
            with_dim!(dim, d => box_block_dist2(d, &block, &lo, &hi, &mut out));
            for (p, &got) in out.iter().enumerate() {
                let want = point_box_dist2(points.point(p), &lo, &hi);
                assert_eq!(got.to_bits(), want.to_bits(), "box: dim={dim} p={p}");
            }
        }
    }

    #[test]
    fn tree_order_mutual_reachability_agrees_with_the_index_metric() {
        use crate::kdtree::KdTree;

        let n = 40usize;
        let coords: Vec<f32> = (0..n * 2).map(|i| ((i * 37 % 101) as f32) * 0.25).collect();
        let points = PointSet::new(coords, 2);
        let tree = KdTree::build_with_leaf_size(&pandora_exec::ExecCtx::serial(), &points, 4);
        let perm = tree.perm();
        assert!(perm.iter().enumerate().any(|(i, &p)| p as usize != i));
        let core2: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let by_index = MutualReachability { core2: &core2 };
        let tree_core2 = tree.in_tree_order(&core2);
        let at = TreeMutualReachability { core2: &tree_core2 };
        for a in 0..n as u32 {
            let pa = perm[a as usize];
            for b in 0..n as u32 {
                let pb = perm[b as usize];
                let e2 = points.dist2(pa as usize, pb as usize);
                let want = by_index.dist2(&points, pa, pb);
                assert_eq!(at.refine_euclid2_at(e2, a, b), want);
                let want = Euclidean.dist2(&points, pa, pb);
                assert_eq!(Euclidean.refine_euclid2_at(e2, a, b), want);
            }
            // max(core(q), box distance, min core in box).
            let want = 2.5f32.max(core2[pa as usize]).max(1.5);
            assert_eq!(at.box_bound2_at(&points, a, 2.5, 1.5), want);
        }
    }

    #[test]
    fn bounds_never_exceed_distance() {
        let points = PointSet::new(vec![0.0, 0.0, 3.0, 4.0], 2);
        let core2 = vec![1.0, 9.0];
        let m = MutualReachability { core2: &core2 };
        let d2 = m.dist2(&points, 0, 1);
        // Box containing point 1 exactly; the identity permutation makes
        // tree positions equal point indices.
        let bd2 = point_box_dist2(points.point(0), points.point(1), points.point(1));
        let tree_core2 = TreeOrdered::from_vec(core2.clone());
        let at = TreeMutualReachability { core2: &tree_core2 };
        assert!(at.box_bound2_at(&points, 0, bd2, 9.0) <= d2);
        assert!(Euclidean.box_bound2_at(&points, 0, bd2, 9.0) <= points.dist2(0, 1));
    }
}
