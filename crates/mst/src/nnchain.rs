//! Nearest-neighbor-chain agglomerative clustering (per ParChain,
//! arXiv 2106.04727) — the engine behind every non-single linkage.
//!
//! # Algorithm
//!
//! The NN-chain algorithm grows a stack of clusters in which each entry is
//! the nearest neighbour of the one below it; distances along the chain
//! strictly decrease, so the walk must reach a **reciprocal** nearest
//! neighbour pair, which is merged. For *reducible* linkages (single,
//! complete, average and Ward all are — Lance–Williams updates can never
//! pull a merged cluster closer to a third party than both parents were)
//! merging a reciprocal pair is always exact: some optimal greedy order
//! performs exactly these merges, and the remaining chain stays valid.
//! Total work is O(n) chain steps, each an O(live clusters) scan.
//!
//! # Substrates
//!
//! Two interchangeable compute substrates sit under one chain driver:
//!
//! * **Condensed matrix** (single / complete / average): an upper-triangle
//!   f32 distance matrix over the base metric (Euclidean or mutual
//!   reachability), updated in place by the Lance–Williams rule of the
//!   linkage. Single linkage additionally tracks the **witness pair** —
//!   the original point pair realizing each cluster distance — so its
//!   merge edges are exactly the MST edges the Borůvka path finds (the
//!   lightest cross edge is an MST edge by the cut property), and on
//!   tie-free inputs the resulting dendrogram is bit-identical to the
//!   EMST fast path (the differential suite enforces this).
//! * **Centroid arrays** (Ward): cluster coordinate sums and sizes, O(n·d)
//!   memory and no matrix. Ward's criterion has the closed form
//!   `d²(A,B) = (2|A||B| / (|A|+|B|)) · ‖μA − μB‖²`, which for singletons
//!   reduces to the squared Euclidean distance — so Ward heights live in
//!   the same distance units as the other linkages after the final `sqrt`.
//!   Ward is defined only over the Euclidean base metric; the serving tier
//!   validates this before dispatching here.
//!
//! The matrix is allocated per run rather than leased from the
//! [`ScratchPool`]: pooling an O(n²/2) buffer would park hundreds of
//! megabytes in every session pool. All O(n) buffers (chain stack, active
//! list, cluster sizes/representatives, centroid sums) are pooled.
//!
//! # Determinism
//!
//! Serial and threaded runs are **bit-identical**: candidate-NN scans are
//! [`ExecCtx::reduce`] reductions whose combine is a min under the total
//! order `(distance, slot)` — commutative and associative, hence
//! independent of lane count and chunk scheduling — and Lance–Williams row
//! updates write disjoint entries per surviving cluster. This is the same
//! duplicate-weight determinism contract the dendrogram stage documents in
//! `core/src/edge.rs`.
//!
//! # Output
//!
//! Each of the n−1 merges is recorded as an [`Edge`] between the merged
//! clusters' *representatives* (their minimum original point id; witness
//! pairs for single linkage). Because every merge joins two disjoint
//! clusters, the merge list is a spanning tree of the points — it feeds
//! `SortedMst::from_edges` and both dendrogram backends completely
//! unchanged.

use std::time::Instant;

use pandora_core::Edge;
use pandora_exec::{ExecCtx, ScratchPool, UnsafeSlice};

use crate::error::PandoraError;
use crate::index::{Emst, EmstIndex, EmstScratch, StageTimings};
use crate::linkage::Linkage;
use crate::metric::MetricKind;
use crate::point::PointSet;

/// Candidate-NN scans shorter than this run inline on the calling thread
/// even in a threaded context (the reduction result is identical either
/// way; only the dispatch overhead differs).
const SCAN_GRAIN: usize = 1024;

/// Lance–Williams row updates shorter than this run inline.
const UPDATE_GRAIN: usize = 2048;

/// One NN-chain run: the merge list plus per-phase seconds.
#[derive(Debug, Clone)]
pub struct NnChainRun {
    /// The n−1 merges, in merge order (not sorted by height); endpoints
    /// are cluster representatives (witness point pairs for single
    /// linkage), weights are finalized distances.
    pub merges: Vec<Edge>,
    /// Seconds spent initializing the substrate (matrix fill or centroid
    /// arrays).
    pub init_s: f64,
    /// Seconds spent walking the chain (scans, merges, row updates).
    pub chain_s: f64,
}

/// Condensed upper-triangle index of the pair `(i, j)` with `i < j` over
/// `n` slots.
#[inline(always)]
fn pidx(n: usize, i: u32, j: u32) -> usize {
    let (i, j) = (i as usize, j as usize);
    debug_assert!(i < j && j < n);
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Deterministic parallel argmin over `active` (excluding `x`): minimum
/// under the total order `(distance, slot)`. The combine is commutative
/// and associative, so the result is independent of chunk scheduling and
/// lane count — serial ≡ threaded bit-identical.
fn scan_nearest(
    ctx: &ExecCtx,
    x: u32,
    active: &[u32],
    dist: impl Fn(u32) -> f32 + Sync,
) -> (f32, u32) {
    ctx.reduce(
        active.len(),
        SCAN_GRAIN,
        (f32::INFINITY, u32::MAX),
        |mut best, range| {
            for &c in &active[range] {
                if c == x {
                    continue;
                }
                let d = dist(c);
                if d < best.0 || (d == best.0 && c < best.1) {
                    best = (d, c);
                }
            }
            best
        },
        |a, b| {
            if b.0 < a.0 || (b.0 == a.0 && b.1 < a.1) {
                b
            } else {
                a
            }
        },
    )
}

/// A compute substrate the chain driver runs over: pairwise cluster
/// distances in some *working space* (squared, unsquared — whatever the
/// linkage's update rule is exact in), merged in place.
trait Substrate: Sync {
    /// Working-space distance between live clusters `a` and `b` (`a ≠ b`).
    fn pair_dist(&self, a: u32, b: u32) -> f32;
    /// Nearest live cluster to `x` over `active` (excluding `x`), min by
    /// `(distance, slot)`.
    fn nearest(&self, ctx: &ExecCtx, x: u32, active: &[u32]) -> (f32, u32);
    /// The original-point endpoints to record for merging `a` and `b`.
    fn edge_endpoints(&self, a: u32, b: u32) -> (u32, u32);
    /// Maps a working-space height to the reported edge weight.
    fn finalize(&self, h: f32) -> f32;
    /// Merges `kill` into `keep` (`keep < kill`), updating the distances
    /// of every cluster in `active` (which already excludes `kill`).
    fn merge(&mut self, ctx: &ExecCtx, keep: u32, kill: u32, active: &[u32]);
}

/// The shared chain driver (see the module docs for the invariant).
fn run_chain<S: Substrate>(ctx: &ExecCtx, n: usize, sub: &mut S, pool: &ScratchPool) -> Vec<Edge> {
    let mut chain = pool.take_u32();
    let mut active = pool.take_u32();
    let mut pos = pool.take_u32();
    active.extend(0..n as u32);
    pos.extend(0..n as u32);
    let mut merges = Vec::with_capacity(n.saturating_sub(1));

    while merges.len() + 1 < n {
        if chain.is_empty() {
            // Deterministic restart: the smallest live slot.
            let mut start = active[0];
            for &c in &active[1..] {
                if c < start {
                    start = c;
                }
            }
            chain.push(start);
        }
        loop {
            let x = *chain.last().expect("chain reseeded above");
            let (mut d, mut y) = sub.nearest(ctx, x, &active);
            debug_assert!(y != u32::MAX, "a live neighbour always exists");
            if chain.len() >= 2 {
                // Prefer the predecessor on exact ties: `nearest` already
                // scanned it, so d ≤ d(x, prev); equality means x and prev
                // are reciprocal under the tie-break, and merging them is
                // what guarantees termination (otherwise distances along
                // the chain strictly decrease).
                let prev = chain[chain.len() - 2];
                let dp = sub.pair_dist(x, prev);
                if dp <= d {
                    d = dp;
                    y = prev;
                }
            }
            if chain.len() >= 2 && y == chain[chain.len() - 2] {
                let (keep, kill) = (x.min(y), x.max(y));
                let (eu, ev) = sub.edge_endpoints(keep, kill);
                merges.push(Edge::new(eu, ev, sub.finalize(d)));
                chain.pop();
                chain.pop();
                // Drop `kill` from the active list *before* the row update
                // so the update never touches the dead slot.
                let pk = pos[kill as usize] as usize;
                active.swap_remove(pk);
                if pk < active.len() {
                    pos[active[pk] as usize] = pk as u32;
                }
                sub.merge(ctx, keep, kill, &active);
                break;
            }
            chain.push(y);
        }
    }

    pool.put_u32(chain);
    pool.put_u32(active);
    pool.put_u32(pos);
    merges
}

/// Which Lance–Williams rule the matrix substrate applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MatrixKernel {
    /// min; working space = squared base distance, finalize = sqrt.
    Single,
    /// max; working space = squared base distance, finalize = sqrt (max
    /// commutes with the monotone square, so squaring is exact).
    Complete,
    /// size-weighted mean; working space = *unsquared* base distance
    /// (the mean does not commute with sqrt), finalize = identity.
    Average,
}

/// Condensed-matrix substrate (single / complete / average).
struct MatrixSubstrate {
    n: usize,
    kernel: MatrixKernel,
    /// Upper-triangle working-space distances, indexed by [`pidx`].
    m: Vec<f32>,
    /// Single linkage only: the original point pair realizing each entry.
    witness: Option<Vec<(u32, u32)>>,
    /// Cluster sizes per live slot (average's weights).
    size: Vec<u32>,
    /// Minimum original point id per live slot.
    rep: Vec<u32>,
}

impl MatrixSubstrate {
    fn init(
        ctx: &ExecCtx,
        points: &PointSet,
        core2: &[f32],
        kernel: MatrixKernel,
        mreach: bool,
        pool: &ScratchPool,
    ) -> Self {
        let n = points.len();
        let mut size = pool.take_u32();
        size.resize(n, 1);
        let mut rep = pool.take_u32();
        rep.extend(0..n as u32);

        let pairs = n * n.saturating_sub(1) / 2;
        let mut m = vec![0.0f32; pairs];
        let mut witness = (kernel == MatrixKernel::Single).then(|| vec![(0u32, 0u32); pairs]);
        ctx.set_phase("nnchain_fill");
        {
            let ms = UnsafeSlice::new(&mut m);
            let ws = witness.as_mut().map(|w| UnsafeSlice::new(w.as_mut_slice()));
            ctx.for_each_chunk(n.saturating_sub(1), 1, |rows| {
                for i in rows {
                    let iu = i as u32;
                    let base = pidx(n, iu, iu + 1);
                    for j in (i + 1)..n {
                        let mut d = points.dist2(i, j);
                        if mreach {
                            d = d.max(core2[i]).max(core2[j]);
                        }
                        let v = if kernel == MatrixKernel::Average {
                            d.sqrt()
                        } else {
                            d
                        };
                        let k = base + (j - i - 1);
                        // SAFETY: row `i` owns the contiguous entry block
                        // `pidx(n, i, i+1)..pidx(n, i, n-1)`; rows are
                        // disjoint, so no index is touched twice.
                        unsafe {
                            ms.write(k, v);
                            if let Some(w) = &ws {
                                w.write(k, (iu, j as u32));
                            }
                        }
                    }
                }
            });
        }
        Self {
            n,
            kernel,
            m,
            witness,
            size,
            rep,
        }
    }

    fn release(self, pool: &ScratchPool) {
        pool.put_u32(self.size);
        pool.put_u32(self.rep);
    }
}

impl Substrate for MatrixSubstrate {
    #[inline(always)]
    fn pair_dist(&self, a: u32, b: u32) -> f32 {
        self.m[pidx(self.n, a.min(b), a.max(b))]
    }

    fn nearest(&self, ctx: &ExecCtx, x: u32, active: &[u32]) -> (f32, u32) {
        let (m, n) = (self.m.as_slice(), self.n);
        scan_nearest(ctx, x, active, |c| m[pidx(n, x.min(c), x.max(c))])
    }

    fn edge_endpoints(&self, a: u32, b: u32) -> (u32, u32) {
        match &self.witness {
            Some(w) => w[pidx(self.n, a.min(b), a.max(b))],
            None => (self.rep[a as usize], self.rep[b as usize]),
        }
    }

    #[inline(always)]
    fn finalize(&self, h: f32) -> f32 {
        match self.kernel {
            MatrixKernel::Single | MatrixKernel::Complete => h.sqrt(),
            MatrixKernel::Average => h,
        }
    }

    fn merge(&mut self, ctx: &ExecCtx, keep: u32, kill: u32, active: &[u32]) {
        let (sk, sl) = (self.size[keep as usize], self.size[kill as usize]);
        let (n, kernel) = (self.n, self.kernel);
        let ms = UnsafeSlice::new(&mut self.m);
        let ws = self
            .witness
            .as_mut()
            .map(|w| UnsafeSlice::new(w.as_mut_slice()));
        ctx.for_each(active.len(), UPDATE_GRAIN, |p| {
            let c = active[p];
            if c == keep {
                return;
            }
            let ik = pidx(n, keep.min(c), keep.max(c));
            let il = pidx(n, kill.min(c), kill.max(c));
            // SAFETY: `ik` and `il` are functions of this iteration's `c`
            // alone (`keep`/`kill` are fixed and no longer in `active`),
            // so iterations read and write disjoint entries.
            unsafe {
                let (dk, dl) = (ms.read(ik), ms.read(il));
                let merged = match kernel {
                    MatrixKernel::Single => {
                        if let Some(w) = &ws {
                            if dl < dk {
                                // The kill-side pair realizes the minimum.
                                w.write(ik, w.read(il));
                            }
                        }
                        dk.min(dl)
                    }
                    MatrixKernel::Complete => dk.max(dl),
                    MatrixKernel::Average => (sk as f32 * dk + sl as f32 * dl) / ((sk + sl) as f32),
                };
                ms.write(ik, merged);
            }
        });
        self.size[keep as usize] = sk + sl;
        self.rep[keep as usize] = self.rep[keep as usize].min(self.rep[kill as usize]);
    }
}

/// Ward's criterion in working space (squared units):
/// `(2·|A|·|B| / (|A|+|B|)) · ‖μA − μB‖²` from coordinate sums and sizes.
#[inline]
fn ward_dist2(csum: &[f32], size: &[u32], dim: usize, a: u32, b: u32) -> f32 {
    let (a, b) = (a as usize, b as usize);
    let (sa, sb) = (size[a] as f32, size[b] as f32);
    let ca = &csum[a * dim..(a + 1) * dim];
    let cb = &csum[b * dim..(b + 1) * dim];
    let mut d2 = 0.0f32;
    for (&xa, &xb) in ca.iter().zip(cb) {
        let diff = xa / sa - xb / sb;
        d2 += diff * diff;
    }
    (2.0 * sa * sb / (sa + sb)) * d2
}

/// Centroid-array substrate (Ward; Euclidean base only).
struct WardSubstrate {
    dim: usize,
    /// Per-slot coordinate sums (`size[s]`-denominated centroids).
    csum: Vec<f32>,
    size: Vec<u32>,
    rep: Vec<u32>,
}

impl WardSubstrate {
    fn init(ctx: &ExecCtx, points: &PointSet, pool: &ScratchPool) -> Self {
        ctx.set_phase("nnchain_fill");
        let n = points.len();
        let mut csum = pool.take_f32();
        csum.extend_from_slice(points.coords());
        let mut size = pool.take_u32();
        size.resize(n, 1);
        let mut rep = pool.take_u32();
        rep.extend(0..n as u32);
        Self {
            dim: points.dim(),
            csum,
            size,
            rep,
        }
    }

    fn release(self, pool: &ScratchPool) {
        pool.put_f32(self.csum);
        pool.put_u32(self.size);
        pool.put_u32(self.rep);
    }
}

impl Substrate for WardSubstrate {
    #[inline(always)]
    fn pair_dist(&self, a: u32, b: u32) -> f32 {
        ward_dist2(&self.csum, &self.size, self.dim, a, b)
    }

    fn nearest(&self, ctx: &ExecCtx, x: u32, active: &[u32]) -> (f32, u32) {
        let (csum, size, dim) = (self.csum.as_slice(), self.size.as_slice(), self.dim);
        scan_nearest(ctx, x, active, |c| ward_dist2(csum, size, dim, x, c))
    }

    fn edge_endpoints(&self, a: u32, b: u32) -> (u32, u32) {
        (self.rep[a as usize], self.rep[b as usize])
    }

    #[inline(always)]
    fn finalize(&self, h: f32) -> f32 {
        h.sqrt()
    }

    fn merge(&mut self, _ctx: &ExecCtx, keep: u32, kill: u32, _active: &[u32]) {
        let (keep, kill) = (keep as usize, kill as usize);
        let dim = self.dim;
        // Centroid sums are additive: no per-neighbour row update exists,
        // which is exactly why Ward needs no matrix.
        let (head, tail) = self.csum.split_at_mut(kill * dim);
        for (dst, src) in head[keep * dim..(keep + 1) * dim]
            .iter_mut()
            .zip(&tail[..dim])
        {
            *dst += *src;
        }
        self.size[keep] += self.size[kill];
        self.rep[keep] = self.rep[keep].min(self.rep[kill]);
    }
}

/// Runs the NN-chain engine over `points` under `linkage`.
///
/// `mreach` selects the base dissimilarity: `true` applies the mutual
/// reachability floor from `core2` (squared core distances, one per
/// point), `false` runs plain Euclidean and ignores `core2`.
///
/// Returns the n−1 merge edges (a spanning tree of the points — see the
/// module docs) plus per-phase seconds. Serial and threaded contexts are
/// bit-identical.
///
/// # Panics
///
/// Panics if `linkage` is [`Linkage::Ward`] and `mreach` is set (Ward is
/// undefined over mutual reachability — the serving tier validates this
/// as a typed error before dispatching here), or if `mreach` is set and
/// `core2` is not one entry per point.
pub fn nnchain_merges(
    ctx: &ExecCtx,
    points: &PointSet,
    core2: &[f32],
    linkage: Linkage,
    mreach: bool,
    pool: &ScratchPool,
) -> NnChainRun {
    assert!(
        !(linkage == Linkage::Ward && mreach),
        "Ward linkage is undefined over mutual reachability"
    );
    assert!(
        !mreach || core2.len() == points.len(),
        "mutual reachability needs one squared core distance per point"
    );
    let n = points.len();
    if n <= 1 {
        return NnChainRun {
            merges: Vec::new(),
            init_s: 0.0,
            chain_s: 0.0,
        };
    }

    let t = Instant::now();
    match linkage {
        Linkage::Ward => {
            let mut sub = WardSubstrate::init(ctx, points, pool);
            let init_s = t.elapsed().as_secs_f64();
            ctx.set_phase("nnchain_chain");
            let t = Instant::now();
            let merges = run_chain(ctx, n, &mut sub, pool);
            let chain_s = t.elapsed().as_secs_f64();
            sub.release(pool);
            NnChainRun {
                merges,
                init_s,
                chain_s,
            }
        }
        _ => {
            let kernel = match linkage {
                Linkage::Single => MatrixKernel::Single,
                Linkage::Complete => MatrixKernel::Complete,
                Linkage::Average => MatrixKernel::Average,
                Linkage::Ward => unreachable!("handled above"),
            };
            let mut sub = MatrixSubstrate::init(ctx, points, core2, kernel, mreach, pool);
            let init_s = t.elapsed().as_secs_f64();
            ctx.set_phase("nnchain_chain");
            let t = Instant::now();
            let merges = run_chain(ctx, n, &mut sub, pool);
            let chain_s = t.elapsed().as_secs_f64();
            sub.release(pool);
            NnChainRun {
                merges,
                init_s,
                chain_s,
            }
        }
    }
}

/// Answers one linkage request from a frozen [`EmstIndex`] and a
/// per-request [`EmstScratch`] — the NN-chain counterpart of
/// [`crate::index::emst_from_index`], sharing its substrate (core
/// distances by prefix lookup into the frozen rows, pooled scratch).
///
/// The returned [`Emst`] holds the merge list as its edges (a spanning
/// tree; feed it to `SortedMst::from_edges` like any MST) and the core
/// distances for `min_pts`; `mst_s` reports the NN-chain seconds.
///
/// # Errors
///
/// [`PandoraError::BadParams`] when `min_pts` is invalid for the index
/// (as [`crate::index::emst_from_index`]), or when `linkage` is
/// [`Linkage::Ward`] and the metric is effectively mutual reachability
/// (`metric` is [`MetricKind::MutualReachability`] with `min_pts ≥ 2`).
pub fn nnchain_from_index(
    ctx: &ExecCtx,
    index: &EmstIndex,
    min_pts: usize,
    linkage: Linkage,
    metric: MetricKind,
    scratch: &mut EmstScratch,
) -> Result<Emst, PandoraError> {
    let mreach = !metric.effectively_euclidean(min_pts);
    if linkage == Linkage::Ward && mreach {
        return Err(PandoraError::BadParams {
            param: "linkage",
            value: min_pts,
            reason: "Ward linkage is undefined over mutual reachability; \
                     request the Euclidean metric (or min_pts = 1)",
        });
    }
    ctx.set_phase("emst_core");
    let t = Instant::now();
    let mut core2 = Vec::new();
    index.core2_into(ctx, min_pts, &mut core2)?;
    let core_s = t.elapsed().as_secs_f64();

    let run = nnchain_merges(ctx, index.points(), &core2, linkage, mreach, scratch.pool());
    Ok(Emst {
        edges: run.merges,
        core2,
        timings: StageTimings {
            core_s,
            mst_s: run.init_s + run.chain_s,
            ..Default::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::emst;
    use rand::prelude::*;

    fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        PointSet::new(
            (0..n * dim).map(|_| rng.gen_range(-5.0..5.0f32)).collect(),
            dim,
        )
    }

    fn euclid_run(points: &PointSet, linkage: Linkage, ctx: &ExecCtx) -> Vec<Edge> {
        let pool = ScratchPool::new();
        let run = nnchain_merges(ctx, points, &[], linkage, false, &pool);
        assert_eq!(pool.outstanding(), 0, "all pooled buffers returned");
        run.merges
    }

    #[test]
    fn hand_checked_line_single() {
        let points = PointSet::new(vec![0.0, 1.0, 3.0, 7.0], 1);
        let ctx = ExecCtx::serial();
        let merges = euclid_run(&points, Linkage::Single, &ctx);
        // Merge order: (0,1)@1, ({0,1},2)@2 via witness (1,2), (..,3)@4 via (2,3).
        let got: Vec<(u32, u32, f32)> = merges.iter().map(|e| (e.u, e.v, e.w)).collect();
        assert_eq!(got, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)]);
    }

    #[test]
    fn hand_checked_line_complete() {
        let points = PointSet::new(vec![0.0, 1.0, 3.0, 7.0], 1);
        let ctx = ExecCtx::serial();
        let merges = euclid_run(&points, Linkage::Complete, &ctx);
        // (0,1)@1; then d({0,1},2) = max(3,2) = 3 vs d(2,3) = 4: merge
        // ({0,1},2)@3; finally max distance to 3 is 7.
        let got: Vec<(u32, u32, f32)> = merges.iter().map(|e| (e.u, e.v, e.w)).collect();
        assert_eq!(got, vec![(0, 1, 1.0), (0, 2, 3.0), (0, 3, 7.0)]);
    }

    #[test]
    fn hand_checked_line_average() {
        let points = PointSet::new(vec![0.0, 1.0, 3.0, 7.0], 1);
        let ctx = ExecCtx::serial();
        let merges = euclid_run(&points, Linkage::Average, &ctx);
        let got: Vec<(u32, u32, f32)> = merges.iter().map(|e| (e.u, e.v, e.w)).collect();
        // (0,1)@1; d({0,1},2) = (3+2)/2 = 2.5 < d(2,3) = 4; then
        // d({0,1,2},3) = (7+6+4)/3.
        assert_eq!(got[0], (0, 1, 1.0));
        assert_eq!(got[1], (0, 2, 2.5));
        assert_eq!(got[2].2, (7.0f32 + 6.0 + 4.0) / 3.0);
    }

    #[test]
    fn hand_checked_line_ward() {
        let points = PointSet::new(vec![0.0, 1.0, 3.0, 7.0], 1);
        let ctx = ExecCtx::serial();
        let merges = euclid_run(&points, Linkage::Ward, &ctx);
        let got: Vec<(u32, u32, f32)> = merges.iter().map(|e| (e.u, e.v, e.w)).collect();
        // Singleton Ward distance = Euclidean: (0,1)@1. Then
        // d²({0,1},{2}) = (2·2·1/3)·(3 − 0.5)² = 8.333…, d²({2},{3}) = 16:
        // merge ({0,1},2) at sqrt(25/3).
        assert_eq!(got[0], (0, 1, 1.0));
        assert_eq!(got[1].0, 0);
        assert_eq!(got[1].1, 2);
        // Same association as the engine: coefficient times the
        // accumulated squared centroid difference.
        let d2 = (2.0f32 * 2.0 * 1.0 / 3.0) * 6.25;
        assert_eq!(got[1].2, d2.sqrt());
    }

    #[test]
    fn serial_and_threaded_are_bit_identical_for_every_linkage() {
        let points = random_points(300, 3, 42);
        let serial = ExecCtx::serial();
        let threaded = ExecCtx::threads();
        for linkage in Linkage::ALL {
            let a = euclid_run(&points, linkage, &serial);
            let b = euclid_run(&points, linkage, &threaded);
            assert_eq!(a.len(), b.len(), "linkage={linkage}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.u, x.v, x.w), (y.u, y.v, y.w), "linkage={linkage}");
            }
        }
    }

    #[test]
    fn single_linkage_witness_edges_equal_the_emst() {
        // Tie-free random coordinates: the MST is unique, so the NN-chain
        // witness edges must be exactly the Borůvka edge set (as sets —
        // merge order differs from Borůvka's discovery order).
        let points = random_points(250, 2, 7);
        let ctx = ExecCtx::serial();
        let merges = euclid_run(&points, Linkage::Single, &ctx);
        let tree = emst(&ctx, &points, 1);
        let canon = |edges: &[Edge]| {
            let mut v: Vec<(u32, u32, u32)> = edges
                .iter()
                .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(canon(&merges), canon(&tree.edges));
    }

    #[test]
    fn mutual_reachability_floor_is_applied() {
        // Two tight pairs far apart; with a large min_pts-like floor the
        // within-pair merge heights are lifted to the core distance.
        let points = PointSet::new(vec![0.0, 0.1, 10.0, 10.1], 1);
        let core2 = vec![4.0, 4.0, 4.0, 4.0];
        let ctx = ExecCtx::serial();
        let pool = ScratchPool::new();
        let run = nnchain_merges(&ctx, &points, &core2, Linkage::Complete, true, &pool);
        assert_eq!(run.merges[0].w, 2.0, "floored to sqrt(core2)");
        assert_eq!(run.merges[1].w, 2.0);
    }

    #[test]
    fn tiny_inputs_produce_empty_merge_lists() {
        let ctx = ExecCtx::serial();
        for n in [0usize, 1] {
            let points = random_points(n, 2, 1);
            let merges = euclid_run(&points, Linkage::Average, &ctx);
            assert!(merges.is_empty());
        }
        let two = random_points(2, 2, 5);
        for linkage in Linkage::ALL {
            let merges = euclid_run(&two, linkage, &ctx);
            assert_eq!(merges.len(), 1);
            // With two points every linkage degenerates to the distance.
            assert_eq!(merges[0].w, two.dist2(0, 1).sqrt());
        }
    }

    #[test]
    fn from_index_matches_direct_engine_runs() {
        let points = random_points(150, 2, 13);
        let ctx = ExecCtx::serial();
        let index = EmstIndex::freeze(&ctx, points.clone(), 4).expect("valid dataset");
        let mut scratch = EmstScratch::new();
        let served = nnchain_from_index(
            &ctx,
            &index,
            4,
            Linkage::Complete,
            MetricKind::MutualReachability,
            &mut scratch,
        )
        .expect("valid request");
        let mut core2 = Vec::new();
        index.core2_into(&ctx, 4, &mut core2).expect("in ceiling");
        let pool = ScratchPool::new();
        let direct = nnchain_merges(&ctx, &points, &core2, Linkage::Complete, true, &pool);
        assert_eq!(served.edges.len(), direct.merges.len());
        for (a, b) in served.edges.iter().zip(&direct.merges) {
            assert_eq!((a.u, a.v, a.w), (b.u, b.v, b.w));
        }
        assert_eq!(served.core2, core2);
        assert_eq!(scratch.pool().outstanding(), 0);
    }

    #[test]
    fn ward_over_mutual_reachability_is_a_typed_error() {
        let points = random_points(50, 2, 3);
        let ctx = ExecCtx::serial();
        let index = EmstIndex::freeze(&ctx, points, 4).expect("valid dataset");
        let mut scratch = EmstScratch::new();
        let err = nnchain_from_index(
            &ctx,
            &index,
            4,
            Linkage::Ward,
            MetricKind::MutualReachability,
            &mut scratch,
        )
        .expect_err("undefined combination");
        assert!(matches!(
            err,
            PandoraError::BadParams {
                param: "linkage",
                ..
            }
        ));
        // Euclidean Ward at the same min_pts is fine.
        let ok = nnchain_from_index(
            &ctx,
            &index,
            4,
            Linkage::Ward,
            MetricKind::Euclidean,
            &mut scratch,
        );
        assert!(ok.is_ok());
        // So is mutual reachability at min_pts = 1 (identically Euclidean).
        let ok = nnchain_from_index(
            &ctx,
            &index,
            1,
            Linkage::Ward,
            MetricKind::MutualReachability,
            &mut scratch,
        );
        assert!(ok.is_ok());
    }
}
