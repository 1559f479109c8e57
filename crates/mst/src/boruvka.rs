//! Parallel Borůvka Euclidean MST (the paper's EMST substrate, \[39\]).
//!
//! Each round, every point finds its nearest neighbour in a *different*
//! component: from a surviving witness or its k-NN row when either is
//! certified exact, otherwise through the kd-tree's one nearest-foreign
//! search ([`KdTree::nearest_foreign`], seeded with the best known
//! candidate or with the component's bound); every component
//! then keeps its minimum outgoing edge (atomic min on a packed
//! `(distance, point)` key — deterministic tie-break), the chosen edges are
//! added and the components merged. Components at least halve per round, so
//! there are ≤ ⌈log₂ n⌉ rounds.
//!
//! Works for any [`TreeMetric`]; with
//! [`crate::metric::TreeMutualReachability`] it produces exactly the MST
//! HDBSCAN\* needs. Component purity of kd-subtrees prunes
//! intra-component traversal, the standard trick that keeps Borůvka rounds
//! near-linear. Further cuSLINK-style optimizations keep the rounds
//! allocation-free and tightly bounded:
//!
//! * the purity / candidate / root buffers are reused across rounds, and
//!   each query is **warm-started** with the previous round's winner
//!   (nearest-foreign distances only grow as components merge, so a
//!   still-foreign previous winner is a valid upper bound that prunes most
//!   of the traversal immediately);
//! * queries run in **kd-tree (spatial) order**, so consecutive queries in
//!   a lane's chunk usually belong to the same component — the component's
//!   best-edge bound is loaded once per same-component run and the run's
//!   winner is merged back with a single lock-free atomic-min, instead of
//!   one atomic RMW per point;
//! * **boundary-point filtering**: every point carries a monotone lower
//!   bound on its nearest-foreign distance (any earlier round's result —
//!   foreign sets only shrink, so the bound stays valid). An interior
//!   point whose bound lies strictly above its component's current best
//!   edge can neither win nor tie and skips its traversal entirely; later
//!   rounds therefore query mostly the points near component boundaries;
//! * **merge-surviving witnesses** (cuSLINK's 2-hop discipline): a point
//!   whose previous winner came from an *exact, canonically tie-broken*
//!   search keeps it as long as it stays foreign — when the point's lower
//!   bound equals the witness distance the witness still *is* the exact
//!   nearest-foreign answer, so the whole re-search (row scan and
//!   traversal) is skipped. Each row screen additionally banks the best
//!   member of a *second* foreign component, so when a merge absorbs the
//!   primary witness the secondary usually survives to warm-start (and
//!   bound) the fallback search instead of a cold traversal.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use pandora_exec::atomic::{as_atomic_u64, f32_to_ordered_u32, ordered_u32_to_f32};
use pandora_exec::counters::RelaxedCounter;
use pandora_exec::trace::KernelKind;
use pandora_exec::{ExecCtx, ScratchPool, UnsafeSlice, DEFAULT_GRAIN};

use pandora_core::Edge;

use crate::kdtree::{ForeignSearch, KdTree, SearchWork, TreeOrdered};
use crate::knn::KnnRows;
use crate::metric::TreeMetric;
use crate::point::PointSet;

/// Packs `(squared distance, point)` so numeric `min` picks the smallest
/// distance, ties broken by smaller point index.
#[inline(always)]
fn pack_candidate(d2: f32, p: u32) -> u64 {
    ((f32_to_ordered_u32(d2) as u64) << 32) | p as u64
}

/// Cumulative effectiveness counters for the witness machinery, shared by
/// every Borůvka run over one dataset (the owning
/// [`crate::index::EmstIndex`] hands a reference to each run via
/// [`BoruvkaExtras::stats`]).
///
/// All counters are monotone and relaxed: lanes accumulate locally and
/// flush once per chunk, so the atomics see O(chunks) traffic, not O(n).
#[derive(Debug, Default)]
pub struct BoruvkaStats {
    witness_hits: RelaxedCounter,
    researches: RelaxedCounter,
    snapshot_adopts: RelaxedCounter,
    dist_evals: RelaxedCounter,
    node_visits: RelaxedCounter,
}

impl BoruvkaStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queries answered outright by a merge-surviving witness — no row
    /// scan, no tree traversal.
    pub fn witness_hits(&self) -> u64 {
        self.witness_hits.get()
    }

    /// Full nearest-foreign tree searches (the work the witnesses exist to
    /// avoid).
    pub fn researches(&self) -> u64 {
        self.researches.get()
    }

    /// Cold runs that warmed their endgame cache from a snapshot another
    /// session published to the shared [`EndgameStore`].
    pub fn snapshot_adopts(&self) -> u64 {
        self.snapshot_adopts.get()
    }

    /// Distance evaluations of the query passes: whole 8-point blocks in
    /// the tree searches' leaf scans plus the row members the row screens
    /// examined. Serial runs repeat it exactly.
    pub fn dist_evals(&self) -> u64 {
        self.dist_evals.get()
    }

    /// Tree nodes the query passes' searches visited (box distances
    /// computed). Serial runs repeat it exactly.
    pub fn node_visits(&self) -> u64 {
        self.node_visits.get()
    }

    fn add_chunk(&self, hits: u64, searches: u64, work: SearchWork) {
        for (counter, value) in [
            (&self.witness_hits, hits),
            (&self.researches, searches),
            (&self.dist_evals, work.dist_evals),
            (&self.node_visits, work.node_visits),
        ] {
            if value > 0 {
                counter.add(value);
            }
        }
    }

    /// Records one shared-snapshot adoption (called by the index layer).
    pub fn note_adopt(&self) {
        self.snapshot_adopts.incr();
    }
}

/// A round enters the "endgame" once this few components remain — the
/// regime where components are huge, every stale per-point bound fails,
/// and nearly all `n` points re-search the tree to certify a handful of
/// inter-component edges.
const ENDGAME_SNAPSHOT_MAX: usize = 64;

/// Cross-run endgame cache: transfers late-round nearest-foreign lower
/// bounds between Borůvka runs **over the same point set**.
///
/// The transfer is exact, resting on two monotonicities:
///
/// 1. the mutual-reachability metric is pointwise non-decreasing in
///    `minPts` (core distances only grow), so a distance bound proved
///    under `minPts = m` holds under any `m' ≥ m`;
/// 2. for any point `q` whose snapshot component is **contained in** its
///    current component, everything currently foreign to `q` was foreign
///    at the snapshot too, so `q`'s nearest-foreign minimum can only have
///    grown since the bound was proved.
///
/// Containment is checked per snapshot component in one O(n) pass (all
/// members must share a current component); different runs' intermediate
/// partitions rarely nest globally, but component-wise most of them do.
/// Applicable points' bounds flow into the boundary filter and retire the
/// component-interior points that dominate endgame rounds, so a
/// multi-`minPts` sweep (ascending) pays the endgame search volume once,
/// not once per member. Purely an optimization: skips are strictly
/// conservative, so results stay bit-identical.
#[derive(Debug, Default, Clone)]
struct EndgameSnapshot {
    /// `minPts` rank the bounds were proved under.
    min_pts: usize,
    /// Component label per point at the snapshot round.
    comp: Vec<u32>,
    /// Per-point nearest-foreign squared-distance lower bounds, valid for
    /// (`min_pts`, `comp`).
    lower: Vec<f32>,
}

/// One run's worth of published endgame snapshots: an immutable value the
/// [`EndgameStore`] hands out behind an `Arc`, so adopting it is a pointer
/// clone and never blocks the publisher.
#[derive(Debug)]
pub struct SnapshotSet {
    /// `minPts` rank the snapshots were proved under (all snapshots of one
    /// run share it). A set transfers bounds to any run of rank ≥ this.
    rank: usize,
    snaps: Vec<EndgameSnapshot>,
}

/// Concurrency-safe cross-session snapshot store, owned by the frozen
/// per-dataset index (so it is structurally bound to one `instance_id` /
/// point set — sessions can only ever adopt snapshots proved on the points
/// they are serving).
///
/// Publishing is double-buffered in effect: a publisher builds a fresh
/// [`SnapshotSet`] off-lock, then swaps the shared `Arc` under a mutex that
/// is held only for the pointer exchange; readers clone the `Arc` and apply
/// the (immutable) set with no further synchronization. The store keeps the
/// single best set rather than accumulating: lower-rank bounds transfer to
/// strictly more runs (mutual-reachability distances grow with `minPts`),
/// so a set is only replaced when a run of *lower* rank publishes. That
/// policy also bounds publish traffic — steady-state request streams at one
/// rank publish exactly once.
#[derive(Debug, Default)]
pub struct EndgameStore {
    published: Mutex<Option<Arc<SnapshotSet>>>,
    publishes: RelaxedCounter,
}

impl EndgameStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any session has published a snapshot set yet.
    pub fn is_published(&self) -> bool {
        self.load().is_some()
    }

    /// How many snapshot sets have been published (replacements included).
    pub fn publishes(&self) -> u64 {
        self.publishes.get()
    }

    fn load(&self) -> Option<Arc<SnapshotSet>> {
        // A poisoned lock only means a publisher panicked mid-swap; the
        // stored Arc is always a complete set, so recover and read it.
        let slot = self.published.lock().unwrap_or_else(|p| p.into_inner());
        slot.clone()
    }

    /// Publishes `snaps` (proved under `rank`) if they beat the stored set:
    /// the store is empty, or the candidate's rank is strictly lower (its
    /// bounds transfer to strictly more future runs).
    fn offer(&self, rank: usize, snaps: &[EndgameSnapshot]) {
        if snaps.is_empty() {
            return;
        }
        {
            let slot = self.published.lock().unwrap_or_else(|p| p.into_inner());
            if slot.as_ref().is_some_and(|set| set.rank <= rank) {
                return;
            }
        }
        // Build the set off-lock (the copy is O(n·snaps)); re-check under
        // the lock in case a better set landed meanwhile.
        let set = Arc::new(SnapshotSet {
            rank,
            snaps: snaps.to_vec(),
        });
        let mut slot = self.published.lock().unwrap_or_else(|p| p.into_inner());
        if slot.as_ref().is_some_and(|held| held.rank <= rank) {
            return;
        }
        *slot = Some(set);
        self.publishes.incr();
    }
}

/// See the type-level docs above. A run captures one snapshot per endgame
/// round (components at least halve each round, so at most ~log₂ of the
/// 64-component endgame threshold of them) into a staging set, promoted
/// wholesale at run end — double-buffered so the snapshots a run *applies*
/// always come from an earlier run. Keeping every granularity matters:
/// coarse snapshots carry the largest bounds but their components conflict
/// most often, so each of the next run's endgame rounds is usually served
/// by a different member of the set.
#[derive(Debug, Default)]
pub struct EndgameCache {
    /// Applied by the current run: the previous run's snapshots.
    active: Vec<EndgameSnapshot>,
    active_len: usize,
    /// Captured by the current run; promoted to `active` at run end.
    staging: Vec<EndgameSnapshot>,
    staging_len: usize,
    /// Snapshot set adopted from a shared [`EndgameStore`] — another
    /// session's published endgame, applied alongside this cache's own
    /// snapshots under the same containment check.
    adopted: Option<Arc<SnapshotSet>>,
    /// Scratch for the containment check (snapshot root → current root).
    map: Vec<u32>,
}

impl EndgameCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all stored snapshots (e.g. when the point set changes).
    pub fn clear(&mut self) {
        self.active_len = 0;
        self.staging_len = 0;
        self.adopted = None;
    }

    /// Whether previous-run snapshots (own or adopted) are available.
    pub fn is_warm(&self) -> bool {
        self.active_len > 0 || self.adopted.is_some()
    }

    /// Warms a cold cache from the shared store: adopts the published
    /// snapshot set (an `Arc` clone) when this cache has produced nothing
    /// of its own yet. Returns whether an adoption happened. A cache that
    /// already ran keeps its own snapshots — they were proved on the exact
    /// request stream this session serves.
    pub fn adopt_from(&mut self, store: &EndgameStore) -> bool {
        if self.active_len > 0 || self.adopted.is_some() {
            return false;
        }
        match store.load() {
            Some(set) => {
                self.adopted = Some(set);
                true
            }
            None => false,
        }
    }

    /// Offers this cache's last-run snapshots to the shared store, which
    /// publishes them only when they beat the held set (empty store, or a
    /// strictly lower metric rank — those bounds transfer to strictly more
    /// future runs). No-op for a cache that has not completed a run since
    /// the last publish point.
    pub fn publish_to(&self, store: &EndgameStore) {
        if self.active_len > 0 {
            store.offer(
                self.active[..self.active_len]
                    .iter()
                    .map(|s| s.min_pts)
                    .max()
                    .unwrap_or(usize::MAX),
                &self.active[..self.active_len],
            );
        }
    }

    /// Captures the entering state of a round: `lower` entries are valid
    /// bounds for partition `comp` under metric rank `min_pts`. Snapshot
    /// storage is recycled across runs.
    fn capture(&mut self, min_pts: usize, comp: &[u32], lower: &[f32]) {
        if self.staging.len() == self.staging_len {
            self.staging.push(EndgameSnapshot::default());
        }
        let snap = &mut self.staging[self.staging_len];
        self.staging_len += 1;
        snap.comp.clear();
        snap.comp.extend_from_slice(comp);
        snap.lower.clear();
        snap.lower.extend_from_slice(lower);
        snap.min_pts = min_pts;
    }

    /// Makes this run's captured snapshots the set the next run applies.
    fn promote(&mut self) {
        if self.staging_len > 0 {
            std::mem::swap(&mut self.active, &mut self.staging);
            self.active_len = self.staging_len;
            self.staging_len = 0;
        }
    }

    /// Merges the previous run's snapshot bounds into `lower` for every
    /// point whose transfer provably applies: same point set, `min_pts` at
    /// least the snapshot's, and the point's snapshot component contained
    /// in its current component. Returns whether any snapshot was
    /// considered.
    fn apply(&mut self, min_pts: usize, comp: &[u32], lower: &mut [f32]) -> bool {
        let mut any = false;
        for snap in &self.active[..self.active_len] {
            any |= apply_snapshot(&mut self.map, snap, min_pts, comp, lower);
        }
        // Adopted cross-session snapshots transfer under the identical
        // proof: same point set (the store lives on the frozen index), rank
        // monotonicity and component containment checked per snapshot.
        if let Some(set) = &self.adopted {
            for snap in &set.snaps {
                any |= apply_snapshot(&mut self.map, snap, min_pts, comp, lower);
            }
        }
        any
    }
}

/// Transfers one snapshot's bounds into `lower` when it provably applies:
/// metric rank no higher than the run's, same point count, and — per
/// snapshot component — all members still sharing one current component.
fn apply_snapshot(
    map: &mut Vec<u32>,
    snap: &EndgameSnapshot,
    min_pts: usize,
    comp: &[u32],
    lower: &mut [f32],
) -> bool {
    const UNSEEN: u32 = u32::MAX;
    const CONFLICT: u32 = u32::MAX - 1;
    let n = comp.len();
    if snap.min_pts > min_pts || snap.comp.len() != n {
        return false;
    }
    // Pass 1: map every snapshot component to the single current component
    // holding it, or CONFLICT if its members split across several (those
    // points keep their own bounds).
    map.resize(n, UNSEEN);
    map.fill(UNSEEN);
    for (&snap_root, &cur) in snap.comp.iter().zip(comp) {
        let slot = &mut map[snap_root as usize];
        match *slot {
            UNSEEN => *slot = cur,
            CONFLICT => {}
            held if held != cur => *slot = CONFLICT,
            _ => {}
        }
    }
    // Pass 2: transfer bounds for the contained components.
    for ((dst, &src), &snap_root) in lower.iter_mut().zip(&snap.lower).zip(&snap.comp) {
        if map[snap_root as usize] != CONFLICT && src > *dst {
            *dst = src;
        }
    }
    true
}

/// Optional configuration of a [`boruvka_mst`] run, bundled so the
/// entry point reads as *what extras are engaged* rather than a positional
/// argument soup. [`Default`] is the bare run: no rows, no pruning bounds,
/// no cross-run cache, no counters.
///
/// Every extra is strictly conservative — engaging any subset changes the
/// work performed, never the returned MST.
#[derive(Debug, Default)]
pub struct BoruvkaExtras<'a> {
    /// Sorted k-NN rows driving the first-round row screen and the
    /// boundary filter (see [`KnnRows`]).
    pub rows: Option<KnnRows<'a>>,
    /// Per-tree-node minimum squared core distances for mutual-reachability
    /// subtree pruning ([`KdTree::min_core2_into`]); empty = no bounds.
    /// Per-request data: the tree itself stays immutable and shareable.
    pub node_core2: &'a [f32],
    /// Cross-run endgame cache plus the metric's `minPts` rank (1 for
    /// plain Euclidean); see [`EndgameCache`].
    pub cache: Option<(&'a mut EndgameCache, usize)>,
    /// Effectiveness counters to accumulate into (witness hits and tree
    /// re-searches); `None` = don't count.
    pub stats: Option<&'a BoruvkaStats>,
}

/// Scans the sorted k-NN row of the point at tree position `q` for its two
/// witnesses: `best`, the exact cheapest foreign member under canonical
/// tie-breaking (smaller metric distance, then smaller point index), and
/// `second`, the cheapest member in a component *different from `best`'s*
/// — the 2-hop witness that usually survives the merge that consumes
/// `best`.
///
/// Everything is numbered by tree position: `q`, the row (see
/// [`KnnRows`]), the labels in `comp` and the points `metric` is called
/// with ([`TreeMetric`]);
/// `perm` ([`KdTree::perm`]) maps a position to the point index that ties
/// compare. Either slot is `(∞, u32::MAX)` when no qualifying member
/// exists, and a found slot holds a tree position. Each examined foreign
/// member adds one distance evaluation to `work`. The scan early-exits
/// once both are pinned: a later member's Euclidean distance already
/// exceeds both held distances, so (the metric dominating its Euclidean
/// part) it can neither win nor tie either slot.
///
/// Invariants (property-tested in `tests/mst_properties.rs`):
/// * `best` equals the brute-force minimum over the row's foreign members;
/// * a found `second` is foreign, in a different component than `best`,
///   at an exact metric distance `≥ best`'s — so it never proposes an edge
///   shorter than the true nearest-foreign distance;
/// * `second` is found whenever the row holds a foreign member outside
///   `best`'s component.
pub fn row_witness_scan<M: TreeMetric>(
    rows: &KnnRows<'_>,
    metric: &M,
    q: u32,
    root: usize,
    comp: &TreeOrdered<u32>,
    perm: &[u32],
    work: &mut SearchWork,
) -> ((f32, u32), (f32, u32)) {
    let base = q as usize * rows.k;
    let mut best = (f32::INFINITY, u32::MAX);
    let mut best_comp = usize::MAX;
    let mut second = (f32::INFINITY, u32::MAX);
    // Ties compare point indices, read only when a tie occurs.
    let id = |x: u32| if x == u32::MAX { x } else { perm[x as usize] };
    for j in 0..rows.k {
        let p = rows.idx[base + j];
        if p == u32::MAX {
            break;
        }
        let e2 = rows.d2[base + j];
        if e2 > best.0 && second.1 != u32::MAX {
            // Ascending rows: every later member's metric distance is ≥ its
            // Euclidean part, which already exceeds both held witnesses.
            break;
        }
        let pc = comp[p as usize] as usize;
        if pc == root {
            continue;
        }
        work.dist_evals += 1;
        let d2 = metric.refine_euclid2_at(e2, q, p);
        if d2 < best.0 || (d2 == best.0 && id(p) < id(best.1)) {
            // The displaced best seeds the second slot when it lives in a
            // different component than the new winner; when it shares the
            // new winner's component it was never a valid second, and any
            // member dropped earlier for sharing the *old* best's
            // component shares the new winner's too (the old best moves
            // down instead) — so no valid candidate is ever lost.
            if best.1 != u32::MAX && best_comp != pc {
                second = best;
            }
            best = (d2, p);
            best_comp = pc;
        } else if pc != best_comp && (d2 < second.0 || (d2 == second.0 && id(p) < id(second.1))) {
            second = (d2, p);
        }
    }
    (best, second)
}

/// Computes the MST of `points` under `metric` using parallel Borůvka.
///
/// The `tree` must index the same point set. [`BoruvkaExtras`] engages
/// the optional accelerations (pass [`BoruvkaExtras::default`] for the
/// bare run), and every round-persistent buffer is drawn from (and
/// returned to) the caller-owned `scratch` pool, so a long-lived caller
/// pays the buffer allocations once per *dataset*, not once per MST.
/// Returns the `n-1` edges, between point indices, with weights = `sqrt`
/// of the metric's squared distance.
///
/// **Tree order.** Every per-point array of a run is indexed by tree
/// position ([`KdTree::perm`]), and so is the metric: a [`TreeMetric`] is
/// called with positions, so mutual reachability takes its core distances
/// in tree order
/// (`TreeMutualReachability { core2: &tree.in_tree_order(&core2) }`), as
/// do `node_core2` ([`KdTree::min_core2_into`]) and the `rows`
/// ([`crate::knn::knn_rows_into`]). Point indices stay where the result
/// depends on them: every tie between equal distances goes to the smaller
/// index, the components merge through a union-by-min DSU over indices,
/// and each round collects its edges in ascending order of the
/// components' smallest index.
///
/// The `rows` screen (see [`KnnRows`]) resolves most first-round queries
/// without touching the tree: a point whose cheapest foreign row member
/// sits strictly below its row's k-th distance has provably found its exact
/// nearest foreign neighbour, and a point with no such member gains the
/// k-th distance as a boundary-filter lower bound. `node_core2` enables
/// mutual-reachability subtree pruning. The `cache` pair
/// `(endgame cache, minPts rank)` carries late-round bounds across runs
/// (see [`EndgameCache`]); pass the metric's `minPts` (1 for plain
/// Euclidean). Every optimization is strictly conservative, so the result
/// is **bit-identical** to the bare run: winners are exact and the
/// tie-breaks are unchanged.
///
/// # Panics
///
/// Panics if a round adds no edge, which cannot happen for finite metric
/// distances ([`PointSet::new`] rejects non-finite coordinates) — the check
/// is unconditional so corrupt distances fail loudly instead of spinning.
/// Also panics if a provided `rows` shape does not match `points.len()`.
pub fn boruvka_mst<M: TreeMetric>(
    ctx: &ExecCtx,
    points: &PointSet,
    tree: &KdTree,
    metric: &M,
    extras: BoruvkaExtras<'_>,
    scratch: &ScratchPool,
) -> Vec<Edge> {
    let BoruvkaExtras {
        rows,
        node_core2,
        mut cache,
        stats,
    } = extras;
    let n = points.len();
    if let Some(rows) = &rows {
        assert_eq!(rows.d2.len(), n * rows.k, "one sorted k-NN row per point");
        assert_eq!(rows.idx.len(), n * rows.k, "one sorted k-NN row per point");
    }
    if n <= 1 {
        return Vec::new();
    }
    let (perm, pos) = (tree.perm(), tree.positions());
    let dim = points.dim() as u64;
    let dsu = scratch.take_dsu(n);
    // Component label per tree position: the DSU root, i.e. the smallest
    // point index of the component.
    let mut comp = scratch.take_u32();
    comp.extend_from_slice(perm);
    let mut comp = TreeOrdered::from_vec(comp);
    let mut n_components = n;
    let mut edges: Vec<Edge> = Vec::with_capacity(n - 1);
    // Round-persistent buffers (drawn from the pool, reused every round).
    let mut purity = scratch.take_u32();
    // The component roots in ascending order, filtered after every round.
    let mut roots = scratch.take_u32();
    roots.extend(0..n as u32);
    // Per-component best outgoing candidate, indexed by component root;
    // only the current roots' slots are reset and read.
    let mut candidate = scratch.take_u64();
    candidate.resize(n, u64::MAX);
    // Per-point best known foreign candidate: an exact metric distance to
    // the witness (a tree position; `u32::MAX` = none yet). Carried
    // across rounds as the warm-start seed.
    let mut best_of = scratch.take_pairs();
    best_of.resize(n, (f32::INFINITY, u32::MAX));
    // 2-hop witness per point: the best known foreign candidate in a
    // component *different* from the primary witness's, refreshed by every
    // row screen. When a merge kills the primary this one usually survives
    // to be promoted in its place (exact distance, so a valid warm seed).
    let mut alt_of = scratch.take_pairs();
    alt_of.resize(n, (f32::INFINITY, u32::MAX));
    // Witness provenance, 1 = canonical: `best_of[i]` was written by an
    // exact canonically-tie-broken search (tree traversal or certifying
    // row screen) *together with* `lower[i] = best_of[i].0`. Only such a
    // witness may answer a query outright — promoted 2-hop witnesses are
    // exact distances but not necessarily the smallest-index winner under
    // duplicate weights, so they only ever serve as upper-bound seeds.
    let mut canon = scratch.take_u32();
    canon.resize(n, 0);
    // Per-point monotone **lower** bound on the nearest-foreign squared
    // distance (a candidate is an upper bound, so the two are distinct
    // arrays). Foreign sets only shrink as components merge, so any
    // round's exact result stays a valid lower bound in every later round;
    // this drives the boundary-point filter.
    let mut lower = scratch.take_f32();
    lower.resize(n, 0.0);

    while n_components > 1 {
        tree.component_purity_into(ctx, &comp, &mut purity);

        // Cross-run endgame transfer: once few components remain, try to
        // import the previous run's late-round bounds (exact when the
        // metric rank grew and the partition coarsened — see
        // [`EndgameCache::apply`]). This is what keeps a sweep from paying
        // the endgame search volume once per member.
        if n_components <= ENDGAME_SNAPSHOT_MAX {
            if let Some((cache, rank)) = cache.as_mut() {
                cache.apply(*rank, &comp, &mut lower);
            }
        }

        // Bound pre-pass: re-propose every still-valid witness from earlier
        // rounds (exact distances to still-foreign points), so component
        // bounds are tight *before* any traversal starts. Without this the
        // first points visited each round see an infinite bound and search
        // even when deep in a component's interior; with it the filter
        // below engages immediately. This pass also runs the 2-hop witness
        // succession: when a merge consumed the primary witness but the
        // secondary is still foreign, the secondary is promoted to primary
        // (marked non-canonical — it is an exact distance but not a proven
        // canonical winner) and proposed in its place, so the component
        // bound stays tight without any re-search. O(n) scan, no tree work.
        {
            let cand_view = as_atomic_u64(&mut candidate);
            let best_view = UnsafeSlice::new(best_of.as_mut_slice());
            let alt_view = UnsafeSlice::new(alt_of.as_mut_slice());
            let canon_view = UnsafeSlice::new(canon.as_mut_slice());
            let comp_ref = &comp;
            ctx.for_each_chunk(n, DEFAULT_GRAIN, |range| {
                let mut run_root = usize::MAX;
                let mut run_best = u64::MAX;
                for i in range {
                    let root = comp_ref[i] as usize;
                    if root != run_root {
                        if run_best != u64::MAX {
                            // ORDERING: commutative min-flush: any flush order yields the same per-root winner; the round join publishes it
                            cand_view[run_root].fetch_min(run_best, Ordering::Relaxed);
                        }
                        run_root = root;
                        run_best = u64::MAX;
                    }
                    // SAFETY: chunks are disjoint ranges of positions, so
                    // slots i of the per-point arrays are owned by exactly
                    // this task.
                    let (d2, p) = unsafe { best_view.read(i) };
                    if p != u32::MAX && comp_ref[p as usize] as usize != root {
                        run_best = run_best.min(pack_candidate(d2, perm[i]));
                        continue;
                    }
                    // SAFETY: as above — slot i is owned by this task.
                    let alt = unsafe { alt_view.read(i) };
                    if alt.1 == u32::MAX {
                        continue;
                    }
                    if comp_ref[alt.1 as usize] as usize != root {
                        // Primary died, secondary survived: promote it.
                        // SAFETY: as above.
                        unsafe {
                            best_view.write(i, alt);
                            canon_view.write(i, 0);
                            alt_view.write(i, (f32::INFINITY, u32::MAX));
                        }
                        run_best = run_best.min(pack_candidate(alt.0, perm[i]));
                    } else {
                        // Both hops died in one round; clear the slot so
                        // later rounds skip the component lookup.
                        // SAFETY: as above.
                        unsafe { alt_view.write(i, (f32::INFINITY, u32::MAX)) };
                    }
                }
                if run_best != u64::MAX {
                    // ORDERING: final flush of the chunk's tail run — same commutative-min argument as the per-run flush
                    cand_view[run_root].fetch_min(run_best, Ordering::Relaxed);
                }
            });
        }

        // Every point proposes its nearest foreign neighbour to its
        // component (paper's "find minimum outgoing edge" step). Lanes walk
        // the points in kd-tree order: spatially coherent, so consecutive
        // queries usually share a component and the per-lane run state
        // below replaces most atomic traffic. The trace records the pass's
        // distance evaluations and node visits.
        {
            let cand_view = as_atomic_u64(&mut candidate);
            let best_view = UnsafeSlice::new(best_of.as_mut_slice());
            let alt_view = UnsafeSlice::new(alt_of.as_mut_slice());
            let canon_view = UnsafeSlice::new(canon.as_mut_slice());
            let lower_view = UnsafeSlice::new(lower.as_mut_slice());
            let comp_ref = &comp;
            let purity_ref = &purity;
            let rows_opt = rows;
            ctx.for_each_chunk_counted(n, 256, KernelKind::TreeTraverse, |range| {
                // Run state for the current same-component stretch: the best
                // proposal found by this lane (flushed with one atomic min
                // when the run ends) and the tightest known component bound.
                let mut run_root = usize::MAX;
                let mut run_best = u64::MAX;
                let mut run_bound = f32::INFINITY;
                // Chunk-local counters, flushed once at the end so the
                // shared atomics see O(chunks) traffic.
                let mut hits = 0u64;
                let mut searches = 0u64;
                let (mut tree_work, mut row_work) = (SearchWork::default(), SearchWork::default());
                for i in range {
                    let q = i as u32;
                    let root = comp_ref[i] as usize;
                    if root != run_root {
                        if run_best != u64::MAX {
                            // ORDERING: commutative min-flush: any flush order yields the same per-root winner; the round join publishes it
                            cand_view[run_root].fetch_min(run_best, Ordering::Relaxed);
                        }
                        run_root = root;
                        run_best = u64::MAX;
                        // ORDERING: a stale bound only weakens witness pruning; the true min is re-read after the round joins
                        let packed = cand_view[root].load(Ordering::Relaxed);
                        run_bound = if packed == u64::MAX {
                            f32::INFINITY
                        } else {
                            ordered_u32_to_f32((packed >> 32) as u32)
                        };
                    }
                    // SAFETY: chunks are disjoint ranges of positions, so
                    // slots i of the per-point arrays are read and written
                    // by exactly this task.
                    // Boundary-point filter: `lower[i]` lower-bounds the
                    // point's nearest-foreign distance and `run_bound` is an
                    // edge some component member already achieved, so a
                    // point strictly above the bound can neither win nor
                    // tie the component minimum — skip its traversal
                    // entirely. (Ties must still propose: smaller index
                    // wins.)
                    let low = unsafe { lower_view.read(i) };
                    if low > run_bound {
                        continue;
                    }
                    // Merge-surviving witness: if the primary witness came
                    // from an exact canonical search (`canon`), is still
                    // foreign, and `lower` has caught up to its distance,
                    // then it *is* still the exact canonical answer — the
                    // foreign set only shrinks, so nothing closer appeared
                    // and no equal-distance smaller-index point turned
                    // foreign. Propose it and skip the query entirely.
                    // SAFETY: as above — slots i are owned by this task.
                    let prev = unsafe { best_view.read(i) };
                    let prev_alive =
                        prev.1 != u32::MAX && comp_ref[prev.1 as usize] as usize != root;
                    // SAFETY: same slot-i ownership for the canon flag read.
                    if prev_alive && low >= prev.0 && unsafe { canon_view.read(i) } != 0 {
                        run_best = run_best.min(pack_candidate(prev.0, perm[i]));
                        run_bound = run_bound.min(prev.0);
                        hits += 1;
                        continue;
                    }
                    // Row screen: when sorted k-NN rows are attached, try to
                    // resolve the query from the row alone. A foreign member
                    // strictly below the row's k-th distance is the *exact*
                    // nearest foreign point (non-members all sit at or past
                    // the k-th distance, and the metric dominates the
                    // Euclidean part), so the traversal is skipped entirely;
                    // otherwise the k-th distance joins the boundary filter
                    // as a monotone lower bound. The same scan refreshes the
                    // 2-hop witness with the best member of a second foreign
                    // component.
                    let mut row_seed: Option<(f32, u32)> = None;
                    if let Some(rows) = &rows_opt {
                        let base = i * rows.k;
                        let full = rows.idx[base + rows.k - 1] != u32::MAX;
                        let (best, second) =
                            row_witness_scan(rows, metric, q, root, comp_ref, perm, &mut row_work);
                        if second.1 != u32::MAX {
                            // SAFETY: as above — slot i owned by this task.
                            unsafe { alt_view.write(i, second) };
                        }
                        let kth = rows.d2[base + rows.k - 1];
                        if best.1 != u32::MAX && (!full || best.0 < kth) {
                            // Exact winner from the row — same handling as a
                            // Found traversal result, canonical witness.
                            // SAFETY: as above.
                            unsafe {
                                best_view.write(i, best);
                                lower_view.write(i, best.0);
                                canon_view.write(i, 1);
                            }
                            run_best = run_best.min(pack_candidate(best.0, perm[i]));
                            run_bound = run_bound.min(best.0);
                            continue;
                        }
                        if full {
                            // No foreign member strictly below the k-th
                            // distance ⇒ the nearest foreign point is at
                            // least that far away, this round and every
                            // later one.
                            if kth > low {
                                // SAFETY: as above — slot i owned by this task.
                                unsafe { lower_view.write(i, kth) };
                            }
                            if low.max(kth) > run_bound {
                                continue;
                            }
                            if best.1 != u32::MAX {
                                row_seed = Some(best);
                            }
                        } else {
                            // The row covers every other point and none is
                            // foreign: no foreign point exists for q at all.
                            // SAFETY: as above.
                            unsafe { lower_view.write(i, f32::INFINITY) };
                            continue;
                        }
                    }
                    // Warm start: the previous round's winner is a valid
                    // candidate iff its component is still foreign; when it
                    // died this round, the freshly-scanned 2-hop witness
                    // stands in (the pre-pass already promoted last round's
                    // survivor into `prev` itself).
                    let mut seed = prev_alive.then_some(prev);
                    if seed.is_none() {
                        // SAFETY: as above — slot i owned by this task.
                        let alt = unsafe { alt_view.read(i) };
                        if alt.1 != u32::MAX && comp_ref[alt.1 as usize] as usize != root {
                            seed = Some(alt);
                        }
                    }
                    if let Some(rs) = row_seed {
                        // The row's best foreign member is an exact candidate
                        // too; keep whichever prunes harder (ties by index).
                        seed = match seed {
                            Some(s)
                                if s.0 < rs.0
                                    || (s.0 == rs.0
                                        && perm[s.1 as usize] < perm[rs.1 as usize]) =>
                            {
                                Some(s)
                            }
                            _ => Some(rs),
                        };
                    }
                    // Component bound: only the minimum outgoing edge per
                    // component survives, so the component's current best
                    // candidate is a valid bound-only seed — members that
                    // cannot beat it prune their whole search and stay
                    // silent. The surviving (distance, proposer) minimum is
                    // unchanged: ties at the bound are still reported, and
                    // anything above it could never win the atomic min.
                    if run_bound.is_finite() && seed.is_none_or(|(d2, _)| run_bound < d2) {
                        seed = Some((run_bound, u32::MAX));
                    }
                    searches += 1;
                    let found = tree.nearest_foreign(
                        points,
                        metric,
                        q,
                        comp_ref,
                        purity_ref,
                        node_core2,
                        seed,
                        &mut tree_work,
                    );
                    match found {
                        ForeignSearch::Found(d2, p) => {
                            // The search returned the exact nearest-foreign
                            // distance, which is both the next candidate and
                            // the tightest possible lower bound — and a
                            // canonical witness for later rounds.
                            // SAFETY: as above, slots i are owned here.
                            unsafe {
                                best_view.write(i, (d2, p));
                                lower_view.write(i, d2);
                                canon_view.write(i, 1);
                            }
                            run_best = run_best.min(pack_candidate(d2, perm[i]));
                            run_bound = run_bound.min(d2);
                        }
                        ForeignSearch::Empty(margin) => {
                            // Only a bound-only-seeded search can come up
                            // empty: everything foreign provably sits at
                            // least `margin` (> the bound) away, so record
                            // it as the point's lower bound for later rounds
                            // and keep it monotone (the previous witness, if
                            // any, stays valid).
                            // SAFETY: as above.
                            unsafe {
                                let old = lower_view.read(i);
                                lower_view.write(i, old.max(margin));
                            }
                        }
                    }
                }
                if run_best != u64::MAX {
                    // ORDERING: tail flush of the last run — commutative min; readers join the chunk barrier first
                    cand_view[run_root].fetch_min(run_best, Ordering::Relaxed);
                }
                let work = SearchWork {
                    dist_evals: tree_work.dist_evals + row_work.dist_evals,
                    node_visits: tree_work.node_visits,
                };
                if let Some(stats) = stats {
                    stats.add_chunk(hits, searches, work);
                }
                // Bytes: a block evaluation reads 4·dim bytes, a row member
                // its stored distance and position (8), a node its box.
                let bytes = tree_work.dist_evals * 4 * dim
                    + row_work.dist_evals * 8
                    + work.node_visits * 8 * dim;
                (work.dist_evals, bytes)
            });
        }

        // Snapshot the round we just certified (entering partition +
        // refreshed bounds) while components are few; the last qualifying
        // round — the coarsest partition still above one component — wins.
        if n_components <= ENDGAME_SNAPSHOT_MAX {
            if let Some((cache, rank)) = cache.as_mut() {
                cache.capture(*rank, &comp, &lower);
            }
        }

        // Collect winning edges in ascending root order; deduplicate
        // reciprocal pairs with a sequential pass over components
        // (O(#components)).
        let mut added = 0usize;
        ctx.record(
            KernelKind::DsuUnion,
            roots.len() as u64,
            (roots.len() as u64) * 24,
        );
        for &root in &roots {
            let packed = candidate[root as usize];
            if packed == u64::MAX {
                continue;
            }
            let q = packed as u32;
            let (d2, p) = best_of[pos[q as usize] as usize];
            debug_assert_ne!(p, u32::MAX);
            let p = perm[p as usize];
            // Reciprocal edges (a↔b) must be added once: accept only if
            // the DSU still separates the endpoints.
            let ra = dsu.find(q);
            let rb = dsu.find(p);
            if ra != rb {
                dsu.union(ra, rb);
                edges.push(Edge::new(q, p, d2.sqrt()));
                added += 1;
            }
        }
        // Unconditional liveness check: every round must merge something.
        // With finite coordinates this always holds; a violation means the
        // candidate packing saw NaN/∞ distances, and spinning forever in
        // release builds would be far worse than this panic.
        assert!(
            added > 0,
            "boruvka_mst made no progress with {n_components} components left; \
             the input metric produced non-finite or inconsistent distances"
        );
        n_components -= added;

        // The surviving roots (union-by-min keeps each merged component's
        // smallest root), with their candidates reset for the next round.
        roots.retain(|&r| dsu.find(r) == r);
        debug_assert_eq!(roots.len(), n_components);
        for &r in &roots {
            candidate[r as usize] = u64::MAX;
        }

        // Refresh component labels: a point's new root is its old root's.
        // Consecutive positions mostly share a label, so each run of equal
        // labels asks the DSU once.
        {
            let comp_view = UnsafeSlice::new(comp.as_mut_slice());
            let dsu_ref = &dsu;
            ctx.for_each_chunk_traced(
                n,
                DEFAULT_GRAIN,
                KernelKind::DsuFind,
                (n as u64) * 8,
                |range| {
                    let (mut old, mut new) = (u32::MAX, u32::MAX);
                    for i in range {
                        // SAFETY: chunks are disjoint ranges of positions.
                        let label = unsafe { comp_view.read(i) };
                        if label != old {
                            (old, new) = (label, dsu_ref.find(label));
                        }
                        // SAFETY: as above.
                        unsafe { comp_view.write(i, new) };
                    }
                },
            );
        }
    }
    if let Some((cache, _)) = cache.as_mut() {
        cache.promote();
    }
    scratch.put_dsu(dsu);
    scratch.put_u32(comp.into_vec());
    scratch.put_u32(purity);
    scratch.put_u32(roots);
    scratch.put_u64(candidate);
    scratch.put_pairs(best_of);
    scratch.put_pairs(alt_of);
    scratch.put_u32(canon);
    scratch.put_f32(lower);
    debug_assert_eq!(edges.len(), n - 1);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::core_distances2;
    use crate::kruskal::total_weight;
    use crate::metric::{Euclidean, MutualReachability, TreeMutualReachability};
    use crate::prim::prim_mst;
    use rand::prelude::*;

    fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        PointSet::new(
            (0..n * dim).map(|_| rng.gen_range(-5.0..5.0f32)).collect(),
            dim,
        )
    }

    /// The bare run: no extras, a run-local pool.
    fn bare(ctx: &ExecCtx, points: &PointSet, tree: &KdTree) -> Vec<Edge> {
        let pool = ScratchPool::new();
        boruvka_mst(
            ctx,
            points,
            tree,
            &Euclidean,
            BoruvkaExtras::default(),
            &pool,
        )
    }

    #[test]
    fn matches_prim_total_weight_euclidean() {
        let ctx = ExecCtx::serial();
        for (n, dim, seed) in [(50usize, 2usize, 1u64), (200, 3, 2), (300, 5, 3)] {
            let points = random_points(n, dim, seed);
            let tree = KdTree::build(&ctx, &points);
            let got = bare(&ctx, &points, &tree);
            assert_eq!(got.len(), n - 1);
            let expect = prim_mst(&points, &Euclidean);
            let wa = total_weight(&got);
            let wb = total_weight(&expect);
            assert!(
                (wa - wb).abs() < 1e-3 * wb.max(1.0),
                "n={n} dim={dim}: {wa} vs {wb}"
            );
        }
    }

    #[test]
    fn matches_prim_with_mutual_reachability() {
        let ctx = ExecCtx::serial();
        let points = random_points(150, 2, 9);
        // Core distances: squared distance to the 4th other point.
        let tree = KdTree::build(&ctx, &points);
        let core2 = core_distances2(&ctx, &points, &tree, 5);
        // Borůvka reads the metric at tree positions.
        let tree_core2 = tree.in_tree_order(&core2);
        let metric = TreeMutualReachability { core2: &tree_core2 };
        let mut node_core2 = Vec::new();
        tree.min_core2_into(&tree_core2, &mut node_core2);
        let scratch = ScratchPool::new();
        let got = boruvka_mst(
            &ctx,
            &points,
            &tree,
            &metric,
            BoruvkaExtras {
                node_core2: &node_core2,
                ..Default::default()
            },
            &scratch,
        );
        let expect = prim_mst(&points, &MutualReachability { core2: &core2 });
        let wa = total_weight(&got);
        let wb = total_weight(&expect);
        assert!((wa - wb).abs() < 1e-3 * wb.max(1.0), "{wa} vs {wb}");
    }

    #[test]
    fn parallel_equals_serial() {
        let points = random_points(500, 2, 17);
        let tree_s = KdTree::build(&ExecCtx::serial(), &points);
        let tree_p = KdTree::build(&ExecCtx::threads(), &points);
        let a = bare(&ExecCtx::serial(), &points, &tree_s);
        let b = bare(&ExecCtx::threads(), &points, &tree_p);
        assert!((total_weight(&a) - total_weight(&b)).abs() < 1e-3);
    }

    #[test]
    fn tiny_inputs() {
        let ctx = ExecCtx::serial();
        let one = PointSet::new(vec![0.0, 0.0], 2);
        let tree = KdTree::build(&ctx, &one);
        assert!(bare(&ctx, &one, &tree).is_empty());
        let two = PointSet::new(vec![0.0, 0.0, 1.0, 0.0], 2);
        let tree = KdTree::build(&ctx, &two);
        let edges = bare(&ctx, &two, &tree);
        assert_eq!(edges.len(), 1);
        assert!((edges[0].w - 1.0).abs() < 1e-6);
    }

    #[test]
    fn serial_work_counts_repeat_exactly() {
        // With rows attached both the row screen and the tree searches do
        // counted work; a serial run must repeat its counts to the unit,
        // and its trace must carry the same distance evaluations.
        let points = random_points(3_000, 3, 23);
        let tree = KdTree::build(&ExecCtx::serial(), &points);
        let k = 9;
        let (mut d2, mut idx) = (Vec::new(), Vec::new());
        crate::knn::knn_rows_into(&ExecCtx::serial(), &points, &tree, k, &mut d2, &mut idx);
        let rows = KnnRows {
            k,
            d2: &d2,
            idx: &idx,
        };
        let core2 = tree.in_tree_order(&core_distances2(&ExecCtx::serial(), &points, &tree, 4));
        let run = |mreach: bool| {
            let (ctx, tracer) = ExecCtx::serial().with_tracing();
            let stats = BoruvkaStats::new();
            let extras = BoruvkaExtras {
                rows: Some(rows),
                stats: Some(&stats),
                ..Default::default()
            };
            let pool = ScratchPool::new();
            let edges = if mreach {
                let metric = TreeMutualReachability { core2: &core2 };
                boruvka_mst(&ctx, &points, &tree, &metric, extras, &pool)
            } else {
                boruvka_mst(&ctx, &points, &tree, &Euclidean, extras, &pool)
            };
            let traced: u64 = tracer
                .snapshot()
                .events
                .iter()
                .filter(|e| e.kind == KernelKind::TreeTraverse)
                .map(|e| e.n)
                .sum();
            let edges: Vec<(u32, u32, u32)> =
                edges.iter().map(|e| (e.u, e.v, e.w.to_bits())).collect();
            let counts = [
                stats.dist_evals(),
                stats.node_visits(),
                stats.witness_hits(),
                stats.researches(),
            ];
            (edges, counts, traced)
        };
        for mreach in [false, true] {
            let first = run(mreach);
            assert_eq!(first, run(mreach), "mreach={mreach}");
            let (_, [evals, visits, _, searches], traced) = first;
            assert!(evals > 0 && visits > 0 && searches > 0, "mreach={mreach}");
            assert_eq!(traced, evals, "mreach={mreach}");
        }
    }

    #[test]
    fn duplicate_points_still_form_tree() {
        let ctx = ExecCtx::serial();
        // 10 identical points: zero-weight tree.
        let points = PointSet::new(vec![1.0; 20], 2);
        let tree = KdTree::build(&ctx, &points);
        let edges = bare(&ctx, &points, &tree);
        assert_eq!(edges.len(), 9);
        assert!(edges.iter().all(|e| e.w == 0.0));
    }
}
