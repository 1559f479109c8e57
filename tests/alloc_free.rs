//! Verifies the EMST hot path's allocation contract with a counting global
//! allocator: steady-state nearest-foreign searches must perform **zero**
//! heap allocations per query, and the batched core-distance
//! kernel must allocate only its output plus per-chunk scratch; encoding a
//! daemon payload into a buffer with room for it allocates nothing.
//!
//! This file holds a single test function: the allocation counter is
//! process-global, so concurrently running tests would pollute each
//! other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pandora::exec::{ExecCtx, ScratchPool};
use pandora::hdbscan::daemon::proto;
use pandora::hdbscan::{
    cluster_stabilities, condense, extract_labels, select_clusters, ClusterRequest, DatasetIndex,
    HdbscanParams,
};
use pandora::mst::{
    boruvka_mst, core_distances2, Euclidean, ForeignSearch, KdTree, PointSet, SearchWork,
    TreeMutualReachability,
};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to the System allocator plus an atomic counter
// bump — layout handling, uniqueness and liveness of returned pointers are
// exactly System's, which upholds the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY (each method below): the caller's GlobalAlloc obligations
    // (valid layout; ptr previously returned by this allocator with the
    // same layout) are forwarded verbatim to System, which they were
    // ultimately issued by.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller guarantees `layout` is valid; forwarded as-is.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: see impl-level note — obligations forwarded to System.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching System allocation.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: see impl-level note — obligations forwarded to System.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a matching System allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Minimum allocation count over `reps` runs of `f`.
///
/// The counter is process-wide, so a measurement window can be polluted by
/// unrelated runtime/harness allocations on other threads (observed: ~2
/// stray allocations in roughly half of CI runs). A *real* per-query
/// allocation shows up in every window at n-proportional volume, so taking
/// the minimum keeps the contracts exact without the flake.
fn min_allocs_over(reps: usize, mut f: impl FnMut()) -> usize {
    (0..reps.max(1))
        .map(|_| allocs_during(&mut f))
        .min()
        .expect("at least one rep")
}

#[test]
fn steady_state_queries_do_not_allocate() {
    // Serial context: the measurement thread is the only allocator user.
    let ctx = ExecCtx::serial();
    let n = 2000usize;
    let mut coords = Vec::with_capacity(n * 3);
    // Deterministic pseudo-random coordinates (LCG), no rand dependency.
    let mut state = 0x2545F491_4F6CDD1Du64;
    for _ in 0..n * 3 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        coords.push(((state >> 40) as f32) / (1 << 24) as f32 * 100.0);
    }
    let points = PointSet::new(coords, 3);
    let tree = KdTree::build(&ctx, &points);

    // --- nearest_foreign: zero allocations per query (incl. the
    //     mutual-reachability metric with subtree core bounds). Queries,
    //     labels and core distances are all numbered by tree position. ---
    let core2 = tree.in_tree_order(&core_distances2(&ctx, &points, &tree, 2));
    let mut node_core2 = Vec::new();
    tree.min_core2_into(&core2, &mut node_core2);
    let labels: Vec<u32> = (0..n as u32).map(|v| v % 7).collect();
    let comp = tree.in_tree_order(&labels);
    let mut purity = Vec::new();
    tree.component_purity_into(&ctx, &comp, &mut purity);
    let metric = TreeMutualReachability { core2: &core2 };
    let mut work = SearchWork::default();
    let foreign_allocs = min_allocs_over(3, || {
        for q in 0..n as u32 {
            let found = tree.nearest_foreign(
                &points,
                &metric,
                q,
                &comp,
                &purity,
                &node_core2,
                None,
                &mut work,
            );
            assert!(matches!(found, ForeignSearch::Found(..)));
            let found =
                tree.nearest_foreign(&points, &Euclidean, q, &comp, &purity, &[], None, &mut work);
            assert!(matches!(found, ForeignSearch::Found(..)));
        }
    });
    assert_eq!(
        foreign_allocs, 0,
        "nearest_foreign allocated in the steady state"
    );

    // --- Batched core distances: output vector + per-chunk scratch only,
    //     nothing proportional to the query count. ---
    let core_allocs = min_allocs_over(3, || {
        let out = core_distances2(&ctx, &points, &tree, 9);
        assert_eq!(out.len(), n);
    });
    assert!(
        core_allocs <= 2 + n / 256 + 1,
        "core_distances2 made {core_allocs} allocations for {n} queries"
    );

    // --- Full Borůvka: the round-persistent buffers are allocated once up
    //     front (via a run-local scratch pool, whose free lists add a few
    //     bookkeeping allocations when the buffers are returned), so an
    //     entire run (every round, every per-lane query) stays within a
    //     small constant allocation budget — nothing proportional to
    //     n × rounds. With ~2000 points and ~10 rounds, a per-query or
    //     per-round-per-point allocation would blow well past the budget.
    let boruvka_allocs = min_allocs_over(3, || {
        let pool = ScratchPool::new();
        let edges = boruvka_mst(&ctx, &points, &tree, &metric, Default::default(), &pool);
        assert_eq!(edges.len(), n - 1);
    });
    assert!(
        boruvka_allocs <= 24,
        "boruvka_mst made {boruvka_allocs} allocations for a full run \
         (steady-state queries must be allocation-free per lane)"
    );

    // --- Warm session: after the first run, every stage workspace
    //     (kd-tree, k-NN rows, Borůvka buffers, contraction hierarchy,
    //     chain keys) is reused, so a complete warm run allocates only its
    //     outputs (result vectors, condensed tree, a few per-level bookkeeping
    //     vectors) plus the copy of its hierarchy the index caches — a
    //     small constant w.r.t. n. Each rep asks for a fresh `min_pts`, so
    //     every measured run is a cache miss that really runs Borůvka and
    //     the dendrogram. At n = 2000 a single leaked per-point or
    //     per-round reallocation pattern adds thousands of allocations, an
    //     order of magnitude past this bound; steady-state reuse is
    //     thereby proven, not assumed.
    let index = DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points.clone(), 8)
        .map(Arc::new)
        .expect("valid dataset");
    let mut session = index.session();
    let request = |min_pts| ClusterRequest::new().min_pts(min_pts);
    // First run: populates every workspace.
    let _ = session.run(&request(8)).expect("valid request");
    let mut fresh_min_pts = [7usize, 6, 5].into_iter();
    let warm_allocs = min_allocs_over(3, || {
        let min_pts = fresh_min_pts.next().expect("one fresh min_pts per rep");
        let result = session.run(&request(min_pts)).expect("valid request");
        assert_eq!(result.labels.len(), n);
    });
    assert_eq!(index.hierarchy_stats().hits, 0, "the warm runs all missed");
    assert!(
        warm_allocs <= 160,
        "a warm session run made {warm_allocs} allocations \
         (stage workspaces are not being reused)"
    );

    // --- Cache hit: a repeat `min_pts` copies the eight arrays of the
    //     cached hierarchy and runs only the extraction, so it allocates
    //     what the extraction functions allocate on the same dendrogram,
    //     plus that copy; resolving the key reads no environment. A hit
    //     that ran Borůvka or the dendrogram would add its core distances,
    //     edges, sorted tree, dendrogram and level counts on top.
    let probe = session.run(&request(5)).expect("valid request");
    let extract_allocs = min_allocs_over(3, || {
        let condensed = condense(&probe.dendrogram, HdbscanParams::default().min_cluster_size);
        let stabilities = cluster_stabilities(&condensed);
        let selected = select_clusters(&condensed, &stabilities, false);
        let (labels, _) = extract_labels(&condensed, &selected);
        assert_eq!(labels.len(), n);
    });
    let hit_allocs = min_allocs_over(3, || {
        let result = session.run(&request(5)).expect("valid request");
        assert_eq!(result.labels.len(), n);
    });
    assert_eq!(index.hierarchy_stats().hits, 4, "the repeats all hit");
    assert!(
        hit_allocs <= extract_allocs + 8,
        "a cache-hit session run made {hit_allocs} allocations, \
         the extraction alone {extract_allocs}"
    );
    // And the books balance: nothing stays leased between runs.
    assert_eq!(session.scratch_outstanding(), 0);

    // --- Extraction on hundreds of condensed clusters: the four functions
    //     allocate their outputs and a fixed set of scratch arrays, plus
    //     the doubling growth of the two per-cluster arrays (about log2 of
    //     the cluster count each, 9 at this size). Anything allocated per
    //     cluster — a child list per split, say — adds hundreds.
    let min_cluster_size = 2;
    let clusters = condense(&probe.dendrogram, min_cluster_size).n_clusters();
    assert!(clusters >= 300, "only {clusters} condensed clusters");
    let many_cluster_allocs = min_allocs_over(3, || {
        let condensed = condense(&probe.dendrogram, min_cluster_size);
        let stabilities = cluster_stabilities(&condensed);
        let selected = select_clusters(&condensed, &stabilities, false);
        let (labels, _) = extract_labels(&condensed, &selected);
        assert_eq!(labels.len(), n);
    });
    assert!(
        many_cluster_allocs <= 48,
        "extracting {clusters} condensed clusters made {many_cluster_allocs} allocations"
    );

    // --- Encoding a `cluster` payload: the daemon writes the labels and
    //     probabilities straight into its reply buffer, so once the buffer
    //     has room the encode allocates nothing (the reference `Json` tree
    //     allocates a value per key and array, and the rendered line).
    let mut payload = String::new();
    proto::write_cluster_result(&mut payload, &probe); // sizes the buffer
    let payload_allocs = min_allocs_over(3, || {
        payload.clear();
        proto::write_cluster_result(&mut payload, &probe);
    });
    assert_eq!(payload_allocs, 0, "writing a cluster payload allocated");

    // --- Warm dendrogram workspace, threaded path: once primed, a full
    //     α-contraction run through `ExecCtx::threads()` allocates only the
    //     returned dendrogram arrays, a few per-level bookkeeping vectors
    //     and the pool's per-region dispatch latches (the α-split marks are
    //     leased from the workspace's pool too) — the same constant
    //     budget as the warm session, nothing proportional to n. The tree
    //     is larger than the dispatch grain so the threaded lanes really
    //     engage (under PANDORA_THREADS=1 the pool runs inline).
    use pandora::core::{dendrogram_from_sorted_with, DendrogramWorkspace, Edge, SortedMst};
    let tctx = ExecCtx::threads();
    let nd = 6000usize;
    let mut wstate = 0x9E3779B97F4A7C15u64;
    let edges: Vec<Edge> = (1..nd)
        .map(|v| {
            wstate = wstate
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let parent = (wstate >> 33) as usize % v;
            Edge::new(parent as u32, v as u32, ((wstate >> 16) & 0xFFFF) as f32)
        })
        .collect();
    let mst = SortedMst::from_edges(&tctx, nd, &edges);
    let mut dendro_ws = DendrogramWorkspace::new();
    let _ = dendrogram_from_sorted_with(&tctx, &mst, &mut dendro_ws); // prime
    let warm_dendro_allocs = min_allocs_over(3, || {
        let (d, _) = dendrogram_from_sorted_with(&tctx, &mst, &mut dendro_ws);
        assert_eq!(d.n_edges(), nd - 1);
    });
    assert!(
        warm_dendro_allocs <= 160,
        "a warm threaded dendrogram run made {warm_dendro_allocs} allocations \
         (the workspace is not being reused through the threaded path)"
    );
    assert_eq!(dendro_ws.scratch().outstanding(), 0);
}
