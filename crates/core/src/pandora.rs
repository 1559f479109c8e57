//! The PANDORA driver: sort → recursive contraction → expansion
//! (paper Algorithm 3), with per-phase timings matching the paper's
//! instrumentation (Figs. 12–13: `sort`, `contraction`, `expansion`).

use std::time::Instant;

use pandora_exec::{ExecCtx, ScratchPool};

use crate::dendrogram::Dendrogram;
use crate::edge::{Edge, SortedMst};
use crate::expansion::{assign_chain_keys_into, sort_chain_keys, stitch_chains, vertex_parents};
use crate::levels::build_hierarchy_into;

/// Wall-clock seconds per PANDORA phase.
///
/// Following the paper (§6.4.3), "sort" includes both the initial edge sort
/// and the final chain sort; "contraction" is the multilevel tree
/// contraction; "expansion" is chain assignment and stitching.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Initial + final sorting time.
    pub sort_s: f64,
    /// Multilevel tree contraction time.
    pub contraction_s: f64,
    /// Dendrogram expansion (chain mapping + stitching) time.
    pub expansion_s: f64,
}

impl PhaseTimings {
    /// Total dendrogram-construction time.
    pub fn total(&self) -> f64 {
        self.sort_s + self.contraction_s + self.expansion_s
    }
}

/// Run statistics: level structure and timings.
#[derive(Debug, Clone, Default)]
pub struct PandoraStats {
    /// Number of contraction levels (trees built), ≥ 1.
    pub n_levels: usize,
    /// Edge count at each level (level 0 = input).
    pub level_edge_counts: Vec<usize>,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
}

/// Builds the single-linkage dendrogram of an MST given as an unsorted edge
/// list. Convenience wrapper over [`dendrogram_with_stats`].
pub fn dendrogram(ctx: &ExecCtx, n_vertices: usize, edges: &[Edge]) -> Dendrogram {
    dendrogram_with_stats(ctx, n_vertices, edges).0
}

/// Builds the dendrogram and reports level/timing statistics.
pub fn dendrogram_with_stats(
    ctx: &ExecCtx,
    n_vertices: usize,
    edges: &[Edge],
) -> (Dendrogram, PandoraStats) {
    let t0 = Instant::now();
    ctx.set_phase("sort");
    let mst = SortedMst::from_edges(ctx, n_vertices, edges);
    let initial_sort_s = t0.elapsed().as_secs_f64();
    let (dendro, mut stats) = dendrogram_from_sorted(ctx, &mst);
    stats.timings.sort_s += initial_sort_s;
    (dendro, stats)
}

/// Builds the dendrogram of an already canonically sorted MST.
///
/// The reported `sort_s` covers only the final (chain) sort; callers that
/// sorted the input themselves should add that cost (as
/// [`dendrogram_with_stats`] does).
pub fn dendrogram_from_sorted(ctx: &ExecCtx, mst: &SortedMst) -> (Dendrogram, PandoraStats) {
    let mut ws = DendrogramWorkspace::new();
    dendrogram_from_sorted_with(ctx, mst, &mut ws)
}

/// Reusable buffers for repeated dendrogram construction.
///
/// One workspace serves any number of [`dendrogram_from_sorted_with`] calls
/// over the same or different MSTs (nothing here is bound to a dataset):
/// the contraction hierarchy's level trees, `maxIncident` tables, vertex
/// maps, α splits, union–find and the packed chain-key array are all
/// recycled through an internal [`ScratchPool`], so the steady state stops
/// reallocating the hierarchy. Only the returned [`Dendrogram`] arrays are
/// freshly allocated (the caller owns them).
#[derive(Debug, Default)]
pub struct DendrogramWorkspace {
    scratch: ScratchPool,
    keys: Vec<u64>,
}

impl DendrogramWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The backing pool (for allocation accounting).
    pub fn scratch(&self) -> &ScratchPool {
        &self.scratch
    }
}

/// [`dendrogram_from_sorted`] reusing a [`DendrogramWorkspace`].
pub fn dendrogram_from_sorted_with(
    ctx: &ExecCtx,
    mst: &SortedMst,
    ws: &mut DendrogramWorkspace,
) -> (Dendrogram, PandoraStats) {
    let n_edges = mst.n_edges();

    // Phase: multilevel tree contraction (§3.2).
    let t_contraction = Instant::now();
    ctx.set_phase("contraction");
    let hierarchy = build_hierarchy_into(ctx, mst, &mut ws.scratch);
    let contraction_s = t_contraction.elapsed().as_secs_f64();

    // Phase: expansion — chain assignment (§3.3.2).
    let t_assign = Instant::now();
    ctx.set_phase("expansion");
    let keys = &mut ws.keys;
    assign_chain_keys_into(ctx, &hierarchy, keys);
    let assign_s = t_assign.elapsed().as_secs_f64();

    // Phase: final sort (§3.3.3, counted as "sort" per §6.4.3).
    let t_final_sort = Instant::now();
    ctx.set_phase("sort");
    sort_chain_keys(ctx, keys);
    let final_sort_s = t_final_sort.elapsed().as_secs_f64();

    // Phase: stitching (expansion).
    let t_stitch = Instant::now();
    ctx.set_phase("expansion");
    let edge_parent = stitch_chains(ctx, n_edges, keys);
    let vertex_parent = vertex_parents(ctx, &hierarchy);
    let stitch_s = t_stitch.elapsed().as_secs_f64();

    let stats = PandoraStats {
        n_levels: hierarchy.n_levels(),
        level_edge_counts: hierarchy.trees.iter().map(|t| t.n_edges()).collect(),
        timings: PhaseTimings {
            sort_s: final_sort_s,
            contraction_s,
            expansion_s: assign_s + stitch_s,
        },
    };
    hierarchy.recycle(&mut ws.scratch);
    (
        Dendrogram {
            edge_parent,
            vertex_parent,
            edge_weight: mst.weight.clone(),
        },
        stats,
    )
}

/// α-contraction under the name the benchmark package (`perfbench/`)
/// still calls: it builds with `DendrogramBackend::resolve(None).build(..)`.
/// Both calls are [`dendrogram_from_sorted_with`], nothing here reads the
/// environment, and the type goes once the benchmark calls that function
/// directly.
#[derive(Debug, Clone, Copy, Default)]
pub enum DendrogramBackend {
    /// PANDORA's recursive α-contraction, the one dendrogram algorithm.
    #[default]
    AlphaContraction,
}

impl DendrogramBackend {
    /// `requested`, or α-contraction.
    pub fn resolve(requested: Option<Self>) -> Self {
        requested.unwrap_or_default()
    }

    /// [`dendrogram_from_sorted_with`].
    pub fn build(
        self,
        ctx: &ExecCtx,
        mst: &SortedMst,
        ws: &mut DendrogramWorkspace,
    ) -> (Dendrogram, PandoraStats) {
        dendrogram_from_sorted_with(ctx, mst, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::union_find::dendrogram_union_find;

    #[test]
    fn matches_union_find_and_validates() {
        use rand::prelude::*;
        let ctx = ExecCtx::serial();
        let mut rng = StdRng::seed_from_u64(99);
        for n_vertices in [2usize, 3, 5, 64, 513, 2000] {
            let edges: Vec<Edge> = (1..n_vertices)
                .map(|v| {
                    Edge::new(
                        rng.gen_range(0..v) as u32,
                        v as u32,
                        rng.gen_range(0.0..4.0f32),
                    )
                })
                .collect();
            let (d, stats) = dendrogram_with_stats(&ctx, n_vertices, &edges);
            d.validate().unwrap();
            let mst = SortedMst::from_edges(&ctx, n_vertices, &edges);
            assert_eq!(d, dendrogram_union_find(&mst));
            assert_eq!(stats.level_edge_counts[0], n_vertices - 1);
            assert!(stats.n_levels >= 1);
        }
    }

    #[test]
    fn parallel_context_same_result() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let n_vertices = 5000;
        let edges: Vec<Edge> = (1..n_vertices)
            .map(|v| {
                Edge::new(
                    rng.gen_range(0..v) as u32,
                    v as u32,
                    rng.gen_range(0.0..1.0f32),
                )
            })
            .collect();
        let d_serial = dendrogram(&ExecCtx::serial(), n_vertices, &edges);
        let d_parallel = dendrogram(&ExecCtx::threads(), n_vertices, &edges);
        assert_eq!(d_serial, d_parallel);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        use rand::prelude::*;
        let ctx = ExecCtx::serial();
        let mut rng = StdRng::seed_from_u64(41);
        let mut ws = DendrogramWorkspace::new();
        // Different tree shapes through ONE workspace, including shrinking
        // inputs (buffers must resize correctly, not just grow).
        for n_vertices in [800usize, 64, 2, 301, 800] {
            let edges: Vec<Edge> = (1..n_vertices)
                .map(|v| {
                    Edge::new(
                        rng.gen_range(0..v) as u32,
                        v as u32,
                        rng.gen_range(0..40) as f32 * 0.5,
                    )
                })
                .collect();
            let mst = SortedMst::from_edges(&ctx, n_vertices, &edges);
            let (warm, warm_stats) = dendrogram_from_sorted_with(&ctx, &mst, &mut ws);
            let (fresh, fresh_stats) = dendrogram_from_sorted(&ctx, &mst);
            assert_eq!(warm, fresh, "n={n_vertices}");
            assert_eq!(warm_stats.n_levels, fresh_stats.n_levels);
            // Every leased buffer must be back in the pool between runs.
            assert_eq!(ws.scratch().outstanding(), 0);
        }
        // The second run onward is served from the pool, not the allocator.
        assert!(ws.scratch().reuse_hits() > 0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let ctx = ExecCtx::serial();
        let (d, stats) = dendrogram_with_stats(&ctx, 1, &[]);
        assert_eq!(d.n_edges(), 0);
        assert_eq!(stats.n_levels, 1);
        let (d, _) = dendrogram_with_stats(&ctx, 2, &[Edge::new(0, 1, 1.0)]);
        d.validate().unwrap();
    }

    #[test]
    fn tracing_produces_phased_kernels() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        let n_vertices = 300;
        let edges: Vec<Edge> = (1..n_vertices)
            .map(|v| {
                Edge::new(
                    rng.gen_range(0..v) as u32,
                    v as u32,
                    rng.gen_range(0.0..1.0f32),
                )
            })
            .collect();
        let (ctx, tracer) = ExecCtx::serial().with_tracing();
        let _ = dendrogram_with_stats(&ctx, n_vertices, &edges);
        let trace = tracer.snapshot();
        let phases = trace.phases();
        for expected in ["sort", "contraction", "expansion"] {
            assert!(phases.contains(&expected), "missing phase {expected}");
        }
    }
}
