//! Smoke tests for the workspace facade: the `pandora::` re-exports must
//! resolve, the prelude must cover the common entry points, and the README /
//! crate-root quickstart snippet must actually run.

use pandora::prelude::*;

/// Every workspace member is reachable through its `pandora::` re-export.
#[test]
fn reexports_resolve() {
    // exec
    let ctx: pandora::exec::ExecCtx = pandora::exec::ExecCtx::serial();
    assert!(ctx.is_serial());
    // core
    let edges = vec![
        pandora::core::Edge::new(0, 1, 2.0),
        pandora::core::Edge::new(1, 2, 1.0),
    ];
    let dendro = pandora::core::pandora::dendrogram(&ctx, 3, &edges);
    assert_eq!(dendro.root(), Some(0));
    // mst
    let points = pandora::mst::PointSet::new(vec![0.0, 0.0, 1.0, 0.0], 2);
    assert_eq!(points.len(), 2);
    // data
    assert!(!pandora::data::all_datasets().is_empty());
    // hdbscan
    let _params = pandora::hdbscan::HdbscanParams::default();
}

/// The prelude exposes the names the examples and docs lean on.
#[test]
fn prelude_covers_common_entry_points() {
    let ctx = ExecCtx::threads();
    let edges = vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 1.0)];
    let mst = SortedMst::from_edges(&ctx, 3, &edges);
    assert_eq!(mst.n_edges(), 2);
    let (d, stats) = dendrogram_with_stats(&ctx, 3, &edges);
    d.validate().unwrap();
    assert!(stats.n_levels >= 1);
    assert_eq!(dendrogram(&ctx, 3, &edges), d);

    let points = PointSet::new(vec![0.0, 0.0, 0.1, 0.0, 5.0, 5.0], 2);
    let tree = KdTree::build(&ctx, &points);
    let core2 = core_distances2(&ctx, &points, &tree, 2);
    assert_eq!(core2.len(), points.len());
    let pool = ScratchPool::new();
    let extras = BoruvkaExtras::default();
    let mst_edges = boruvka_mst(&ctx, &points, &tree, &Euclidean, extras, &pool);
    assert_eq!(mst_edges.len(), points.len() - 1);
    let _metric = MutualReachability { core2: &core2 };
}

/// The repository tree carries no stray empty directories (e.g. an
/// abandoned `examples_tmp/`). Git cannot even represent empty
/// directories in a commit, so a CI-side check of the checkout can never
/// see the hazard — this test runs wherever `cargo test` runs, i.e. on
/// the machine where the litter actually exists, before it confuses the
/// next `ls`. Build directories are skipped: `target` and `.bench_build`
/// (the `CARGO_TARGET_DIR` that `.gitignore` reserves for perfbench),
/// where cargo leaves empty directories of its own.
#[test]
fn repository_has_no_stray_empty_directories() {
    fn scan(dir: &std::path::Path, stray: &mut Vec<std::path::PathBuf>) {
        let mut entries = 0usize;
        for entry in std::fs::read_dir(dir).expect("readable repo dir") {
            let entry = entry.expect("readable dir entry");
            entries += 1;
            let path = entry.path();
            let name = entry.file_name();
            let skipped = name == ".git" || name == "target" || name == ".bench_build";
            if path.is_dir() && !skipped {
                scan(&path, stray);
            }
        }
        if entries == 0 {
            stray.push(dir.to_path_buf());
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stray = Vec::new();
    scan(root, &mut stray);
    assert!(
        stray.is_empty(),
        "stray empty directories in the tree (remove them): {stray:?}"
    );
}

/// The quickstart from `README.md` / the `pandora` crate root, verbatim.
#[test]
fn readme_quickstart_runs() {
    use pandora::hdbscan::{ClusterRequest, DatasetIndex};
    use pandora::mst::PointSet;
    use std::sync::Arc;

    // Three tight 2-D blobs.
    let mut coords = Vec::new();
    for c in 0..3 {
        for i in 0..50 {
            let (cx, cy) = (c as f32 * 10.0, c as f32 * -7.0);
            coords.push(cx + (i % 7) as f32 * 0.01);
            coords.push(cy + (i / 7) as f32 * 0.01);
        }
    }
    let points = PointSet::try_new(coords, 2).expect("finite");
    let index = Arc::new(DatasetIndex::freeze(points, 8).expect("valid ceiling"));

    let mut session = index.session();
    let result = session
        .run(&ClusterRequest::new().min_pts(2))
        .expect("valid request");
    assert_eq!(result.n_clusters(), 3);

    // The legacy one-shot driver answers through the same tiers.
    use pandora::hdbscan::{Hdbscan, HdbscanParams};
    let coords: Vec<f32> = (0..60)
        .flat_map(|i| {
            let c = (i / 20) as f32;
            [c * 30.0 + (i % 5) as f32 * 0.01, c * -20.0]
        })
        .collect();
    let blobs = PointSet::new(coords, 2);
    let result = Hdbscan::new(HdbscanParams::default()).run(&blobs);
    assert_eq!(result.n_clusters(), 3);
}
