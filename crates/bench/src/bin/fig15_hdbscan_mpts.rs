//! **Figure 15**: HDBSCAN\* total time (MST + dendrogram) and dendrogram
//! time for `mpts` ∈ {2, 4, 8, 16} on Hacc37M and Uniform100M3D: the
//! multithreaded CPU baseline (MemoGFK-style: parallel EMST + UnionFind
//! dendrogram, on an EPYC 7763) vs. the GPU pipeline (EMST + PANDORA, on an
//! MI250X).
//!
//! Paper result: the GPU pipeline is 8–12× faster end-to-end; dendrogram
//! alone 17–33×. Rising `mpts` grows PANDORA's dendrogram time only
//! 1.1–1.5× (vs 1.6–2.4× for UnionFind-MT), while EMST grows for both.
//! This binary measures both pipelines on this host's cores.
//!
//! The sweep itself runs the way the paper's study implies it should be
//! served: through one frozen index per dataset
//! ([`pandora_bench::harness::run_pipeline_swept`]) — the kd-tree is built
//! once, a single k-NN pass at `max(mpts)` yields every member's core
//! distances by prefix, and all stage buffers are recycled. The measured
//! amortization against four cold one-shot runs is printed per dataset.

use pandora_bench::harness::{engine_vs_cold, fmt_s, print_table, run_pipeline_swept};
use pandora_bench::suite::bench_scale;
use pandora_data::by_name;

fn main() {
    let n = bench_scale();
    println!("Figure 15 reproduction — HDBSCAN* vs mpts, n ≈ {n}");
    let sweep = [2usize, 4, 8, 16];

    for name in ["Hacc37M", "Uniform100M3D"] {
        let points = by_name(name).expect("registry").generate(n, 13);
        let (prepare_s, runs) = run_pipeline_swept(&points, &sweep);
        let mut rows = Vec::new();
        for (run, &mpts) in runs.iter().zip(&sweep) {
            let uf = run.ufmt_wall.0 + run.ufmt_wall.1;
            let pan = run.pandora_wall.total();
            rows.push(vec![
                format!("{mpts}"),
                fmt_s(run.mst_wall_s),
                fmt_s(run.mst_wall_s + uf),
                fmt_s(run.mst_wall_s + pan),
                fmt_s(uf),
                fmt_s(pan),
            ]);
        }
        print_table(
            &format!("Fig 15 — {name} measured on this host (warm EMST per mpts)"),
            &[
                "mpts",
                "MST",
                "Ttotal(UF-MT)",
                "Ttotal(PANDORA)",
                "Tdendro(UF-MT)",
                "Tdendro(PANDORA)",
            ],
            &rows,
        );
        let (first, last) = (&runs[0], &runs[runs.len() - 1]);
        println!(
            "dendrogram growth mpts 2→16: UF-MT {:.2}x, PANDORA {:.2}x \
             (paper: 1.6–2.4x vs 1.1–1.5x)",
            (last.ufmt_wall.0 + last.ufmt_wall.1) / (first.ufmt_wall.0 + first.ufmt_wall.1),
            last.pandora_wall.total() / first.pandora_wall.total()
        );
        let canary = engine_vs_cold(&points, &sweep, 1);
        println!(
            "sweep amortization — shared substrate {} (build + k-NN at max mpts), \
             sweep {} vs four cold runs {}: {:.2}x, identical results",
            fmt_s(prepare_s),
            fmt_s(canary.sweep_s),
            fmt_s(canary.cold_s),
            canary.speedup
        );
    }
    println!(
        "\nnot testable on this host (no GPU): the GPU pipeline's speedup over \
         the CPU baseline, total 8–12x and dendrogram 17–33x."
    );
}
