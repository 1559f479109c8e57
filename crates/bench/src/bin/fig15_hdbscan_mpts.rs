//! **Figure 15**: HDBSCAN\* total time (MST + dendrogram) and dendrogram
//! time for `mpts` ∈ {2, 4, 8, 16} on Hacc37M and Uniform100M3D:
//! the multithreaded CPU baseline (MemoGFK-style: parallel EMST + UnionFind
//! dendrogram, modeled on EPYC 7763) vs. the GPU pipeline (EMST + PANDORA,
//! modeled on MI250X).
//!
//! Paper result: the GPU pipeline is 8–12× faster end-to-end; dendrogram
//! alone 17–33×. Rising `mpts` grows PANDORA's dendrogram time only
//! 1.1–1.5× (vs 1.6–2.4× for UnionFind-MT), while EMST grows for both.
//!
//! The sweep itself runs the way the paper's study implies it should be
//! served: through one frozen index per dataset
//! ([`pandora_bench::harness::run_pipeline_swept`]) — the kd-tree is built
//! once, a single k-NN pass at `max(mpts)` yields every member's core
//! distances by prefix, and all stage buffers are recycled. The measured
//! amortization against four cold one-shot runs is printed per dataset.

use pandora_bench::harness::{engine_vs_cold, fmt_s, print_table, project_at, run_pipeline_swept};
use pandora_bench::suite::bench_scale;
use pandora_data::by_name;
use pandora_exec::device::DeviceModel;

fn main() {
    let n = bench_scale();
    println!("Figure 15 reproduction — HDBSCAN* vs mpts, n ≈ {n}");
    let cpu = DeviceModel::epyc_7763_64c();
    let gpu = DeviceModel::mi250x_gcd();
    let sweep = [2usize, 4, 8, 16];

    for name in ["Hacc37M", "Uniform100M3D"] {
        let spec = by_name(name).expect("registry");
        let points = spec.generate(n, 13);
        let (prepare_s, runs) = run_pipeline_swept(&points, &sweep);
        let mut rows = Vec::new();
        let mut dendro_t_first: Option<(f64, f64)> = None;
        let mut dendro_t_last = (0.0, 0.0);
        for (run, &mpts) in runs.iter().zip(&sweep) {
            let target = spec.paper_npts;
            let mst_cpu = project_at(&run.mst_trace, &cpu, run.n, target);
            let mst_gpu = project_at(&run.mst_trace, &gpu, run.n, target);
            let den_cpu = project_at(&run.ufmt_trace, &cpu, run.n, target);
            let den_gpu = project_at(&run.pandora_trace, &gpu, run.n, target);
            let total_cpu = mst_cpu + den_cpu;
            let total_gpu = mst_gpu + den_gpu;
            if dendro_t_first.is_none() {
                dendro_t_first = Some((den_cpu, den_gpu));
            }
            dendro_t_last = (den_cpu, den_gpu);

            rows.push(vec![
                format!("{mpts}"),
                fmt_s(total_cpu),
                fmt_s(total_gpu),
                fmt_s(den_cpu),
                fmt_s(den_gpu),
                format!("{:.1}x", total_cpu / total_gpu),
                format!("{:.1}x", den_cpu / den_gpu),
            ]);
        }
        print_table(
            &format!("Fig 15 — {name} (modeled EPYC-7763 CPU vs MI250X GPU)"),
            &[
                "mpts",
                "Ttotal(CPU)",
                "Ttotal(GPU)",
                "Tdendro(CPU)",
                "Tdendro(GPU)",
                "total speedup",
                "dendro speedup",
            ],
            &rows,
        );
        let first = dendro_t_first.unwrap();
        println!(
            "dendrogram growth mpts 2→16: CPU(UF-MT) {:.2}x, GPU(PANDORA) {:.2}x \
             (paper: 1.6–2.4x vs 1.1–1.5x)",
            dendro_t_last.0 / first.0,
            dendro_t_last.1 / first.1
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
    println!("\npaper: total 8–12x, dendrogram 17–33x GPU over CPU baseline.");
}
