//! **Figure 11**: dendrogram-construction throughput (MPoints/s) across the
//! dataset suite for UnionFind-MT and PANDORA on a 64-core EPYC, and for
//! PANDORA on an MI250X GCD and an A100.
//!
//! Paper result: multithreaded PANDORA is 0.66–2.2× UnionFind-MT; MI250X is
//! 6–20× and A100 10–37× over multithreaded PANDORA. This binary measures
//! both algorithms on this host's cores; the GPU columns need the GPUs.

use pandora_bench::harness::{mpoints, print_table, run_pipeline};
use pandora_bench::suite::{bench_scale, fig11_suite};
use pandora_exec::ExecCtx;

fn main() {
    let n = bench_scale();
    println!("Figure 11 reproduction — dendrogram throughput, n ≈ {n} per dataset");

    let mut rows = Vec::new();
    for ds in fig11_suite() {
        let points = ds.generate(n, 2024);
        let run = run_pipeline(&points, 2);
        let uf = mpoints(run.n, run.ufmt_wall.0 + run.ufmt_wall.1);
        let pan = mpoints(run.n, run.pandora_wall.total());
        rows.push(vec![
            ds.label.to_string(),
            format!("{:.0}", run.skew),
            format!("{uf:.1}"),
            format!("{pan:.1}"),
            format!("{:.2}x", pan / uf),
        ]);
    }
    print_table(
        &format!(
            "Fig 11 — MPoints/s measured on this host ({} lanes)",
            ExecCtx::threads().lanes()
        ),
        &["dataset", "Imb", "UF", "PAN", "PAN/UF"],
        &rows,
    );
    println!(
        "\npaper (64-core EPYC 7A53): UF 6–18, PAN 14–30 MPoints/s; PAN/UF \
         0.66–2.2x."
    );
    println!(
        "not testable on this host (no GPU): PAN on the MI250X (62–302 MPoints/s, \
         6–20x over the EPYC) and the A100 (62–419, 10–37x)."
    );
}
