//! **Figure 11**: dendrogram-construction throughput (MPoints/s) across the
//! dataset suite for:
//!
//! * UnionFind-MT on the 64-core EPYC (the paper's baseline),
//! * PANDORA on the 64-core EPYC,
//! * PANDORA on an MI250X GCD,
//! * PANDORA on an A100.
//!
//! Paper result: multithreaded PANDORA is 0.66–2.2× UnionFind-MT; MI250X is
//! 6–20× and A100 10–37× over multithreaded PANDORA. Device columns are
//! modeled from real traces; the two host-measured columns show the same
//! comparison on this machine's cores.

use pandora_bench::harness::{mpoints, print_table, project_at, run_pipeline};
use pandora_bench::suite::{bench_scale, fig11_suite};
use pandora_exec::device::DeviceModel;

fn main() {
    let n = bench_scale();
    println!("Figure 11 reproduction — dendrogram throughput, n ≈ {n} per dataset");
    let epyc = DeviceModel::epyc_7a53_64c();
    let mi250x = DeviceModel::mi250x_gcd();
    let a100 = DeviceModel::a100();

    let mut rows = Vec::new();
    for ds in fig11_suite() {
        let points = ds.generate(n, 2024);
        let run = run_pipeline(&points, 2);
        let np = run.n;

        // Modeled devices at the paper's dataset size (kernel mix from the
        // real run, element counts rescaled; `docs/ARCHITECTURE.md`,
        // *Evaluation harness*).
        let target = ds.spec().paper_npts;
        let tn = target as usize;
        let uf_epyc = mpoints(tn, project_at(&run.ufmt_trace, &epyc, np, target));
        let pan_epyc = mpoints(tn, project_at(&run.pandora_trace, &epyc, np, target));
        let pan_mi = mpoints(tn, project_at(&run.pandora_trace, &mi250x, np, target));
        let pan_a100 = mpoints(tn, project_at(&run.pandora_trace, &a100, np, target));

        // Host-measured (this machine).
        let uf_host = mpoints(np, run.ufmt_wall.0 + run.ufmt_wall.1);
        let pan_host = mpoints(np, run.pandora_wall.total());

        rows.push(vec![
            ds.label.to_string(),
            format!("{:.0}", run.skew),
            format!("{uf_epyc:.0}"),
            format!("{pan_epyc:.0}"),
            format!("{pan_mi:.0}"),
            format!("{pan_a100:.0}"),
            format!("{:.1}x", pan_mi / pan_epyc),
            format!("{:.1}x", pan_a100 / pan_epyc),
            format!("{uf_host:.1}"),
            format!("{pan_host:.1}"),
        ]);
    }
    print_table(
        "Fig 11 — MPoints/s (modeled EPYC-64c/MI250X/A100 from real traces; host = measured)",
        &[
            "dataset",
            "Imb",
            "UF(EPYC)",
            "PAN(EPYC)",
            "PAN(MI250X)",
            "PAN(A100)",
            "MI/EPYC",
            "A100/EPYC",
            "UF(host)",
            "PAN(host)",
        ],
        &rows,
    );
    println!(
        "\npaper bands: UF(EPYC) 6–18, PAN(EPYC) 14–30, PAN(MI250X) 62–302, \
         PAN(A100) 62–419 MPoints/s; GPU/CPU 6–20x (MI250X), 10–37x (A100)."
    );
}
