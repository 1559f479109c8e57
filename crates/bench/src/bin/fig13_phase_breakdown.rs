//! **Figure 13**: fraction of PANDORA's CPU time spent in each phase
//! (`sort`, `contraction`, `expansion`).
//!
//! Paper result (EPYC 7A53): sort 67–85%, contraction 12–22%, expansion
//! 3–10%. This binary reports the fractions measured on this host's cores.

use pandora_bench::harness::{print_table, run_pipeline};
use pandora_bench::suite::{bench_scale, fig12_suite};
use pandora_exec::ExecCtx;

fn main() {
    let n = bench_scale();
    println!("Figure 13 reproduction — PANDORA phase breakdown, n ≈ {n}");
    let lanes = ExecCtx::threads().lanes();

    // The figure orders datasets differently from Fig 12; same six members.
    let mut rows = Vec::new();
    for ds in fig12_suite() {
        let points = ds.generate(n, 5);
        let w = run_pipeline(&points, 2).pandora_wall;
        let total = w.total();
        rows.push(vec![
            ds.label.to_string(),
            format!("{:.2}", w.sort_s / total),
            format!("{:.2}", w.contraction_s / total),
            format!("{:.2}", w.expansion_s / total),
        ]);
    }
    print_table(
        &format!("Fig 13 — time fraction per phase measured on this host ({lanes} lanes)"),
        &["dataset", "sort", "contraction", "expansion"],
        &rows,
    );
    println!(
        "\npaper (EPYC 7A53): sort 0.67–0.85, contraction 0.12–0.22, \
         expansion 0.03–0.10."
    );
    println!("not testable on this host: the fractions at 64 cores ({lanes} lanes here).");
}
