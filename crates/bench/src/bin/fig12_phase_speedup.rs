//! **Figure 12**: speedup of the MI250X over the 64-core EPYC for each
//! phase of HDBSCAN\* with PANDORA: `mst`, `dendrogram` (total), `sort`,
//! `contraction`, `expansion`.
//!
//! Paper result: sorting scales best (10–20×), multilevel contraction worst
//! (3–5×), total dendrogram 6–16×. All columns are modeled from real traces.

use pandora_bench::harness::{
    dendro_serial_vs_threaded, emst_serial_vs_threaded, fmt_s, print_table, run_pipeline,
};
use pandora_bench::suite::{bench_scale, fig12_suite};
use pandora_exec::device::DeviceModel;
use pandora_exec::ExecCtx;

fn main() {
    let n = bench_scale();
    println!("Figure 12 reproduction — per-phase MI250X/EPYC-64c speedup, n ≈ {n}");
    let epyc = DeviceModel::epyc_7a53_64c();
    let gpu = DeviceModel::mi250x_gcd();

    let mut rows = Vec::new();
    for ds in fig12_suite() {
        let points = ds.generate(n, 5);
        let run = run_pipeline(&points, 2);
        // Project at the paper's dataset size so launch latency does not
        // mask the asymptotic per-phase behaviour (paper measures at 10⁶–10⁸).
        let factor = ds.spec().paper_npts as f64 / run.n as f64;

        let speedup = |trace: &pandora_exec::trace::Trace| -> f64 {
            let scaled = trace.scaled(factor);
            epyc.simulate(&scaled).total_s / gpu.simulate(&scaled).total_s
        };
        let phase_speedup = |phase: &str| -> f64 {
            let t = run.pandora_trace.phase(phase);
            if t.is_empty() {
                return f64::NAN;
            }
            speedup(&t)
        };

        let dendro = speedup(&run.pandora_trace);
        rows.push(vec![
            ds.label.to_string(),
            format!("{:.1}x", speedup(&run.mst_trace)),
            format!("{dendro:.1}x"),
            format!("{:.1}x", phase_speedup("sort")),
            format!("{:.1}x", phase_speedup("contraction")),
            format!("{:.1}x", phase_speedup("expansion")),
        ]);
    }
    print_table(
        "Fig 12 — modeled speedup (MI250X over EPYC 64c) per phase",
        &[
            "dataset",
            "mst",
            "dendrogram",
            "sort",
            "contraction",
            "expansion",
        ],
        &rows,
    );
    println!(
        "\npaper: mst 5–16x, dendrogram 3–13x, sort 9–16x, contraction 3–5x, \
         expansion 5–12x. Shape to check: sort scales best, contraction worst."
    );

    // Host-measured EMST phase speedup: serial vs threaded wall clock on
    // THIS machine (the modeled columns above project onto paper hardware).
    let lanes = ExecCtx::threads().lanes();
    let mut host_rows = Vec::new();
    for ds in fig12_suite() {
        let points = ds.generate(n, 5);
        let (serial, threaded, _) = emst_serial_vs_threaded(&points, 2, 2);
        let ratio = |s: f64, t: f64| format!("{:.2}x", s / t.max(1e-12));
        host_rows.push(vec![
            ds.label.to_string(),
            ratio(serial.tree_build_s, threaded.tree_build_s),
            ratio(serial.core_s, threaded.core_s),
            ratio(serial.mst_s, threaded.mst_s),
            ratio(serial.total(), threaded.total()),
        ]);
    }
    print_table(
        &format!("EMST phase speedup measured on this host ({lanes} lanes, best of 2)"),
        &["dataset", "build", "core", "Borůvka", "EMST total"],
        &host_rows,
    );

    // Host-measured dendrogram phase speedup: α-contraction per-phase
    // serial/threaded speedup on one sorted MST. Outputs are asserted
    // bit-identical inside the harness before any timing is reported.
    let mut dendro_rows = Vec::new();
    for ds in fig12_suite() {
        let points = ds.generate(n, 5);
        let d = dendro_serial_vs_threaded(&points, 2, 3);
        let ratio = |s: f64, t: f64| format!("{:.2}x", s / t.max(1e-12));
        dendro_rows.push(vec![
            ds.label.to_string(),
            ratio(d.serial.sort_s, d.threaded.sort_s),
            ratio(d.serial.contraction_s, d.threaded.contraction_s),
            ratio(d.serial.expansion_s, d.threaded.expansion_s),
            format!("{:.2}x", d.speedup()),
            fmt_s(d.threaded.total()),
        ]);
    }
    print_table(
        &format!("Dendrogram phase speedup measured on this host ({lanes} lanes, best of 3)"),
        &[
            "dataset",
            "α sort",
            "α contr",
            "α expan",
            "α total",
            "α thr wall",
        ],
        &dendro_rows,
    );
}
