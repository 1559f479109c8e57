//! **Figure 13**: fraction of PANDORA's CPU time spent in each phase
//! (`sort`, `contraction`, `expansion`).
//!
//! Paper result (EPYC 7A53): sort 67–85%, contraction 12–22%, expansion
//! 3–10%. This binary reports **real measured** fractions on this host's
//! cores — phase fractions are a ratio, so they transfer across core counts
//! far better than absolute times — plus the modeled EPYC-64c fractions.

use pandora_bench::harness::{fmt_s, print_table, run_pipeline};
use pandora_bench::suite::{bench_scale, fig12_suite};
use pandora_core::{DendrogramBackend, DendrogramWorkspace, SortedMst};
use pandora_exec::device::DeviceModel;
use pandora_exec::ExecCtx;
use pandora_mst::emst;

fn main() {
    let n = bench_scale();
    println!("Figure 13 reproduction — PANDORA phase breakdown, n ≈ {n}");
    let epyc = DeviceModel::epyc_7a53_64c();

    // The figure orders datasets differently from Fig 12; same six members.
    let mut rows = Vec::new();
    for ds in fig12_suite() {
        let points = ds.generate(n, 5);
        let run = run_pipeline(&points, 2);
        let w = run.pandora_wall;
        let total = w.total();

        // Paper-scale projection for the modeled column (launch overheads
        // vanish at 10⁶⁺ points, as on the paper's testbed).
        let factor = ds.spec().paper_npts as f64 / run.n as f64;
        let sim = epyc.simulate(&run.pandora_trace.scaled(factor));
        let m_total = sim.total_s;
        let m_frac = |phase: &str| sim.phase_s(phase) / m_total;

        rows.push(vec![
            ds.label.to_string(),
            format!("{:.2}", w.sort_s / total),
            format!("{:.2}", w.contraction_s / total),
            format!("{:.2}", w.expansion_s / total),
            format!("{:.2}", m_frac("sort")),
            format!("{:.2}", m_frac("contraction")),
            format!("{:.2}", m_frac("expansion")),
        ]);
    }
    print_table(
        "Fig 13 — time fraction per phase (host = measured; EPYC-64c = modeled)",
        &[
            "dataset",
            "sort(host)",
            "contr(host)",
            "expan(host)",
            "sort(EPYC)",
            "contr(EPYC)",
            "expan(EPYC)",
        ],
        &rows,
    );
    println!(
        "\npaper (EPYC 7A53): sort 0.67–0.85, contraction 0.12–0.22, \
         expansion 0.03–0.10."
    );

    // Backend race, per-phase wall clock on this host (threaded context):
    // PANDORA's α-contraction vs the work-optimal rank divide-and-conquer.
    // The work-optimal backend has no chain sort (sort = 0 by design); its
    // "contraction" is the rank-split phase, "expansion" the leaf passes.
    let ctx = ExecCtx::threads();
    let mut race_rows = Vec::new();
    for ds in fig12_suite() {
        let points = ds.generate(n, 5);
        let result = emst(&ctx, &points, 2);
        let mst = SortedMst::from_edges(&ctx, points.len(), &result.edges);
        let mut ws = DendrogramWorkspace::new();
        let mut row = vec![ds.label.to_string()];
        let mut dendros = Vec::new();
        for backend in DendrogramBackend::ALL {
            let (d, stats) = backend.build(&ctx, &mst, &mut ws);
            let t = stats.timings;
            row.push(fmt_s(t.sort_s));
            row.push(fmt_s(t.contraction_s));
            row.push(fmt_s(t.expansion_s));
            row.push(fmt_s(t.total()));
            dendros.push(d);
        }
        assert!(
            dendros.windows(2).all(|w| w[0] == w[1]),
            "backends diverged on {}",
            ds.label
        );
        race_rows.push(row);
    }
    print_table(
        &format!(
            "Backend race on this host ({} lanes): α-contraction vs work-optimal, per phase",
            ctx.lanes()
        ),
        &[
            "dataset",
            "α sort",
            "α contr",
            "α expan",
            "α total",
            "WO sort",
            "WO split",
            "WO leaves",
            "WO total",
        ],
        &race_rows,
    );
}
