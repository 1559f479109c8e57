//! **Figure 1**: time taken by the HDBSCAN\* components (Euclidean MST and
//! dendrogram) on the Hacc37M dataset under three configurations:
//!
//! 1. CPU only (64-core EPYC);
//! 2. MST on GPU + dendrogram on CPU (the pre-PANDORA status quo, where the
//!    dendrogram takes 86% of the time);
//! 3. MST on GPU + dendrogram on GPU (PANDORA — dendrogram drops to ~26%).
//!
//! Device times are modeled by replaying real kernel traces
//! (`docs/ARCHITECTURE.md`, *Evaluation harness*);
//! the host-measured times are printed for reference.

use pandora_bench::harness::{
    daemon_rps, dendro_serial_vs_threaded, emst_cold_vs_warm, emst_serial_vs_threaded,
    engine_vs_cold, fmt_s, nnchain_serial_vs_threaded, print_table, project_at, run_pipeline,
    serve_throughput, write_bench_ci_json,
};
use pandora_bench::suite::bench_scale;
use pandora_data::by_name;
use pandora_exec::device::DeviceModel;

fn main() {
    let n = bench_scale();
    let spec = by_name("Hacc37M").expect("registry");
    println!(
        "Figure 1 reproduction — Hacc37M proxy (Soneira-Peebles), n = {n} \
         (paper: n = {})",
        spec.paper_npts
    );
    let points = spec.generate(n, 42);
    let run = run_pipeline(&points, 2);

    let cpu = DeviceModel::epyc_7a53_64c();
    let gpu = DeviceModel::mi250x_gcd();

    // Modeled stage times, projected at the paper's dataset size (the
    // kernel mix comes from the real run; see Trace::scaled).
    let target = spec.paper_npts;
    let mst_cpu = project_at(&run.mst_trace, &cpu, run.n, target);
    let mst_gpu = project_at(&run.mst_trace, &gpu, run.n, target);
    let dendro_cpu_ufmt = project_at(&run.ufmt_trace, &cpu, run.n, target);
    let dendro_gpu_pandora = project_at(&run.pandora_trace, &gpu, run.n, target);

    let total1 = mst_cpu + dendro_cpu_ufmt;
    let total2 = mst_gpu + dendro_cpu_ufmt;
    let total3 = mst_gpu + dendro_gpu_pandora;

    print_table(
        "Fig 1 — HDBSCAN* stage times at paper scale (modeled from real kernel traces)",
        &[
            "configuration",
            "MST",
            "dendrogram",
            "total",
            "dendro %",
            "speedup",
        ],
        &[
            vec![
                "CPU (EPYC 64c)".into(),
                fmt_s(mst_cpu),
                fmt_s(dendro_cpu_ufmt),
                fmt_s(total1),
                format!("{:.0}%", 100.0 * dendro_cpu_ufmt / total1),
                "1.0x".into(),
            ],
            vec![
                "MST(GPU) + dendro(CPU)".into(),
                fmt_s(mst_gpu),
                fmt_s(dendro_cpu_ufmt),
                fmt_s(total2),
                format!("{:.0}%", 100.0 * dendro_cpu_ufmt / total2),
                format!("{:.1}x", total1 / total2),
            ],
            vec![
                "MST(GPU) + dendro(GPU, PANDORA)".into(),
                fmt_s(mst_gpu),
                fmt_s(dendro_gpu_pandora),
                fmt_s(total3),
                format!("{:.0}%", 100.0 * dendro_gpu_pandora / total3),
                format!("{:.1}x", total1 / total3),
            ],
        ],
    );
    println!(
        "\npaper: config 2 is 5.4x over config 1; config 3 is 17.6x; \
         dendrogram share drops 86% → 26%."
    );

    print_table(
        "Reference — measured on this host (real wall clock)",
        &["stage", "time"],
        &[
            vec![
                "EMST (kd-tree + core + Borůvka)".into(),
                fmt_s(run.mst_wall_s),
            ],
            vec![
                "  EMST: kd-tree build".into(),
                fmt_s(run.emst_timings.tree_build_s),
            ],
            vec![
                "  EMST: core distances".into(),
                fmt_s(run.emst_timings.core_s),
            ],
            vec!["  EMST: Borůvka".into(), fmt_s(run.emst_timings.mst_s)],
            vec!["PANDORA dendrogram".into(), fmt_s(run.pandora_wall.total())],
            vec![
                "UnionFind-MT dendrogram".into(),
                fmt_s(run.ufmt_wall.0 + run.ufmt_wall.1),
            ],
        ],
    );

    // CI bench canary: with PANDORA_BENCH_JSON=<path>, run the EMST stage
    // under both execution contexts, persist the per-phase numbers, and —
    // with PANDORA_BENCH_ENFORCE=1 — fail the process if the threaded EMST
    // is slower than the serial one (parallelism silently disengaged).
    if let Ok(json_path) = std::env::var("PANDORA_BENCH_JSON") {
        let (serial, threaded, lanes) = emst_serial_vs_threaded(&points, 2, 3);
        // Engine canary: a warm sweep over the paper's mpts set must beat
        // the same requests served cold (it amortizes the kd-tree build,
        // the k-NN pass and every stage buffer, and carries endgame bounds
        // across runs — with bit-identical results, asserted inside).
        let sweep = [2usize, 4, 8, 16];
        let engine = engine_vs_cold(&points, &sweep, 2);
        // Serving canary: the same shared-index request mix answered by 1
        // and by 4 serving threads (per-thread sessions, serial stage
        // dispatch). Every answer is asserted bit-identical to the
        // one-shot pipeline inside the harness.
        let serve = serve_throughput(&points, &sweep, 4, 4, 3);
        // Dendrogram canary: α-contraction serial vs threaded, measured
        // over one shared sorted MST; bit-identical outputs asserted inside. The
        // dendrogram stage is measured at ≥ 20k vertices regardless of
        // PANDORA_SCALE: below that the whole stage fits in a couple of
        // dispatch grains and the comparison only measures broadcast
        // overhead, not the parallel contraction.
        let dendro_points = if n >= 20_000 {
            points.clone()
        } else {
            spec.generate(20_000, 42)
        };
        let dendro = dendro_serial_vs_threaded(&dendro_points, 2, 5);
        // NN-chain canary: Ward-linkage merges raced serial vs threaded at
        // the same ≥ 20k floor (the centroid substrate's candidate-NN
        // scans are the parallel section; bit-identical outputs asserted
        // inside the harness).
        let nnchain = nnchain_serial_vs_threaded(&dendro_points, 3);
        // Daemon canary: the serve mix again, but end to end through the
        // `pandorad` socket path (TCP, JSON parse, queue, worker lanes),
        // at 1 vs 4 worker lanes with 4 concurrent clients. Every wire
        // reply is asserted byte-identical to the in-process result
        // inside the harness.
        let daemon = daemon_rps(&points, &sweep, 4, 6, 2);
        // Cold-run canary: the first-request EMST cost (nothing reused —
        // the round floor the merge-surviving witnesses attack) against a
        // fully warm frozen-index request, bit-identical edges asserted
        // inside the harness.
        let cold = emst_cold_vs_warm(&points, 2, 3);
        write_bench_ci_json(
            &json_path,
            n,
            2,
            &serial,
            &threaded,
            lanes,
            Some(&engine),
            Some(&serve),
            Some(&dendro),
            Some(&nnchain),
            Some(&daemon),
            Some(&cold),
        )
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
        let speedup = serial.total() / threaded.total().max(1e-12);
        print_table(
            &format!("CI canary — serial vs threaded EMST ({lanes} lanes, best of 3)"),
            &["context", "build", "core", "Borůvka", "total"],
            &[
                vec![
                    "serial".into(),
                    fmt_s(serial.tree_build_s),
                    fmt_s(serial.core_s),
                    fmt_s(serial.mst_s),
                    fmt_s(serial.total()),
                ],
                vec![
                    "threaded".into(),
                    fmt_s(threaded.tree_build_s),
                    fmt_s(threaded.core_s),
                    fmt_s(threaded.mst_s),
                    fmt_s(threaded.total()),
                ],
            ],
        );
        println!("\nthreaded speedup: {speedup:.2}x (written to {json_path})");
        println!(
            "engine canary — sweep over mpts {sweep:?}: {:.1} ms vs {:.1} ms cold \
             ({:.2}x amortization)",
            engine.sweep_s * 1e3,
            engine.cold_s * 1e3,
            engine.speedup
        );
        println!(
            "serving canary — {} requests over one shared index: \
             {:.1} req/s at 1 thread, {:.1} req/s at {} threads ({:.2}x)",
            serve.requests,
            serve.rps_t1,
            serve.rps_t_many,
            serve.t_many,
            serve.rps_t_many / serve.rps_t1.max(1e-12)
        );
        println!(
            "dendro canary (n = {}) — α-contraction {:.1} ms serial vs {:.1} ms threaded \
             ({:.2}x)",
            dendro.n,
            dendro.serial.total() * 1e3,
            dendro.threaded.total() * 1e3,
            dendro.speedup(),
        );
        println!(
            "nnchain canary (n = {}) — Ward NN-chain {:.1} ms serial vs {:.1} ms threaded \
             ({:.2}x)",
            nnchain.n,
            nnchain.serial_s * 1e3,
            nnchain.threaded_s * 1e3,
            nnchain.speedup(),
        );
        // PANDORA_BENCH_MIN_SPEEDUP raises the bar above "not slower"
        // (default 1.0): a silently-serialized path measures ~1.0x ± noise,
        // so a knife-edge comparison would flake in both directions on a
        // busy runner. Requiring a real margin (CI uses 1.1, with genuine
        // parallelism measuring ≥ ~2x) keeps the canary deterministic.
        let enforce = std::env::var("PANDORA_BENCH_ENFORCE").is_ok_and(|v| v == "1");
        let min_speedup = std::env::var("PANDORA_BENCH_MIN_SPEEDUP")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(1.0);
        if enforce && speedup < min_speedup {
            eprintln!(
                "FAIL: threaded EMST ({:.1} ms) vs serial ({:.1} ms) is only \
                 {speedup:.2}x on {lanes} lanes (required ≥ {min_speedup:.2}x) \
                 — parallelism is not engaging",
                threaded.total() * 1e3,
                serial.total() * 1e3,
            );
            std::process::exit(1);
        }
        // Engine canary bar: the warm sweep must beat the cold runs by a
        // real margin (CI uses 1.2; the measured amortization at 20k points
        // is ~2.5x, so a pass is far from the noise floor while any
        // regression that de-amortizes the sweep lands well below it).
        let min_engine_speedup = std::env::var("PANDORA_BENCH_MIN_ENGINE_SPEEDUP")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(1.0);
        if enforce && engine.speedup < min_engine_speedup {
            eprintln!(
                "FAIL: engine sweep ({:.1} ms) vs cold runs ({:.1} ms) is only \
                 {:.2}x (required ≥ {min_engine_speedup:.2}x) — the sweep \
                 stopped amortizing the shared substrate",
                engine.sweep_s * 1e3,
                engine.cold_s * 1e3,
                engine.speedup,
            );
            std::process::exit(1);
        }
        // Serving bar: 4 threads over one shared index must not serve
        // fewer requests/second than 1 thread (PANDORA_BENCH_MIN_SERVE_RATIO
        // defaults to that knife edge; on a multi-core runner request-level
        // parallelism measures ~Tx, far from the noise floor, so any index
        // contention regression — an accidental lock on the read path, a
        // session pool serializing requests — lands well below the bar).
        let min_serve_ratio = std::env::var("PANDORA_BENCH_MIN_SERVE_RATIO")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(1.0);
        let serve_ratio = serve.rps_t_many / serve.rps_t1.max(1e-12);
        if enforce && serve_ratio < min_serve_ratio {
            eprintln!(
                "FAIL: {}-thread serving ({:.1} req/s) vs 1-thread ({:.1} req/s) is \
                 only {serve_ratio:.2}x (required ≥ {min_serve_ratio:.2}x) — \
                 concurrent sessions are contending on the shared index",
                serve.t_many, serve.rps_t_many, serve.rps_t1,
            );
            std::process::exit(1);
        }
        // Dendrogram bar: the threaded α-contraction must never be slower
        // than the serial one (PANDORA_BENCH_MIN_DENDRO_SPEEDUP defaults to
        // that knife edge; best-of-5 per side keeps the comparison out of
        // the scheduler noise — a regression that serializes the stage
        // measures well below 1.0 once broadcast overhead is being paid
        // for nothing).
        let min_dendro_speedup = std::env::var("PANDORA_BENCH_MIN_DENDRO_SPEEDUP")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(1.0);
        if enforce && dendro.speedup() < min_dendro_speedup {
            eprintln!(
                "FAIL: threaded α-contraction ({:.1} ms) vs serial ({:.1} ms) is only \
                 {:.2}x on {} lanes (required ≥ {min_dendro_speedup:.2}x) — dendrogram \
                 parallelism is not engaging",
                dendro.threaded.total() * 1e3,
                dendro.serial.total() * 1e3,
                dendro.speedup(),
                dendro.lanes,
            );
            std::process::exit(1);
        }
        // NN-chain bar: the threaded Ward NN-chain must never be slower
        // than the serial one at ≥ 20k points
        // (PANDORA_BENCH_MIN_NNCHAIN_SPEEDUP defaults to that knife edge;
        // best-of-3 per side through a warm scratch pool keeps the
        // comparison out of scheduler noise — a regression that serializes
        // the candidate-NN scans pays broadcast overhead for nothing and
        // measures well below 1.0).
        let min_nnchain_speedup = std::env::var("PANDORA_BENCH_MIN_NNCHAIN_SPEEDUP")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(1.0);
        if enforce && nnchain.speedup() < min_nnchain_speedup {
            eprintln!(
                "FAIL: threaded NN-chain ({:.1} ms) vs serial ({:.1} ms) is only \
                 {:.2}x on {} lanes (required ≥ {min_nnchain_speedup:.2}x) — NN-chain \
                 parallelism is not engaging",
                nnchain.threaded_s * 1e3,
                nnchain.serial_s * 1e3,
                nnchain.speedup(),
                nnchain.lanes,
            );
            std::process::exit(1);
        }
        println!(
            "daemon canary — {} requests through the socket path: \
             {:.1} req/s at 1 worker lane, {:.1} req/s at {} lanes ({:.2}x)",
            daemon.requests,
            daemon.rps_w1,
            daemon.rps_w_many,
            daemon.w_many,
            daemon.rps_w_many / daemon.rps_w1.max(1e-12)
        );
        // Daemon bar: 4 worker lanes through the full socket path must
        // beat 1 lane by a real margin (CI uses 1.5; request-level
        // parallelism on a multi-core runner measures ~Tx, so the bar is
        // far above noise while any regression that serializes the lanes —
        // a lock across Session::run, a single-threaded queue drain —
        // lands well below it).
        let min_daemon_ratio = std::env::var("PANDORA_BENCH_MIN_DAEMON_RATIO")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(1.0);
        let daemon_ratio = daemon.rps_w_many / daemon.rps_w1.max(1e-12);
        if enforce && daemon_ratio < min_daemon_ratio {
            eprintln!(
                "FAIL: {}-lane daemon ({:.1} req/s) vs 1-lane ({:.1} req/s) is only \
                 {daemon_ratio:.2}x through the socket path (required ≥ \
                 {min_daemon_ratio:.2}x) — daemon worker lanes are not engaging",
                daemon.w_many, daemon.rps_w_many, daemon.rps_w1,
            );
            std::process::exit(1);
        }
        println!(
            "cold-run canary — cold one-shot EMST {:.1} ms vs warm index run {:.1} ms \
             ({:.1}x round floor)",
            cold.cold_s * 1e3,
            cold.warm_s * 1e3,
            cold.ratio()
        );
        // Cold-run bars (absolute + ratio), only enforced when set: the
        // witness rebuild's win is an absolute cold-path budget in
        // milliseconds at the CI scale (PANDORA_BENCH_MAX_COLD_EMST_MS) and
        // a bound on how much of the round floor the cold path may still
        // pay over a warm request (PANDORA_BENCH_MAX_COLD_WARM_RATIO).
        // Budgets are host- and scale-specific, so there is no meaningful
        // default — CI pins both for its container.
        let max_cold_ms = std::env::var("PANDORA_BENCH_MAX_COLD_EMST_MS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok());
        if let Some(max_ms) = max_cold_ms {
            if enforce && cold.cold_s * 1e3 > max_ms {
                eprintln!(
                    "FAIL: cold one-shot EMST took {:.1} ms at n = {n} (budget \
                     {max_ms:.1} ms) — the cold-path round floor regressed",
                    cold.cold_s * 1e3,
                );
                std::process::exit(1);
            }
        }
        let max_cold_warm_ratio = std::env::var("PANDORA_BENCH_MAX_COLD_WARM_RATIO")
            .ok()
            .and_then(|v| v.parse::<f64>().ok());
        if let Some(max_ratio) = max_cold_warm_ratio {
            if enforce && cold.ratio() > max_ratio {
                eprintln!(
                    "FAIL: cold EMST ({:.1} ms) pays {:.1}x over a warm index run \
                     ({:.1} ms), budget {max_ratio:.1}x — the cold path stopped \
                     benefiting from the witness machinery",
                    cold.cold_s * 1e3,
                    cold.ratio(),
                    cold.warm_s * 1e3,
                );
                std::process::exit(1);
            }
        }
    }
}
