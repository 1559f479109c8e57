//! Smoke tests: every workload at tiny scale in both modes, printing
//! exactly the metrics `BENCHMARK.json` names; a corrupted reference makes
//! every workload fail; pinned environment variables are refused.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::{Command, Output};

use pandora_hdbscan::daemon::json::Json;

const WORKLOADS: [&str; 4] = [
    "oneshot_cold",
    "session_sweep",
    "dendro_skewed",
    "daemon_tcp",
];

fn perfbench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args)
        .env_remove("PANDORA_DENDROGRAM")
        .env_remove("PANDORA_LINKAGE");
    cmd
}

fn smoke(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.3",
        "--trace",
        trace,
        "--scale",
        "smoke",
    ];
    args.extend_from_slice(extra);
    perfbench(&args).output().expect("perfbench runs")
}

fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    Json::parse(line).unwrap_or_else(|e| panic!("result line is JSON ({e}): {line}"))
}

/// Metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Json::as_slice)
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for w in WORKLOADS {
            let out = smoke(w, trace, &[]);
            assert!(
                out.status.success(),
                "{w} --trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = last_line(&out);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert!(result.get("attempted").and_then(Json::as_usize) >= Some(1));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{w}: no metrics object");
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, want, "{w} --trace {trace}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{w}: {name} = {m}");
            }
        }
    }
}

#[test]
fn a_corrupted_reference_fails_every_workload() {
    for w in WORKLOADS {
        let out = smoke(w, "0", &["--corrupt-reference"]);
        assert!(!out.status.success(), "{w} accepted a wrong reference");
        assert_eq!(
            last_line(&out).get("correct"),
            Some(&Json::Bool(false)),
            "{w}"
        );
    }
}

#[test]
fn pinned_environment_is_refused() {
    for var in ["PANDORA_DENDROGRAM", "PANDORA_LINKAGE"] {
        let out = perfbench(&["--workload", "dendro_skewed", "--scale", "smoke"])
            .env(var, "work-optimal")
            .output()
            .expect("perfbench runs");
        assert_eq!(out.status.code(), Some(2), "{var} was not refused");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
    }
}
