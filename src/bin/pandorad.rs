//! `pandorad` — the long-running serving daemon over the Session API.
//!
//! ```text
//! pandorad [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!          [--load name=points.csv|.bin]...
//! pandorad --stdio [--load name=path]...
//! ```
//!
//! Speaks newline-delimited JSON-RPC (methods `load`, `cluster`, `sweep`,
//! `stats`, `shutdown`) over TCP, or over stdin/stdout with `--stdio` for
//! scripting. Protocol reference and operations runbook: `docs/SERVING.md`.
//!
//! Environment: `PANDORA_THREADS` sizes the default worker-lane count and
//! `PANDORA_QUEUE_DEPTH` the default admission queue. No variable changes
//! what a request computes: one that omits `linkage` runs single linkage.

// PL001 (docs/ANALYSIS.md): no panic path here or in any submodule.
#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![expect(
    clippy::print_stderr,
    reason = "an operator-facing daemon: startup errors and its listen address go to stderr"
)]

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use pandora::data::io as pio;
use pandora::hdbscan::daemon::{serve_once, Daemon, DaemonConfig, DatasetRegistry};
use pandora::hdbscan::DatasetIndex;
use pandora::mst::PointSet;

const DEFAULT_ADDR: &str = "127.0.0.1:7462";
const PRELOAD_MAX_MIN_PTS: usize = 16;

struct Args {
    addr: String,
    stdio: bool,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    /// `name=path` preloads, in order.
    loads: Vec<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: DEFAULT_ADDR.to_string(),
        stdio: false,
        workers: None,
        queue_depth: None,
        loads: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |key: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag --{key} needs a value"))
        };
        match a.as_str() {
            "--stdio" => args.stdio = true,
            "--addr" => args.addr = value("addr")?,
            "--workers" => {
                let v = value("workers")?;
                args.workers = Some(v.parse().map_err(|_| format!("invalid --workers: {v}"))?);
            }
            "--queue-depth" => {
                let v = value("queue-depth")?;
                args.queue_depth = Some(
                    v.parse()
                        .map_err(|_| format!("invalid --queue-depth: {v}"))?,
                );
            }
            "--load" => {
                let v = value("load")?;
                let (name, path) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--load expects name=path, got: {v}"))?;
                if name.is_empty() || path.is_empty() {
                    return Err(format!("--load expects name=path, got: {v}"));
                }
                args.loads.push((name.to_string(), path.to_string()));
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument: {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn usage() -> String {
    "usage: pandorad [--addr HOST:PORT] [--workers N] [--queue-depth N] \
     [--load name=points.csv|.bin]...\n       pandorad --stdio [--load name=path]...\n\
     protocol reference: docs/SERVING.md"
        .to_string()
}

fn load_points(path: &Path) -> Result<PointSet, String> {
    let loaded = if path.extension().is_some_and(|e| e == "csv") {
        pio::load_csv(path)
    } else {
        pio::load(path)
    };
    loaded.map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Freezes each `--load name=path` dataset into `registry`.
fn preload(registry: &DatasetRegistry, loads: &[(String, String)]) -> Result<(), String> {
    for (name, path) in loads {
        let points = load_points(Path::new(path))?;
        let (n, dim) = (points.len(), points.dim());
        let max_min_pts = PRELOAD_MAX_MIN_PTS.min(n.max(1));
        let index = DatasetIndex::freeze(points, max_min_pts)
            .map_err(|e| format!("cannot freeze {path}: {e}"))?;
        registry
            .register(name, Arc::new(index), false)
            .map_err(|e| format!("cannot register {name}: {}", e.message))?;
        eprintln!("pandorad: loaded {name} ({n} points, {dim}D, max_min_pts {max_min_pts})");
    }
    Ok(())
}

fn config(args: &Args) -> DaemonConfig {
    let mut config = DaemonConfig::new();
    if let Some(workers) = args.workers {
        config = config.workers(workers);
    }
    if let Some(depth) = args.queue_depth {
        config = config.queue_depth(depth);
    }
    config
}

fn run(args: &Args) -> Result<(), String> {
    if args.stdio {
        let registry = DatasetRegistry::new();
        preload(&registry, &args.loads)?;
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        serve_once(config(args), registry, stdin.lock(), stdout.lock());
        return Ok(());
    }
    let daemon = Daemon::bind(args.addr.as_str(), config(args))
        .map_err(|e| format!("cannot bind {}: {e}", args.addr))?;
    preload(daemon.registry(), &args.loads)?;
    eprintln!("pandorad: listening on {}", daemon.local_addr());
    // Blocks until a wire `shutdown` request arrives, then drains.
    daemon.join();
    eprintln!("pandorad: shut down");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
