//! `perfbench` — the end-to-end and per-layer benchmark of the PANDORA
//! HDBSCAN\* stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|smoke] [--corrupt-reference]
//! ```
//!
//! Workloads (see `README.md` for why each exists):
//!
//! * `oneshot_cold` — `Hdbscan::run` on a fresh index per operation;
//! * `session_sweep` — one warm `Session` over a frozen `DatasetIndex`
//!   (runs by hand; `BENCHMARK.json` leaves it out, see `README.md`);
//! * `dendro_skewed` — sort, dendrogram and extraction over a skewed MST;
//! * `daemon_tcp` — an open loop against an in-process `pandorad` over TCP.
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run; `--trace 1`
//! prints the per-layer metrics of a traced pass that calls each layer's
//! public entry points from outside. Every answer is checked against a
//! reference computed during set-up; a wrong answer aborts the run with a
//! non-zero exit. The last line of standard output is the result object.

mod alloc;
mod daemon;
mod dendro;
mod layers;
mod oneshot;
mod report;
mod session;

use report::{Budget, Outcome};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Environment variables that silently change what a workload measures.
const PINNED_ENV: [&str; 2] = ["PANDORA_DENDROGRAM", "PANDORA_LINKAGE"];

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed of every generated input and schedule.
    pub seed: u64,
    /// How long the measured loop runs.
    pub budget: Budget,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs: every workload finishes in seconds.
    pub smoke: bool,
    /// Deliberately corrupt the reference answers (the run must then fail).
    pub corrupt_reference: bool,
}

impl Config {
    /// `full` at full scale, `smoke` in smoke mode.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <oneshot_cold|session_sweep|\
         dendro_skewed|daemon_tcp> --seed <n> --seconds <s> --trace <0|1> \
         [--scale full|smoke] [--corrupt-reference]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke, mut corrupt) =
        (1u64, 10.0f64, false, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--scale" => {
                smoke = match value().as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => usage("--scale takes full or smoke"),
                }
            }
            "--corrupt-reference" => corrupt = true,
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    for var in PINNED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!(
                "perfbench: refusing to run with {var} set: it changes what the workloads measure"
            );
            std::process::exit(2);
        }
    }
    let cfg = Config {
        seed,
        budget: Budget {
            seconds,
            // 200 samples put ten beyond the p95.
            min_ops: if smoke { 5 } else { 200 },
        },
        trace,
        smoke,
        corrupt_reference: corrupt,
    };
    let outcome: Outcome = match workload.as_str() {
        "oneshot_cold" => oneshot::run(&cfg),
        "session_sweep" => session::run(&cfg),
        "dendro_skewed" => dendro::run(&cfg),
        "daemon_tcp" => daemon::run(&cfg),
        other => usage(&format!("unknown workload {other}")),
    };
    report::print(&workload, seed, trace, &outcome);
}
