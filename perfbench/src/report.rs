//! Measurement plumbing shared by every workload: the run budget, latency
//! summaries, host facts, the per-layer metric table and the JSON lines the
//! benchmark prints.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use pandora_exec::ExecCtx;

/// Every per-layer metric the traced run reports, with its unit. Each
/// workload fills the ones its operations exercise; the rest read 0 (that
/// layer does no work per operation on that workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mst.kdtree_ms", "ms"),
    ("mst.knn_rows_ms", "ms"),
    ("mst.core2_ms", "ms"),
    ("mst.boruvka_ms", "ms"),
    ("mst.witness_hits", "count"),
    ("mst.researches", "count"),
    ("mst.snapshot_adopts", "count"),
    ("mst.witness_hit_ratio", "ratio"),
    ("core.sort_ms", "ms"),
    ("core.dendrogram_ms", "ms"),
    ("core.levels", "count"),
    ("core.level_edges", "count"),
    ("hdbscan.condense_ms", "ms"),
    ("hdbscan.select_ms", "ms"),
    ("hdbscan.labels_ms", "ms"),
    ("hdbscan.session_acquire_us", "us"),
    ("daemon.parse_us", "us"),
    ("daemon.encode_us", "us"),
    ("daemon.reply_bytes", "bytes"),
    ("daemon.stdio_ms", "ms"),
    ("daemon.server_ms_p50", "ms"),
    ("daemon.server_ms_p95", "ms"),
    ("daemon.wire_gap_ms", "ms"),
    ("daemon.engine_runs", "count"),
    ("daemon.coalesced", "count"),
    ("daemon.shed", "count"),
    ("daemon.load_ms", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("exec.allocs", "count"),
    ("exec.alloc_bytes", "bytes"),
    ("trace.emst_build.elements", "count"),
    ("trace.emst_build.bytes", "bytes"),
    ("trace.emst_core.elements", "count"),
    ("trace.emst_core.bytes", "bytes"),
    ("trace.emst_boruvka.elements", "count"),
    ("trace.emst_boruvka.bytes", "bytes"),
    ("trace.sort.elements", "count"),
    ("trace.sort.bytes", "bytes"),
    ("trace.contraction.elements", "count"),
    ("trace.contraction.bytes", "bytes"),
    ("trace.expansion.elements", "count"),
    ("trace.expansion.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
];

/// The kernel-trace phases reported as `trace.<phase>.*`.
pub const TRACE_PHASES: [&str; 6] = [
    "emst_build",
    "emst_core",
    "emst_boruvka",
    "sort",
    "contraction",
    "expansion",
];

/// How long a run measures, and how many operations it needs at least.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds to keep issuing operations.
    pub seconds: f64,
    /// Operations to complete even when `seconds` runs out first, so that
    /// at least ten samples lie beyond the p95.
    pub min_ops: usize,
}

impl Budget {
    /// Hard ceiling on one measurement loop, whatever `min_ops` asks for.
    const MAX_LOOP_S: f64 = 100.0;

    /// Whether a loop that started at `start` and completed `done`
    /// operations should stop.
    pub fn done(&self, start: Instant, done: usize) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        (elapsed >= self.seconds && done >= self.min_ops) || elapsed >= Self::MAX_LOOP_S
    }

    /// This budget with a share of the time and a smaller operation floor.
    pub fn part(&self, share: f64, min_ops: usize) -> Self {
        Self {
            seconds: self.seconds * share,
            min_ops,
        }
    }
}

/// Outcomes of one measured loop.
#[derive(Debug, Default)]
pub struct Samples {
    /// Latency of every completed operation, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Operations completed per second in each block of a closed loop
    /// (empty for an open loop).
    pub block_ops_per_s: Vec<f64>,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that came back as a typed error (or never came back).
    pub failed: u64,
    /// Wall time of the loop, in seconds.
    pub wall_s: f64,
}

/// One operation's outcome in a closed loop: its latency, or the typed
/// error it returned. A wrong answer never gets here: it aborts the run.
pub type OpResult = Result<Duration, String>;

/// Runs `op` back to back (a closed loop with one client). The first
/// `block` operations warm caches and lazy set-up and are not timed; the
/// timed part then runs whole blocks of `block` operations until the budget
/// is spent. `op` receives the operation's sequence number, warm-up
/// included.
pub fn closed_loop(budget: Budget, block: usize, mut op: impl FnMut(usize) -> OpResult) -> Samples {
    let block = block.max(1);
    let mut samples = Samples::default();
    let mut issue = |i: usize, samples: &mut Samples| {
        samples.attempted += 1;
        match op(i) {
            Ok(d) => Some(ms(d)),
            Err(e) => {
                samples.failed += 1;
                eprintln!("operation {i} failed: {e}");
                None
            }
        }
    };
    for i in 0..block {
        issue(i, &mut samples);
    }
    let start = Instant::now();
    let (mut block_start, mut block_ok) = (start, 0);
    let mut timed = 0;
    while !(timed % block == 0 && budget.done(start, timed)) {
        if let Some(latency) = issue(block + timed, &mut samples) {
            samples.latency_ms.push(latency);
            block_ok += 1;
        }
        timed += 1;
        if timed % block == 0 {
            let now = Instant::now();
            let seconds = now.duration_since(block_start).as_secs_f64();
            samples.block_ops_per_s.push(block_ok as f64 / seconds);
            (block_start, block_ok) = (now, 0);
        }
    }
    samples.wall_s = start.elapsed().as_secs_f64();
    samples
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms(t.elapsed()))
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted values; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Runs `setup` `reps` times and returns the median of the times each run
/// reports, plus the last run's product (the one the workload keeps).
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        let (value, seconds) = setup();
        times.push(seconds);
        kept = Some(value);
    }
    (kept.expect("at least one set-up rep"), median(&times))
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// The six end-to-end metrics of one untraced run. A closed loop's
/// throughput is the median over its blocks, so a burst of contention from
/// other tenants moves it no more than it moves `p50_ms`; an open loop's is
/// completed operations over the loop's wall time.
pub fn end_to_end(setup_s: f64, samples: &Samples) -> Vec<Metric> {
    let ok = samples.attempted - samples.failed;
    let ops_per_s = if samples.block_ops_per_s.is_empty() {
        samples.latency_ms.len() as f64 / samples.wall_s.max(1e-9)
    } else {
        median(&samples.block_ops_per_s)
    };
    let metric = |name: &str, unit: &str, value: f64| Metric {
        name: name.into(),
        unit: unit.into(),
        value,
    };
    vec![
        metric("setup_s", "s", setup_s),
        metric("p50_ms", "ms", percentile(&samples.latency_ms, 0.50)),
        metric("p95_ms", "ms", percentile(&samples.latency_ms, 0.95)),
        metric("ops_per_s", "1/s", ops_per_s),
        metric(
            "ok_frac",
            "fraction",
            ok as f64 / samples.attempted.max(1) as f64,
        ),
        metric("peak_rss_mb", "MiB", peak_rss_mb()),
    ]
}

/// Per-layer values a traced run measured, keyed by [`PER_LAYER`] name.
#[derive(Debug, Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Records `name` (which must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Every [`PER_LAYER`] metric, 0 where this run recorded none.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.into(),
                unit: unit.into(),
                value: self
                    .values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
            })
            .collect()
    }
}

/// What a workload run hands back for printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Input descriptors (`n`, `dim`, dendrogram skewness, ...).
    pub inputs: Vec<(&'static str, f64)>,
}

fn json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The host facts recorded beside every result.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::env::var("PANDORA_THREADS").unwrap_or_else(|_| "unset".into());
    let mut out = String::new();
    let _ = write!(out, "{{\"nproc\":{nproc},\"cpu_model\":");
    json_string(&mut out, &cpu);
    out.push_str(",\"pandora_threads\":");
    json_string(&mut out, &threads);
    let _ = write!(out, ",\"pool_lanes\":{}}}", ExecCtx::threads().lanes());
    out
}

/// Prints the context line (host, workload, inputs) and then the result
/// line of a correct run, which is always the last line of standard output.
/// (An incorrect run never gets here: see [`wrong_answer`].)
pub fn print(workload: &str, seed: u64, trace: bool, outcome: &Outcome) {
    let mut ctx = String::from("{\"context\":{\"workload\":");
    json_string(&mut ctx, workload);
    let _ = write!(ctx, ",\"seed\":{seed},\"trace\":{trace},\"host\":");
    ctx.push_str(&host_json());
    ctx.push_str(",\"inputs\":{");
    for (i, (k, v)) in outcome.inputs.iter().enumerate() {
        if i > 0 {
            ctx.push(',');
        }
        json_string(&mut ctx, k);
        ctx.push(':');
        json_number(&mut ctx, *v);
    }
    ctx.push_str("}}}");
    println!("{ctx}");

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_string(&mut out, &m.name);
        out.push_str(": {\"value\": ");
        json_number(&mut out, m.value);
        out.push_str(", \"unit\": ");
        json_string(&mut out, &m.unit);
        out.push('}');
    }
    out.push_str("}}");
    println!("{out}");
}

/// Aborts the run on a wrong answer: says what differed, prints an
/// incorrect result line and exits non-zero.
pub fn wrong_answer(what: &str) -> ! {
    eprintln!("wrong answer: {what}");
    println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
    std::process::exit(1);
}

/// A small seeded generator (SplitMix64) for schedules and shuffles.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
