//! `daemon_tcp`: an in-process `pandorad` on loopback, preloaded over the
//! wire with the VisualVar10M2D proxy, driven by a seeded open loop over one
//! connection per core. The mix is mostly `cluster` requests with distinct
//! parameters per connection, plus identical requests due on every
//! connection at once (coalescing), `stats` calls, and `load` calls that
//! replace the dataset with the same points (writes beside reads, every
//! expected payload unchanged).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pandora_core::DendrogramWorkspace;
use pandora_data::by_name;
use pandora_exec::ExecCtx;
use pandora_hdbscan::daemon::json::Json;
use pandora_hdbscan::daemon::{
    proto, serve_once, Daemon, DaemonConfig, DatasetRegistry, DEFAULT_QUEUE_DEPTH,
};
use pandora_hdbscan::{ClusterRequest, DatasetIndex, HdbscanResult};
use pandora_mst::{EmstIndex, EmstScratch, PointSet};

use crate::layers::{
    check, freeze_layers, poison, record_medians, request_layers, serial_counts, stat_snapshot,
    LayerTimes, PassCounts, View,
};
use crate::report::{
    end_to_end, median, ms, percentile, timed, wrong_answer, Layers, Outcome, Rng, Samples,
};
use crate::Config;

const DATASET: &str = "bench";
/// Daemon bind + wire `load` repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 25;
const MAX_MIN_PTS: usize = 16;
const MIN_PTS: [usize; 4] = [2, 4, 8, 16];
/// `min_cluster_size` of connection `c`'s own requests is `BASE_MCS + c`.
const BASE_MCS: usize = 3;
/// `min_cluster_size` of the identical requests due on every connection.
const SHARED_MCS: usize = 40;
/// Mean seconds between two sends on one connection. Arrivals take the
/// connections in turn, so the offered load is `conns / CONN_INTERVAL_S`
/// arrivals per second (an arrival of the shared kind sends one request on
/// every connection). The interval is shorter than the 40 ms delayed-ACK
/// timer: a reply whose tail the daemon holds back then waits for the
/// client's next send on that connection every time. At longer intervals
/// the kernel can instead settle, for a whole run, into acknowledging at
/// once, and latency becomes bimodal across runs.
const CONN_INTERVAL_S: f64 = 0.030;
/// Each arrival is due within ± this share of the mean interval.
const JITTER: f64 = 0.2;
const P_LOAD: f64 = 0.01;
const P_STATS: f64 = 0.02;
const P_SHARED: f64 = 0.05;
/// Requests replayed through `serve_once` for `daemon.stdio_ms`.
const STDIO_REQUESTS: usize = 100;
/// How long the client waits for outstanding replies after the last send.
const DRAIN: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A `cluster` request whose expected payload is `payloads[i]`.
    Cluster(usize),
    Stats,
    Load,
}

struct Arrival {
    due: Duration,
    conn: usize,
    kind: Kind,
    line: String,
}

/// What the open loop saw.
struct Observed {
    samples: Samples,
    cluster_ms: Vec<f64>,
    load_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

fn load_line(id: u64, points: &PointSet) -> String {
    let params = Json::obj(vec![
        ("name", Json::Str(DATASET.into())),
        ("dim", Json::Int(points.dim() as i64)),
        ("max_min_pts", Json::Int(MAX_MIN_PTS as i64)),
        ("replace", Json::Bool(true)),
        (
            "points",
            Json::Arr(points.coords().iter().map(|&c| Json::F32(c)).collect()),
        ),
    ]);
    let request = Json::obj(vec![
        ("id", Json::Int(id as i64)),
        ("method", Json::Str("load".into())),
        ("params", params),
    ]);
    format!("{request}\n")
}

fn cluster_line(id: u64, (min_pts, mcs): (usize, usize)) -> String {
    format!(
        "{{\"id\":{id},\"method\":\"cluster\",\"params\":{{\"dataset\":\"{DATASET}\",\
         \"min_pts\":{min_pts},\"min_cluster_size\":{mcs}}}}}\n"
    )
}

/// The seeded arrival schedule: arrivals every `CONN_INTERVAL_S / conns`, with seeded
/// jitter, taking the connections in turn, until `seconds` have passed and
/// at least `min_ops` requests are scheduled. The seed also picks each
/// arrival's kind and `min_pts`.
fn schedule(
    rng: &mut Rng,
    seconds: f64,
    min_ops: usize,
    conns: usize,
    requests: &[(usize, usize)],
    points: &PointSet,
) -> Vec<Arrival> {
    let payload_of = |key: (usize, usize)| {
        requests
            .iter()
            .position(|&r| r == key)
            .expect("every scheduled request has a reference payload")
    };
    let mut out: Vec<Arrival> = Vec::new();
    let interval = CONN_INTERVAL_S / conns as f64;
    let mut slot = 0usize;
    while (slot as f64) * interval < seconds || out.len() < min_ops {
        let jitter = (2.0 * rng.unit() - 1.0) * JITTER * interval;
        let due = Duration::from_secs_f64((slot as f64 + 1.0) * interval + jitter);
        let conn = slot % conns;
        slot += 1;
        let id = out.len() as u64 + 1;
        let u = rng.unit();
        let min_pts = MIN_PTS[rng.below(MIN_PTS.len())];
        if u < P_LOAD {
            out.push(Arrival {
                due,
                conn,
                kind: Kind::Load,
                line: load_line(id, points),
            });
        } else if u < P_LOAD + P_STATS {
            let line = format!("{{\"id\":{id},\"method\":\"stats\"}}\n");
            out.push(Arrival {
                due,
                conn,
                kind: Kind::Stats,
                line,
            });
        } else if u < P_LOAD + P_STATS + P_SHARED {
            for conn in 0..conns {
                let id = out.len() as u64 + 1;
                let key = (min_pts, SHARED_MCS);
                out.push(Arrival {
                    due,
                    conn,
                    kind: Kind::Cluster(payload_of(key)),
                    line: cluster_line(id, key),
                });
            }
        } else {
            let key = (min_pts, BASE_MCS + conn);
            out.push(Arrival {
                due,
                conn,
                kind: Kind::Cluster(payload_of(key)),
                line: cluster_line(id, key),
            });
        }
    }
    out
}

/// A reply's verdict: fine, a typed error (a failure), or a wrong answer.
enum Verdict {
    Ok,
    Failed(String),
    Wrong(String),
}

fn reply_id(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn judge(line: &str, id: usize, kind: Kind, payloads: &[String], n: usize, dim: usize) -> Verdict {
    if line.starts_with(&format!("{{\"id\":{id},\"error\":")) {
        return Verdict::Failed(line.chars().take(200).collect());
    }
    match kind {
        Kind::Cluster(k) => {
            if line == format!("{{\"id\":{id},\"result\":{}}}", payloads[k]) {
                Verdict::Ok
            } else {
                Verdict::Wrong(format!(
                    "cluster reply {id} differs from the in-process payload"
                ))
            }
        }
        Kind::Stats => match Json::parse(line)
            .ok()
            .and_then(|v| v.get("result")?.get("uptime_ms").cloned())
        {
            Some(_) => Verdict::Ok,
            None => Verdict::Wrong(format!("stats reply {id} has no uptime_ms")),
        },
        Kind::Load => {
            let fields = Json::parse(line).ok().and_then(|v| {
                let r = v.get("result")?;
                Some((
                    r.get("n")?.as_usize()?,
                    r.get("dim")?.as_usize()?,
                    r.get("max_min_pts")?.as_usize()?,
                ))
            });
            if fields == Some((n, dim, MAX_MIN_PTS)) {
                Verdict::Ok
            } else {
                Verdict::Wrong(format!("load reply {id} reports {fields:?}"))
            }
        }
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream =
        TcpStream::connect(addr).unwrap_or_else(|e| wrong_answer(&format!("connect: {e}")));
    stream
        .set_nodelay(true)
        .unwrap_or_else(|e| wrong_answer(&format!("set_nodelay: {e}")));
    stream
}

/// Sends one request line and reads its reply on a fresh connection.
fn round_trip(addr: SocketAddr, line: &str) -> String {
    let mut stream = connect(addr);
    stream
        .write_all(line.as_bytes())
        .unwrap_or_else(|e| wrong_answer(&format!("send: {e}")));
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .unwrap_or_else(|e| wrong_answer(&format!("receive: {e}")));
    reply.trim_end().to_string()
}

/// What every reply of an open loop is checked against.
struct Expected<'a> {
    arrivals: &'a [Arrival],
    payloads: &'a [String],
    n: usize,
    dim: usize,
}

impl Expected<'_> {
    /// The request id a reply on connection `conn` answers, and its verdict.
    fn verdict(&self, line: &str, conn: usize) -> (usize, Verdict) {
        let Some(id) = reply_id(line).filter(|&id| id >= 1 && id <= self.arrivals.len()) else {
            let head: String = line.chars().take(120).collect();
            return (
                0,
                Verdict::Wrong(format!("reply without a known id: {head}")),
            );
        };
        let a = &self.arrivals[id - 1];
        if a.conn != conn {
            return (
                id,
                Verdict::Wrong(format!("reply {id} came back on another connection")),
            );
        }
        (id, judge(line, id, a.kind, self.payloads, self.n, self.dim))
    }
}

/// Reads and judges up to `want` replies on connection `conn`, stopping at
/// `deadline`; returns `(id, arrival time, verdict)` per reply.
fn read_replies(
    stream: TcpStream,
    conn: usize,
    want: usize,
    deadline: Instant,
    expected: &Expected,
) -> Vec<(usize, Instant, Verdict)> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut got = Vec::with_capacity(want);
    while got.len() < want && Instant::now() < deadline {
        // read_until keeps partial bytes in `buf` across timeouts, so a
        // slow line is completed, not lost.
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with(b"\n") => {
                let at = Instant::now();
                let line = String::from_utf8_lossy(&buf).trim_end().to_string();
                buf.clear();
                let (id, verdict) = expected.verdict(&line, conn);
                got.push((id, at, verdict));
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    got
}

/// Runs the open loop: one sender paces the schedule, one reader per
/// connection checks each reply as it lands. Latency counts from each
/// request's due time.
fn open_loop(addr: SocketAddr, conns: usize, expected: &Expected) -> Observed {
    let arrivals = expected.arrivals;
    let streams: Vec<TcpStream> = (0..conns).map(|_| connect(addr)).collect();
    let last_due = arrivals.last().map_or(Duration::ZERO, |a| a.due);
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + last_due + DRAIN;
    let mut late_ms = Vec::with_capacity(arrivals.len());
    let received: Vec<Vec<(usize, Instant, Verdict)>> = std::thread::scope(|scope| {
        let readers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let stream = stream
                    .try_clone()
                    .unwrap_or_else(|e| wrong_answer(&format!("clone: {e}")));
                let want = arrivals.iter().filter(|a| a.conn == c).count();
                scope.spawn(move || read_replies(stream, c, want, deadline, expected))
            })
            .collect();
        let mut writers: Vec<&TcpStream> = streams.iter().collect();
        for a in arrivals {
            let due = start + a.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            late_ms.push(ms(sent.saturating_duration_since(due)));
            // One write per request line: no partial lines for Nagle to hold.
            if let Err(e) = writers[a.conn].write_all(a.line.as_bytes()) {
                eprintln!("send failed: {e}");
            }
        }
        readers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| wrong_answer("a reply reader panicked"))
            })
            .collect()
    });

    let mut samples = Samples {
        attempted: arrivals.len() as u64,
        ..Samples::default()
    };
    let (mut cluster_ms, mut load_ms) = (Vec::new(), Vec::new());
    let mut answered = vec![false; arrivals.len()];
    let mut last = start;
    for (id, at, verdict) in received.into_iter().flatten() {
        if let Verdict::Wrong(msg) = &verdict {
            wrong_answer(msg);
        }
        // A known id (wrong replies, the only ones without, aborted above).
        if std::mem::replace(&mut answered[id - 1], true) {
            wrong_answer(&format!("request {id} was answered twice"));
        }
        match verdict {
            Verdict::Wrong(_) => unreachable!("wrong answers abort above"),
            Verdict::Failed(msg) => eprintln!("request {id} failed: {msg}"),
            Verdict::Ok => {
                let a = &arrivals[id - 1];
                let latency = ms(at.saturating_duration_since(start + a.due));
                samples.latency_ms.push(latency);
                match a.kind {
                    Kind::Cluster(_) => cluster_ms.push(latency),
                    Kind::Load => load_ms.push(latency),
                    Kind::Stats => {}
                }
                last = last.max(at);
            }
        }
    }
    samples.failed = samples.attempted - samples.latency_ms.len() as u64;
    samples.wall_s = last.saturating_duration_since(start).as_secs_f64();
    Observed {
        samples,
        cluster_ms,
        load_ms,
        late_ms,
    }
}

/// Binds a daemon with one worker lane per core and loads the dataset over
/// the wire; returns it with the seconds both took.
fn start_daemon(load: &str, n: usize, dim: usize) -> (Daemon, f64) {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let t = Instant::now();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonConfig::new()
            .workers(workers)
            .queue_depth(DEFAULT_QUEUE_DEPTH),
    )
    .unwrap_or_else(|e| wrong_answer(&format!("bind: {e}")));
    let reply = round_trip(daemon.local_addr(), load);
    let seconds = t.elapsed().as_secs_f64();
    if !matches!(judge(&reply, 0, Kind::Load, &[], n, dim), Verdict::Ok) {
        wrong_answer(&format!(
            "set-up load failed: {}",
            reply.chars().take(200).collect::<String>()
        ));
    }
    (daemon, seconds)
}

fn stop(daemon: Daemon) {
    daemon.shutdown();
    daemon.join();
}

pub fn run(cfg: &Config) -> Outcome {
    let n = cfg.size(5_000, 1_000);
    let points = by_name("VisualVar10M2D")
        .expect("VisualVar10M2D is in the dataset registry")
        .generate(n, cfg.seed);
    let dim = points.dim();
    let conns = std::thread::available_parallelism().map_or(1, |p| p.get());

    // Reference payloads: canonical in-process bytes per distinct request.
    let mut requests: Vec<(usize, usize)> = Vec::new();
    for &m in &MIN_PTS {
        requests.extend((0..conns).map(|c| (m, BASE_MCS + c)));
        requests.push((m, SHARED_MCS));
    }
    let as_request = |(m, c): (usize, usize)| ClusterRequest::new().min_pts(m).min_cluster_size(c);
    let serial_index = Arc::new(
        DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points.clone(), MAX_MIN_PTS)
            .expect("the input freezes"),
    );
    let mut references: Vec<HdbscanResult> = {
        let mut session = serial_index.session();
        requests
            .iter()
            .map(|&r| {
                session
                    .run(&as_request(r))
                    .expect("every reference request is valid")
            })
            .collect()
    };
    if cfg.corrupt_reference {
        references.iter_mut().for_each(|r| poison(&mut r.labels));
    }
    let payloads: Vec<String> = references
        .iter()
        .map(|r| proto::cluster_result(r).to_string())
        .collect();
    let mut rng = Rng::new(cfg.seed);
    let loop_seconds = if cfg.trace {
        cfg.budget.seconds * 0.6
    } else {
        cfg.budget.seconds
    };
    let arrivals = schedule(
        &mut rng,
        loop_seconds,
        cfg.budget.min_ops,
        conns,
        &requests,
        &points,
    );
    let inputs = vec![
        ("n", n as f64),
        ("dim", dim as f64),
        ("skewness", references[0].dendrogram.skewness()),
        ("connections", conns as f64),
        ("offered_per_s", conns as f64 / CONN_INTERVAL_S),
        ("scheduled_requests", arrivals.len() as f64),
    ];

    // Set-up: daemon bind plus a wire `load`, repeated; the last one serves.
    let setup_load = load_line(0, &points);
    let mut setup_times = Vec::new();
    let mut kept: Option<Daemon> = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = kept.take() {
            stop(d);
        }
        let (d, seconds) = start_daemon(&setup_load, n, dim);
        setup_times.push(seconds);
        kept = Some(d);
    }
    let daemon = kept.expect("at least one set-up rep");
    let setup_s = median(&setup_times);
    let addr = daemon.local_addr();

    let expected = Expected {
        arrivals: &arrivals,
        payloads: &payloads,
        n,
        dim,
    };
    let before = daemon.counters();
    let observed = open_loop(addr, conns, &expected);
    let after = daemon.counters();
    if !cfg.trace {
        stop(daemon);
        return Outcome {
            attempted: observed.samples.attempted,
            failed: observed.samples.failed,
            metrics: end_to_end(setup_s, &observed.samples),
            inputs,
        };
    }

    let mut layers = Layers::default();
    let stats = round_trip(addr, "{\"id\":1,\"method\":\"stats\"}\n");
    let server = Json::parse(&stats)
        .ok()
        .and_then(|v| {
            let c = v.get("result")?.get("latency")?.get("cluster")?.clone();
            Some((c.get("p50_ms")?.as_f64()?, c.get("p95_ms")?.as_f64()?))
        })
        .unwrap_or_else(|| wrong_answer("stats reply has no cluster latency"));
    let index = daemon
        .registry()
        .get(DATASET)
        .unwrap_or_else(|| wrong_answer("the dataset is not loaded"));
    stop(daemon);
    layers.set("daemon.server_ms_p50", server.0);
    layers.set("daemon.server_ms_p95", server.1);
    layers.set(
        "daemon.wire_gap_ms",
        median(&observed.cluster_ms) - server.0,
    );
    layers.set(
        "daemon.engine_runs",
        (after.engine_runs - before.engine_runs) as f64,
    );
    layers.set(
        "daemon.coalesced",
        (after.coalesced - before.coalesced) as f64,
    );
    layers.set("daemon.shed", (after.shed - before.shed) as f64);
    layers.set("daemon.load_ms", median(&observed.load_ms));
    layers.set("gen.late_ms_p99", percentile(&observed.late_ms, 0.99));

    // Wire parse and encode, on the workload's own lines and results.
    let cluster_lines: Vec<&Arrival> = arrivals
        .iter()
        .filter(|a| matches!(a.kind, Kind::Cluster(_)))
        .collect();
    let parse_us: Vec<f64> = cluster_lines
        .iter()
        .map(|a| {
            let (parsed, t) = timed(|| {
                proto::parse_request(a.line.trim())
                    .ok()
                    .and_then(|r| proto::cluster_params(&r.params).ok())
            });
            if parsed.is_none() {
                wrong_answer("a workload line does not parse");
            }
            t * 1e3
        })
        .collect();
    let mut encode_us = Vec::new();
    let mut reply_bytes = Vec::new();
    for (i, a) in cluster_lines.iter().enumerate() {
        let Kind::Cluster(k) = a.kind else { continue };
        let (line, t) = timed(|| {
            proto::response_ok(&Json::Int(i as i64), proto::cluster_result(&references[k]))
        });
        encode_us.push(t * 1e3);
        reply_bytes.push(line.len() as f64 + 1.0);
    }
    layers.set("daemon.parse_us", median(&parse_us));
    layers.set("daemon.encode_us", median(&encode_us));
    layers.set("daemon.reply_bytes", median(&reply_bytes));

    // The same request stream through `serve_once`: no sockets, no threads.
    let stream: Vec<&Arrival> = arrivals.iter().take(STDIO_REQUESTS).collect();
    let input: String = stream.iter().map(|a| a.line.as_str()).collect();
    let registry = DatasetRegistry::new();
    if registry
        .register(DATASET, Arc::clone(&index), false)
        .is_err()
    {
        wrong_answer("cannot register the dataset for serve_once");
    }
    let mut output = Vec::new();
    let ((), stdio_ms) = timed(|| {
        serve_once(
            DaemonConfig::new().workers(1),
            registry,
            input.as_bytes(),
            &mut output,
        )
    });
    let text = String::from_utf8_lossy(&output);
    let replies: Vec<&str> = text.lines().collect();
    if replies.len() != stream.len() {
        wrong_answer("serve_once answered a different number of requests");
    }
    for (reply, a) in replies.iter().zip(&stream) {
        let (id, verdict) = expected.verdict(reply, a.conn);
        if id == 0 || !std::ptr::eq(&arrivals[id - 1], *a) {
            wrong_answer("serve_once answered out of order");
        }
        if !matches!(verdict, Verdict::Ok) {
            wrong_answer(&format!("serve_once reply {id} is wrong"));
        }
    }
    layers.set("daemon.stdio_ms", stdio_ms / stream.len() as f64);

    // Per-request layers on the daemon's own per-request context.
    let ctx = ExecCtx::serial();
    let mut scratch = EmstScratch::new();
    let mut ws = DendrogramWorkspace::new();
    let mut times = Vec::new();
    let mut acquire_us = Vec::new();
    let mut composed_ms = Vec::new();
    let wire_ms = (median(&parse_us) + median(&encode_us)) / 1e3;
    let started = Instant::now();
    let mut i = 0;
    while i < requests.len() || started.elapsed().as_secs_f64() < cfg.budget.seconds * 0.2 {
        let k = i % requests.len();
        let ((), acquire) = timed(|| drop(index.session_with_ctx(ctx.clone())));
        let mut t = LayerTimes::default();
        let out = request_layers(
            &ctx,
            index.emst(),
            &as_request(requests[k]),
            &mut scratch,
            &mut ws,
            &mut t,
            true,
        );
        check(&View::from(&references[k]), &out.view(), "composed layers");
        acquire_us.push(acquire * 1e3);
        composed_ms.push(acquire + t.total() + wire_ms);
        times.push(t);
        i += 1;
    }
    record_medians(&mut layers, &times);
    let mut freeze = LayerTimes::default();
    freeze_layers(
        index.ctx(),
        index.emst().points(),
        index.emst(),
        &mut freeze,
    );
    layers.set("mst.kdtree_ms", freeze.kdtree);
    layers.set("mst.knn_rows_ms", freeze.knn_rows);
    layers.set("hdbscan.session_acquire_us", median(&acquire_us));
    layers.set("trace.overhead_ratio", median(&composed_ms) / server.0);

    serial_counts(&mut layers, |ctx, meter| {
        let index = EmstIndex::freeze(ctx, points.clone(), MAX_MIN_PTS).expect("the input freezes");
        let mut scratch = EmstScratch::new();
        let mut ws = DendrogramWorkspace::new();
        let mut counts = PassCounts::default();
        meter.begin();
        for (k, &r) in requests.iter().enumerate() {
            let before = stat_snapshot(&index);
            let out = request_layers(
                ctx,
                &index,
                &as_request(r),
                &mut scratch,
                &mut ws,
                &mut LayerTimes::default(),
                false,
            );
            check(&View::from(&references[k]), &out.view(), "serial pass");
            counts.add(&out, Some((&index, before)));
        }
        counts
    });
    Outcome {
        attempted: observed.samples.attempted,
        failed: observed.samples.failed,
        metrics: layers.into_metrics(),
        inputs,
    }
}
