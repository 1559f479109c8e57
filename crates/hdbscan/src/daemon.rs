//! `pandorad` — the serving daemon over the two-tier Session API.
//!
//! [`crate::serve`] made the library concurrency-shaped (shared
//! [`DatasetIndex`], per-request [`Session`](crate::Session), fallible
//! [`ClusterRequest`]); this module is the process around it: a long-running
//! daemon speaking newline-delimited JSON-RPC over TCP (plus a one-shot
//! stdin/stdout mode for scripting), with the serving disciplines a shared
//! deployment needs — bounded queueing, load shedding, request coalescing
//! and latency accounting. The protocol itself lives in [`proto`]; the full
//! wire reference is `docs/SERVING.md`.
//!
//! ```text
//!            accept loop (nonblocking, 1 thread)
//!                 │ one reader thread per connection
//!                 ▼
//!   parse → dispatch ──────────────▶ stats/shutdown answered inline
//!                 │ load/cluster/sweep
//!                 ▼
//!        coalescer (in-flight map) ──▶ duplicate (dataset, request):
//!                 │ leader only          follower waits, 0 engine runs
//!                 ▼
//!        bounded queue (shed when full → "overloaded")
//!                 │
//!                 ▼
//!        worker lanes (default: one per `ExecCtx::threads()` lane)
//!        each run: registry lookup → Session::run → payload encoded once
//!                  (a finished hierarchy cached on the index skips the
//!                   spanning tree and the dendrogram; the leader and
//!                   every coalesced waiter get the same payload bytes)
//! ```
//!
//! **Ownership and lifetimes.** The [`DatasetRegistry`] owns one
//! `Arc<DatasetIndex>` per loaded dataset; workers clone the `Arc` for the
//! duration of a request, so a `load` with `"replace": true` never
//! invalidates an in-flight computation — the old index is freed when its
//! last in-flight request finishes. Sessions are drawn per request and
//! their scratch returns to the index's internal pool, so steady-state
//! serving allocates nothing per request (the [`crate::serve`] contract).
//! The index's hierarchy cache goes with it: a replacement index starts
//! with an empty cache.
//!
//! A daemon end to end, from this side of the socket:
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//! use std::sync::Arc;
//! use pandora_hdbscan::daemon::{Daemon, DaemonConfig};
//! use pandora_hdbscan::DatasetIndex;
//! use pandora_mst::PointSet;
//!
//! let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::new().workers(1))?;
//!
//! // Preload a dataset in-process (clients can also `load` over the wire).
//! let mut coords = Vec::new();
//! for i in 0..20 {
//!     coords.extend_from_slice(&[i as f32 * 0.01, 0.0]);
//!     coords.extend_from_slice(&[9.0 + i as f32 * 0.01, 0.0]);
//! }
//! let points = PointSet::try_new(coords, 2).expect("finite");
//! let index = Arc::new(DatasetIndex::freeze(points, 4).expect("ceiling"));
//! daemon.registry().register("toy", index, false).expect("fresh name");
//!
//! let mut conn = TcpStream::connect(daemon.local_addr())?;
//! // One request line, `\n` included, in one write (docs/SERVING.md,
//! // "Wire format"): `writeln!` on a raw socket would split it.
//! let request = r#"{"id":1,"method":"cluster","params":{"dataset":"toy","min_pts":2}}"#;
//! conn.write_all(format!("{request}\n").as_bytes())?;
//! let mut reply = String::new();
//! BufReader::new(conn.try_clone()?).read_line(&mut reply)?;
//! assert!(reply.contains(r#""n_clusters":2"#), "{reply}");
//!
//! daemon.shutdown();
//! daemon.join();
//! # Ok::<(), std::io::Error>(())
//! ```

// PL001 (docs/ANALYSIS.md): no panic path here or in any submodule.
#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::unwrap_used,
    clippy::expect_used
)]

pub mod json;
pub mod proto;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use pandora_exec::counters::RelaxedCounter;
use pandora_exec::ExecCtx;
use pandora_mst::PointSet;

use crate::serve::{ClusterRequest, DatasetIndex};
use json::Json;
use proto::{code, ClusterParams, LoadParams, Method, SweepParams, WireError, WireRequest};

/// Environment variable overriding the default bounded-queue capacity.
pub const QUEUE_DEPTH_ENV: &str = "PANDORA_QUEUE_DEPTH";

/// Default bounded-queue capacity when neither the builder nor
/// [`QUEUE_DEPTH_ENV`] picks one.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Latency samples retained per method (a ring: beyond this many, new
/// samples overwrite the oldest — percentiles stay O(recent traffic)).
const LATENCY_WINDOW: usize = 4096;

/// Daemon tuning knobs, with environment-driven defaults.
///
/// ```
/// use pandora_hdbscan::daemon::DaemonConfig;
///
/// let config = DaemonConfig::new().workers(2).queue_depth(8);
/// assert_eq!(config.workers, 2);
/// assert_eq!(config.queue_depth, 8);
/// // Defaults: one worker lane per `ExecCtx::threads()` lane
/// // (PANDORA_THREADS), queue depth from PANDORA_QUEUE_DEPTH or 64.
/// assert!(DaemonConfig::new().workers >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker lanes answering queued requests. Each lane serves one request
    /// at a time through its own [`Session`](crate::Session) with serial
    /// stage dispatch — request-level parallelism, the shape the serve
    /// canary gates. Defaults to the process pool's lane count
    /// (`PANDORA_THREADS` aware).
    pub workers: usize,
    /// Bounded queue capacity; a full queue sheds new work with a typed
    /// `"overloaded"` error instead of queueing unboundedly. Defaults to
    /// [`QUEUE_DEPTH_ENV`], then [`DEFAULT_QUEUE_DEPTH`].
    pub queue_depth: usize,
}

impl DaemonConfig {
    /// The environment-driven defaults (see the field docs).
    pub fn new() -> Self {
        let queue_depth = std::env::var(QUEUE_DEPTH_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&d| d >= 1)
            .unwrap_or(DEFAULT_QUEUE_DEPTH);
        Self {
            workers: ExecCtx::threads().lanes(),
            queue_depth,
        }
    }

    /// Pins the worker-lane count (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Pins the bounded-queue capacity (clamped to ≥ 1).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The named-dataset registry: one frozen [`DatasetIndex`] per name,
/// shared by `Arc` with every in-flight request.
///
/// Replacing an entry swaps the `Arc` — requests already running against
/// the old index finish on it unharmed; the old index is freed when the
/// last such request drops its clone.
///
/// ```
/// use std::sync::Arc;
/// use pandora_hdbscan::daemon::DatasetRegistry;
/// use pandora_hdbscan::DatasetIndex;
/// use pandora_mst::PointSet;
///
/// let registry = DatasetRegistry::new();
/// let points = PointSet::try_new(vec![0.0, 0.0, 1.0, 0.0, 5.0, 1.0], 2)?;
/// let index = Arc::new(DatasetIndex::freeze(points, 3)?);
///
/// registry.register("demo", Arc::clone(&index), false).expect("fresh name");
/// assert!(registry.get("demo").is_some());
/// assert_eq!(registry.names(), vec!["demo".to_string()]);
///
/// // Duplicate names are rejected unless replacement is explicit.
/// assert!(registry.register("demo", Arc::clone(&index), false).is_err());
/// assert!(registry.register("demo", index, true).is_ok());
/// # Ok::<(), pandora_mst::PandoraError>(())
/// ```
#[derive(Debug, Default)]
pub struct DatasetRegistry {
    entries: Mutex<BTreeMap<String, Arc<DatasetIndex>>>,
}

impl DatasetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `index` under `name`. Without `replace`, an existing entry
    /// is a typed `"dataset_exists"` error; with it, the entry is swapped
    /// (in-flight requests finish on the old index).
    pub fn register(
        &self,
        name: &str,
        index: Arc<DatasetIndex>,
        replace: bool,
    ) -> Result<(), WireError> {
        let mut entries = self.entries.lock();
        if !replace && entries.contains_key(name) {
            return Err(WireError::new(
                code::DATASET_EXISTS,
                format!("dataset already loaded: {name} (pass \"replace\": true to swap)"),
            ));
        }
        entries.insert(name.to_string(), index);
        Ok(())
    }

    /// The index under `name`, if loaded.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetIndex>> {
        self.entries.lock().get(name).cloned()
    }

    /// Loaded dataset names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.lock().keys().cloned().collect()
    }

    /// Number of loaded datasets.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether no dataset is loaded.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// The per-dataset rows of the `stats` payload.
    fn stats_json(&self) -> Json {
        let entries = self.entries.lock();
        Json::Arr(
            entries
                .iter()
                .map(|(name, index)| {
                    // Borůvka cache effectiveness: queries answered by a
                    // merge-surviving witness vs. full tree re-searches, and
                    // how many cold lanes warmed from the shared endgame
                    // snapshot; then the rung above them, runs answered by
                    // a finished hierarchy (docs/SERVING.md, "stats").
                    let boruvka = index.emst().stats();
                    let hierarchies = index.hierarchy_stats();
                    Json::obj(vec![
                        ("name", Json::Str(name.clone())),
                        ("n", Json::Int(index.len() as i64)),
                        ("dim", Json::Int(index.emst().points().dim() as i64)),
                        ("max_min_pts", Json::Int(index.max_min_pts() as i64)),
                        ("pooled_sessions", Json::Int(index.pooled_sessions() as i64)),
                        ("witness_hits", Json::Int(boruvka.witness_hits() as i64)),
                        ("researches", Json::Int(boruvka.researches() as i64)),
                        (
                            "snapshot_adopts",
                            Json::Int(boruvka.snapshot_adopts() as i64),
                        ),
                        ("hierarchy_hits", Json::Int(hierarchies.hits as i64)),
                        ("hierarchy_misses", Json::Int(hierarchies.misses as i64)),
                        ("hierarchies", Json::Int(hierarchies.entries as i64)),
                        ("hierarchy_bytes", Json::Int(hierarchies.bytes as i64)),
                    ])
                })
                .collect(),
        )
    }
}

/// A monotonic snapshot of the daemon's work counters (also served over the
/// wire inside `stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Responses written, of any kind (successes and typed errors).
    pub served: u64,
    /// Actual `Session::run` executions (each sweep member counts once),
    /// whether or not the index's hierarchy cache answered them.
    /// Coalesced followers do **not** bump this — the protocol test's
    /// proof that duplicates share one computation.
    pub engine_runs: u64,
    /// Requests answered from another request's in-flight computation.
    pub coalesced: u64,
    /// Requests shed by admission control (`"overloaded"`).
    pub shed: u64,
}

#[derive(Debug, Default)]
struct Counters {
    served: RelaxedCounter,
    engine_runs: RelaxedCounter,
    coalesced: RelaxedCounter,
    shed: RelaxedCounter,
    /// Requests currently executing on worker lanes.
    active: RelaxedCounter,
}

impl Counters {
    fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            served: self.served.get(),
            engine_runs: self.engine_runs.get(),
            coalesced: self.coalesced.get(),
            shed: self.shed.get(),
        }
    }
}

/// Ring of recent per-method latencies.
#[derive(Debug, Default)]
struct MethodLatency {
    samples: Vec<Duration>,
    total: u64,
}

impl MethodLatency {
    fn record(&mut self, d: Duration) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(d);
        } else {
            self.samples[(self.total % LATENCY_WINDOW as u64) as usize] = d;
        }
        self.total += 1;
    }

    fn stats_json(&self) -> Json {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let ms = |d: Duration| Json::Float(d.as_secs_f64() * 1e3);
        Json::obj(vec![
            ("count", Json::Int(self.total as i64)),
            ("p50_ms", ms(criterion::percentile(&sorted, 0.50))),
            ("p95_ms", ms(criterion::percentile(&sorted, 0.95))),
        ])
    }
}

/// Where a response line goes: one locked writer per connection (workers
/// answering different requests of one client interleave whole lines, never
/// bytes).
type Sink = Arc<Mutex<Box<dyn Write + Send>>>;

fn send_line(sink: &Sink, counters: &Counters, line: String) {
    write_line(&mut *sink.lock(), counters, line);
}

/// The one framing function every response goes through: the encoded line
/// gets its `\n` appended in place and leaves in a single `write_all`. A
/// line split across two writes lets Nagle's algorithm hold the short tail
/// until the client's delayed ACK (~40 ms on Linux).
fn write_line(out: &mut dyn Write, counters: &Counters, mut line: String) {
    line.push('\n');
    // A vanished client is not a daemon error; the write result is
    // deliberately dropped (the reader thread notices the hangup).
    let _ = out.write_all(line.as_bytes());
    let _ = out.flush();
    counters.served.incr();
}

/// Coalescing key: requests with equal keys in flight at the same time
/// share one computation. `min_pts_list` is empty for `cluster` requests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct JobKey {
    dataset: String,
    request: ClusterRequest,
    min_pts_list: Vec<usize>,
}

struct Waiter {
    id: Json,
    sink: Sink,
}

enum Work {
    Load(LoadParams),
    Cluster(ClusterParams),
    Sweep(SweepParams),
}

struct Job {
    id: Json,
    sink: Sink,
    work: Work,
    /// Present on coalescable work (`cluster` / `sweep`).
    key: Option<JobKey>,
    enqueued: Instant,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
}

/// Everything the accept loop, connection readers and worker lanes share.
struct Shared {
    config: DaemonConfig,
    registry: DatasetRegistry,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    in_flight: Mutex<HashMap<JobKey, Vec<Waiter>>>,
    counters: Counters,
    latencies: Mutex<BTreeMap<&'static str, MethodLatency>>,
    stopping: AtomicBool,
    started: Instant,
    /// Freezes (`load`) run on the process pool; per-request sessions use
    /// serial stage dispatch (request-level parallelism across lanes).
    freeze_ctx: ExecCtx,
}

impl Shared {
    fn new(config: DaemonConfig, registry: DatasetRegistry) -> Arc<Self> {
        Arc::new(Self {
            config,
            registry,
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            in_flight: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            latencies: Mutex::new(BTreeMap::new()),
            stopping: AtomicBool::new(false),
            started: Instant::now(),
            freeze_ctx: ExecCtx::threads(),
        })
    }

    fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    fn begin_stop(&self) {
        self.stopping.store(true, Ordering::Release);
        self.queue_cv.notify_all();
    }

    /// Admission control: space in the bounded queue or a typed rejection.
    fn enqueue(&self, job: Job) -> Result<(), WireError> {
        let mut state = self.queue.lock();
        if state.jobs.len() >= self.config.queue_depth {
            return Err(WireError::new(
                code::OVERLOADED,
                format!(
                    "request queue is full ({} pending); retry with backoff",
                    state.jobs.len()
                ),
            ));
        }
        state.jobs.push_back(job);
        drop(state);
        self.queue_cv.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once stopping and drained.
    fn dequeue(&self) -> Option<Job> {
        let mut state = self.queue.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if self.is_stopping() {
                return None;
            }
            self.queue_cv.wait(&mut state);
        }
    }

    fn record_latency(&self, method: &'static str, since: Instant) {
        self.latencies
            .lock()
            .entry(method)
            .or_default()
            .record(since.elapsed());
    }

    /// One request line → zero or one queued job, with every immediate
    /// outcome (stats, shutdown, typed rejection, coalesced attach)
    /// answered before returning.
    fn dispatch(self: &Arc<Self>, line: &str, sink: &Sink) {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        let request = match proto::parse_request(trimmed) {
            Ok(r) => r,
            Err(e) => {
                send_line(sink, &self.counters, proto::response_err(&e.id, &e.error));
                return;
            }
        };
        match request.method {
            Method::Stats => {
                let stats = self.stats_json();
                send_line(sink, &self.counters, proto::response_ok(&request.id, stats));
            }
            Method::Shutdown => {
                send_line(
                    sink,
                    &self.counters,
                    proto::response_ok(
                        &request.id,
                        Json::obj(vec![("stopping", Json::Bool(true))]),
                    ),
                );
                self.begin_stop();
            }
            Method::Load | Method::Cluster | Method::Sweep => {
                if let Err(e) = self.admit(request, sink) {
                    let RequestRejected { id, error } = e;
                    send_line(sink, &self.counters, proto::response_err(&id, &error));
                }
            }
        }
    }

    /// Validates params, coalesces duplicates, and enqueues the leader.
    fn admit(self: &Arc<Self>, request: WireRequest, sink: &Sink) -> Result<(), RequestRejected> {
        let reject = |error: WireError| RequestRejected {
            id: request.id.clone(),
            error,
        };
        if self.is_stopping() {
            return Err(reject(WireError::new(
                code::SHUTTING_DOWN,
                "daemon is shutting down",
            )));
        }
        let (work, key) = match request.method {
            Method::Load => (
                Work::Load(proto::load_params(&request.params).map_err(reject)?),
                None,
            ),
            Method::Cluster => {
                let params = proto::cluster_params(&request.params).map_err(reject)?;
                let key = JobKey {
                    dataset: params.dataset.clone(),
                    request: params.request,
                    min_pts_list: Vec::new(),
                };
                (Work::Cluster(params), Some(key))
            }
            Method::Sweep => {
                let params = proto::sweep_params(&request.params).map_err(reject)?;
                let key = JobKey {
                    dataset: params.dataset.clone(),
                    request: params.base,
                    min_pts_list: params.min_pts.clone(),
                };
                (Work::Sweep(params), Some(key))
            }
            // Stats/Shutdown were answered inline by `dispatch`.
            Method::Stats | Method::Shutdown => return Ok(()),
        };
        // Admission holds `in_flight` across the insert, the enqueue and the
        // removal on a full queue: a request that attached to a leader which
        // is then shed would never be answered. The lock order is
        // `in_flight` → `queue`, and no path takes them the other way.
        let mut in_flight = self.in_flight.lock();
        if let Some(key) = &key {
            if let Some(waiters) = in_flight.get_mut(key) {
                // An identical computation is already queued or running:
                // attach to it instead of spending a queue slot.
                waiters.push(Waiter {
                    id: request.id,
                    sink: Arc::clone(sink),
                });
                return Ok(());
            }
            in_flight.insert(key.clone(), Vec::new());
        }
        let job = Job {
            id: request.id.clone(),
            sink: Arc::clone(sink),
            work,
            key: key.clone(),
            enqueued: Instant::now(),
        };
        if let Err(error) = self.enqueue(job) {
            if let Some(key) = &key {
                in_flight.remove(key);
            }
            self.counters.shed.incr();
            return Err(RequestRejected {
                id: request.id,
                error,
            });
        }
        Ok(())
    }

    /// Executes one queued job and writes its response(s) — the leader's
    /// and every coalesced follower's. The payload is encoded once; each
    /// response frames the same bytes under its own id.
    fn execute(&self, job: Job) {
        self.counters.active.incr();
        let (method, outcome) = match &job.work {
            Work::Load(params) => ("load", self.run_load(params)),
            Work::Cluster(params) => ("cluster", self.run_cluster(params)),
            Work::Sweep(params) => ("sweep", self.run_sweep(params)),
        };
        // Take the followers *after* computing: arrivals during the run
        // attached to this key and are answered from this one computation.
        let waiters = job
            .key
            .as_ref()
            .and_then(|key| self.in_flight.lock().remove(key))
            .unwrap_or_default();
        self.counters.coalesced.add(waiters.len() as u64);
        let respond = |id: &Json, sink: &Sink| {
            let line = match &outcome {
                Ok(payload) => proto::response_ok_encoded(id, payload),
                Err(error) => proto::response_err(id, error),
            };
            send_line(sink, &self.counters, line);
        };
        respond(&job.id, &job.sink);
        for waiter in &waiters {
            respond(&waiter.id, &waiter.sink);
        }
        self.counters.active.sub(1);
        self.record_latency(method, job.enqueued);
    }

    /// Runs one `load` request and returns its encoded payload.
    fn run_load(&self, params: &LoadParams) -> Result<String, WireError> {
        let t = Instant::now();
        let points = PointSet::try_new(params.points.clone(), params.dim)
            .map_err(|e| proto::pandora_error(&e))?;
        let (n, dim) = (points.len(), points.dim());
        let index =
            DatasetIndex::freeze_with_ctx(self.freeze_ctx.clone(), points, params.max_min_pts)
                .map_err(|e| proto::pandora_error(&e))?;
        self.registry
            .register(&params.name, Arc::new(index), params.replace)?;
        Ok(Json::obj(vec![
            ("name", Json::Str(params.name.clone())),
            ("n", Json::Int(n as i64)),
            ("dim", Json::Int(dim as i64)),
            ("max_min_pts", Json::Int(params.max_min_pts as i64)),
            ("freeze_ms", Json::Float(t.elapsed().as_secs_f64() * 1e3)),
        ])
        .to_string())
    }

    fn lookup(&self, dataset: &str) -> Result<Arc<DatasetIndex>, WireError> {
        self.registry.get(dataset).ok_or_else(|| {
            WireError::new(
                code::UNKNOWN_DATASET,
                format!("no dataset loaded under: {dataset}"),
            )
        })
    }

    /// Runs one `cluster` request and returns its encoded payload.
    fn run_cluster(&self, params: &ClusterParams) -> Result<String, WireError> {
        let index = self.lookup(&params.dataset)?;
        let mut session = index.session_with_ctx(ExecCtx::serial());
        self.counters.engine_runs.incr();
        let result = session
            .run(&params.request)
            .map_err(|e| proto::pandora_error(&e))?;
        let mut payload = String::new();
        proto::write_cluster_result(&mut payload, &result);
        Ok(payload)
    }

    /// Runs one `sweep` request and returns its encoded payload.
    fn run_sweep(&self, params: &SweepParams) -> Result<String, WireError> {
        let index = self.lookup(&params.dataset)?;
        // One warm session for the whole sweep: the frozen substrate, the
        // pooled buffers and the endgame cache amortize across members —
        // the engine's sweep path, reached over the wire.
        let mut session = index.session_with_ctx(ExecCtx::serial());
        let mut results = Vec::with_capacity(params.min_pts.len());
        for &min_pts in &params.min_pts {
            self.counters.engine_runs.incr();
            let result = session
                .run(&params.base.min_pts(min_pts))
                .map_err(|e| proto::pandora_error(&e))?;
            results.push(result);
        }
        let mut payload = String::new();
        proto::write_sweep_result(&mut payload, &params.min_pts, &results);
        Ok(payload)
    }

    /// The `stats` payload: liveness, registry, queue and latency state.
    fn stats_json(&self) -> Json {
        let snapshot = self.counters.snapshot();
        let (depth, capacity) = {
            let state = self.queue.lock();
            (state.jobs.len(), self.config.queue_depth)
        };
        let latency = {
            let latencies = self.latencies.lock();
            Json::Obj(
                latencies
                    .iter()
                    .filter(|(_, l)| !l.samples.is_empty())
                    .map(|(method, l)| ((*method).to_string(), l.stats_json()))
                    .collect(),
            )
        };
        Json::obj(vec![
            (
                "uptime_ms",
                Json::Float(self.started.elapsed().as_secs_f64() * 1e3),
            ),
            ("workers", Json::Int(self.config.workers as i64)),
            (
                "queue",
                Json::obj(vec![
                    ("depth", Json::Int(depth as i64)),
                    ("capacity", Json::Int(capacity as i64)),
                    ("active", Json::Int(self.counters.active.get() as i64)),
                ]),
            ),
            ("datasets", self.registry.stats_json()),
            (
                "counters",
                Json::obj(vec![
                    ("served", Json::Int(snapshot.served as i64)),
                    ("engine_runs", Json::Int(snapshot.engine_runs as i64)),
                    ("coalesced", Json::Int(snapshot.coalesced as i64)),
                    ("shed", Json::Int(snapshot.shed as i64)),
                ]),
            ),
            ("latency", latency),
        ])
    }
}

struct RequestRejected {
    id: Json,
    error: WireError,
}

/// A running `pandorad` instance: the TCP front-end over one shared
/// core. Created by [`Daemon::bind`]; stopped by a wire `shutdown` request
/// or [`Daemon::shutdown`], then reaped by [`Daemon::join`].
pub struct Daemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Conns,
}

/// Each live connection's socket and thread, keyed by connection id, so
/// [`Daemon::join`] can unblock readers parked in `read()` and reap them.
/// A connection removes its own entry when its reader returns.
type Conns = Arc<Mutex<BTreeMap<u64, (TcpStream, JoinHandle<()>)>>>;

impl Daemon {
    /// Binds the daemon on `addr` (use port 0 for an ephemeral port) and
    /// spawns its accept loop and worker lanes. See the module docs for a
    /// full request/response example.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: DaemonConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let config = DaemonConfig {
            workers: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
        };
        let workers_n = config.workers;
        let shared = Shared::new(config, DatasetRegistry::new());
        let conns: Conns = Arc::new(Mutex::new(BTreeMap::new()));

        let mut workers = Vec::with_capacity(workers_n);
        for lane in 0..workers_n {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("pandorad-worker-{lane}"))
                .spawn(move || {
                    while let Some(job) = shared.dequeue() {
                        shared.execute(job);
                    }
                })?;
            workers.push(handle);
        }

        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conns);
        let accept_thread = std::thread::Builder::new()
            .name("pandorad-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_conns))?;

        Ok(Self {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            workers,
            conns,
        })
    }

    /// The bound address (the ephemeral port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The dataset registry — preload indexes in-process before (or while)
    /// clients connect.
    pub fn registry(&self) -> &DatasetRegistry {
        &self.shared.registry
    }

    /// A snapshot of the work counters (also served over the wire in
    /// `stats`).
    pub fn counters(&self) -> CounterSnapshot {
        self.shared.counters.snapshot()
    }

    /// Signals the daemon to stop: queued work drains, new work is
    /// rejected, the accept loop exits. Non-blocking; pair with
    /// [`Daemon::join`].
    pub fn shutdown(&self) {
        self.shared.begin_stop();
    }

    /// Waits for a full stop (a wire `shutdown` or [`Daemon::shutdown`]):
    /// drains queued work, then unblocks and reaps every thread.
    pub fn join(mut self) {
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        // Workers exit once the queue drains after the stop signal.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Unblock connection readers parked in read() and reap them.
        let live = std::mem::take(&mut *self.conns.lock());
        for (conn, _) in live.values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for (_, handle) in live.into_values() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, conns: &Conns) {
    let mut next_id: u64 = 0;
    while !shared.is_stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Replies leave in one write each (`write_line`), so Nagle
                // has nothing to coalesce; with it on, a reply that follows
                // an unacknowledged one waits for the client's delayed ACK.
                // A socket that refuses the option still serves, slower.
                let _ = stream.set_nodelay(true);
                let (reader, conn) = match (stream.try_clone(), stream.try_clone()) {
                    (Ok(r), Ok(c)) => (r, c),
                    _ => continue,
                };
                let id = next_id;
                next_id += 1;
                let sink: Sink = Arc::new(Mutex::new(Box::new(stream)));
                let shared = Arc::clone(shared);
                let live = Arc::clone(conns);
                // Holding the lock across the spawn puts the entry in place
                // before the connection can remove it.
                let mut entries = conns.lock();
                let spawned = std::thread::Builder::new()
                    .name("pandorad-conn".to_string())
                    .spawn(move || {
                        serve_connection(reader, &shared, &sink);
                        live.lock().remove(&id);
                    });
                if let Ok(handle) = spawned {
                    entries.insert(id, (conn, handle));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn serve_connection(reader: TcpStream, shared: &Arc<Shared>, sink: &Sink) {
    let mut lines = BufReader::new(reader);
    let mut line = String::new();
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) | Err(_) => return, // EOF or hangup (incl. shutdown)
            Ok(_) => shared.dispatch(&line, sink),
        }
    }
}

/// One-shot scripting mode: serve newline-delimited requests from `input`
/// to `output` on the calling thread until EOF or a `shutdown` request.
///
/// Same protocol, same registry semantics, no sockets or threads — requests
/// execute strictly in order (so coalescing and shedding never trigger:
/// nothing is ever concurrently in flight). `pandorad --stdio` wires this
/// to stdin/stdout:
///
/// ```
/// use pandora_hdbscan::daemon::{serve_once, DaemonConfig, DatasetRegistry};
///
/// let input = concat!(
///     r#"{"id":1,"method":"load","params":{"name":"d","dim":1,"points":[0,0.1,9,9.1]}}"#,
///     "\n",
///     r#"{"id":2,"method":"cluster","params":{"dataset":"d","min_pts":2,"min_cluster_size":2}}"#,
///     "\n",
/// );
/// let mut output = Vec::new();
/// serve_once(DaemonConfig::new(), DatasetRegistry::new(), input.as_bytes(), &mut output);
/// let text = String::from_utf8(output).expect("utf-8");
/// let mut lines = text.lines();
/// assert!(lines.next().expect("load reply").contains(r#""n":4"#));
/// assert!(lines.next().expect("cluster reply").contains(r#""n_clusters":2"#));
/// ```
pub fn serve_once<R: Read, W: Write>(
    config: DaemonConfig,
    registry: DatasetRegistry,
    input: R,
    mut output: W,
) {
    let shared = Shared::new(config, registry);
    let mut lines = BufReader::new(input);
    let mut line = String::new();
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                match proto::parse_request(trimmed) {
                    Err(e) => write_line(
                        &mut output,
                        &shared.counters,
                        proto::response_err(&e.id, &e.error),
                    ),
                    Ok(request) => {
                        let stop = request.method == Method::Shutdown;
                        serve_inline(&shared, request, &mut output);
                        if stop {
                            return;
                        }
                    }
                }
            }
        }
    }
}

/// Executes one parsed request synchronously (the `serve_once` path).
fn serve_inline(shared: &Arc<Shared>, request: WireRequest, output: &mut dyn Write) {
    let started = Instant::now();
    let reply = |outcome: Result<String, WireError>| match outcome {
        Ok(payload) => proto::response_ok_encoded(&request.id, &payload),
        Err(error) => proto::response_err(&request.id, &error),
    };
    let (method, line) = match request.method {
        Method::Stats => (
            "stats",
            proto::response_ok(&request.id, shared.stats_json()),
        ),
        Method::Shutdown => (
            "shutdown",
            proto::response_ok(&request.id, Json::obj(vec![("stopping", Json::Bool(true))])),
        ),
        Method::Load => (
            "load",
            reply(proto::load_params(&request.params).and_then(|p| shared.run_load(&p))),
        ),
        Method::Cluster => (
            "cluster",
            reply(proto::cluster_params(&request.params).and_then(|p| shared.run_cluster(&p))),
        ),
        Method::Sweep => (
            "sweep",
            reply(proto::sweep_params(&request.params).and_then(|p| shared.run_sweep(&p))),
        ),
    };
    write_line(output, &shared.counters, line);
    shared.record_latency(method, started);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_data::synthetic::gaussian_blobs;

    fn tiny_index() -> Arc<DatasetIndex> {
        let (points, _) = gaussian_blobs(60, 2, 2, 40.0, 0.6, 11);
        Arc::new(DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points, 8).expect("freeze"))
    }

    #[test]
    fn config_defaults_and_builders() {
        let config = DaemonConfig::new();
        assert!(config.workers >= 1);
        assert!(config.queue_depth >= 1);
        assert_eq!(DaemonConfig::new().workers(0).workers, 1, "clamped");
        assert_eq!(DaemonConfig::new().queue_depth(0).queue_depth, 1, "clamped");
    }

    #[test]
    fn registry_rejects_duplicates_without_replace() {
        let registry = DatasetRegistry::new();
        assert!(registry.is_empty());
        registry.register("a", tiny_index(), false).expect("fresh");
        let dup = registry
            .register("a", tiny_index(), false)
            .expect_err("dup");
        assert_eq!(dup.code, code::DATASET_EXISTS);
        registry.register("a", tiny_index(), true).expect("replace");
        assert_eq!(registry.len(), 1);
        assert!(registry.get("a").is_some());
        assert!(registry.get("b").is_none());
    }

    #[test]
    fn replace_keeps_inflight_requests_on_the_old_index() {
        let registry = DatasetRegistry::new();
        let old = tiny_index();
        registry
            .register("a", Arc::clone(&old), false)
            .expect("fresh");
        let held = registry.get("a").expect("loaded"); // an in-flight clone
        registry.register("a", tiny_index(), true).expect("replace");
        // The held Arc still points at the old index and still serves.
        assert!(Arc::ptr_eq(&held, &old));
        let mut session = held.session();
        assert!(session.run(&ClusterRequest::new().min_pts(2)).is_ok());
    }

    #[test]
    fn queue_sheds_beyond_capacity() {
        let shared = Shared::new(
            DaemonConfig::new().workers(1).queue_depth(2),
            DatasetRegistry::new(),
        );
        let sink: Sink = Arc::new(Mutex::new(Box::new(Vec::new())));
        let job = |i: i64| Job {
            id: Json::Int(i),
            sink: Arc::clone(&sink),
            work: Work::Cluster(ClusterParams {
                dataset: format!("d{i}"),
                request: ClusterRequest::new(),
            }),
            key: None,
            enqueued: Instant::now(),
        };
        shared.enqueue(job(1)).expect("slot 1");
        shared.enqueue(job(2)).expect("slot 2");
        let shed = shared.enqueue(job(3)).expect_err("full");
        assert_eq!(shed.code, code::OVERLOADED);
    }

    #[test]
    fn latency_ring_is_bounded() {
        let mut lat = MethodLatency::default();
        for i in 0..(LATENCY_WINDOW + 100) {
            lat.record(Duration::from_micros(i as u64));
        }
        assert_eq!(lat.samples.len(), LATENCY_WINDOW);
        assert_eq!(lat.total, (LATENCY_WINDOW + 100) as u64);
        let stats = lat.stats_json();
        assert_eq!(
            stats.get("count").and_then(Json::as_usize),
            Some(LATENCY_WINDOW + 100)
        );
        assert!(stats.get("p50_ms").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn serve_once_runs_the_full_protocol_inline() {
        let input = concat!(
            r#"{"id":"a","method":"load","params":{"name":"d","dim":2,"points":[0,0,0.1,0,9,9,9.1,9]}}"#,
            "\n",
            "not json\n",
            r#"{"id":"b","method":"cluster","params":{"dataset":"d","min_pts":2,"min_cluster_size":2}}"#,
            "\n",
            r#"{"id":"c","method":"cluster","params":{"dataset":"missing"}}"#,
            "\n",
            r#"{"id":"d","method":"sweep","params":{"dataset":"d","min_pts":[2,3],"min_cluster_size":2}}"#,
            "\n",
            r#"{"id":"e","method":"stats"}"#,
            "\n",
            r#"{"id":"f","method":"shutdown"}"#,
            "\n",
            r#"{"id":"never","method":"stats"}"#,
            "\n",
        );
        let mut out = Vec::new();
        serve_once(
            DaemonConfig::new().workers(1),
            DatasetRegistry::new(),
            input.as_bytes(),
            &mut out,
        );
        let text = String::from_utf8(out).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7, "shutdown stops the loop: {text}");
        assert!(lines[0].contains(r#""id":"a""#) && lines[0].contains(r#""n":4"#));
        assert!(lines[1].contains(r#""code":"parse_error""#));
        assert!(lines[2].contains(r#""n_clusters":2"#));
        assert!(lines[3].contains(r#""code":"unknown_dataset""#));
        assert!(lines[4].contains(r#""results":"#));
        assert!(lines[5].contains(r#""uptime_ms""#));
        assert!(lines[6].contains(r#""stopping":true"#));
    }
}
