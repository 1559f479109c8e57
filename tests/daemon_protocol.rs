//! The `pandorad` wire contract, driven over real sockets: responses are
//! **bit-identical** to in-process `Session::run`, malformed input gets a
//! typed error (never a disconnect), duplicate in-flight requests provably
//! coalesce (engine-run counter), a full queue sheds with a typed
//! `overloaded` error instead of queueing unboundedly, and every response
//! leaves in one write of one whole line. The daemon writes payloads
//! straight from the result; every expected line here comes from the
//! reference encoders (`cluster_result`, `sweep_result`, `response_ok`),
//! and `reference_line` also pins the direct writers to them.
//!
//! CI runs this file in the `PANDORA_THREADS ∈ {1,4}` matrix, so the
//! daemon's default worker-lane sizing is exercised at both extremes
//! (tests that need a specific lane count pin it via `DaemonConfig`).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pandora::data::synthetic::gaussian_blobs;
use pandora::exec::ExecCtx;
use pandora::hdbscan::daemon::proto::{code, Method, WireError};
use pandora::hdbscan::daemon::{
    json::Json, proto, serve_once, Daemon, DaemonConfig, DatasetRegistry,
};
use pandora::hdbscan::{ClusterRequest, DatasetIndex, HdbscanResult};
use pandora::mst::PointSet;

/// One newline-delimited JSON-RPC connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(daemon: &Daemon) -> Self {
        let stream = TcpStream::connect(daemon.local_addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Self {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server disconnected instead of responding");
        line.trim_end().to_string()
    }

    fn call(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn blobs(n: usize, seed: u64) -> PointSet {
    let (points, _) = gaussian_blobs(n, 2, 3, 60.0, 0.8, seed);
    points
}

fn freeze(points: PointSet, max_min_pts: usize) -> Arc<DatasetIndex> {
    Arc::new(DatasetIndex::freeze_with_ctx(ExecCtx::serial(), points, max_min_pts).expect("freeze"))
}

/// The reference response line for `result` under `id`, after checking
/// that the daemon's direct writer frames the same bytes.
fn reference_line(id: &Json, result: &HdbscanResult) -> String {
    let line = proto::response_ok(id, proto::cluster_result(result));
    let mut payload = String::new();
    proto::write_cluster_result(&mut payload, result);
    assert_eq!(
        proto::response_ok_encoded(id, &payload),
        line,
        "write_cluster_result diverged from cluster_result"
    );
    line
}

/// The exact response line the daemon must produce for `request`, computed
/// in-process through the same `Session::run` + reference encoder.
fn expected_cluster_line(index: &Arc<DatasetIndex>, id: &Json, request: &ClusterRequest) -> String {
    let mut session = index.session_with_ctx(ExecCtx::serial());
    let result = session.run(request).expect("valid request");
    reference_line(id, &result)
}

fn error_code(line: &str) -> String {
    let parsed = Json::parse(line).expect("response is valid JSON");
    parsed
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no error code in: {line}"))
        .to_string()
}

#[test]
fn concurrent_mixed_method_clients_get_bit_identical_payloads() {
    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::new().workers(3)).expect("bind");
    let index = freeze(blobs(600, 7), 16);
    daemon
        .registry()
        .register("blobs", Arc::clone(&index), false)
        .expect("register");

    std::thread::scope(|scope| {
        for thread in 0..4i64 {
            let daemon = &daemon;
            let index = &index;
            scope.spawn(move || {
                let mut client = Client::connect(daemon);
                for i in 0..4i64 {
                    // Distinct params per (thread, i) so genuinely different
                    // requests are in flight at once.
                    let min_pts = 2 + ((thread + i) % 4) as usize * 3;
                    let mcs = 5 + thread as usize;
                    let id = thread * 100 + i;
                    let request = ClusterRequest::new().min_pts(min_pts).min_cluster_size(mcs);
                    let reply = client.call(&format!(
                        r#"{{"id":{id},"method":"cluster","params":{{"dataset":"blobs","min_pts":{min_pts},"min_cluster_size":{mcs}}}}}"#
                    ));
                    assert_eq!(
                        reply,
                        expected_cluster_line(index, &Json::Int(id), &request),
                        "thread {thread} request {i}: wire payload diverged from Session::run"
                    );
                    // Interleave a stats call: must answer inline on the
                    // same connection without disturbing the stream.
                    let stats = client.call(&format!(r#"{{"id":"s{id}","method":"stats"}}"#));
                    assert!(stats.contains(r#""uptime_ms""#), "{stats}");
                }
            });
        }
    });

    daemon.shutdown();
    daemon.join();
}

/// A `Write` that keeps the bytes of every `write` call as its own chunk.
#[derive(Default)]
struct WriteLog {
    writes: Vec<Vec<u8>>,
}

impl Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_response_leaves_in_one_write_ending_in_one_newline() {
    // The TCP lanes frame replies through the same function as
    // `serve_once`, so this in-memory run pins the socket framing too: a
    // line split across two writes lets Nagle hold its tail until the
    // client's delayed ACK. The cluster and sweep lines also cover the
    // payload edge cases (all noise, allow_single_cluster, one and two
    // points, several sweep members) and every kind of id the daemon
    // echoes: integer, negative integer, string with escapes, null, float.
    let index = freeze(blobs(300, 37), 8);
    let registry = DatasetRegistry::new();
    let datasets = [
        ("d", Arc::clone(&index)),
        ("one", freeze(PointSet::new(vec![1.5, -2.0], 2), 2)),
        ("two", freeze(PointSet::new(vec![0.0, 0.0, 3.0, 4.0], 2), 2)),
    ];
    for (name, index) in &datasets {
        registry
            .register(name, Arc::clone(index), false)
            .expect("register");
    }
    let requests = [
        r#"{"id":1,"method":"cluster","params":{"dataset":"d","min_pts":4,"min_cluster_size":6}}"#,
        "{not json",
        r#"{"id":3,"method":"cluster","params":{"dataset":"missing"}}"#,
        r#"{"id":-4,"method":"cluster","params":{"dataset":"d","min_pts":4,"min_cluster_size":400}}"#,
        r#"{"id":"q\"uote\\back\nline\u0001","method":"cluster","params":{"dataset":"d","min_pts":8,"min_cluster_size":200,"allow_single_cluster":true}}"#,
        r#"{"id":null,"method":"cluster","params":{"dataset":"one","min_pts":1}}"#,
        r#"{"id":2.5,"method":"cluster","params":{"dataset":"two","min_pts":2,"min_cluster_size":2,"allow_single_cluster":true}}"#,
        r#"{"id":8,"method":"sweep","params":{"dataset":"d","min_pts":[2,4,8],"min_cluster_size":6}}"#,
        r#"{"id":9,"method":"stats"}"#,
        r#"{"id":10,"method":"shutdown"}"#,
    ];
    let input: String = requests.iter().map(|line| format!("{line}\n")).collect();
    let mut log = WriteLog::default();
    serve_once(
        DaemonConfig::new().workers(1),
        registry,
        input.as_bytes(),
        &mut log,
    );

    let replies: Vec<String> = log
        .writes
        .iter()
        .map(|w| String::from_utf8(w.clone()).expect("utf-8"))
        .collect();
    assert_eq!(
        replies.len(),
        requests.len(),
        "one write call per response: {replies:?}"
    );
    for reply in &replies {
        assert!(
            reply.ends_with('\n') && reply.matches('\n').count() == 1,
            "a write must carry exactly one whole line: {reply:?}"
        );
    }
    let index_of = |name: &str| {
        datasets
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, index)| index)
            .expect("a registered dataset")
    };
    let expected: Vec<String> = requests
        .iter()
        .zip(&replies)
        .map(|(line, reply)| {
            let request = match proto::parse_request(line) {
                Ok(request) => request,
                Err(e) => return proto::response_err(&e.id, &e.error),
            };
            let id = &request.id;
            match request.method {
                Method::Cluster => {
                    let params = proto::cluster_params(&request.params).expect("valid params");
                    if params.dataset == "missing" {
                        let error = WireError::new(
                            code::UNKNOWN_DATASET,
                            "no dataset loaded under: missing",
                        );
                        return proto::response_err(id, &error);
                    }
                    expected_cluster_line(index_of(&params.dataset), id, &params.request)
                }
                Method::Sweep => {
                    let params = proto::sweep_params(&request.params).expect("valid params");
                    let mut session = index_of(&params.dataset).session_with_ctx(ExecCtx::serial());
                    let results: Vec<HdbscanResult> = params
                        .min_pts
                        .iter()
                        .map(|&m| session.run(&params.base.min_pts(m)).expect("valid"))
                        .collect();
                    let reference = proto::sweep_result(&params.min_pts, &results);
                    let mut payload = String::new();
                    proto::write_sweep_result(&mut payload, &params.min_pts, &results);
                    assert_eq!(
                        payload,
                        reference.to_string(),
                        "write_sweep_result diverged"
                    );
                    proto::response_ok(id, reference)
                }
                // `stats` carries timings: re-encode the reply's own result,
                // which the shortest-round-trip floats make byte-stable.
                Method::Stats => {
                    let stats = Json::parse(reply.trim_end())
                        .ok()
                        .and_then(|v| v.get("result").cloned())
                        .expect("stats result");
                    proto::response_ok(id, stats)
                }
                Method::Shutdown => {
                    proto::response_ok(id, Json::obj(vec![("stopping", Json::Bool(true))]))
                }
                Method::Load => unreachable!("no load line in this stream"),
            }
        })
        .collect();
    for (reply, line) in replies.iter().zip(&expected) {
        assert_eq!(*reply, format!("{line}\n"));
    }
    // The edge cases really are edge cases.
    assert!(replies[3].contains(r#""n_clusters":0,"n_noise":300"#));
    assert!(replies[4].contains(r#""n_clusters":1,"#), "{}", replies[4]);
    assert!(replies[5].contains(r#"{"id":null,"result":{"n_clusters":0,"n_noise":1,"#));
    assert!(replies[6].starts_with(r#"{"id":2.5,"#));
}

#[test]
fn wire_load_and_sweep_match_in_process_results() {
    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::new().workers(2)).expect("bind");
    let points = blobs(240, 13);
    // Serialize the coordinates through float Display (shortest
    // round-trip): the daemon must recover bit-identical f32s.
    let coords: Vec<String> = points.coords().iter().map(|v| format!("{v}")).collect();
    let mut client = Client::connect(&daemon);
    let reply = client.call(&format!(
        r#"{{"id":1,"method":"load","params":{{"name":"wire","dim":2,"points":[{}],"max_min_pts":12}}}}"#,
        coords.join(",")
    ));
    assert!(reply.contains(r#""n":240"#), "{reply}");

    let index = freeze(points, 12);
    let min_pts = [2usize, 4, 9];
    let base = ClusterRequest::new().min_cluster_size(6);
    let results: Vec<_> = {
        let mut session = index.session_with_ctx(ExecCtx::serial());
        min_pts
            .iter()
            .map(|&m| session.run(&base.min_pts(m)).expect("valid"))
            .collect()
    };
    let expected = proto::response_ok(&Json::Int(2), proto::sweep_result(&min_pts, &results));
    let mut payload = String::new();
    proto::write_sweep_result(&mut payload, &min_pts, &results);
    assert_eq!(
        proto::response_ok_encoded(&Json::Int(2), &payload),
        expected,
        "write_sweep_result diverged from sweep_result"
    );
    let reply = client.call(
        r#"{"id":2,"method":"sweep","params":{"dataset":"wire","min_pts":[2,4,9],"min_cluster_size":6}}"#,
    );
    assert_eq!(reply, expected, "sweep payload diverged from Session::run");

    // Duplicate load without replace is a typed error; with replace it wins.
    let dup = client
        .call(r#"{"id":3,"method":"load","params":{"name":"wire","dim":1,"points":[1,2,3]}}"#);
    assert_eq!(error_code(&dup), "dataset_exists");
    let swap = client.call(
        r#"{"id":4,"method":"load","params":{"name":"wire","dim":1,"points":[1,2,3],"replace":true}}"#,
    );
    assert!(swap.contains(r#""n":3"#), "{swap}");

    daemon.shutdown();
    daemon.join();
}

#[test]
fn stats_exposes_boruvka_witness_and_snapshot_counters() {
    // The per-dataset `stats` rows carry the Borůvka effectiveness
    // counters (docs/SERVING.md): witness hits, tree re-searches and
    // endgame-snapshot adoptions — present from the first reply (all
    // zero before any engine work) and moving once a request runs. Beside
    // them sit the hierarchy cache's hits, misses, entries and bytes: a
    // request that differs from an earlier one only in min_cluster_size
    // is a hit that never reaches Borůvka, and a replacing `load` starts
    // the dataset's new index with an empty cache.
    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::new().workers(2)).expect("bind");
    let points = blobs(400, 41);
    daemon
        .registry()
        .register("d", freeze(points.clone(), 8), false)
        .expect("register");
    let mut client = Client::connect(&daemon);

    #[derive(Debug, PartialEq)]
    struct Row {
        witness_hits: usize,
        researches: usize,
        snapshot_adopts: usize,
        hierarchy_hits: usize,
        hierarchy_misses: usize,
        hierarchies: usize,
        hierarchy_bytes: usize,
    }
    const ZERO: Row = Row {
        witness_hits: 0,
        researches: 0,
        snapshot_adopts: 0,
        hierarchy_hits: 0,
        hierarchy_misses: 0,
        hierarchies: 0,
        hierarchy_bytes: 0,
    };
    let mut dataset_row = |id: i64| -> Row {
        let line = client.call(&format!(r#"{{"id":{id},"method":"stats"}}"#));
        let parsed = Json::parse(&line).expect("stats is valid JSON");
        let datasets = parsed
            .get("result")
            .and_then(|r| r.get("datasets"))
            .and_then(Json::as_slice)
            .unwrap_or_else(|| panic!("no datasets array in: {line}"));
        let row = datasets
            .iter()
            .find(|row| row.get("name").and_then(Json::as_str) == Some("d"))
            .unwrap_or_else(|| panic!("no row for dataset d in: {line}"));
        let field = |key: &str| {
            row.get(key)
                .and_then(Json::as_usize)
                .unwrap_or_else(|| panic!("no {key} counter in: {line}"))
        };
        Row {
            witness_hits: field("witness_hits"),
            researches: field("researches"),
            snapshot_adopts: field("snapshot_adopts"),
            hierarchy_hits: field("hierarchy_hits"),
            hierarchy_misses: field("hierarchy_misses"),
            hierarchies: field("hierarchies"),
            hierarchy_bytes: field("hierarchy_bytes"),
        }
    };

    assert_eq!(
        dataset_row(1),
        ZERO,
        "counters must exist and read zero before any engine work"
    );

    let cluster = |id: i64, mcs: usize| {
        format!(
            r#"{{"id":{id},"method":"cluster","params":{{"dataset":"d","min_pts":4,"min_cluster_size":{mcs}}}}}"#
        )
    };
    let mut other = Client::connect(&daemon);
    let ok = other.call(&cluster(2, 5));
    assert!(ok.contains(r#""result""#), "{ok}");
    let first = dataset_row(3);
    assert!(
        first.witness_hits > 0,
        "a cluster run must score witness hits: {first:?}"
    );
    assert_eq!(
        (
            first.hierarchy_hits,
            first.hierarchy_misses,
            first.hierarchies
        ),
        (0, 1, 1),
        "the first cluster request is one miss, and its hierarchy is held"
    );
    assert!(first.hierarchy_bytes > 0, "{first:?}");

    // Same min_pts, another min_cluster_size: the held hierarchy answers.
    let ok = other.call(&cluster(4, 9));
    assert!(ok.contains(r#""result""#), "{ok}");
    let second = dataset_row(5);
    assert_eq!(
        second,
        Row {
            hierarchy_hits: 1,
            ..first
        },
        "an extraction-only change is one hit that never reaches Borůvka"
    );

    // A replacing load swaps in a fresh index, with an empty cache.
    let coords: Vec<String> = points.coords().iter().map(|v| format!("{v}")).collect();
    let swap = other.call(&format!(
        r#"{{"id":6,"method":"load","params":{{"name":"d","dim":2,"points":[{}],"max_min_pts":8,"replace":true}}}}"#,
        coords.join(",")
    ));
    assert!(swap.contains(r#""n":400"#), "{swap}");
    assert_eq!(dataset_row(7), ZERO, "a replaced dataset starts from zero");

    daemon.shutdown();
    daemon.join();
}

#[test]
fn malformed_input_gets_typed_errors_not_disconnects() {
    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::new().workers(1)).expect("bind");
    daemon
        .registry()
        .register("d", freeze(blobs(80, 3), 8), false)
        .expect("register");
    let mut client = Client::connect(&daemon);

    let cases = [
        ("{not json", "parse_error"),
        (r#"{"id":1,"method":"divide"}"#, "unknown_method"),
        (r#"{"id":2}"#, "bad_request"),
        (r#"{"id":3,"method":"cluster"}"#, "bad_request"),
        (
            r#"{"id":4,"method":"cluster","params":{"dataset":"d","min_pts":"four"}}"#,
            "bad_request",
        ),
        (
            r#"{"id":5,"method":"cluster","params":{"dataset":"d","linkage":"median"}}"#,
            "bad_params",
        ),
        (
            r#"{"id":6,"method":"cluster","params":{"dataset":"nope"}}"#,
            "unknown_dataset",
        ),
        (
            // Valid shape, invalid value: rejected by the engine, not a panic.
            r#"{"id":7,"method":"cluster","params":{"dataset":"d","min_pts":0}}"#,
            "bad_params",
        ),
        (
            // Ward × mutual-reachability is the engine's BadParams rejection
            // (Ward's own default metric is Euclidean, so force the clash).
            r#"{"id":8,"method":"cluster","params":{"dataset":"d","min_pts":4,"linkage":"ward","metric":"mutual-reachability"}}"#,
            "bad_params",
        ),
    ];
    for (line, code) in cases {
        let reply = client.call(line);
        assert_eq!(error_code(&reply), code, "{line} → {reply}");
    }

    // The same connection still serves valid work after every error.
    let ok = client.call(r#"{"id":9,"method":"cluster","params":{"dataset":"d","min_pts":3}}"#);
    assert!(ok.contains(r#""result""#), "{ok}");

    daemon.shutdown();
    daemon.join();
}

/// The blocker request every scheduling test uses to keep the single
/// worker lane busy: a 15-member sweep (~hundreds of ms) instead of one
/// ~20 ms cluster run, so admissions sent "while the lane is busy" have a
/// wide, reliable window.
const BLOCKER: &str = r#"{"id":"blocker","method":"sweep","params":{"dataset":"d","min_pts":[2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}}"#;
const BLOCKER_RUNS: u64 = 15;

/// Waits (on the in-process counter — precise, no sampling race) until the
/// engine has started more runs than `engine_runs_before`.
fn wait_for_engine_start(daemon: &Daemon, engine_runs_before: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while daemon.counters().engine_runs == engine_runs_before {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for the blocker to reach the engine"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn duplicate_inflight_requests_coalesce_into_one_engine_run() {
    const DUPES: usize = 5;
    // One worker lane: the blocker occupies it, so everything sent while
    // it runs is admitted (and coalesced) before the next job starts.
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonConfig::new().workers(1).queue_depth(16),
    )
    .expect("bind");
    let index = freeze(blobs(2000, 17), 16);
    daemon
        .registry()
        .register("d", Arc::clone(&index), false)
        .expect("register");

    let mut dupes: Vec<Client> = (0..DUPES).map(|_| Client::connect(&daemon)).collect();
    let before = daemon.counters();

    // Occupy the single lane, then confirm it is actually running.
    let mut blocker = Client::connect(&daemon);
    blocker.send(BLOCKER);
    wait_for_engine_start(&daemon, before.engine_runs);

    // Five identical requests from five connections, each under its own
    // kind of id: one leader gets queued, four attach to its in-flight
    // computation and get its payload bytes under their own ids.
    let ids = [
        Json::Int(0),
        Json::Int(-1),
        Json::Str("w\"2\\".into()),
        Json::Null,
        Json::Float(4.5),
    ];
    let request = ClusterRequest::new().min_pts(4).min_cluster_size(7);
    for (client, id) in dupes.iter_mut().zip(&ids) {
        client.send(&format!(
            r#"{{"id":{id},"method":"cluster","params":{{"dataset":"d","min_pts":4,"min_cluster_size":7}}}}"#
        ));
    }
    let replies: Vec<String> = dupes.iter_mut().map(Client::recv).collect();
    let payload = |reply: &str, id: &Json| -> String {
        let head = format!(r#"{{"id":{id},"result":"#);
        reply
            .strip_prefix(head.as_str())
            .and_then(|rest| rest.strip_suffix('}'))
            .unwrap_or_else(|| panic!("not a result under id {id}: {reply}"))
            .to_string()
    };
    let leader = payload(&replies[0], &ids[0]);
    for (reply, id) in replies.iter().zip(&ids) {
        assert_eq!(
            payload(reply, id),
            leader,
            "coalesced payloads must be identical"
        );
        assert_eq!(
            *reply,
            expected_cluster_line(&index, id, &request),
            "a waiter's line diverged from the in-process reference"
        );
    }
    assert!(replies[0].contains(r#""n_clusters""#), "{}", replies[0]);
    assert!(blocker.recv().contains("result"));

    let after = daemon.counters();
    assert_eq!(
        after.engine_runs - before.engine_runs,
        BLOCKER_RUNS + 1,
        "exactly the blocker sweep + one coalesced leader may hit the engine"
    );
    assert_eq!(
        after.coalesced - before.coalesced,
        (DUPES - 1) as u64,
        "every duplicate but the leader must be answered from the shared run"
    );

    daemon.shutdown();
    daemon.join();
}

#[test]
fn full_queue_sheds_with_typed_overloaded_error() {
    let daemon =
        Daemon::bind("127.0.0.1:0", DaemonConfig::new().workers(1).queue_depth(2)).expect("bind");
    daemon
        .registry()
        .register("d", freeze(blobs(2000, 23), 16), false)
        .expect("register");

    let before = daemon.counters();
    let mut blocker = Client::connect(&daemon);
    blocker.send(BLOCKER);
    wait_for_engine_start(&daemon, before.engine_runs);

    // One connection, three *distinct* requests (no coalescing): the
    // reader admits them in order, so the first two take the queue slots
    // and the third is shed immediately with a typed error.
    let mut client = Client::connect(&daemon);
    for (i, mcs) in [3usize, 4, 5].iter().enumerate() {
        client.send(&format!(
            r#"{{"id":{i},"method":"cluster","params":{{"dataset":"d","min_pts":2,"min_cluster_size":{mcs}}}}}"#
        ));
    }
    // The shed reply arrives first — admission control answers before the
    // queued work is even scheduled.
    let shed = client.recv();
    assert!(shed.contains(r#""id":2"#), "{shed}");
    assert_eq!(error_code(&shed), "overloaded");
    assert!(daemon.counters().shed >= 1);

    // The queued requests still complete normally after the blocker.
    for _ in 0..2 {
        let reply = client.recv();
        assert!(reply.contains(r#""n_clusters""#), "{reply}");
    }
    assert!(blocker.recv().contains("result"));

    daemon.shutdown();
    daemon.join();
}

#[test]
fn identical_requests_at_a_full_queue_each_get_one_reply() {
    const ROUNDS: usize = 4;
    const CLIENTS: usize = 48;
    // One lane, one queue slot: with the blocker running and the slot
    // taken, a leader of the identical requests is shed, and a request
    // that attached to it in the meantime would never be answered.
    let daemon =
        Daemon::bind("127.0.0.1:0", DaemonConfig::new().workers(1).queue_depth(1)).expect("bind");
    daemon
        .registry()
        .register("d", freeze(blobs(2000, 31), 16), false)
        .expect("register");
    let request = r#"{"id":7,"method":"cluster","params":{"dataset":"d","min_pts":3}}"#;
    for round in 0..ROUNDS {
        let before = daemon.counters();
        let mut blocker = Client::connect(&daemon);
        blocker.send(BLOCKER);
        wait_for_engine_start(&daemon, before.engine_runs);
        let mut filler = Client::connect(&daemon);
        filler.send(r#"{"id":"filler","method":"cluster","params":{"dataset":"d","min_pts":2}}"#);
        // A stats reply on the filler's connection means the filler was
        // admitted: one connection's lines are dispatched in order.
        filler.send(r#"{"id":"s","method":"stats"}"#);
        filler.recv();

        let start = Arc::new(std::sync::Barrier::new(CLIENTS));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut client = Client::connect(&daemon);
                client
                    .writer
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout");
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    client.send(request);
                    let reply = client.recv();
                    // A second line before this stats reply would be a
                    // duplicate answer.
                    let stats = client.call(r#"{"id":"s","method":"stats"}"#);
                    (reply, stats)
                })
            })
            .collect();
        for client in clients {
            let (reply, stats) = client.join().expect("client thread");
            assert!(
                reply.starts_with(r#"{"id":7,"#),
                "round {round}: reply to another request: {reply}"
            );
            assert!(
                reply.contains(r#""n_clusters""#) || error_code(&reply) == "overloaded",
                "round {round}: {reply}"
            );
            assert!(stats.contains("uptime_ms"), "round {round}: {stats}");
        }
        assert!(blocker.recv().contains("result"));
        // The filler's other reply: the next round starts with it done.
        filler.recv();
    }
    daemon.shutdown();
    daemon.join();
}

#[test]
fn wire_shutdown_drains_and_stops_the_daemon() {
    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::new().workers(2)).expect("bind");
    daemon
        .registry()
        .register("d", freeze(blobs(120, 29), 8), false)
        .expect("register");

    let mut client = Client::connect(&daemon);
    // Queue real work, then shut down on another connection: the queued
    // request must still be answered (drain, don't drop). Wait until the
    // engine has picked it up so the shutdown can't win the admission race.
    let before = daemon.counters();
    client.send(r#"{"id":1,"method":"cluster","params":{"dataset":"d","min_pts":3}}"#);
    let deadline = Instant::now() + Duration::from_secs(30);
    while daemon.counters().engine_runs == before.engine_runs {
        assert!(
            Instant::now() < deadline,
            "request never reached the engine"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut admin = Client::connect(&daemon);
    let reply = admin.call(r#"{"id":"bye","method":"shutdown"}"#);
    assert!(reply.contains(r#""stopping":true"#), "{reply}");
    let queued = client.recv();
    assert!(queued.contains(r#""n_clusters""#), "{queued}");

    let addr = daemon.local_addr();
    daemon.join();
    // After join the listener is gone: a fresh connect must fail (or be
    // refused on first use).
    let dead = TcpStream::connect(addr)
        .and_then(|mut s| {
            s.write_all(b"{\"id\":1,\"method\":\"stats\"}\n")?;
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line)
        })
        .unwrap_or(0);
    assert_eq!(dead, 0, "daemon still answering after join()");
}
