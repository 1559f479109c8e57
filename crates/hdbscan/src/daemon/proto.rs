//! The `pandorad` wire protocol: newline-delimited JSON-RPC requests and
//! responses, typed error codes, and the canonical result encoders.
//!
//! One request per line, one response per line (see `docs/SERVING.md` for
//! the full reference):
//!
//! ```text
//! → {"id": 1, "method": "cluster", "params": {"dataset": "d", "min_pts": 4}}
//! ← {"id":1,"result":{"n_clusters":2,"n_noise":0,"labels":[...],"probabilities":[...]}}
//! ← {"id":1,"error":{"code":"bad_params","message":"invalid min_pts = 0: ..."}}
//! ```
//!
//! Everything in this module is a pure function from bytes to values. The
//! daemon writes `cluster` and `sweep` payloads with [`write_cluster_result`]
//! and [`write_sweep_result`], straight from the result into one buffer.
//! [`cluster_result`] and [`sweep_result`] build the same payloads as
//! [`Json`] trees; they are the reference. The protocol tests and the
//! benchmarks serialize an in-process [`Session::run`](crate::Session::run)
//! through them and compare strings with the daemon's replies, which is
//! what makes "the daemon's payload is bit-identical to an in-process run"
//! a checkable statement.
//!
//! ```
//! use pandora_hdbscan::daemon::proto::{self, Method};
//!
//! let line = r#"{"id": 7, "method": "stats"}"#;
//! let request = proto::parse_request(line).expect("well-formed");
//! assert_eq!(request.method, Method::Stats);
//!
//! // Malformed lines come back as typed, positioned errors — never panics.
//! let err = proto::parse_request("{nope").expect_err("malformed");
//! assert_eq!(err.error.code, proto::code::PARSE_ERROR);
//! ```

use pandora_mst::{Linkage, MetricKind, PandoraError};

use super::json::{self, Json};
use crate::pipeline::HdbscanResult;
use crate::serve::ClusterRequest;

/// The wire error codes `pandorad` can return, one constant per code so
/// clients and tests match on names, not string literals.
pub mod code {
    /// The request line is not valid JSON.
    pub const PARSE_ERROR: &str = "parse_error";
    /// The line is valid JSON but not a valid request envelope, or a
    /// params field has the wrong type/shape.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The `method` field names no protocol method.
    pub const UNKNOWN_METHOD: &str = "unknown_method";
    /// The named dataset is not in the registry.
    pub const UNKNOWN_DATASET: &str = "unknown_dataset";
    /// `load` without `"replace": true` over an existing name.
    pub const DATASET_EXISTS: &str = "dataset_exists";
    /// Admission control shed this request: the bounded queue is full.
    pub const OVERLOADED: &str = "overloaded";
    /// The daemon is stopping and no longer accepts work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// A parameter failed range validation ([`PandoraError::BadParams`](pandora_mst::PandoraError::BadParams)).
    pub const BAD_PARAMS: &str = "bad_params";
    /// A coordinate was NaN or infinite ([`PandoraError::NonFinite`](pandora_mst::PandoraError::NonFinite)).
    pub const NON_FINITE: &str = "non_finite";
    /// The point buffer does not tile into `dim`-vectors
    /// ([`PandoraError::BadShape`](pandora_mst::PandoraError::BadShape)).
    pub const BAD_SHAPE: &str = "bad_shape";
    /// The dataset holds no points ([`PandoraError::EmptyDataset`](pandora_mst::PandoraError::EmptyDataset)).
    pub const EMPTY_DATASET: &str = "empty_dataset";
    /// A library error this protocol revision has no dedicated code for
    /// (future [`PandoraError`](pandora_mst::PandoraError) variants — the enum is `#[non_exhaustive]`).
    pub const INTERNAL: &str = "internal";
}

/// The five protocol methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Freeze a named dataset into the registry.
    Load,
    /// Answer one clustering request.
    Cluster,
    /// Answer a batched multi-`minPts` sweep.
    Sweep,
    /// Report liveness, registry, queue and latency statistics.
    Stats,
    /// Stop the daemon (drains queued work first).
    Shutdown,
}

impl Method {
    /// The canonical wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Method::Load => "load",
            Method::Cluster => "cluster",
            Method::Sweep => "sweep",
            Method::Stats => "stats",
            Method::Shutdown => "shutdown",
        }
    }

    /// Parses a wire method name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "load" => Some(Method::Load),
            "cluster" => Some(Method::Cluster),
            "sweep" => Some(Method::Sweep),
            "stats" => Some(Method::Stats),
            "shutdown" => Some(Method::Shutdown),
            _ => None,
        }
    }
}

/// A typed wire error: the `error` object of a response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// One of the [`code`] constants.
    pub code: &'static str,
    /// Human-readable description (mirrors [`PandoraError`]'s `Display`
    /// for library rejections).
    pub message: String,
    /// Optional structured detail (e.g. the offending parameter).
    pub data: Option<Json>,
}

impl WireError {
    /// A wire error with no structured detail.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            data: None,
        }
    }

    /// The `error` member as a JSON value.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("code", Json::Str(self.code.to_string())),
            ("message", Json::Str(self.message.clone())),
        ];
        if let Some(data) = &self.data {
            pairs.push(("data", data.clone()));
        }
        Json::obj(pairs)
    }
}

/// Maps a library rejection to its wire error, structured fields included.
pub fn pandora_error(e: &PandoraError) -> WireError {
    let message = e.to_string();
    match e {
        PandoraError::BadParams { param, value, .. } => WireError {
            code: code::BAD_PARAMS,
            message,
            data: Some(Json::obj(vec![
                ("param", Json::Str((*param).to_string())),
                ("value", Json::Int(*value as i64)),
            ])),
        },
        PandoraError::NonFinite { point, dim } => WireError {
            code: code::NON_FINITE,
            message,
            data: Some(Json::obj(vec![
                ("point", Json::Int(*point as i64)),
                ("dim", Json::Int(*dim as i64)),
            ])),
        },
        PandoraError::BadShape { len, dim } => WireError {
            code: code::BAD_SHAPE,
            message,
            data: Some(Json::obj(vec![
                ("len", Json::Int(*len as i64)),
                ("dim", Json::Int(*dim as i64)),
            ])),
        },
        PandoraError::EmptyDataset => WireError::new(code::EMPTY_DATASET, message),
        // `PandoraError` is #[non_exhaustive]: future variants degrade to
        // a generic code instead of breaking the daemon build.
        _ => WireError::new(code::INTERNAL, message),
    }
}

/// A parsed request envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// The client-chosen correlation id, echoed verbatim in the response
    /// (`null` when omitted).
    pub id: Json,
    /// The protocol method.
    pub method: Method,
    /// The `params` object (`null` when omitted; methods that need none
    /// ignore it).
    pub params: Json,
}

/// A request rejected before dispatch: the best-effort id to echo plus the
/// typed error to return.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The `id` of the offending request when one could be extracted
    /// (`null` for unparseable lines).
    pub id: Json,
    /// The typed rejection.
    pub error: WireError,
}

/// Parses one request line into its envelope.
///
/// Failures carry the request id whenever the line parsed far enough to
/// have one, so even a rejection is correlatable client-side.
pub fn parse_request(line: &str) -> Result<WireRequest, RequestError> {
    let value = Json::parse(line).map_err(|e| RequestError {
        id: Json::Null,
        error: WireError::new(code::PARSE_ERROR, e.to_string()),
    })?;
    let id = value.get("id").cloned().unwrap_or(Json::Null);
    if !matches!(value, Json::Obj(_)) {
        return Err(RequestError {
            id,
            error: WireError::new(code::BAD_REQUEST, "request must be a JSON object"),
        });
    }
    let Some(method_field) = value.get("method") else {
        return Err(RequestError {
            id,
            error: WireError::new(code::BAD_REQUEST, "missing \"method\""),
        });
    };
    let Some(name) = method_field.as_str() else {
        return Err(RequestError {
            id,
            error: WireError::new(code::BAD_REQUEST, "\"method\" must be a string"),
        });
    };
    let Some(method) = Method::parse(name) else {
        return Err(RequestError {
            id,
            error: WireError::new(code::UNKNOWN_METHOD, format!("unknown method: {name}")),
        });
    };
    let params = value.get("params").cloned().unwrap_or(Json::Null);
    if !matches!(params, Json::Obj(_) | Json::Null) {
        return Err(RequestError {
            id,
            error: WireError::new(code::BAD_REQUEST, "\"params\" must be an object"),
        });
    }
    Ok(WireRequest { id, method, params })
}

/// Validated `load` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadParams {
    /// Registry name to freeze under.
    pub name: String,
    /// Flat row-major coordinates (`n × dim` numbers).
    pub points: Vec<f32>,
    /// Dimensionality.
    pub dim: usize,
    /// Freeze ceiling: the largest `min_pts` requests may carry
    /// (default 16).
    pub max_min_pts: usize,
    /// Whether an existing entry under `name` may be replaced.
    pub replace: bool,
}

/// Default `load` freeze ceiling when the request does not pick one.
pub const DEFAULT_MAX_MIN_PTS: usize = 16;

fn required<'a>(params: &'a Json, key: &'static str) -> Result<&'a Json, WireError> {
    params
        .get(key)
        .ok_or_else(|| WireError::new(code::BAD_REQUEST, format!("missing \"{key}\"")))
}

fn usize_field(params: &Json, key: &'static str, default: usize) -> Result<usize, WireError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_usize().ok_or_else(|| {
            WireError::new(
                code::BAD_REQUEST,
                format!("\"{key}\" must be a non-negative integer"),
            )
        }),
    }
}

fn bool_field(params: &Json, key: &'static str, default: bool) -> Result<bool, WireError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_bool().ok_or_else(|| {
            WireError::new(code::BAD_REQUEST, format!("\"{key}\" must be a boolean"))
        }),
    }
}

fn str_field<'a>(params: &'a Json, key: &'static str) -> Result<&'a str, WireError> {
    required(params, key)?
        .as_str()
        .ok_or_else(|| WireError::new(code::BAD_REQUEST, format!("\"{key}\" must be a string")))
}

/// Extracts and validates `load` parameters.
pub fn load_params(params: &Json) -> Result<LoadParams, WireError> {
    let name = str_field(params, "name")?.to_string();
    if name.is_empty() {
        return Err(WireError::new(
            code::BAD_REQUEST,
            "\"name\" must not be empty",
        ));
    }
    let dim = usize_field(params, "dim", 0)?;
    if params.get("dim").is_none() {
        return Err(WireError::new(code::BAD_REQUEST, "missing \"dim\""));
    }
    let raw = required(params, "points")?.as_slice().ok_or_else(|| {
        WireError::new(code::BAD_REQUEST, "\"points\" must be an array of numbers")
    })?;
    let mut points = Vec::with_capacity(raw.len());
    for v in raw {
        let Some(f) = v.as_f32() else {
            return Err(WireError::new(
                code::BAD_REQUEST,
                "\"points\" must be an array of numbers",
            ));
        };
        points.push(f);
    }
    // The default ceiling clamps to the dataset size (the minPts-th
    // neighbour must exist); an explicit value passes through so the
    // freeze-time BadParams error surfaces instead of being masked.
    let explicit = params.get("max_min_pts").is_some_and(|v| *v != Json::Null);
    let mut max_min_pts = usize_field(params, "max_min_pts", DEFAULT_MAX_MIN_PTS)?;
    if !explicit && dim > 0 {
        max_min_pts = max_min_pts.min((points.len() / dim).max(1));
    }
    Ok(LoadParams {
        name,
        points,
        dim,
        max_min_pts,
        replace: bool_field(params, "replace", false)?,
    })
}

/// Extracts the shared `ClusterRequest` fields of `cluster` and `sweep`
/// params (`min_pts` itself is method-specific and handled by the callers).
fn base_request(params: &Json) -> Result<ClusterRequest, WireError> {
    let defaults = ClusterRequest::new();
    let mut request = ClusterRequest::new()
        .min_cluster_size(usize_field(
            params,
            "min_cluster_size",
            defaults.min_cluster_size,
        )?)
        .allow_single_cluster(bool_field(
            params,
            "allow_single_cluster",
            defaults.allow_single_cluster,
        )?);
    if let Some(v) = params.get("linkage").filter(|v| **v != Json::Null) {
        let name = v
            .as_str()
            .ok_or_else(|| WireError::new(code::BAD_REQUEST, "\"linkage\" must be a string"))?;
        let linkage = Linkage::parse(name)
            .ok_or_else(|| WireError::new(code::BAD_PARAMS, format!("unknown linkage: {name}")))?;
        request = request.linkage(linkage);
    }
    if let Some(v) = params.get("metric").filter(|v| **v != Json::Null) {
        let name = v
            .as_str()
            .ok_or_else(|| WireError::new(code::BAD_REQUEST, "\"metric\" must be a string"))?;
        let metric = MetricKind::parse(name)
            .ok_or_else(|| WireError::new(code::BAD_PARAMS, format!("unknown metric: {name}")))?;
        request = request.metric(metric);
    }
    Ok(request)
}

/// Validated `cluster` parameters: the target dataset plus the full
/// [`ClusterRequest`] surface.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterParams {
    /// Registry name of the dataset to cluster.
    pub dataset: String,
    /// The request to run (range-validated later, against the index).
    pub request: ClusterRequest,
}

/// Extracts and validates `cluster` parameters.
pub fn cluster_params(params: &Json) -> Result<ClusterParams, WireError> {
    let dataset = str_field(params, "dataset")?.to_string();
    let defaults = ClusterRequest::new();
    let request = base_request(params)?.min_pts(usize_field(params, "min_pts", defaults.min_pts)?);
    Ok(ClusterParams { dataset, request })
}

/// Validated `sweep` parameters: one base request fanned over a `min_pts`
/// list through a single warm session (the engine's amortized sweep path).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepParams {
    /// Registry name of the dataset to sweep.
    pub dataset: String,
    /// The request shared by every sweep member (its own `min_pts` is
    /// overwritten per member).
    pub base: ClusterRequest,
    /// The `min_pts` values to sweep, in request order.
    pub min_pts: Vec<usize>,
}

/// Extracts and validates `sweep` parameters.
pub fn sweep_params(params: &Json) -> Result<SweepParams, WireError> {
    let dataset = str_field(params, "dataset")?.to_string();
    let base = base_request(params)?;
    let raw = required(params, "min_pts")?.as_slice().ok_or_else(|| {
        WireError::new(
            code::BAD_REQUEST,
            "\"min_pts\" must be an array of integers",
        )
    })?;
    if raw.is_empty() {
        return Err(WireError::new(
            code::BAD_REQUEST,
            "\"min_pts\" must not be empty",
        ));
    }
    let mut min_pts = Vec::with_capacity(raw.len());
    for v in raw {
        let Some(m) = v.as_usize() else {
            return Err(WireError::new(
                code::BAD_REQUEST,
                "\"min_pts\" must be an array of non-negative integers",
            ));
        };
        min_pts.push(m);
    }
    Ok(SweepParams {
        dataset,
        base,
        min_pts,
    })
}

/// The canonical `cluster` result payload, as a [`Json`] tree.
///
/// Deliberately a pure function of `(dataset, request)` — no timings, no
/// host-dependent fields — so duplicate requests (coalesced or not, served
/// by the daemon or run in-process) produce byte-identical payloads. The
/// daemon writes the same bytes with [`write_cluster_result`] without
/// building the tree; this function is the reference the protocol tests
/// and the benchmarks compare it against.
pub fn cluster_result(result: &HdbscanResult) -> Json {
    Json::obj(vec![
        ("n_clusters", Json::Int(result.n_clusters() as i64)),
        ("n_noise", Json::Int(result.n_noise() as i64)),
        (
            "labels",
            Json::Arr(
                result
                    .labels
                    .iter()
                    .map(|&l| Json::Int(i64::from(l)))
                    .collect(),
            ),
        ),
        (
            "probabilities",
            Json::Arr(result.probabilities.iter().map(|&p| Json::F32(p)).collect()),
        ),
    ])
}

/// The canonical `sweep` result payload: one [`cluster_result`] per swept
/// `min_pts`, in request order (the reference for [`write_sweep_result`]).
pub fn sweep_result(min_pts: &[usize], results: &[HdbscanResult]) -> Json {
    let members = min_pts
        .iter()
        .zip(results)
        .map(|(&m, r)| {
            let mut pairs = vec![("min_pts".to_string(), Json::Int(m as i64))];
            if let Json::Obj(inner) = cluster_result(r) {
                pairs.extend(inner);
            }
            Json::Obj(pairs)
        })
        .collect();
    Json::obj(vec![("results", Json::Arr(members))])
}

/// Appends the bytes of `cluster_result(result).to_string()` to `out`
/// without building the tree: the daemon's `cluster` encoder. Its numbers
/// go through the same writers as [`Json`]'s, and the protocol tests pin
/// its bytes to [`cluster_result`].
pub fn write_cluster_result(out: &mut String, result: &HdbscanResult) {
    out.push('{');
    write_cluster_fields(out, result);
    out.push('}');
}

/// Appends the bytes of `sweep_result(min_pts, results).to_string()` to
/// `out`, each member through the fields of [`write_cluster_result`].
pub fn write_sweep_result(out: &mut String, min_pts: &[usize], results: &[HdbscanResult]) {
    out.push_str("{\"results\":[");
    for (i, (&m, result)) in min_pts.iter().zip(results).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"min_pts\":");
        Json::Int(m as i64).write(out);
        out.push(',');
        write_cluster_fields(out, result);
        out.push('}');
    }
    out.push_str("]}");
}

fn write_cluster_fields(out: &mut String, result: &HdbscanResult) {
    // Room for a typical payload: per point, a short label and a
    // probability of up to nine digits.
    out.reserve(64 + 16 * result.labels.len());
    out.push_str("\"n_clusters\":");
    Json::Int(result.n_clusters() as i64).write(out);
    out.push_str(",\"n_noise\":");
    Json::Int(result.n_noise() as i64).write(out);
    out.push_str(",\"labels\":");
    json::write_int_array(out, result.labels.iter().map(|&l| i64::from(l)));
    out.push_str(",\"probabilities\":");
    json::write_f32_array(out, &result.probabilities);
}

/// Serializes a success response line (no trailing newline).
pub fn response_ok(id: &Json, result: Json) -> String {
    envelope(id, "result", 0, |out| result.write(out))
}

/// Serializes a success response line (no trailing newline) around a
/// payload that is already JSON text, such as one [`write_cluster_result`]
/// wrote: the same bytes as [`response_ok`] on the parsed payload. The
/// daemon encodes a payload once and frames it once per waiting client.
pub fn response_ok_encoded(id: &Json, payload: &str) -> String {
    envelope(id, "result", payload.len(), |out| out.push_str(payload))
}

/// Serializes an error response line (no trailing newline).
pub fn response_err(id: &Json, error: &WireError) -> String {
    envelope(id, "error", 0, |out| error.to_json().write(out))
}

/// `{"id":<id>,"<key>":<member>}` in one buffer, sized up front when the
/// member's length `member_len` is known, and with room left for the
/// newline the daemon appends.
fn envelope(id: &Json, key: &str, member_len: usize, member: impl FnOnce(&mut String)) -> String {
    let mut line = String::with_capacity(member_len + 32);
    line.push_str("{\"id\":");
    id.write(&mut line);
    line.push_str(",\"");
    line.push_str(key);
    line.push_str("\":");
    // Grows only after a long id: the member, '}' and '\n' must fit.
    line.reserve(member_len + 2);
    member(&mut line);
    line.push('}');
    line.reserve(1);
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_cluster_request() {
        let line = r#"{"id": 3, "method": "cluster", "params": {
            "dataset": "d", "min_pts": 4, "min_cluster_size": 7,
            "allow_single_cluster": true, "linkage": "ward",
            "metric": "euclidean"}}"#;
        let req = parse_request(line).expect("well-formed");
        assert_eq!(req.id, Json::Int(3));
        assert_eq!(req.method, Method::Cluster);
        let params = cluster_params(&req.params).expect("valid");
        assert_eq!(params.dataset, "d");
        assert_eq!(params.request.min_pts, 4);
        assert_eq!(params.request.min_cluster_size, 7);
        assert!(params.request.allow_single_cluster);
        assert_eq!(params.request.linkage, Some(Linkage::Ward));
        assert_eq!(params.request.metric, Some(MetricKind::Euclidean));

        // `dendrogram` once chose a dendrogram backend. It is now ignored
        // like any other unknown key, whatever its value, so an old
        // client's request parses to the same request.
        let open = line.strip_suffix("}}").expect("params close the line");
        for value in ["work-optimal", "gpu"] {
            let old = format!(r#"{open}, "dendrogram": "{value}"}}}}"#);
            let req = parse_request(&old).expect("well-formed");
            assert_eq!(cluster_params(&req.params), Ok(params.clone()), "{value}");
        }
    }

    #[test]
    fn defaults_match_the_in_process_request_defaults() {
        let req =
            parse_request(r#"{"method":"cluster","params":{"dataset":"d"}}"#).expect("well-formed");
        let params = cluster_params(&req.params).expect("valid");
        assert_eq!(params.request, ClusterRequest::new());
        assert_eq!(req.id, Json::Null, "omitted id echoes as null");
    }

    #[test]
    fn envelope_errors_are_typed() {
        assert_eq!(
            parse_request("{").expect_err("malformed").error.code,
            code::PARSE_ERROR
        );
        assert_eq!(
            parse_request("[1,2]")
                .expect_err("not an object")
                .error
                .code,
            code::BAD_REQUEST
        );
        assert_eq!(
            parse_request(r#"{"id":9}"#)
                .expect_err("no method")
                .error
                .code,
            code::BAD_REQUEST
        );
        let err = parse_request(r#"{"id":9,"method":"frobnicate"}"#).expect_err("unknown");
        assert_eq!(err.error.code, code::UNKNOWN_METHOD);
        assert_eq!(err.id, Json::Int(9), "id still echoed on rejection");
        assert_eq!(
            parse_request(r#"{"method":"stats","params":7}"#)
                .expect_err("params type")
                .error
                .code,
            code::BAD_REQUEST
        );
    }

    #[test]
    fn param_errors_distinguish_shape_from_value() {
        // Wrong type → bad_request.
        let shape =
            cluster_params(&Json::parse(r#"{"dataset":"d","min_pts":"four"}"#).expect("json"))
                .expect_err("type error");
        assert_eq!(shape.code, code::BAD_REQUEST);
        // Well-typed but unknown value → bad_params.
        let value =
            cluster_params(&Json::parse(r#"{"dataset":"d","linkage":"median"}"#).expect("json"))
                .expect_err("value error");
        assert_eq!(value.code, code::BAD_PARAMS);
    }

    #[test]
    fn load_and_sweep_params_validate_structure() {
        let load = load_params(
            &Json::parse(r#"{"name":"n","dim":2,"points":[0,0,1.5,2]}"#).expect("json"),
        )
        .expect("valid");
        assert_eq!(load.points, vec![0.0, 0.0, 1.5, 2.0]);
        // The default ceiling clamps to the dataset size (2 points here);
        // an explicit value passes through unclamped.
        assert_eq!(load.max_min_pts, 2);
        let explicit = load_params(
            &Json::parse(r#"{"name":"n","dim":2,"points":[0,0,1.5,2],"max_min_pts":9}"#)
                .expect("json"),
        )
        .expect("valid");
        assert_eq!(explicit.max_min_pts, 9);
        assert!(!load.replace);
        assert!(load_params(&Json::parse(r#"{"name":"n","dim":2}"#).expect("json")).is_err());
        assert!(
            load_params(&Json::parse(r#"{"name":"n","dim":2,"points":["x"]}"#).expect("json"))
                .is_err()
        );

        let sweep =
            sweep_params(&Json::parse(r#"{"dataset":"d","min_pts":[2,4,8]}"#).expect("json"))
                .expect("valid");
        assert_eq!(sweep.min_pts, vec![2, 4, 8]);
        assert!(
            sweep_params(&Json::parse(r#"{"dataset":"d","min_pts":[]}"#).expect("json")).is_err()
        );
    }

    #[test]
    fn pandora_errors_map_to_structured_wire_codes() {
        let e = pandora_error(&PandoraError::BadParams {
            param: "min_pts",
            value: 0,
            reason: "must be at least 1",
        });
        assert_eq!(e.code, code::BAD_PARAMS);
        assert!(e.message.contains("min_pts"));
        assert_eq!(
            e.data
                .as_ref()
                .and_then(|d| d.get("param"))
                .and_then(Json::as_str),
            Some("min_pts")
        );
        assert_eq!(
            pandora_error(&PandoraError::EmptyDataset).code,
            code::EMPTY_DATASET
        );
        assert_eq!(
            pandora_error(&PandoraError::NonFinite { point: 1, dim: 0 }).code,
            code::NON_FINITE
        );
        assert_eq!(
            pandora_error(&PandoraError::BadShape { len: 3, dim: 2 }).code,
            code::BAD_SHAPE
        );
    }

    #[test]
    fn responses_echo_ids_verbatim() {
        let ok = response_ok(
            &Json::Str("req-1".into()),
            Json::obj(vec![("x", Json::Int(1))]),
        );
        assert_eq!(ok, r#"{"id":"req-1","result":{"x":1}}"#);
        let err = response_err(
            &Json::Int(2),
            &WireError::new(code::OVERLOADED, "queue full"),
        );
        assert_eq!(
            err,
            r#"{"id":2,"error":{"code":"overloaded","message":"queue full"}}"#
        );
    }
}
