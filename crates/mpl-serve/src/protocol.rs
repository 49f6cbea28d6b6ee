//! The typed request/response vocabulary of the wire protocol, and its
//! JSON encoding.
//!
//! Every frame on the wire is one JSON object with a `"type"` field.  This
//! module converts between those objects and the typed [`Request`] /
//! [`Response`] enums, so the server, the client, the benchmarks and the
//! tests all agree on one schema — and the property tests can round-trip
//! arbitrary values through encode → chunked transport → decode.
//!
//! Failures are [`ServeError`]s: the decomposition pipeline's typed
//! [`ConfigError`] / [`DecomposeError`] values are carried as-is (not
//! stringly re-invented), and protocol/parse/io problems get their own
//! variants.  On the wire an error becomes an `"error"` frame with a
//! machine-checkable [`ErrorCode`] plus the human-readable message.

use crate::json::Json;
use mpl_core::{ColorAlgorithm, ConfigError, DecomposeError};
use std::fmt;

/// Where a submitted layout's geometry comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutSource {
    /// Inline text in the workspace's line-oriented layout format
    /// (`# layout <name>` header + one rectangle per line).
    Text(String),
    /// A base64-encoded GDSII stream.
    GdsBase64(String),
    /// A path on the **server's** filesystem (text or GDSII,
    /// auto-detected) — for clients co-located with the layout store.
    Path(String),
}

/// Which persistent executor the server should drain this layout on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorChoice {
    /// The server's shared thread pool (the default).
    #[default]
    Pool,
    /// The serial executor.
    Serial,
}

impl ExecutorChoice {
    /// The wire name (`"pool"` / `"serial"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExecutorChoice::Pool => "pool",
            ExecutorChoice::Serial => "serial",
        }
    }

    /// Parses a wire name.
    pub fn from_wire(name: &str) -> Result<Self, ServeError> {
        match name {
            "pool" => Ok(ExecutorChoice::Pool),
            "serial" => Ok(ExecutorChoice::Serial),
            other => Err(ServeError::Protocol(format!(
                "unknown executor {other:?} (expected \"serial\" or \"pool\")"
            ))),
        }
    }
}

/// One `submit` request: a layout plus its per-request decomposition
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen tag echoed on every response frame for this layout.
    pub id: String,
    /// The layout geometry.
    pub source: LayoutSource,
    /// Mask count K (validated server-side; a bad value comes back as a
    /// typed `config` error).
    pub k: usize,
    /// The color-assignment engine.
    pub algorithm: ColorAlgorithm,
    /// Stitch weight α.
    pub alpha: f64,
    /// Which persistent executor drains this layout.
    pub executor: ExecutorChoice,
    /// Stream per-component `progress` frames while the layout colors.
    pub progress: bool,
    /// Re-verify same-mask spacing server-side and report the violation
    /// count on the result frame.
    pub verify: bool,
    /// Decompose through the halo-aware tiler with square windows of this
    /// edge length in nm (`None` = untiled).  Non-positive values come back
    /// as typed `config` errors.
    pub tile_size: Option<i64>,
    /// Explicit halo width in nm around each tile window.  Requires
    /// `tile_size`; must be at least the coloring distance.
    pub halo: Option<i64>,
    /// Decompose through the cell-level hierarchical driver: GDS sources
    /// keep their instance provenance, each distinct cell body colors once
    /// and instance boundaries reconcile.  Mutually exclusive with
    /// `tile_size`/`halo` (a typed `config` error).  Sources without a
    /// hierarchy (text layouts) degenerate to the ordinary memoized run.
    pub hier: bool,
    /// Soft deadline in milliseconds, measured from the arrival of the
    /// frame's first byte at the server.  Once it
    /// expires, components not yet started are skipped and running engines
    /// stop at their next amortised poll; the `result` frame then reports
    /// `deadline_exceeded` alongside the partial coloring.  `None` = no
    /// deadline.
    pub deadline_ms: Option<u64>,
}

impl SubmitRequest {
    /// A submission with the protocol defaults (K=4, SDP+Backtrack,
    /// α=0.1, pool executor, no progress streaming, no verification).
    pub fn new(id: impl Into<String>, source: LayoutSource) -> Self {
        SubmitRequest {
            id: id.into(),
            source,
            k: 4,
            algorithm: ColorAlgorithm::SdpBacktrack,
            alpha: 0.1,
            executor: ExecutorChoice::default(),
            progress: false,
            verify: false,
            tile_size: None,
            halo: None,
            hier: false,
            deadline_ms: None,
        }
    }
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one layout for decomposition.
    Submit(SubmitRequest),
    /// Cancel an earlier submission of **this connection** by its id —
    /// queued submissions skip wholesale, in-flight ones stop at the
    /// engines' next amortised poll, and either way the submission resolves
    /// with a terminal `cancelled` frame.  Cancelling an unknown or
    /// already-finished id answers a non-fatal typed error
    /// ([`ErrorCode::Cancel`]); the connection stays usable.
    Cancel {
        /// The id of the submission to cancel.
        id: String,
    },
    /// Liveness probe; the server answers with [`Response::Pong`].
    Ping,
    /// Ask the whole server (not just this connection) to stop accepting
    /// work and exit once the current batch drains.
    Shutdown,
}

/// Memo-cache statistics reported on `pong` frames (the serve loop holds
/// one shared [`MemoCache`](mpl_core::MemoCache) across all connections
/// and batches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePayload {
    /// Colorings currently stored.
    pub entries: usize,
    /// Maximum entries before least-recently-used eviction.
    pub capacity: usize,
    /// Lifetime lookup hits.
    pub hits: u64,
    /// Lifetime lookup misses.
    pub misses: u64,
    /// Lifetime evictions.
    pub evictions: u64,
    /// Approximate bytes held by stored signatures and colorings.
    pub bytes: usize,
}

/// Tiling statistics reported on `result` frames when the submission asked
/// for the halo-aware tiler (mirrors `mpl_tile::TileStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePayload {
    /// Grid columns.
    pub grid_x: usize,
    /// Grid rows.
    pub grid_y: usize,
    /// Tile sub-problems actually decomposed (pieces of spanning
    /// components; window-resident components are not tiles).
    pub tiles: usize,
    /// Components sharded across windows.
    pub tiled_components: usize,
    /// Components resident in one window (decomposed untiled).
    pub resident_components: usize,
    /// Halo-duplicated vertices (sum of piece sizes minus component sizes).
    pub shared_vertices: usize,
    /// Tiles rotated by a non-identity color permutation during
    /// reconciliation.
    pub permuted_tiles: usize,
    /// Boundary-strip vertices re-colored by the greedy repair pass.
    pub recolored_vertices: usize,
    /// Cross-window conflicts after permutation, before repair.
    pub cross_conflicts_before: usize,
    /// Cross-window conflicts after repair.
    pub cross_conflicts_after: usize,
}

/// Hierarchy statistics reported on `result` frames when the submission
/// asked for cell-level hierarchical decomposition (mirrors
/// `mpl_hier::HierStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierPayload {
    /// Top-level cell instances recorded by the tagged flattening.
    pub instances: usize,
    /// Distinct cells those instances reference.
    pub cells: usize,
    /// Shapes whose tag was inherited from the enclosing top-level
    /// instance through a nested reference chain (depth ≥ 2). Decodes as
    /// zero when absent, so frames from older servers keep parsing.
    pub nested_inherited: usize,
    /// Single-provenance components decomposed through the plain engine.
    pub resident_components: usize,
    /// Mixed-provenance components split along instance seams.
    pub split_components: usize,
    /// Per-instance pieces carved out of split components.
    pub instance_pieces: usize,
    /// Vertices of residual boundary pieces (geometry that merged across
    /// instance boundaries and lost its provenance).
    pub boundary_vertices: usize,
    /// Pieces rotated by a non-identity color permutation during
    /// reconciliation.
    pub permuted_pieces: usize,
    /// Boundary-strip vertices re-colored by the greedy repair pass.
    pub recolored_vertices: usize,
    /// Cross-instance conflicts after permutation, before repair.
    pub cross_conflicts_before: usize,
    /// Cross-instance conflicts after repair.
    pub cross_conflicts_after: usize,
}

/// The final per-layout payload of a successful decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultPayload {
    /// The submission's client-chosen id.
    pub id: String,
    /// The layout's name.
    pub layout: String,
    /// Mask count K.
    pub k: usize,
    /// Engine name (the paper's column header, e.g. `"Linear"`).
    pub algorithm: String,
    /// Executor that drained the layout (e.g. `"serial"`, `"threads:4"`).
    pub executor: String,
    /// Decomposition-graph vertices.
    pub vertices: usize,
    /// Independent components.
    pub components: usize,
    /// Unresolved conflicts.
    pub conflicts: usize,
    /// Inserted stitches.
    pub stitches: usize,
    /// Weighted objective `conflicts + α · stitches`.
    pub cost: f64,
    /// Seconds from batch start until this layout's last component
    /// finished.
    pub color_seconds: f64,
    /// One mask index per decomposition-graph vertex — the full coloring,
    /// so clients can compare served results bit-for-bit with local runs.
    pub colors: Vec<u8>,
    /// Same-mask spacing violations found by server-side re-verification
    /// (present only when the submission set `verify`).
    pub spacing_violations: Option<usize>,
    /// Vertices hidden by iterated graph simplification, summed over the
    /// layout's components (zero when simplification found nothing, or on
    /// frames from servers predating the counter).
    pub hidden_vertices: usize,
    /// Kernel vertices handed to the engines after simplification, summed
    /// over components that were simplified.
    pub kernel_vertices: usize,
    /// Hide/cut rounds run by iterated simplification, summed over
    /// components.
    pub simplify_rounds: usize,
    /// Clique-expansion steps that strengthened the exact engine's lower
    /// bound, summed over components.
    pub bound_improvements: u64,
    /// Components stamped from the server's shared memo cache (a cache hit
    /// or an in-batch duplicate).  `None` when the run had no cache.
    pub memo_hits: Option<usize>,
    /// Components the engine actually colored under the memo cache.
    /// `None` when the run had no cache.
    pub memo_misses: Option<usize>,
    /// `true` when an explicit `cancel` stopped this submission's work
    /// mid-run but it still resolved with a (partial) result frame.
    /// Decodes as `false` when absent, so frames from older servers — and
    /// undisturbed warm-path frames, which omit the flag — keep parsing.
    pub cancelled: bool,
    /// `true` when the submission's `deadline_ms` expired while it ran:
    /// the coloring is partial (skipped components wear mask 0).  Decodes
    /// as `false` when absent.
    pub deadline_exceeded: bool,
    /// Components that actually reached an engine (or the memo cache)
    /// before any cancellation or deadline stopped the run.  Decodes as
    /// `components − components_skipped` when absent.
    pub components_completed: usize,
    /// Components skipped wholesale because the request was cancelled or
    /// its deadline expired before they started.  Decodes as zero when
    /// absent.
    pub components_skipped: usize,
    /// Tiling statistics (present only when the submission set
    /// `tile_size`).
    pub tiles: Option<TilePayload>,
    /// Hierarchy statistics (present only when the submission set `hier`).
    pub hierarchy: Option<HierPayload>,
}

/// Machine-checkable category of an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed frame, unknown type, missing/ill-typed field.
    Protocol,
    /// The layout payload failed to parse (bad text, truncated GDS, …).
    Parse,
    /// An invalid decomposer configuration ([`ConfigError`]).
    Config,
    /// Planning failed ([`DecomposeError`], e.g. a degenerate shape).
    Decompose,
    /// A server-side I/O failure (e.g. an unreadable `path` submission).
    Io,
    /// A `cancel` frame named an unknown or already-finished submission.
    /// Non-fatal: the connection stays usable.
    Cancel,
}

impl ErrorCode {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Parse => "parse",
            ErrorCode::Config => "config",
            ErrorCode::Decompose => "decompose",
            ErrorCode::Io => "io",
            ErrorCode::Cancel => "cancel",
        }
    }

    /// Parses a wire name.
    pub fn from_wire(name: &str) -> Result<Self, ServeError> {
        match name {
            "protocol" => Ok(ErrorCode::Protocol),
            "parse" => Ok(ErrorCode::Parse),
            "config" => Ok(ErrorCode::Config),
            "decompose" => Ok(ErrorCode::Decompose),
            "io" => Ok(ErrorCode::Io),
            "cancel" => Ok(ErrorCode::Cancel),
            other => Err(ServeError::Protocol(format!(
                "unknown error code {other:?}"
            ))),
        }
    }
}

/// A server-to-client frame.
// One `Response` exists per decoded frame, never in bulk, so the size
// spread between `Result` (which carries the full per-mask summary and
// now the tile stats) and the small control frames costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A submission was accepted and queued for the next batch.
    Queued {
        /// The submission's id.
        id: String,
        /// The layout's name.
        layout: String,
        /// Decomposition-graph vertices.
        vertices: usize,
        /// Independent components (= the `total` of progress frames).
        components: usize,
    },
    /// `done` of `total` components of a submission have colored.
    Progress {
        /// The submission's id.
        id: String,
        /// Components finished so far (strictly increasing).
        done: usize,
        /// Total components of the layout.
        total: usize,
    },
    /// `done` of `total` tile sub-problems of a tiled submission have
    /// decomposed (only streamed when the submission set `tile_size` and
    /// `progress`).
    TileProgress {
        /// The submission's id.
        id: String,
        /// Tile sub-problems finished so far (strictly increasing).
        done: usize,
        /// Total tile sub-problems of the layout (spanning-component
        /// pieces plus one slot for all window-resident components).
        total: usize,
    },
    /// `done` of `total` hierarchical pieces of a submission have
    /// decomposed (only streamed when the submission set `hier` and
    /// `progress`).
    HierProgress {
        /// The submission's id.
        id: String,
        /// Pieces finished so far (strictly increasing).
        done: usize,
        /// Total pieces of the layout (instance pieces, boundary pieces
        /// and one slot for all resident components).
        total: usize,
    },
    /// A submission finished; the full coloring and statistics.
    Result(ResultPayload),
    /// A submission was cancelled by an explicit `cancel` frame — the
    /// terminal frame for that id (no `result` follows).  Components that
    /// completed before the token fired stay counted; skipped ones never
    /// reached an engine.
    Cancelled {
        /// The submission's id.
        id: String,
        /// Components that finished before the cancellation took effect.
        components_completed: usize,
        /// Components skipped because the cancellation beat their start.
        components_skipped: usize,
        /// Branch-and-bound nodes the exact engine expanded before it
        /// observed the cancellation — the work-counter bound fault tests
        /// assert cancellation latency with, instead of wall-clock.
        bnb_nodes: u64,
    },
    /// A request failed.  The connection stays open.
    Error {
        /// The submission's id, when the failing frame carried one.
        id: Option<String>,
        /// Machine-checkable category.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
    /// Answer to [`Request::Ping`], carrying the server's shared
    /// memo-cache statistics when one is attached plus lifetime usage
    /// counters of the optional decomposition drivers.
    Pong {
        /// Statistics of the server's shared memo cache.
        cache: Option<CachePayload>,
        /// Layouts decomposed through the hierarchical driver so far.
        hier_runs: u64,
        /// Layouts decomposed through the halo-aware tiler so far.
        tile_runs: u64,
        /// Frames currently queued across all connections' bounded output
        /// queues (a gauge, not a lifetime counter).
        queued_frames: u64,
        /// Lifetime progress frames dropped by output-queue overflow
        /// (result/error/cancelled frames are never dropped).
        dropped_progress: u64,
        /// Lifetime submissions resolved by an explicit `cancel`.
        cancelled_requests: u64,
        /// Lifetime submissions whose `deadline_ms` expired mid-run.
        deadline_exceeded_requests: u64,
    },
    /// Acknowledges [`Request::Shutdown`]; the server exits afterwards.
    ShuttingDown,
}

/// A service failure: either a carried-through typed pipeline error or a
/// protocol-level problem.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Malformed frame, unknown type, missing or ill-typed field.
    Protocol(String),
    /// The layout payload failed to parse.
    Parse(String),
    /// The decomposition pipeline's typed configuration error.
    Config(ConfigError),
    /// The decomposition pipeline's typed planning error.
    Decompose(DecomposeError),
    /// A server-side I/O failure.
    Io(String),
}

impl ServeError {
    /// The wire category of this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::Protocol(_) => ErrorCode::Protocol,
            ServeError::Parse(_) => ErrorCode::Parse,
            ServeError::Config(_) => ErrorCode::Config,
            ServeError::Decompose(DecomposeError::Config(_)) => ErrorCode::Config,
            ServeError::Decompose(_) => ErrorCode::Decompose,
            ServeError::Io(_) => ErrorCode::Io,
        }
    }

    /// Renders this error as the `error` frame for `id`.
    pub fn to_response(&self, id: Option<String>) -> Response {
        Response::Error {
            id,
            code: self.code(),
            message: self.to_string(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Protocol(message)
            | ServeError::Parse(message)
            | ServeError::Io(message) => f.write_str(message),
            ServeError::Config(error) => write!(f, "{error}"),
            ServeError::Decompose(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Config(error) => Some(error),
            ServeError::Decompose(error) => Some(error),
            _ => None,
        }
    }
}

impl From<ConfigError> for ServeError {
    fn from(error: ConfigError) -> Self {
        ServeError::Config(error)
    }
}

impl From<DecomposeError> for ServeError {
    fn from(error: DecomposeError) -> Self {
        match error {
            DecomposeError::Config(config) => ServeError::Config(config),
            other => ServeError::Decompose(other),
        }
    }
}

/// The wire name of an engine (the `--algorithm` alias the CLI also
/// accepts).
pub fn algorithm_wire_name(algorithm: ColorAlgorithm) -> &'static str {
    match algorithm {
        ColorAlgorithm::Ilp => "ilp",
        ColorAlgorithm::SdpBacktrack => "sdp-backtrack",
        ColorAlgorithm::SdpGreedy => "sdp-greedy",
        ColorAlgorithm::Linear => "linear",
    }
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, ServeError> {
    json.get(key)
        .ok_or_else(|| ServeError::Protocol(format!("missing field {key:?}")))
}

fn string_field(json: &Json, key: &str) -> Result<String, ServeError> {
    field(json, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ServeError::Protocol(format!("field {key:?} must be a string")))
}

fn usize_field(json: &Json, key: &str) -> Result<usize, ServeError> {
    field(json, key)?.as_usize().ok_or_else(|| {
        ServeError::Protocol(format!("field {key:?} must be a non-negative integer"))
    })
}

fn f64_field(json: &Json, key: &str) -> Result<f64, ServeError> {
    field(json, key)?
        .as_f64()
        .ok_or_else(|| ServeError::Protocol(format!("field {key:?} must be a number")))
}

/// An optional distance-in-nm field: any integer decodes (including
/// non-positive ones, so the server can answer with the pipeline's typed
/// `config` error instead of a generic protocol error).
fn optional_nm_field(json: &Json, key: &str) -> Result<Option<i64>, ServeError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => value
            .as_f64()
            .filter(|nm| nm.fract() == 0.0 && nm.abs() < i64::MAX as f64)
            .map(|nm| Some(nm as i64))
            .ok_or_else(|| {
                ServeError::Protocol(format!("field {key:?} must be an integer distance in nm"))
            }),
    }
}

/// Decodes a client frame.
///
/// # Errors
///
/// [`ServeError::Protocol`] describing the first violated expectation.
pub fn decode_request(json: &Json) -> Result<Request, ServeError> {
    let frame_type = string_field(json, "type")?;
    match frame_type.as_str() {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "cancel" => Ok(Request::Cancel {
            id: string_field(json, "id")?,
        }),
        "submit" => {
            let id = string_field(json, "id")?;
            let sources: Vec<LayoutSource> = [
                ("layout_text", LayoutSource::Text as fn(String) -> _),
                ("gds_base64", LayoutSource::GdsBase64 as fn(String) -> _),
                ("path", LayoutSource::Path as fn(String) -> _),
            ]
            .iter()
            .filter_map(|(key, build)| {
                json.get(key).map(|value| {
                    value
                        .as_str()
                        .map(|text| build(text.to_string()))
                        .ok_or_else(|| {
                            ServeError::Protocol(format!("field {key:?} must be a string"))
                        })
                })
            })
            .collect::<Result<_, _>>()?;
            let source =
                match sources.len() {
                    1 => sources.into_iter().next().expect("length checked"),
                    0 => return Err(ServeError::Protocol(
                        "submit needs exactly one of \"layout_text\", \"gds_base64\" or \"path\""
                            .to_string(),
                    )),
                    _ => {
                        return Err(ServeError::Protocol(
                            "submit got more than one layout source".to_string(),
                        ))
                    }
                };
            let mut submit = SubmitRequest::new(id, source);
            if json.get("k").is_some() {
                submit.k = usize_field(json, "k")?;
            }
            if let Some(value) = json.get("algorithm") {
                let name = value.as_str().ok_or_else(|| {
                    ServeError::Protocol("field \"algorithm\" must be a string".to_string())
                })?;
                submit.algorithm =
                    ColorAlgorithm::from_cli_name(name).map_err(ServeError::Protocol)?;
            }
            if json.get("alpha").is_some() {
                submit.alpha = f64_field(json, "alpha")?;
            }
            if let Some(value) = json.get("executor") {
                let name = value.as_str().ok_or_else(|| {
                    ServeError::Protocol("field \"executor\" must be a string".to_string())
                })?;
                submit.executor = ExecutorChoice::from_wire(name)?;
            }
            if let Some(value) = json.get("progress") {
                submit.progress = value.as_bool().ok_or_else(|| {
                    ServeError::Protocol("field \"progress\" must be a boolean".to_string())
                })?;
            }
            if let Some(value) = json.get("verify") {
                submit.verify = value.as_bool().ok_or_else(|| {
                    ServeError::Protocol("field \"verify\" must be a boolean".to_string())
                })?;
            }
            submit.tile_size = optional_nm_field(json, "tile_size")?;
            submit.halo = optional_nm_field(json, "halo")?;
            if let Some(value) = json.get("hier") {
                submit.hier = value.as_bool().ok_or_else(|| {
                    ServeError::Protocol("field \"hier\" must be a boolean".to_string())
                })?;
            }
            submit.deadline_ms = match json.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(value) => Some(value.as_usize().map(|ms| ms as u64).ok_or_else(|| {
                    ServeError::Protocol(
                        "field \"deadline_ms\" must be a non-negative integer".to_string(),
                    )
                })?),
            };
            Ok(Request::Submit(submit))
        }
        other => Err(ServeError::Protocol(format!(
            "unknown request type {other:?}"
        ))),
    }
}

/// Encodes a client frame.
pub fn encode_request(request: &Request) -> Json {
    match request {
        Request::Ping => Json::object(vec![("type", Json::string("ping"))]),
        Request::Shutdown => Json::object(vec![("type", Json::string("shutdown"))]),
        Request::Cancel { id } => Json::object(vec![
            ("type", Json::string("cancel")),
            ("id", Json::string(id.clone())),
        ]),
        Request::Submit(submit) => {
            let mut pairs = vec![
                ("type", Json::string("submit")),
                ("id", Json::string(submit.id.clone())),
            ];
            let (source_key, source_value) = match &submit.source {
                LayoutSource::Text(text) => ("layout_text", text),
                LayoutSource::GdsBase64(data) => ("gds_base64", data),
                LayoutSource::Path(path) => ("path", path),
            };
            pairs.push((source_key, Json::string(source_value.clone())));
            pairs.push(("k", Json::Number(submit.k as f64)));
            pairs.push((
                "algorithm",
                Json::string(algorithm_wire_name(submit.algorithm)),
            ));
            pairs.push(("alpha", Json::Number(submit.alpha)));
            pairs.push(("executor", Json::string(submit.executor.as_str())));
            pairs.push(("progress", Json::Bool(submit.progress)));
            pairs.push(("verify", Json::Bool(submit.verify)));
            if let Some(tile_size) = submit.tile_size {
                pairs.push(("tile_size", Json::Number(tile_size as f64)));
            }
            if let Some(halo) = submit.halo {
                pairs.push(("halo", Json::Number(halo as f64)));
            }
            pairs.push(("hier", Json::Bool(submit.hier)));
            if let Some(deadline_ms) = submit.deadline_ms {
                pairs.push(("deadline_ms", Json::Number(deadline_ms as f64)));
            }
            Json::object(pairs)
        }
    }
}

/// Decodes a server frame.
///
/// # Errors
///
/// [`ServeError::Protocol`] describing the first violated expectation.
pub fn decode_response(json: &Json) -> Result<Response, ServeError> {
    let frame_type = string_field(json, "type")?;
    match frame_type.as_str() {
        "pong" => {
            let cache = match json.get("cache") {
                None | Some(Json::Null) => None,
                Some(value) => Some(CachePayload {
                    entries: usize_field(value, "entries")?,
                    capacity: usize_field(value, "capacity")?,
                    hits: usize_field(value, "hits")? as u64,
                    misses: usize_field(value, "misses")? as u64,
                    evictions: usize_field(value, "evictions")? as u64,
                    bytes: usize_field(value, "bytes")?,
                }),
            };
            // Absent counters (old servers) decode as zero.
            let counter = |key: &str| -> Result<u64, ServeError> {
                match json.get(key) {
                    None | Some(Json::Null) => Ok(0),
                    Some(value) => value.as_usize().map(|count| count as u64).ok_or_else(|| {
                        ServeError::Protocol(format!(
                            "field {key:?} must be a non-negative integer"
                        ))
                    }),
                }
            };
            Ok(Response::Pong {
                cache,
                hier_runs: counter("hier_runs")?,
                tile_runs: counter("tile_runs")?,
                queued_frames: counter("queued_frames")?,
                dropped_progress: counter("dropped_progress")?,
                cancelled_requests: counter("cancelled_requests")?,
                deadline_exceeded_requests: counter("deadline_exceeded_requests")?,
            })
        }
        "shutting_down" => Ok(Response::ShuttingDown),
        "queued" => Ok(Response::Queued {
            id: string_field(json, "id")?,
            layout: string_field(json, "layout")?,
            vertices: usize_field(json, "vertices")?,
            components: usize_field(json, "components")?,
        }),
        "progress" => Ok(Response::Progress {
            id: string_field(json, "id")?,
            done: usize_field(json, "done")?,
            total: usize_field(json, "total")?,
        }),
        "tile_progress" => Ok(Response::TileProgress {
            id: string_field(json, "id")?,
            done: usize_field(json, "done")?,
            total: usize_field(json, "total")?,
        }),
        "hier_progress" => Ok(Response::HierProgress {
            id: string_field(json, "id")?,
            done: usize_field(json, "done")?,
            total: usize_field(json, "total")?,
        }),
        "cancelled" => Ok(Response::Cancelled {
            id: string_field(json, "id")?,
            components_completed: usize_field(json, "components_completed")?,
            components_skipped: usize_field(json, "components_skipped")?,
            bnb_nodes: usize_field(json, "bnb_nodes")? as u64,
        }),
        "error" => {
            let id = match json.get("id") {
                None | Some(Json::Null) => None,
                Some(value) => Some(value.as_str().map(str::to_string).ok_or_else(|| {
                    ServeError::Protocol("field \"id\" must be a string".to_string())
                })?),
            };
            Ok(Response::Error {
                id,
                code: ErrorCode::from_wire(&string_field(json, "code")?)?,
                message: string_field(json, "message")?,
            })
        }
        "result" => {
            let colors = field(json, "colors")?
                .as_array()
                .ok_or_else(|| {
                    ServeError::Protocol("field \"colors\" must be an array".to_string())
                })?
                .iter()
                .map(|value| {
                    value
                        .as_usize()
                        .filter(|&color| color <= u8::MAX as usize)
                        .map(|color| color as u8)
                        .ok_or_else(|| {
                            ServeError::Protocol(
                                "field \"colors\" must hold mask indices 0..=255".to_string(),
                            )
                        })
                })
                .collect::<Result<Vec<u8>, _>>()?;
            let optional_count = |key: &str| -> Result<Option<usize>, ServeError> {
                match json.get(key) {
                    None | Some(Json::Null) => Ok(None),
                    Some(value) => value.as_usize().map(Some).ok_or_else(|| {
                        ServeError::Protocol(format!(
                            "field {key:?} must be a non-negative integer"
                        ))
                    }),
                }
            };
            let spacing_violations = optional_count("spacing_violations")?;
            let memo_hits = optional_count("memo_hits")?;
            let memo_misses = optional_count("memo_misses")?;
            // Absent counters (frames from older servers) decode as zero.
            let counter =
                |key: &str| -> Result<usize, ServeError> { Ok(optional_count(key)?.unwrap_or(0)) };
            let hidden_vertices = counter("hidden_vertices")?;
            let kernel_vertices = counter("kernel_vertices")?;
            let simplify_rounds = counter("simplify_rounds")?;
            let bound_improvements = counter("bound_improvements")? as u64;
            // Absent flags (undisturbed runs, frames from older servers)
            // decode as an untouched submission.
            let flag = |key: &str| -> Result<bool, ServeError> {
                match json.get(key) {
                    None | Some(Json::Null) => Ok(false),
                    Some(value) => value.as_bool().ok_or_else(|| {
                        ServeError::Protocol(format!("field {key:?} must be a boolean"))
                    }),
                }
            };
            let cancelled = flag("cancelled")?;
            let deadline_exceeded = flag("deadline_exceeded")?;
            let components = usize_field(json, "components")?;
            let components_skipped = counter("components_skipped")?;
            let components_completed = optional_count("components_completed")?
                .unwrap_or_else(|| components.saturating_sub(components_skipped));
            let tiles = match json.get("tiles") {
                None | Some(Json::Null) => None,
                Some(value) => Some(TilePayload {
                    grid_x: usize_field(value, "grid_x")?,
                    grid_y: usize_field(value, "grid_y")?,
                    tiles: usize_field(value, "tiles")?,
                    tiled_components: usize_field(value, "tiled_components")?,
                    resident_components: usize_field(value, "resident_components")?,
                    shared_vertices: usize_field(value, "shared_vertices")?,
                    permuted_tiles: usize_field(value, "permuted_tiles")?,
                    recolored_vertices: usize_field(value, "recolored_vertices")?,
                    cross_conflicts_before: usize_field(value, "cross_conflicts_before")?,
                    cross_conflicts_after: usize_field(value, "cross_conflicts_after")?,
                }),
            };
            let hierarchy = match json.get("hierarchy") {
                None | Some(Json::Null) => None,
                Some(value) => Some(HierPayload {
                    instances: usize_field(value, "instances")?,
                    cells: usize_field(value, "cells")?,
                    // Absent on frames from older servers: decode as zero.
                    nested_inherited: match value.get("nested_inherited") {
                        None | Some(Json::Null) => 0,
                        Some(_) => usize_field(value, "nested_inherited")?,
                    },
                    resident_components: usize_field(value, "resident_components")?,
                    split_components: usize_field(value, "split_components")?,
                    instance_pieces: usize_field(value, "instance_pieces")?,
                    boundary_vertices: usize_field(value, "boundary_vertices")?,
                    permuted_pieces: usize_field(value, "permuted_pieces")?,
                    recolored_vertices: usize_field(value, "recolored_vertices")?,
                    cross_conflicts_before: usize_field(value, "cross_conflicts_before")?,
                    cross_conflicts_after: usize_field(value, "cross_conflicts_after")?,
                }),
            };
            Ok(Response::Result(ResultPayload {
                id: string_field(json, "id")?,
                layout: string_field(json, "layout")?,
                k: usize_field(json, "k")?,
                algorithm: string_field(json, "algorithm")?,
                executor: string_field(json, "executor")?,
                vertices: usize_field(json, "vertices")?,
                components,
                conflicts: usize_field(json, "conflicts")?,
                stitches: usize_field(json, "stitches")?,
                cost: f64_field(json, "cost")?,
                color_seconds: f64_field(json, "color_seconds")?,
                colors,
                hidden_vertices,
                kernel_vertices,
                simplify_rounds,
                bound_improvements,
                spacing_violations,
                memo_hits,
                memo_misses,
                cancelled,
                deadline_exceeded,
                components_completed,
                components_skipped,
                tiles,
                hierarchy,
            }))
        }
        other => Err(ServeError::Protocol(format!(
            "unknown response type {other:?}"
        ))),
    }
}

/// Encodes a server frame.
pub fn encode_response(response: &Response) -> Json {
    match response {
        Response::Pong {
            cache,
            hier_runs,
            tile_runs,
            queued_frames,
            dropped_progress,
            cancelled_requests,
            deadline_exceeded_requests,
        } => {
            let mut pairs = vec![("type", Json::string("pong"))];
            if let Some(cache) = cache {
                pairs.push((
                    "cache",
                    Json::object(vec![
                        ("entries", Json::Number(cache.entries as f64)),
                        ("capacity", Json::Number(cache.capacity as f64)),
                        ("hits", Json::Number(cache.hits as f64)),
                        ("misses", Json::Number(cache.misses as f64)),
                        ("evictions", Json::Number(cache.evictions as f64)),
                        ("bytes", Json::Number(cache.bytes as f64)),
                    ]),
                ));
            }
            pairs.push(("hier_runs", Json::Number(*hier_runs as f64)));
            pairs.push(("tile_runs", Json::Number(*tile_runs as f64)));
            pairs.push(("queued_frames", Json::Number(*queued_frames as f64)));
            pairs.push(("dropped_progress", Json::Number(*dropped_progress as f64)));
            pairs.push((
                "cancelled_requests",
                Json::Number(*cancelled_requests as f64),
            ));
            pairs.push((
                "deadline_exceeded_requests",
                Json::Number(*deadline_exceeded_requests as f64),
            ));
            Json::object(pairs)
        }
        Response::ShuttingDown => Json::object(vec![("type", Json::string("shutting_down"))]),
        Response::Queued {
            id,
            layout,
            vertices,
            components,
        } => Json::object(vec![
            ("type", Json::string("queued")),
            ("id", Json::string(id.clone())),
            ("layout", Json::string(layout.clone())),
            ("vertices", Json::Number(*vertices as f64)),
            ("components", Json::Number(*components as f64)),
        ]),
        Response::Progress { id, done, total } => Json::object(vec![
            ("type", Json::string("progress")),
            ("id", Json::string(id.clone())),
            ("done", Json::Number(*done as f64)),
            ("total", Json::Number(*total as f64)),
        ]),
        Response::TileProgress { id, done, total } => Json::object(vec![
            ("type", Json::string("tile_progress")),
            ("id", Json::string(id.clone())),
            ("done", Json::Number(*done as f64)),
            ("total", Json::Number(*total as f64)),
        ]),
        Response::HierProgress { id, done, total } => Json::object(vec![
            ("type", Json::string("hier_progress")),
            ("id", Json::string(id.clone())),
            ("done", Json::Number(*done as f64)),
            ("total", Json::Number(*total as f64)),
        ]),
        Response::Cancelled {
            id,
            components_completed,
            components_skipped,
            bnb_nodes,
        } => Json::object(vec![
            ("type", Json::string("cancelled")),
            ("id", Json::string(id.clone())),
            (
                "components_completed",
                Json::Number(*components_completed as f64),
            ),
            (
                "components_skipped",
                Json::Number(*components_skipped as f64),
            ),
            ("bnb_nodes", Json::Number(*bnb_nodes as f64)),
        ]),
        Response::Error { id, code, message } => {
            let mut pairs = vec![("type", Json::string("error"))];
            if let Some(id) = id {
                pairs.push(("id", Json::string(id.clone())));
            }
            pairs.push(("code", Json::string(code.as_str())));
            pairs.push(("message", Json::string(message.clone())));
            Json::object(pairs)
        }
        Response::Result(payload) => {
            let mut pairs = vec![
                ("type", Json::string("result")),
                ("id", Json::string(payload.id.clone())),
                ("layout", Json::string(payload.layout.clone())),
                ("k", Json::Number(payload.k as f64)),
                ("algorithm", Json::string(payload.algorithm.clone())),
                ("executor", Json::string(payload.executor.clone())),
                ("vertices", Json::Number(payload.vertices as f64)),
                ("components", Json::Number(payload.components as f64)),
                ("conflicts", Json::Number(payload.conflicts as f64)),
                ("stitches", Json::Number(payload.stitches as f64)),
                ("cost", Json::Number(payload.cost)),
                ("color_seconds", Json::Number(payload.color_seconds)),
                (
                    "hidden_vertices",
                    Json::Number(payload.hidden_vertices as f64),
                ),
                (
                    "kernel_vertices",
                    Json::Number(payload.kernel_vertices as f64),
                ),
                (
                    "simplify_rounds",
                    Json::Number(payload.simplify_rounds as f64),
                ),
                (
                    "bound_improvements",
                    Json::Number(payload.bound_improvements as f64),
                ),
            ];
            if let Some(violations) = payload.spacing_violations {
                pairs.push(("spacing_violations", Json::Number(violations as f64)));
            }
            if let Some(hits) = payload.memo_hits {
                pairs.push(("memo_hits", Json::Number(hits as f64)));
            }
            if let Some(misses) = payload.memo_misses {
                pairs.push(("memo_misses", Json::Number(misses as f64)));
            }
            // Cancellation/deadline fields only appear on disturbed runs —
            // undisturbed frames stay byte-identical to older servers'.
            if payload.cancelled {
                pairs.push(("cancelled", Json::Bool(true)));
            }
            if payload.deadline_exceeded {
                pairs.push(("deadline_exceeded", Json::Bool(true)));
            }
            if payload.components_skipped > 0 || payload.components_completed != payload.components
            {
                pairs.push((
                    "components_completed",
                    Json::Number(payload.components_completed as f64),
                ));
                pairs.push((
                    "components_skipped",
                    Json::Number(payload.components_skipped as f64),
                ));
            }
            if let Some(tiles) = &payload.tiles {
                pairs.push((
                    "tiles",
                    Json::object(vec![
                        ("grid_x", Json::Number(tiles.grid_x as f64)),
                        ("grid_y", Json::Number(tiles.grid_y as f64)),
                        ("tiles", Json::Number(tiles.tiles as f64)),
                        (
                            "tiled_components",
                            Json::Number(tiles.tiled_components as f64),
                        ),
                        (
                            "resident_components",
                            Json::Number(tiles.resident_components as f64),
                        ),
                        (
                            "shared_vertices",
                            Json::Number(tiles.shared_vertices as f64),
                        ),
                        ("permuted_tiles", Json::Number(tiles.permuted_tiles as f64)),
                        (
                            "recolored_vertices",
                            Json::Number(tiles.recolored_vertices as f64),
                        ),
                        (
                            "cross_conflicts_before",
                            Json::Number(tiles.cross_conflicts_before as f64),
                        ),
                        (
                            "cross_conflicts_after",
                            Json::Number(tiles.cross_conflicts_after as f64),
                        ),
                    ]),
                ));
            }
            if let Some(hierarchy) = &payload.hierarchy {
                pairs.push((
                    "hierarchy",
                    Json::object(vec![
                        ("instances", Json::Number(hierarchy.instances as f64)),
                        ("cells", Json::Number(hierarchy.cells as f64)),
                        (
                            "nested_inherited",
                            Json::Number(hierarchy.nested_inherited as f64),
                        ),
                        (
                            "resident_components",
                            Json::Number(hierarchy.resident_components as f64),
                        ),
                        (
                            "split_components",
                            Json::Number(hierarchy.split_components as f64),
                        ),
                        (
                            "instance_pieces",
                            Json::Number(hierarchy.instance_pieces as f64),
                        ),
                        (
                            "boundary_vertices",
                            Json::Number(hierarchy.boundary_vertices as f64),
                        ),
                        (
                            "permuted_pieces",
                            Json::Number(hierarchy.permuted_pieces as f64),
                        ),
                        (
                            "recolored_vertices",
                            Json::Number(hierarchy.recolored_vertices as f64),
                        ),
                        (
                            "cross_conflicts_before",
                            Json::Number(hierarchy.cross_conflicts_before as f64),
                        ),
                        (
                            "cross_conflicts_after",
                            Json::Number(hierarchy.cross_conflicts_after as f64),
                        ),
                    ]),
                ));
            }
            pairs.push((
                "colors",
                Json::Array(
                    payload
                        .colors
                        .iter()
                        .map(|&color| Json::Number(f64::from(color)))
                        .collect(),
                ),
            ));
            Json::object(pairs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let json = encode_request(&request);
        let reparsed = Json::parse(&json.to_string()).expect("writer emits valid JSON");
        assert_eq!(decode_request(&reparsed).expect("decodes"), request);
    }

    fn round_trip_response(response: Response) {
        let json = encode_response(&response);
        let reparsed = Json::parse(&json.to_string()).expect("writer emits valid JSON");
        assert_eq!(decode_response(&reparsed).expect("decodes"), response);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Shutdown);
        let mut submit = SubmitRequest::new("a", LayoutSource::Text("# layout x\n".into()));
        submit.k = 5;
        submit.algorithm = ColorAlgorithm::Linear;
        submit.alpha = 0.25;
        submit.executor = ExecutorChoice::Serial;
        submit.progress = true;
        submit.verify = true;
        submit.tile_size = Some(2_000);
        submit.halo = Some(100);
        round_trip_request(Request::Submit(submit));
        let mut hier = SubmitRequest::new("h", LayoutSource::GdsBase64("AAECAw==".into()));
        hier.hier = true;
        round_trip_request(Request::Submit(hier));
        round_trip_request(Request::Submit(SubmitRequest::new(
            "gds \"quoted\"",
            LayoutSource::GdsBase64("AAECAw==".into()),
        )));
        round_trip_request(Request::Submit(SubmitRequest::new(
            "p",
            LayoutSource::Path("/tmp/x.gds".into()),
        )));
        let mut deadlined = SubmitRequest::new("d", LayoutSource::Text("# layout d\n".into()));
        deadlined.deadline_ms = Some(1_500);
        round_trip_request(Request::Submit(deadlined));
        round_trip_request(Request::Cancel { id: "j1".into() });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Pong {
            cache: None,
            hier_runs: 0,
            tile_runs: 0,
            queued_frames: 0,
            dropped_progress: 0,
            cancelled_requests: 0,
            deadline_exceeded_requests: 0,
        });
        round_trip_response(Response::Pong {
            cache: Some(CachePayload {
                entries: 12,
                capacity: 65_536,
                hits: 40,
                misses: 14,
                evictions: 2,
                bytes: 9_000,
            }),
            hier_runs: 3,
            tile_runs: 7,
            queued_frames: 5,
            dropped_progress: 11,
            cancelled_requests: 2,
            deadline_exceeded_requests: 1,
        });
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Queued {
            id: "7".into(),
            layout: "chip".into(),
            vertices: 10,
            components: 3,
        });
        round_trip_response(Response::Progress {
            id: "7".into(),
            done: 2,
            total: 3,
        });
        round_trip_response(Response::TileProgress {
            id: "7".into(),
            done: 5,
            total: 9,
        });
        round_trip_response(Response::HierProgress {
            id: "7".into(),
            done: 3,
            total: 13,
        });
        round_trip_response(Response::Error {
            id: None,
            code: ErrorCode::Protocol,
            message: "bad frame".into(),
        });
        round_trip_response(Response::Error {
            id: Some("x".into()),
            code: ErrorCode::Config,
            message: "mask count K must be in 2..=255, got 0".into(),
        });
        round_trip_response(Response::Result(ResultPayload {
            id: "7".into(),
            layout: "chip".into(),
            k: 4,
            algorithm: "Linear".into(),
            executor: "threads:2".into(),
            vertices: 4,
            components: 2,
            conflicts: 1,
            stitches: 2,
            cost: 1.2,
            color_seconds: 0.25,
            colors: vec![0, 3, 2, 1],
            hidden_vertices: 2,
            kernel_vertices: 2,
            simplify_rounds: 1,
            bound_improvements: 3,
            spacing_violations: Some(1),
            memo_hits: Some(1),
            memo_misses: Some(1),
            cancelled: false,
            deadline_exceeded: false,
            components_completed: 2,
            components_skipped: 0,
            tiles: Some(TilePayload {
                grid_x: 3,
                grid_y: 2,
                tiles: 6,
                tiled_components: 1,
                resident_components: 1,
                shared_vertices: 5,
                permuted_tiles: 2,
                recolored_vertices: 1,
                cross_conflicts_before: 2,
                cross_conflicts_after: 0,
            }),
            hierarchy: None,
        }));
        round_trip_response(Response::Result(ResultPayload {
            id: "9".into(),
            layout: "sram".into(),
            k: 4,
            algorithm: "SDP+Backtrack".into(),
            executor: "threads:2".into(),
            vertices: 96,
            components: 1,
            conflicts: 0,
            stitches: 4,
            cost: 0.4,
            color_seconds: 0.1,
            colors: vec![0, 1, 2, 3],
            hidden_vertices: 64,
            kernel_vertices: 32,
            simplify_rounds: 2,
            bound_improvements: 0,
            spacing_violations: Some(0),
            memo_hits: Some(15),
            memo_misses: Some(1),
            cancelled: false,
            deadline_exceeded: false,
            components_completed: 1,
            components_skipped: 0,
            tiles: None,
            hierarchy: Some(HierPayload {
                instances: 16,
                cells: 1,
                nested_inherited: 3,
                resident_components: 0,
                split_components: 1,
                instance_pieces: 16,
                boundary_vertices: 12,
                permuted_pieces: 9,
                recolored_vertices: 2,
                cross_conflicts_before: 1,
                cross_conflicts_after: 0,
            }),
        }));
        round_trip_response(Response::Result(ResultPayload {
            id: "8".into(),
            layout: "plain".into(),
            k: 4,
            algorithm: "Linear".into(),
            executor: "serial".into(),
            vertices: 1,
            components: 1,
            conflicts: 0,
            stitches: 0,
            cost: 0.0,
            color_seconds: 0.0,
            colors: vec![0],
            hidden_vertices: 1,
            kernel_vertices: 0,
            simplify_rounds: 1,
            bound_improvements: 0,
            spacing_violations: None,
            memo_hits: None,
            memo_misses: None,
            cancelled: false,
            deadline_exceeded: false,
            components_completed: 1,
            components_skipped: 0,
            tiles: None,
            hierarchy: None,
        }));
        // A disturbed (deadline-expired, partially-cancelled) result.
        round_trip_response(Response::Result(ResultPayload {
            id: "t".into(),
            layout: "late".into(),
            k: 4,
            algorithm: "ILP".into(),
            executor: "serial".into(),
            vertices: 9,
            components: 5,
            conflicts: 3,
            stitches: 0,
            cost: 3.0,
            color_seconds: 0.001,
            colors: vec![0; 9],
            hidden_vertices: 0,
            kernel_vertices: 0,
            simplify_rounds: 0,
            bound_improvements: 0,
            spacing_violations: None,
            memo_hits: None,
            memo_misses: None,
            cancelled: true,
            deadline_exceeded: true,
            components_completed: 2,
            components_skipped: 3,
            tiles: None,
            hierarchy: None,
        }));
        round_trip_response(Response::Cancelled {
            id: "j9".into(),
            components_completed: 4,
            components_skipped: 6,
            bnb_nodes: 1_024,
        });
    }

    #[test]
    fn result_frames_without_simplify_counters_decode_as_zero() {
        // Frames from servers predating the simplification counters omit
        // them entirely; they must decode as zeros, not errors.
        let json = Json::parse(
            r#"{"type":"result","id":"8","layout":"plain","k":4,"algorithm":"Linear","executor":"serial","vertices":1,"components":1,"conflicts":0,"stitches":0,"cost":0.0,"color_seconds":0.0,"colors":[0]}"#,
        )
        .expect("valid JSON");
        let Response::Result(payload) = decode_response(&json).expect("decodes") else {
            panic!("expected a result frame");
        };
        assert_eq!(payload.hidden_vertices, 0);
        assert_eq!(payload.kernel_vertices, 0);
        assert_eq!(payload.simplify_rounds, 0);
        assert_eq!(payload.bound_improvements, 0);
        // Cancellation fields follow the same rule: absent = undisturbed.
        assert!(!payload.cancelled);
        assert!(!payload.deadline_exceeded);
        assert_eq!(payload.components_completed, 1);
        assert_eq!(payload.components_skipped, 0);
    }

    #[test]
    fn undisturbed_result_frames_omit_the_cancellation_fields() {
        // Warm-path frames must stay byte-identical to pre-cancellation
        // servers: no `cancelled` / `deadline_exceeded` /
        // `components_completed` / `components_skipped` keys at all.
        let payload = ResultPayload {
            id: "w".into(),
            layout: "warm".into(),
            k: 4,
            algorithm: "Linear".into(),
            executor: "serial".into(),
            vertices: 2,
            components: 2,
            conflicts: 0,
            stitches: 0,
            cost: 0.0,
            color_seconds: 0.0,
            colors: vec![0, 1],
            hidden_vertices: 0,
            kernel_vertices: 0,
            simplify_rounds: 0,
            bound_improvements: 0,
            spacing_violations: None,
            memo_hits: None,
            memo_misses: None,
            cancelled: false,
            deadline_exceeded: false,
            components_completed: 2,
            components_skipped: 0,
            tiles: None,
            hierarchy: None,
        };
        let wire = encode_response(&Response::Result(payload)).to_string();
        for key in [
            "cancelled",
            "deadline_exceeded",
            "components_completed",
            "components_skipped",
        ] {
            assert!(!wire.contains(key), "{key} leaked into {wire}");
        }
    }

    #[test]
    fn hierarchy_objects_without_nested_inherited_decode_as_zero() {
        // Same back-compat rule inside the nested hierarchy object.
        let json = Json::parse(
            r#"{"type":"result","id":"9","layout":"h","k":4,"algorithm":"Linear","executor":"serial","vertices":1,"components":1,"conflicts":0,"stitches":0,"cost":0.0,"color_seconds":0.0,"colors":[0],"hierarchy":{"instances":2,"cells":1,"resident_components":1,"split_components":0,"instance_pieces":0,"boundary_vertices":0,"permuted_pieces":0,"recolored_vertices":0,"cross_conflicts_before":0,"cross_conflicts_after":0}}"#,
        )
        .expect("valid JSON");
        let Response::Result(payload) = decode_response(&json).expect("decodes") else {
            panic!("expected a result frame");
        };
        let hierarchy = payload.hierarchy.expect("hierarchy present");
        assert_eq!(hierarchy.instances, 2);
        assert_eq!(hierarchy.nested_inherited, 0);
    }

    #[test]
    fn bare_pong_frames_decode_without_cache_stats() {
        // Old servers answer `{"type":"pong"}`; the absent (or null) cache
        // object must decode as None.
        for frame in [r#"{"type":"pong"}"#, r#"{"type":"pong","cache":null}"#] {
            let json = Json::parse(frame).expect("valid JSON");
            assert_eq!(
                decode_response(&json).expect("decodes"),
                Response::Pong {
                    cache: None,
                    hier_runs: 0,
                    tile_runs: 0,
                    queued_frames: 0,
                    dropped_progress: 0,
                    cancelled_requests: 0,
                    deadline_exceeded_requests: 0,
                },
                "{frame}"
            );
        }
    }

    #[test]
    fn submit_defaults_apply_when_fields_are_omitted() {
        let json = Json::parse(r##"{"type":"submit","id":"d","layout_text":"# layout d\n"}"##)
            .expect("valid JSON");
        let Request::Submit(submit) = decode_request(&json).expect("decodes") else {
            panic!("expected submit");
        };
        assert_eq!(submit.k, 4);
        assert_eq!(submit.algorithm, ColorAlgorithm::SdpBacktrack);
        assert_eq!(submit.alpha, 0.1);
        assert_eq!(submit.executor, ExecutorChoice::Pool);
        assert!(!submit.progress);
        assert!(!submit.verify);
        assert_eq!(submit.tile_size, None);
        assert_eq!(submit.halo, None);
        assert!(!submit.hier);
    }

    #[test]
    fn tiling_fields_decode_as_raw_nm_integers() {
        // Non-positive distances must decode: the server answers them with
        // the pipeline's typed `config` error, not a protocol error.
        let json = Json::parse(
            r##"{"type":"submit","id":"t","layout_text":"# layout t\n","tile_size":-5,"halo":0}"##,
        )
        .expect("valid JSON");
        let Request::Submit(submit) = decode_request(&json).expect("decodes") else {
            panic!("expected submit");
        };
        assert_eq!(submit.tile_size, Some(-5));
        assert_eq!(submit.halo, Some(0));
    }

    #[test]
    fn malformed_requests_are_typed_protocol_errors() {
        for (bad, needle) in [
            (r#"{"id":"x"}"#, "missing field \"type\""),
            (r#"{"type":"nope"}"#, "unknown request type"),
            (r#"{"type":"submit","id":"x"}"#, "exactly one of"),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","path":"b"}"#,
                "more than one layout source",
            ),
            (
                r#"{"type":"submit","layout_text":"a"}"#,
                "missing field \"id\"",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","k":-1}"#,
                "non-negative integer",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","algorithm":"magic"}"#,
                "unknown algorithm",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","executor":"gpu"}"#,
                "unknown executor",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","progress":"yes"}"#,
                "must be a boolean",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","tile_size":"big"}"#,
                "must be an integer distance in nm",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","tile_size":400.5}"#,
                "must be an integer distance in nm",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","hier":"yes"}"#,
                "field \"hier\" must be a boolean",
            ),
            (
                r#"{"type":"submit","id":"x","layout_text":"a","deadline_ms":-5}"#,
                "field \"deadline_ms\" must be a non-negative integer",
            ),
            (r#"{"type":"cancel"}"#, "missing field \"id\""),
            (r#"{"type":7}"#, "must be a string"),
        ] {
            let json = Json::parse(bad).expect("valid JSON");
            let error = decode_request(&json).expect_err(bad);
            assert_eq!(error.code(), ErrorCode::Protocol, "{bad}");
            assert!(error.to_string().contains(needle), "{bad}: {error}");
        }
    }

    #[test]
    fn pipeline_errors_keep_their_types_and_map_to_codes() {
        let config: ServeError = ConfigError::MaskCount { k: 0 }.into();
        assert_eq!(config.code(), ErrorCode::Config);
        assert!(config.to_string().contains("got 0"));

        // DecomposeError::Config flattens to the config code…
        let nested: ServeError = DecomposeError::Config(ConfigError::ThreadCount).into();
        assert_eq!(nested.code(), ErrorCode::Config);
        // …while genuine planning failures keep the decompose code.
        let planning: ServeError = DecomposeError::DegenerateShape { shape: 3 }.into();
        assert_eq!(planning.code(), ErrorCode::Decompose);
        assert!(matches!(
            planning.to_response(Some("q".into())),
            Response::Error {
                code: ErrorCode::Decompose,
                ..
            }
        ));
        assert!(std::error::Error::source(&planning).is_some());
    }
}
