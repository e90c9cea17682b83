//! The JSON request/response vocabulary of the service.
//!
//! Requests are parsed by hand over the vendored [`serde::Value`] tree
//! rather than derived: the derive in the offline serde shim requires
//! every field to be present, while a usable HTTP API wants optional
//! fields with server-side defaults (`options` entirely omitted, `path`
//! falling back to the configured snapshot target, and so on).
//! Responses are plain named structs using the derived serialiser.

use crate::http::Response;
use be2d_core::SymbolicImage;
use be2d_db::{DbError, PrefilterMode, QueryOptions, QueryTrace, SearchHit, TwoStage};
use be2d_geometry::{ObjectClass, Rect, Scene, Transform};
use serde::{Deserialize, Serialize, Value};

/// A request-level failure: HTTP status, a stable machine-readable
/// code, and a message for the error envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Response status.
    pub status: u16,
    /// Stable error code (documented in the README API table); clients
    /// branch on this, never on the message text.
    pub code: &'static str,
    /// Human-readable reason.
    pub message: String,
    /// Whether retrying the identical request may succeed (transient
    /// I/O, overload) — `false` for semantic and not-found failures.
    pub retryable: bool,
}

impl ApiError {
    /// An error with an explicit code.
    #[must_use]
    pub fn coded(
        status: u16,
        code: &'static str,
        message: impl Into<String>,
        retryable: bool,
    ) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
            retryable,
        }
    }

    /// A `400 Bad Request` error (`code = "bad_request"`).
    #[must_use]
    pub fn bad(message: impl Into<String>) -> ApiError {
        ApiError::coded(400, "bad_request", message, false)
    }

    /// Maps a database error onto a status and stable code: unknown
    /// record → 404 `unknown_record`, semantic (BE-string / sketch)
    /// failures → 422, replica-health conflicts (bad coordinates, last
    /// healthy copy, no healthy leader) → 409 `replica_conflict`
    /// (retryable — the topology may heal), persistence → 500, I/O →
    /// 500 `io_error` (retryable).
    #[must_use]
    pub fn from_db(e: &DbError) -> ApiError {
        let (status, code, retryable) = match e {
            DbError::UnknownRecord { .. } => (404, "unknown_record", false),
            DbError::BeString(_) => (422, "invalid_be_string", false),
            DbError::Sketch { .. } => (422, "invalid_sketch", false),
            DbError::Replica { .. } => (409, "replica_conflict", true),
            DbError::Persist { .. } => (500, "persist_failed", false),
            DbError::Io(_) => (500, "io_error", true),
            // DbError is #[non_exhaustive]; future variants surface as
            // plain internal errors until given a dedicated code.
            _ => (500, "internal", false),
        };
        ApiError::coded(status, code, e.to_string(), retryable)
    }

    /// Renders the error as a JSON response.
    #[must_use]
    pub fn to_response(&self) -> Response {
        Response::error_coded(self.status, self.code, &self.message, self.retryable)
    }
}

// ---------------------------------------------------------------------------
// Value helpers
// ---------------------------------------------------------------------------

/// Parses a request body (empty bodies count as `{}`).
pub(crate) fn parse_body(body: &[u8]) -> Result<Value, ApiError> {
    if body.iter().all(u8::is_ascii_whitespace) {
        return Ok(Value::Map(Vec::new()));
    }
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::bad("request body is not valid UTF-8"))?;
    serde_json::from_str(text).map_err(|e| ApiError::bad(format!("invalid JSON body: {e}")))
}

fn as_obj<'v>(v: &'v Value, what: &str) -> Result<&'v [(String, Value)], ApiError> {
    v.as_map()
        .ok_or_else(|| ApiError::bad(format!("{what} must be a JSON object")))
}

fn get<'v>(obj: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .filter(|v| !matches!(v, Value::Null))
}

fn required<'v>(obj: &'v [(String, Value)], key: &str) -> Result<&'v Value, ApiError> {
    get(obj, key).ok_or_else(|| ApiError::bad(format!("missing field {key:?}")))
}

fn as_str<'v>(v: &'v Value, what: &str) -> Result<&'v str, ApiError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(ApiError::bad(format!(
            "{what} must be a string, got {}",
            other.kind()
        ))),
    }
}

fn as_i64(v: &Value, what: &str) -> Result<i64, ApiError> {
    i64::from_value(v).map_err(|_| ApiError::bad(format!("{what} must be an integer")))
}

fn as_f64(v: &Value, what: &str) -> Result<f64, ApiError> {
    f64::from_value(v).map_err(|_| ApiError::bad(format!("{what} must be a number")))
}

fn as_bool(v: &Value, what: &str) -> Result<bool, ApiError> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(ApiError::bad(format!(
            "{what} must be a boolean, got {}",
            other.kind()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Scenes and objects
// ---------------------------------------------------------------------------

/// Parses the compact scene form:
/// `{"width": W, "height": H, "objects": [{"class": "A", "mbr": [xb, xe, yb, ye]}, …]}`.
pub(crate) fn scene_from_value(v: &Value) -> Result<Scene, ApiError> {
    let obj = as_obj(v, "scene")?;
    let width = as_i64(required(obj, "width")?, "scene.width")?;
    let height = as_i64(required(obj, "height")?, "scene.height")?;
    let mut scene =
        Scene::new(width, height).map_err(|e| ApiError::bad(format!("invalid scene: {e}")))?;
    if let Some(objects) = get(obj, "objects") {
        let items = objects
            .as_seq()
            .ok_or_else(|| ApiError::bad("scene.objects must be an array"))?;
        for item in items {
            let (class, mbr) = object_from_value(item)?;
            scene
                .add(class, mbr)
                .map_err(|e| ApiError::bad(format!("invalid object: {e}")))?;
        }
    }
    Ok(scene)
}

/// Parses one `{"class": "A", "mbr": [xb, xe, yb, ye]}` object.
pub(crate) fn object_from_value(v: &Value) -> Result<(ObjectClass, Rect), ApiError> {
    let obj = as_obj(v, "object")?;
    let name = as_str(required(obj, "class")?, "object.class")?;
    let class = ObjectClass::try_new(name)
        .map_err(|e| ApiError::bad(format!("invalid object class {name:?}: {e}")))?;
    let mbr = required(obj, "mbr")?;
    let coords = mbr
        .as_seq()
        .ok_or_else(|| ApiError::bad("object.mbr must be [x_begin, x_end, y_begin, y_end]"))?;
    let [xb, xe, yb, ye] = coords else {
        return Err(ApiError::bad(format!(
            "object.mbr must have 4 coordinates, got {}",
            coords.len()
        )));
    };
    let rect = Rect::new(
        as_i64(xb, "mbr[0]")?,
        as_i64(xe, "mbr[1]")?,
        as_i64(yb, "mbr[2]")?,
        as_i64(ye, "mbr[3]")?,
    )
    .map_err(|e| ApiError::bad(format!("invalid mbr: {e}")))?;
    Ok((class, rect))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// `POST /v1/images`: a named scene **or** pre-converted symbolic image.
#[derive(Debug, Clone)]
pub struct InsertRequest {
    /// User-assigned image name.
    pub name: String,
    /// What to store.
    pub image: InsertBody,
}

/// The two accepted insertion payloads.
#[derive(Debug, Clone)]
pub enum InsertBody {
    /// `"scene"`: converted with Algorithm 1 on insert.
    Scene(Scene),
    /// `"symbolic"`: the serialised [`SymbolicImage`] stored form.
    Symbolic(Box<SymbolicImage>),
}

impl InsertRequest {
    /// Parses an insert body.
    ///
    /// # Errors
    ///
    /// Returns 400-level [`ApiError`]s for malformed bodies.
    pub fn from_value(v: &Value) -> Result<InsertRequest, ApiError> {
        let obj = as_obj(v, "body")?;
        let name = as_str(required(obj, "name")?, "name")?.to_owned();
        let image = match (get(obj, "scene"), get(obj, "symbolic")) {
            (Some(scene), None) => InsertBody::Scene(scene_from_value(scene)?),
            (None, Some(sym)) => InsertBody::Symbolic(Box::new(
                SymbolicImage::from_value(sym)
                    .map_err(|e| ApiError::bad(format!("invalid symbolic image: {e}")))?,
            )),
            (Some(_), Some(_)) => {
                return Err(ApiError::bad(
                    "give either \"scene\" or \"symbolic\", not both",
                ))
            }
            (None, None) => return Err(ApiError::bad("missing \"scene\" or \"symbolic\"")),
        };
        Ok(InsertRequest { name, image })
    }
}

/// `POST`/`DELETE /v1/images/{id}/objects`: one object edit.
#[derive(Debug, Clone)]
pub struct ObjectEdit {
    /// The object's class.
    pub class: ObjectClass,
    /// The object's MBR.
    pub mbr: Rect,
}

impl ObjectEdit {
    /// Parses an object-edit body (the object fields live at the top
    /// level: `{"class": "A", "mbr": [..]}`).
    ///
    /// # Errors
    ///
    /// Returns 400-level [`ApiError`]s for malformed bodies.
    pub fn from_value(v: &Value) -> Result<ObjectEdit, ApiError> {
        let (class, mbr) = object_from_value(v)?;
        Ok(ObjectEdit { class, mbr })
    }
}

/// `POST /v1/search`: a query plus optional options.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// The query payload.
    pub query: SearchQuery,
    /// Fully resolved options (server defaults filled in).
    pub options: QueryOptions,
    /// `"trace": true` — include the per-stage timing breakdown in the
    /// response. Rankings are bit-identical either way.
    pub trace: bool,
}

/// The accepted search payloads.
#[derive(Debug, Clone)]
pub enum SearchQuery {
    /// `"scene"`: converted on the fly.
    Scene(Scene),
    /// `"text"`: the `Display` rendering of the two BE-strings.
    Text {
        /// The x-axis string (e.g. `"E A_b E A_e E"`).
        u: String,
        /// The y-axis string.
        v: String,
    },
}

impl SearchRequest {
    /// Parses a search body against the server's default options.
    ///
    /// # Errors
    ///
    /// Returns 400-level [`ApiError`]s for malformed bodies.
    pub fn from_value(v: &Value, defaults: &QueryOptions) -> Result<SearchRequest, ApiError> {
        let obj = as_obj(v, "body")?;
        let query = match (get(obj, "scene"), get(obj, "text")) {
            (Some(scene), None) => SearchQuery::Scene(scene_from_value(scene)?),
            (None, Some(text)) => {
                let text = as_obj(text, "text")?;
                SearchQuery::Text {
                    u: as_str(required(text, "u")?, "text.u")?.to_owned(),
                    v: as_str(required(text, "v")?, "text.v")?.to_owned(),
                }
            }
            (Some(_), Some(_)) => {
                return Err(ApiError::bad("give either \"scene\" or \"text\", not both"))
            }
            (None, None) => return Err(ApiError::bad("missing \"scene\" or \"text\" query")),
        };
        let options = options_from_value(get(obj, "options"), defaults)?;
        let trace = match get(obj, "trace") {
            Some(v) => as_bool(v, "trace")?,
            None => false,
        };
        Ok(SearchRequest {
            query,
            options,
            trace,
        })
    }
}

/// `POST /v1/search/sketch`: a sketch text plus optional options.
#[derive(Debug, Clone)]
pub struct SketchRequest {
    /// The sketch source text (e.g. `"A left-of B; B above C"`).
    pub sketch: String,
    /// Fully resolved options.
    pub options: QueryOptions,
    /// `"trace": true` — include the per-stage timing breakdown.
    pub trace: bool,
}

impl SketchRequest {
    /// Parses a sketch-search body.
    ///
    /// # Errors
    ///
    /// Returns 400-level [`ApiError`]s for malformed bodies.
    pub fn from_value(v: &Value, defaults: &QueryOptions) -> Result<SketchRequest, ApiError> {
        let obj = as_obj(v, "body")?;
        let sketch = as_str(required(obj, "sketch")?, "sketch")?.to_owned();
        let options = options_from_value(get(obj, "options"), defaults)?;
        let trace = match get(obj, "trace") {
            Some(v) => as_bool(v, "trace")?,
            None => false,
        };
        Ok(SketchRequest {
            sketch,
            options,
            trace,
        })
    }
}

/// `POST /v1/snapshot` / `POST /v1/restore`: an optional file-name override.
///
/// The name is confined to the server's configured snapshot directory:
/// network peers choose *which* snapshot, never an arbitrary
/// filesystem path.
#[derive(Debug, Clone)]
pub struct PathRequest {
    /// Explicit snapshot file name, when given.
    pub file: Option<String>,
}

impl PathRequest {
    /// Parses `{"path": "name.json"}`, tolerating an empty body.
    ///
    /// # Errors
    ///
    /// Returns 400-level [`ApiError`]s for malformed bodies and for
    /// names that escape the snapshot directory (separators, `..`,
    /// absolute paths).
    pub fn from_value(v: &Value) -> Result<PathRequest, ApiError> {
        let obj = as_obj(v, "body")?;
        let file = match get(obj, "path") {
            Some(p) => {
                let name = as_str(p, "path")?;
                if name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\']) {
                    return Err(ApiError::bad(
                        "path must be a plain file name inside the server's snapshot directory",
                    ));
                }
                Some(name.to_owned())
            }
            None => None,
        };
        Ok(PathRequest { file })
    }
}

/// `POST /v1/admin/replicas/fail` / `POST /v1/admin/replicas/heal`: one
/// replica's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaRequest {
    /// The shard the replica belongs to.
    pub shard: usize,
    /// The replica index inside the shard.
    pub replica: usize,
}

impl ReplicaRequest {
    /// Parses `{"shard": S, "replica": R}`.
    ///
    /// # Errors
    ///
    /// Returns 400-level [`ApiError`]s for malformed bodies.
    pub fn from_value(v: &Value) -> Result<ReplicaRequest, ApiError> {
        let obj = as_obj(v, "body")?;
        let shard = as_i64(required(obj, "shard")?, "shard")?;
        let replica = as_i64(required(obj, "replica")?, "replica")?;
        let coerce = |raw: i64, what: &str| {
            usize::try_from(raw).map_err(|_| ApiError::bad(format!("{what} must be >= 0")))
        };
        Ok(ReplicaRequest {
            shard: coerce(shard, "shard")?,
            replica: coerce(replica, "replica")?,
        })
    }
}

/// `POST /v1/admin/reshard`: the target shard count plus an optional batch
/// size (ids swept per stop-the-world batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardRequest {
    /// The shard count to migrate to (≥ 1).
    pub shards: usize,
    /// Ids swept per batch; the server's configured default when
    /// omitted.
    pub batch: Option<usize>,
}

impl ReshardRequest {
    /// Parses `{"shards": N, "batch": B?}`.
    ///
    /// # Errors
    ///
    /// Returns 400-level [`ApiError`]s for malformed bodies and for a
    /// zero shard count.
    pub fn from_value(v: &Value) -> Result<ReshardRequest, ApiError> {
        let obj = as_obj(v, "body")?;
        let shards = as_i64(required(obj, "shards")?, "shards")?;
        let shards = usize::try_from(shards)
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| ApiError::bad("shards must be >= 1"))?;
        let batch = match get(obj, "batch") {
            Some(b) => Some(
                usize::try_from(as_i64(b, "batch")?)
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| ApiError::bad("batch must be >= 1"))?,
            ),
            None => None,
        };
        Ok(ReshardRequest { shards, batch })
    }
}

// ---------------------------------------------------------------------------
// Query options
// ---------------------------------------------------------------------------

/// Resolves the optional `"options"` object over the server defaults.
///
/// Every field is optional:
/// `{"top_k": 5, "min_score": 0.2, "prefilter": "any-class",
///   "transforms": "paper-set"}`.
///
/// `candidates` (`"scan"` | `"class-index"`), `two_stage` (`true`, an
/// integer `>= 1`, `false` or `null`) and `parallel` (a bool, `"off"`,
/// `"on"` or `"auto"`) are checked and otherwise ignored: candidates
/// always come from the exact class index, each search decides for
/// itself whether to rank them by score bound (a multi-shard search
/// with a `top_k` does), and each database decides from its batch size
/// whether to score on helper threads. Rankings are the same either
/// way. `two_stage` is still recorded in the options.
///
/// # Errors
///
/// Returns 400-level [`ApiError`]s for unknown names or wrong types.
pub fn options_from_value(
    v: Option<&Value>,
    defaults: &QueryOptions,
) -> Result<QueryOptions, ApiError> {
    let mut options = defaults.clone();
    let Some(v) = v else {
        return Ok(options);
    };
    let obj = as_obj(v, "options")?;
    for (key, value) in obj {
        match key.as_str() {
            "top_k" => {
                options.top_k = match value {
                    Value::Null => None,
                    v => Some(
                        usize::try_from(as_i64(v, "options.top_k")?)
                            .map_err(|_| ApiError::bad("options.top_k must be >= 0"))?,
                    ),
                }
            }
            "min_score" => options.min_score = as_f64(value, "options.min_score")?,
            "prefilter" => {
                options.prefilter = match as_str(value, "options.prefilter")? {
                    "none" => PrefilterMode::None,
                    "any-class" => PrefilterMode::AnyClass,
                    "all-classes" => PrefilterMode::AllClasses,
                    other => {
                        return Err(ApiError::bad(format!(
                            "unknown prefilter {other:?} (none | any-class | all-classes)"
                        )))
                    }
                }
            }
            "candidates" => match as_str(value, "options.candidates")? {
                "scan" | "class-index" => {}
                other => {
                    return Err(ApiError::bad(format!(
                        "unknown candidate source {other:?} (scan | class-index)"
                    )))
                }
            },
            "parallel" => match value {
                Value::Bool(_) => {}
                Value::Str(s) => match s.as_str() {
                    "off" | "on" | "auto" => {}
                    other => {
                        return Err(ApiError::bad(format!(
                            "unknown parallelism {other:?} (off | on | auto)"
                        )))
                    }
                },
                other => {
                    return Err(ApiError::bad(format!(
                        "options.parallel must be a bool or string, got {}",
                        other.kind()
                    )))
                }
            },
            "transforms" => options.transforms = transforms_from_value(value)?,
            "two_stage" => {
                options.two_stage = match value {
                    Value::Null | Value::Bool(false) => None,
                    Value::Bool(true) => Some(TwoStage {}),
                    v => {
                        usize::try_from(as_i64(v, "options.two_stage")?)
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| ApiError::bad("options.two_stage must be >= 1"))?;
                        Some(TwoStage {})
                    }
                }
            }
            other => {
                return Err(ApiError::bad(format!("unknown option {other:?}")));
            }
        }
    }
    if options.transforms.is_empty() {
        options.transforms = vec![Transform::Identity];
    }
    Ok(options)
}

/// Parses the transform set: a preset name (`"identity"`, `"paper-set"`,
/// `"all"`) or an explicit array of transform names.
fn transforms_from_value(v: &Value) -> Result<Vec<Transform>, ApiError> {
    match v {
        Value::Str(preset) => match preset.as_str() {
            "identity" => Ok(vec![Transform::Identity]),
            "paper-set" => Ok(Transform::PAPER_SET.to_vec()),
            "all" => Ok(Transform::ALL.to_vec()),
            other => Err(ApiError::bad(format!(
                "unknown transform preset {other:?} (identity | paper-set | all)"
            ))),
        },
        Value::Seq(items) => items
            .iter()
            .map(|item| {
                let name = as_str(item, "options.transforms[]")?;
                parse_transform(name)
                    .ok_or_else(|| ApiError::bad(format!("unknown transform {name:?}")))
            })
            .collect(),
        other => Err(ApiError::bad(format!(
            "options.transforms must be a preset string or array, got {}",
            other.kind()
        ))),
    }
}

/// Parses one transform by its `Display` name.
#[must_use]
pub fn parse_transform(name: &str) -> Option<Transform> {
    Transform::ALL.into_iter().find(|t| t.to_string() == name)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One ranked hit in a search response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HitDto {
    /// Stable record id.
    pub id: usize,
    /// The record's user-assigned name.
    pub name: String,
    /// Combined similarity score in `[0, 1]`.
    pub score: f64,
    /// The query transform that achieved the score.
    pub transform: String,
}

/// Body of a search response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResponse {
    /// Ranked hits, best first.
    pub hits: Vec<HitDto>,
}

impl SearchResponse {
    /// Converts ranked [`SearchHit`]s into the wire form.
    #[must_use]
    pub fn from_hits(hits: &[SearchHit]) -> SearchResponse {
        SearchResponse {
            hits: hits
                .iter()
                .map(|h| HitDto {
                    id: h.id.index(),
                    name: h.name.clone(),
                    score: h.score,
                    transform: h.transform.to_string(),
                })
                .collect(),
        }
    }
}

/// One shard's slice of a query trace, in milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardTraceDto {
    /// Physical shard index.
    pub shard: usize,
    /// Replica the read picker chose.
    pub replica: usize,
    /// Position in the planner's visit order (0 = scanned first;
    /// equal to `shard` unless the scatter was ordered).
    pub order: usize,
    /// Whether this shard formed the sequenced first wave of a
    /// selectivity-ordered scatter.
    pub first_wave: bool,
    /// Candidate strategy executed on this shard: `"index-walk"` or
    /// `"dense-scan"`.
    pub strategy: String,
    /// The planner's candidate-count estimate for this shard.
    pub est_candidates: usize,
    /// Whether the planner skipped the scan entirely.
    pub skipped: bool,
    /// Hits the shard contributed before the merge.
    pub hits: usize,
    /// Candidates the shard exactly scored (stage-2 survivors).
    pub scored: usize,
    /// Candidates the shard's bounded scan pruned by admissible bound.
    pub bound_pruned: usize,
    /// Scan duration in milliseconds.
    pub elapsed_ms: f64,
}

/// Per-stage timing breakdown of one search, in milliseconds. The
/// stage sum is always at most `total_ms` (stages are measured
/// disjointly inside the total).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDto {
    /// Scatter planning (query-class extraction, epoch snapshot).
    pub planner_ms: f64,
    /// Wall time of the whole scatter.
    pub scatter_ms: f64,
    /// K-way merge of per-shard rankings.
    pub gather_ms: f64,
    /// End-to-end search duration.
    pub total_ms: f64,
    /// Whether the planner ordered this scatter by per-shard
    /// selectivity (sequencing the most selective shard first).
    pub ordered: bool,
    /// One entry per shard, in shard-index order (each entry's
    /// `order` field records its position in the plan).
    pub shards: Vec<ShardTraceDto>,
}

impl TraceDto {
    /// Converts a database [`QueryTrace`] to the wire form.
    #[must_use]
    pub fn from_trace(trace: &QueryTrace) -> TraceDto {
        TraceDto {
            planner_ms: ns_to_ms(trace.planner_ns),
            scatter_ms: ns_to_ms(trace.scatter_ns),
            gather_ms: ns_to_ms(trace.gather_ns),
            total_ms: ns_to_ms(trace.total_ns),
            ordered: trace.ordered,
            shards: trace
                .shards
                .iter()
                .map(|s| ShardTraceDto {
                    shard: s.shard,
                    replica: s.replica,
                    order: s.order,
                    first_wave: s.first_wave,
                    strategy: s.strategy.to_string(),
                    est_candidates: s.est_candidates,
                    skipped: s.skipped,
                    hits: s.hits,
                    scored: s.scored,
                    bound_pruned: s.bound_pruned,
                    elapsed_ms: ns_to_ms(s.elapsed_ns),
                })
                .collect(),
        }
    }
}

pub(crate) fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Body of a traced search response (`"trace": true`): the ordinary
/// hits plus the timing breakdown. Untraced responses keep the exact
/// legacy [`SearchResponse`] shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracedSearchResponse {
    /// Ranked hits, best first — identical to the untraced ranking.
    pub hits: Vec<HitDto>,
    /// The per-stage timing breakdown.
    pub trace: TraceDto,
}

/// One retained slow query, worst-first in the ring dump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowQueryDto {
    /// Query kind: `"scene"`, `"text"`, or `"sketch"`.
    pub kind: String,
    /// End-to-end duration in milliseconds.
    pub total_ms: f64,
    /// Planner stage in milliseconds.
    pub planner_ms: f64,
    /// Scatter stage in milliseconds.
    pub scatter_ms: f64,
    /// Gather stage in milliseconds.
    pub gather_ms: f64,
    /// Hits returned.
    pub hits: usize,
    /// The request's `top_k` (null = unbounded).
    pub top_k: Option<usize>,
    /// Server uptime when the query finished, in seconds.
    pub at_uptime_s: f64,
}

/// Body of `GET /v1/debug/slow_queries`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowQueriesResponse {
    /// Ring capacity (the most entries ever retained).
    pub capacity: usize,
    /// Retained queries, slowest first.
    pub queries: Vec<SlowQueryDto>,
}

/// Body of `POST /v1/admin/checkpoint`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointResponse {
    /// Records captured in the fresh WAL anchor snapshot.
    pub records: usize,
    /// Checkpoint duration in milliseconds.
    pub duration_ms: f64,
}

/// Body of an insert response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InsertResponse {
    /// Assigned record id.
    pub id: usize,
    /// Echo of the image name.
    pub name: String,
    /// Objects stored in the image.
    pub objects: usize,
}

/// Body of admin replica fail/heal responses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaResponse {
    /// The shard the replica belongs to.
    pub shard: usize,
    /// The replica index inside the shard.
    pub replica: usize,
    /// Whether the replica is in rotation after the operation.
    pub healthy: bool,
}

/// Body of `POST /v1/admin/reshard` responses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReshardResponse {
    /// The shard count records migrate from.
    pub from: usize,
    /// The shard count records migrate to.
    pub to: usize,
    /// `true` when a migration was started in the background (202);
    /// `false` when the target equals the current count (200 no-op).
    pub started: bool,
}

/// Body of delete / object-edit responses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AckResponse {
    /// The affected record id.
    pub id: usize,
    /// `true` on success (errors use the error envelope instead).
    pub ok: bool,
}

/// Body of snapshot / restore responses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotResponse {
    /// The file the snapshot was written to / read from.
    pub path: String,
    /// Live records in the snapshot.
    pub records: usize,
}

/// Body of `GET /v1/stats`: record counts plus nested topology,
/// replication, planner, reshard, op-log, service and window sections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsV1Response {
    /// Live records in the database.
    pub records: usize,
    /// Distinct indexed object classes.
    pub classes: usize,
    /// Total objects across all records.
    pub objects: usize,
    /// Shard/replica layout.
    pub topology: TopologySection,
    /// Replication mode, per-replica positions, and catch-up counters.
    pub replication: ReplicationSection,
    /// Scatter-planner counters.
    pub planner: PlannerSection,
    /// Online-reshard progress.
    pub reshard: ReshardSection,
    /// Per-shard operation-log state (and WAL counters when enabled).
    pub oplog: OplogSection,
    /// HTTP service counters.
    pub service: ServiceSection,
    /// Rolling request windows (10s / 1m / 5m).
    pub windows: WindowsSection,
}

/// `/v1/stats` topology section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologySection {
    /// Database shards (the **target** topology mid-reshard).
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Live records per shard, in shard order.
    pub shard_records: Vec<usize>,
    /// Live records per replica (`[shard][replica]`).
    pub replica_records: Vec<Vec<usize>>,
    /// Health bits per replica (`[shard][replica]`).
    pub replica_health: Vec<Vec<bool>>,
}

/// `/v1/stats` replication section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationSection {
    /// Acknowledgement mode: `"sync"`, `"quorum"`, or `"async"`.
    pub mode: String,
    /// The read-routing lag bound (async mode only).
    pub max_lag: Option<u64>,
    /// Per-shard log head and per-replica positions.
    pub shards: Vec<ShardReplicationDto>,
    /// Replica heals served by incremental log replay.
    pub catchup_replays: u64,
    /// Replica heals that fell back to a full clone.
    pub catchup_clones: u64,
    /// Lagging-follower drains performed by writers to free log space.
    pub writer_drains: u64,
    /// Bounded-lag reads that found no in-sync follower and silently
    /// fell back to the leader. A sustained rise under async
    /// replication means followers cannot keep up with the configured
    /// lag bound.
    pub fallback_reads: u64,
}

/// One shard's replication positions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardReplicationDto {
    /// Highest sequence number logged on this shard.
    pub head_seq: u64,
    /// Per-replica positions, in replica order.
    pub replicas: Vec<ReplicaLagDto>,
}

/// One replica's replication position.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaLagDto {
    /// Last op sequence this replica applied.
    pub last_applied_seq: u64,
    /// Ops behind the shard head.
    pub lag: u64,
    /// Whether the replica is in rotation.
    pub healthy: bool,
}

/// `/v1/stats` planner section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannerSection {
    /// Shards the scatter planner skipped since boot.
    pub skipped: u64,
    /// Multi-shard searches run with a selectivity-ordered scatter.
    pub ordered_scatters: u64,
    /// Per-shard scans where the planner chose the dense-scan
    /// candidate strategy over the posting walk.
    pub dense_scans: u64,
}

/// `/v1/stats` reshard section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReshardSection {
    /// Whether a migration is currently sweeping.
    pub active: bool,
    /// Shard count migrated from.
    pub from: usize,
    /// Shard count migrated to.
    pub to: usize,
    /// Global ids swept so far.
    pub migrated_ids: usize,
    /// Global ids to sweep in total.
    pub total_ids: usize,
    /// Records physically moved.
    pub moved_records: usize,
}

/// `/v1/stats` oplog section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OplogSection {
    /// Ring capacity per shard, in ops.
    pub window: usize,
    /// Highest sequence number issued.
    pub last_seq: u64,
    /// Ring entries currently held across all shards.
    pub entries: usize,
    /// WAL durability counters; `null` when the WAL is off.
    pub wal: Option<WalSection>,
}

/// `/v1/stats` WAL counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalSection {
    /// Records appended since boot.
    pub appended: u64,
    /// Fsync batches issued.
    pub fsyncs: u64,
    /// Checkpoint truncations performed.
    pub truncations: u64,
    /// Torn trailing records healed at recovery.
    pub healed_tails: u64,
    /// Ops replayed from the log at the last boot.
    pub recovered: u64,
}

/// `/v1/stats` service section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSection {
    /// Requests fully served (any status) since boot.
    pub requests: u64,
    /// Searches served since boot.
    pub searches: u64,
    /// Images inserted since boot.
    pub inserts: u64,
    /// Image removals + object edits since boot.
    pub edits: u64,
    /// Requests answered with an error status since boot.
    pub errors: u64,
    /// Connections shed with 503 since boot.
    pub shed: u64,
    /// Worker threads serving connections.
    pub threads: usize,
    /// Seconds since boot.
    pub uptime_s: f64,
}

/// `/v1/stats` rolling-window section: the same request stream as the
/// lifetime counters, but aggregated over the last 10 seconds, 1
/// minute, and 5 minutes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowsSection {
    /// The last 10 seconds.
    pub last_10s: WindowStatsDto,
    /// The last minute.
    pub last_1m: WindowStatsDto,
    /// The last 5 minutes.
    pub last_5m: WindowStatsDto,
}

/// One rolling window's aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStatsDto {
    /// Requests served in the window.
    pub requests: u64,
    /// Mean requests per second over the window.
    pub rate_rps: f64,
    /// Responses with status ≥ 500 in the window.
    pub errors_5xx: u64,
    /// `errors_5xx / requests` (0 when idle).
    pub error_ratio: f64,
    /// Median request latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
    /// Slowest request in the window, in milliseconds.
    pub max_ms: f64,
}

impl WindowStatsDto {
    /// Converts one window summary into wire shape (nanoseconds →
    /// milliseconds).
    pub(crate) fn from_summary(s: &crate::health::WindowSummary) -> WindowStatsDto {
        WindowStatsDto {
            requests: s.requests,
            rate_rps: s.rate_rps,
            errors_5xx: s.errors_5xx,
            error_ratio: s.error_ratio,
            p50_ms: s.latency.quantile(0.50) as f64 / 1e6,
            p95_ms: s.latency.quantile(0.95) as f64 / 1e6,
            p99_ms: s.latency.quantile(0.99) as f64 / 1e6,
            max_ms: s.latency.max_ns as f64 / 1e6,
        }
    }
}

/// Body of `GET /v1/health`: the worst-verdict rollup plus every
/// subsystem's verdict and reason.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// `"ok"`, `"degraded"`, or `"critical"` — the worst subsystem.
    pub status: String,
    /// Per-subsystem breakdown, in stable order.
    pub subsystems: Vec<SubsystemDto>,
}

/// One subsystem's verdict in `GET /v1/health`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsystemDto {
    /// Stable subsystem name.
    pub name: String,
    /// `"ok"`, `"degraded"`, or `"critical"`.
    pub verdict: String,
    /// Machine-readable reason.
    pub reason: String,
}

impl HealthResponse {
    /// Converts the health engine's report into wire shape.
    pub(crate) fn from_report(report: &crate::health::HealthReport) -> HealthResponse {
        HealthResponse {
            status: report.status.as_str().into(),
            subsystems: report
                .subsystems
                .iter()
                .map(|s| SubsystemDto {
                    name: s.name.into(),
                    verdict: s.verdict.as_str().into(),
                    reason: s.reason.clone(),
                })
                .collect(),
        }
    }
}

/// Builds the `GET /v1/debug/events` body as a [`Value`] tree: the
/// event payloads are heterogeneous per type, which the shim's derived
/// serialiser cannot express as one struct.
pub(crate) fn events_value(events: &[be2d_db::Event], last_seq: u64, capacity: usize) -> Value {
    use be2d_db::EventKind;
    let items: Vec<Value> = events
        .iter()
        .map(|e| {
            let payload = match &e.kind {
                EventKind::ReplicaFailed { shard, replica } => vec![
                    ("shard".to_owned(), Value::Int(*shard as i128)),
                    ("replica".to_owned(), Value::Int(*replica as i128)),
                ],
                EventKind::ReplicaHealed {
                    shard,
                    replica,
                    method,
                } => vec![
                    ("shard".to_owned(), Value::Int(*shard as i128)),
                    ("replica".to_owned(), Value::Int(*replica as i128)),
                    ("method".to_owned(), Value::Str((*method).to_owned())),
                ],
                EventKind::ReshardStarted { from, to } => vec![
                    ("from".to_owned(), Value::Int(*from as i128)),
                    ("to".to_owned(), Value::Int(*to as i128)),
                ],
                EventKind::ReshardFinished {
                    from,
                    to,
                    moved_records,
                    batches,
                } => vec![
                    ("from".to_owned(), Value::Int(*from as i128)),
                    ("to".to_owned(), Value::Int(*to as i128)),
                    (
                        "moved_records".to_owned(),
                        Value::Int(*moved_records as i128),
                    ),
                    ("batches".to_owned(), Value::Int(i128::from(*batches))),
                ],
                EventKind::WalCheckpoint { records } => {
                    vec![("records".to_owned(), Value::Int(*records as i128))]
                }
                EventKind::SloBurn { signal, detail } => vec![
                    ("signal".to_owned(), Value::Str(signal.clone())),
                    ("detail".to_owned(), Value::Str(detail.clone())),
                ],
                EventKind::AdvisorRecommendation {
                    action,
                    target,
                    reason,
                } => vec![
                    ("action".to_owned(), Value::Str(action.clone())),
                    ("target".to_owned(), Value::Str(target.clone())),
                    ("reason".to_owned(), Value::Str(reason.clone())),
                ],
            };
            Value::Map(vec![
                ("seq".to_owned(), Value::Int(i128::from(e.seq))),
                ("unix_ms".to_owned(), Value::Int(i128::from(e.unix_ms))),
                ("type".to_owned(), Value::Str(e.kind.name().to_owned())),
                ("payload".to_owned(), Value::Map(payload)),
            ])
        })
        .collect();
    Value::Map(vec![
        ("last_seq".to_owned(), Value::Int(i128::from(last_seq))),
        ("capacity".to_owned(), Value::Int(capacity as i128)),
        ("events".to_owned(), Value::Seq(items)),
    ])
}

/// Serialises any response DTO as a JSON [`Response`].
pub(crate) fn json_response<T: Serialize>(status: u16, dto: &T) -> Response {
    match serde_json::to_string(dto) {
        Ok(body) => Response::json(status, body),
        Err(e) => Response::error(500, &format!("response serialisation failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(text: &str) -> Value {
        serde_json::from_str(text).expect("valid test JSON")
    }

    #[test]
    fn scene_parsing_roundtrip() {
        let scene = scene_from_value(&val(r#"{"width":100,"height":80,"objects":[
                {"class":"A","mbr":[10,30,10,30]},
                {"class":"B","mbr":[40,90,5,60]}]}"#))
        .unwrap();
        assert_eq!(scene.width(), 100);
        assert_eq!(scene.len(), 2);
        assert_eq!(scene.objects()[1].class().name(), "B");

        // objects is optional
        let empty = scene_from_value(&val(r#"{"width":10,"height":10}"#)).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn scene_parsing_rejects_malformed() {
        for text in [
            r#"{"height":10}"#,
            r#"{"width":0,"height":10}"#,
            r#"{"width":10,"height":10,"objects":[{"class":"A","mbr":[1,2,3]}]}"#,
            r#"{"width":10,"height":10,"objects":[{"class":"A","mbr":[5,1,1,5]}]}"#,
            r#"{"width":10,"height":10,"objects":[{"class":"E","mbr":[1,2,1,2]}]}"#,
            r#"{"width":10,"height":10,"objects":[{"mbr":[1,2,1,2]}]}"#,
            r#"[1,2,3]"#,
        ] {
            assert!(scene_from_value(&val(text)).is_err(), "{text}");
        }
    }

    #[test]
    fn insert_request_scene_or_symbolic() {
        let req = InsertRequest::from_value(&val(
            r#"{"name":"x","scene":{"width":10,"height":10,"objects":[{"class":"A","mbr":[1,4,1,4]}]}}"#,
        ))
        .unwrap();
        assert_eq!(req.name, "x");
        assert!(matches!(req.image, InsertBody::Scene(_)));

        // symbolic roundtrip through the real serialised form
        let scene = scene_from_value(&val(
            r#"{"width":10,"height":10,"objects":[{"class":"A","mbr":[1,4,1,4]}]}"#,
        ))
        .unwrap();
        let sym = SymbolicImage::from_scene(&scene);
        let body = format!(
            r#"{{"name":"y","symbolic":{}}}"#,
            serde_json::to_string(&sym).unwrap()
        );
        let req = InsertRequest::from_value(&val(&body)).unwrap();
        match req.image {
            InsertBody::Symbolic(parsed) => assert_eq!(*parsed, sym),
            InsertBody::Scene(_) => panic!("expected symbolic"),
        }

        assert!(InsertRequest::from_value(&val(r#"{"name":"x"}"#)).is_err());
        assert!(InsertRequest::from_value(&val(r#"{"scene":{"width":1,"height":1}}"#)).is_err());
    }

    #[test]
    fn options_defaults_and_overrides() {
        let defaults = QueryOptions::default();
        let untouched = options_from_value(None, &defaults).unwrap();
        assert_eq!(untouched, defaults);

        let opts = options_from_value(
            Some(&val(
                r#"{"top_k":3,"min_score":0.5,"prefilter":"all-classes",
                    "candidates":"scan","parallel":"off","transforms":"paper-set"}"#,
            )),
            &defaults,
        )
        .unwrap();
        assert_eq!(opts.top_k, Some(3));
        assert!((opts.min_score - 0.5).abs() < 1e-12);
        assert_eq!(opts.prefilter, PrefilterMode::AllClasses);
        assert_eq!(opts.transforms.len(), 6);
        // accepted and ignored: nothing else changed
        let ignored = options_from_value(
            Some(&val(
                r#"{"candidates":"class-index","two_stage":4,"parallel":"auto"}"#,
            )),
            &defaults,
        )
        .unwrap();
        assert_eq!(
            ignored,
            QueryOptions {
                two_stage: Some(TwoStage {}),
                ..defaults.clone()
            }
        );

        // null top_k = unlimited; explicit transform list; bool parallel
        // is accepted and ignored
        let opts = options_from_value(
            Some(&val(
                r#"{"top_k":null,"transforms":["identity","rotate-90"],"parallel":true}"#,
            )),
            &defaults,
        )
        .unwrap();
        assert_eq!(opts.top_k, None);
        assert_eq!(
            opts.transforms,
            vec![Transform::Identity, Transform::Rotate90]
        );
        assert_eq!(
            opts,
            QueryOptions {
                top_k: None,
                transforms: vec![Transform::Identity, Transform::Rotate90],
                ..defaults
            }
        );
    }

    #[test]
    fn options_reject_unknown() {
        let defaults = QueryOptions::default();
        for text in [
            r#"{"warp":1}"#,
            r#"{"prefilter":"sometimes"}"#,
            r#"{"candidates":"psychic"}"#,
            r#"{"parallel":"maybe"}"#,
            r#"{"parallel":3}"#,
            r#"{"transforms":"bogus"}"#,
            r#"{"transforms":["rotate-45"]}"#,
            r#"{"top_k":-2}"#,
        ] {
            assert!(
                options_from_value(Some(&val(text)), &defaults).is_err(),
                "{text}"
            );
        }
    }

    #[test]
    fn search_request_forms() {
        let defaults = QueryOptions::default();
        let req = SearchRequest::from_value(
            &val(r#"{"scene":{"width":10,"height":10},"options":{"top_k":1}}"#),
            &defaults,
        )
        .unwrap();
        assert!(matches!(req.query, SearchQuery::Scene(_)));
        assert_eq!(req.options.top_k, Some(1));

        let req = SearchRequest::from_value(
            &val(r#"{"text":{"u":"E A_b E A_e E","v":"E A_b E A_e E"}}"#),
            &defaults,
        )
        .unwrap();
        assert!(matches!(req.query, SearchQuery::Text { .. }));

        assert!(SearchRequest::from_value(&val(r#"{}"#), &defaults).is_err());
        assert!(SearchRequest::from_value(&val(r#"{"text":{"u":"E"}}"#), &defaults).is_err());
    }

    #[test]
    fn sketch_and_path_requests() {
        let defaults = QueryOptions::default();
        let req =
            SketchRequest::from_value(&val(r#"{"sketch":"A left-of B"}"#), &defaults).unwrap();
        assert_eq!(req.sketch, "A left-of B");
        assert!(SketchRequest::from_value(&val(r#"{}"#), &defaults).is_err());

        assert_eq!(PathRequest::from_value(&val(r#"{}"#)).unwrap().file, None);
        assert_eq!(
            PathRequest::from_value(&val(r#"{"path":"x.json"}"#))
                .unwrap()
                .file,
            Some("x.json".to_owned())
        );
        assert!(PathRequest::from_value(&val(r#"{"path":7}"#)).is_err());
        // directory escapes are rejected outright
        for escape in ["/tmp/x.json", "../x.json", "a/b.json", "..", "", r"a\b"] {
            let body = format!(r#"{{"path":{escape:?}}}"#);
            assert!(PathRequest::from_value(&val(&body)).is_err(), "{escape}");
        }
    }

    #[test]
    fn body_parsing_tolerates_empty() {
        assert_eq!(parse_body(b"").unwrap(), Value::Map(Vec::new()));
        assert_eq!(parse_body(b"  \n").unwrap(), Value::Map(Vec::new()));
        assert!(parse_body(b"{oops").is_err());
        assert!(parse_body(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn transform_names_roundtrip() {
        for t in Transform::ALL {
            assert_eq!(parse_transform(&t.to_string()), Some(t));
        }
        assert_eq!(parse_transform("rotate-45"), None);
    }

    #[test]
    fn replica_request_parses_and_rejects() {
        let req = ReplicaRequest::from_value(&val(r#"{"shard":2,"replica":1}"#)).unwrap();
        assert_eq!(
            req,
            ReplicaRequest {
                shard: 2,
                replica: 1
            }
        );
        for text in [
            r#"{}"#,
            r#"{"shard":0}"#,
            r#"{"replica":0}"#,
            r#"{"shard":-1,"replica":0}"#,
            r#"{"shard":"zero","replica":0}"#,
        ] {
            assert!(ReplicaRequest::from_value(&val(text)).is_err(), "{text}");
        }
    }

    #[test]
    fn reshard_request_parses_and_rejects() {
        let req = ReshardRequest::from_value(&val(r#"{"shards":8}"#)).unwrap();
        assert_eq!(
            req,
            ReshardRequest {
                shards: 8,
                batch: None
            }
        );
        let req = ReshardRequest::from_value(&val(r#"{"shards":4,"batch":64}"#)).unwrap();
        assert_eq!(req.batch, Some(64));
        for text in [
            r#"{}"#,
            r#"{"shards":0}"#,
            r#"{"shards":-2}"#,
            r#"{"shards":"four"}"#,
            r#"{"shards":4,"batch":0}"#,
            r#"{"shards":4,"batch":-1}"#,
        ] {
            assert!(ReshardRequest::from_value(&val(text)).is_err(), "{text}");
        }
    }

    #[test]
    fn db_error_status_mapping() {
        assert_eq!(
            ApiError::from_db(&DbError::UnknownRecord { id: 3 }).status,
            404
        );
        assert_eq!(
            ApiError::from_db(&DbError::Replica { reason: "x".into() }).status,
            409
        );
        assert_eq!(
            ApiError::from_db(&DbError::Sketch { reason: "x".into() }).status,
            422
        );
        assert_eq!(
            ApiError::from_db(&DbError::Persist { reason: "x".into() }).status,
            500
        );
    }
}
