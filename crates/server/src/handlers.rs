//! Request handlers: routes dispatched against the shared database.

use crate::api::{
    events_value, json_response, ns_to_ms, parse_body, AckResponse, ApiError, CheckpointResponse,
    HealthResponse, InsertBody, InsertRequest, InsertResponse, ObjectEdit, OplogSection,
    PathRequest, PlannerSection, ReplicaLagDto, ReplicaRequest, ReplicaResponse,
    ReplicationSection, ReshardRequest, ReshardResponse, ReshardSection, SearchQuery,
    SearchRequest, SearchResponse, ServiceSection, ShardReplicationDto, SketchRequest,
    SlowQueriesResponse, SlowQueryDto, SnapshotResponse, StatsV1Response, TopologySection,
    TraceDto, TracedSearchResponse, WalSection, WindowStatsDto, WindowsSection,
};
use crate::health::{evaluate, replica_verdict, ServerWindows, Verdict, W10S, W1M, W5M};
use crate::http::{default_code, Request, Response};
use crate::metrics::{build_registry, HttpMetrics};
use crate::router::{resolve, Route};
use crate::slowlog::{SlowQueryEntry, SlowQueryLog};
use crate::ServerConfig;
use be2d_core::{convert_scene, BeString2D};
use be2d_db::sketch::Sketch;
use be2d_db::{
    DbError, QueryOptions, QueryTrace, RecordId, ReplicatedImageDatabase, ReplicationMode,
    Resharder, SearchHit,
};
use be2d_metrics::Registry;
use serde::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotonic service counters, updated lock-free by every worker.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests fully served (any status).
    pub requests: AtomicU64,
    /// Searches served (scene, text, and sketch).
    pub searches: AtomicU64,
    /// Images inserted.
    pub inserts: AtomicU64,
    /// Image removals + object edits.
    pub edits: AtomicU64,
    /// Requests answered with status >= 400.
    pub errors: AtomicU64,
    /// Connections shed with 503 because the queue was full.
    pub shed: AtomicU64,
}

/// Everything a worker needs to serve one request.
#[derive(Debug)]
pub struct AppState {
    /// The shared (possibly sharded and replicated) database.
    pub db: ReplicatedImageDatabase,
    /// Immutable server configuration.
    pub config: ServerConfig,
    /// Service counters (shared with the metric registry's scrape-time
    /// callbacks, hence the `Arc`).
    pub stats: Arc<ServerStats>,
    /// The Prometheus registry behind `GET /v1/metrics`.
    pub(crate) registry: Registry,
    /// Request-path metric handles (per-route latency, queue pressure).
    pub(crate) http_metrics: HttpMetrics,
    /// Bounded ring of the slowest queries seen, for
    /// `GET /v1/debug/slow_queries`.
    pub(crate) slow_log: SlowQueryLog,
    /// Rolling request windows behind `/v1/health` and the `windows`
    /// stats section, rotated by the background health ticker (shared
    /// with it, hence the `Arc`).
    pub windows: Arc<ServerWindows>,
    /// Set by `POST /v1/admin/shutdown`; the accept loop watches it.
    pub shutdown: AtomicBool,
    /// Admission token for `POST /v1/admin/reshard`: exactly one request
    /// may hold it from acceptance until its background migration
    /// thread finishes, making the 409-on-concurrent-reshard check
    /// atomic (shared with that thread, hence the `Arc`).
    pub reshard_inflight: Arc<AtomicBool>,
    /// Worker-thread count (for `/v1/stats`).
    pub threads: usize,
    /// The server's bound address; used to poke the blocking accept
    /// loop awake when shutdown is requested over HTTP.
    pub addr: std::net::SocketAddr,
    started: Instant,
}

impl AppState {
    /// Builds the state for one server instance.
    #[must_use]
    pub fn new(
        db: ReplicatedImageDatabase,
        config: ServerConfig,
        threads: usize,
        addr: std::net::SocketAddr,
    ) -> Arc<AppState> {
        let started = Instant::now();
        let stats = Arc::new(ServerStats::default());
        let http_metrics = HttpMetrics::new();
        let registry = build_registry(&db, &stats, &http_metrics, started);
        let slow_log = SlowQueryLog::new(config.slow_query_capacity);
        Arc::new(AppState {
            db,
            config,
            stats,
            registry,
            http_metrics,
            slow_log,
            windows: Arc::new(ServerWindows::new()),
            shutdown: AtomicBool::new(false),
            reshard_inflight: Arc::new(AtomicBool::new(false)),
            threads,
            addr,
            started,
        })
    }

    /// Seconds since this server instance was constructed.
    #[must_use]
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Whether graceful shutdown has been requested.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flags shutdown and unblocks the accept loop with a throwaway
    /// connection, so `Server::run` observes the flag promptly even
    /// with no further traffic.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = std::net::TcpStream::connect(self.addr);
    }
}

/// Serves one parsed request, updating the stats counters and the
/// per-route latency histogram.
pub fn handle(state: &AppState, request: &Request) -> Response {
    let start = Instant::now();
    let resolved = resolve(request.method, &request.path);
    let route = resolved.as_ref().ok().map(|r| r.route);
    let response = match resolved {
        Ok(resolved) => {
            dispatch(state, resolved.route, request).unwrap_or_else(|e| e.to_response())
        }
        Err(e) => {
            ApiError::coded(e.status(), default_code(e.status()), e.message(), false).to_response()
        }
    };
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    if response.status >= 400 {
        state.stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    state
        .http_metrics
        .record(route, response.status, start.elapsed());
    state.windows.observe(response.status, start.elapsed());
    response
}

fn dispatch(state: &AppState, route: Route, request: &Request) -> Result<Response, ApiError> {
    match route {
        Route::Health => healthz(state),
        Route::HealthReport => Ok(health_report(state)),
        Route::Metrics => Ok(metrics(state)),
        Route::SlowQueries => Ok(slow_queries(state)),
        Route::DebugEvents => debug_events(state, request),
        Route::Checkpoint => checkpoint(state),
        Route::InsertImage => insert_image(state, &body_of(request)?),
        Route::DeleteImage(id) => delete_image(state, id),
        Route::AddObject(id) => edit_object(state, id, &body_of(request)?, true),
        Route::RemoveObject(id) => edit_object(state, id, &body_of(request)?, false),
        Route::Search => search(state, &body_of(request)?),
        Route::SearchSketch => search_sketch(state, &body_of(request)?),
        Route::Stats => Ok(stats(state)),
        Route::Snapshot => snapshot(state, &body_of(request)?),
        Route::Restore => restore(state, &body_of(request)?),
        Route::ReplicaFail => replica_health(state, &body_of(request)?, false),
        Route::ReplicaHeal => replica_health(state, &body_of(request)?, true),
        Route::Reshard => reshard(state, &body_of(request)?),
        Route::Shutdown => {
            state.request_shutdown();
            Ok(Response::json(200, "{\"shutting_down\":true}".into()))
        }
    }
}

fn body_of(request: &Request) -> Result<Value, ApiError> {
    parse_body(&request.body)
}

/// `GET /healthz`: the load-balancer contract. 200 while every shard
/// can serve (status `"ok"`, or `"degraded"` on partial replica loss),
/// 503 with the unified error envelope (`code = "no_healthy_replica"`,
/// retryable) the moment any shard has **zero** healthy replicas —
/// that shard can only answer errors, so this node must leave
/// rotation. The body keeps the build version and uptime so a probe
/// (or a human) can tell which build answered and how long it has been
/// alive.
fn healthz(state: &AppState) -> Result<Response, ApiError> {
    let (verdict, reason) = replica_verdict(&state.db.replica_health());
    if verdict == Verdict::Critical {
        return Err(ApiError::coded(503, "no_healthy_replica", reason, true));
    }
    let status = if verdict == Verdict::Ok {
        "ok"
    } else {
        "degraded"
    };
    Ok(Response::json(
        200,
        format!(
            "{{\"status\":\"{status}\",\"version\":\"{}\",\"uptime_s\":{:.3}}}",
            env!("CARGO_PKG_VERSION"),
            state.uptime_s()
        ),
    ))
}

/// `GET /v1/health`: the full health report — per-subsystem verdicts
/// (shards, replicas, replication lag, WAL, SLO burn over the rolling
/// 1-minute window) rolled up to the worst verdict. Always 200: this
/// endpoint is the diagnosis, `/healthz` is the routing decision.
fn health_report(state: &AppState) -> Response {
    let report = evaluate(&state.db, &state.windows, &state.config);
    json_response(200, &HealthResponse::from_report(&report))
}

/// `GET /v1/debug/events[?since={seq}]`: the structured event journal.
/// `since` returns only events with a greater sequence; the response's
/// `last_seq` is the cursor for the next poll.
fn debug_events(state: &AppState, request: &Request) -> Result<Response, ApiError> {
    let mut since = 0u64;
    for pair in request.query.split('&').filter(|p| !p.is_empty()) {
        if let Some(raw) = pair.strip_prefix("since=") {
            since = raw
                .parse::<u64>()
                .map_err(|_| ApiError::bad(format!("invalid since cursor {raw:?}")))?;
        }
    }
    let journal = state.db.events();
    let (events, last_seq) = journal.since(since);
    Ok(json_response(
        200,
        &events_value(&events, last_seq, journal.capacity()),
    ))
}

/// `GET /v1/metrics`: every registered family in Prometheus text
/// exposition format 0.0.4. Rendering reads atomics; it never blocks
/// the request path.
fn metrics(state: &AppState) -> Response {
    Response {
        status: 200,
        body: state.registry.render().into_bytes(),
        content_type: "text/plain; version=0.0.4",
    }
}

/// `GET /v1/debug/slow_queries`: the worst queries retained in the
/// slow-query ring, slowest first.
fn slow_queries(state: &AppState) -> Response {
    let queries = state
        .slow_log
        .snapshot()
        .iter()
        .map(|e| SlowQueryDto {
            kind: e.kind.to_owned(),
            total_ms: ns_to_ms(e.total_ns),
            planner_ms: ns_to_ms(e.planner_ns),
            scatter_ms: ns_to_ms(e.scatter_ns),
            gather_ms: ns_to_ms(e.gather_ns),
            hits: e.hits,
            top_k: e.top_k,
            at_uptime_s: e.at_uptime_s,
        })
        .collect();
    json_response(
        200,
        &SlowQueriesResponse {
            capacity: state.slow_log.capacity(),
            queries,
        },
    )
}

/// `POST /v1/admin/checkpoint`: WAL checkpoint over HTTP — fresh anchor
/// snapshots plus on-disk log truncation. 500 `persist_failed` when the
/// database runs without a WAL.
fn checkpoint(state: &AppState) -> Result<Response, ApiError> {
    let start = Instant::now();
    let records = state
        .db
        .checkpoint_wal()
        .map_err(|e| ApiError::from_db(&e))?;
    Ok(json_response(
        200,
        &CheckpointResponse {
            records,
            duration_ms: start.elapsed().as_secs_f64() * 1e3,
        },
    ))
}

/// Offers one finished search to the slow-query ring. Cheap enough to
/// run unconditionally: sub-floor queries cost one atomic load.
fn offer_slow(
    state: &AppState,
    kind: &'static str,
    hits: &[SearchHit],
    options: &QueryOptions,
    trace: &QueryTrace,
) {
    state.slow_log.offer(SlowQueryEntry {
        kind,
        total_ns: trace.total_ns,
        planner_ns: trace.planner_ns,
        scatter_ns: trace.scatter_ns,
        gather_ns: trace.gather_ns,
        hits: hits.len(),
        top_k: options.top_k,
        at_uptime_s: state.uptime_s(),
    });
}

/// Builds the search response: the legacy shape by default, hits plus
/// the per-stage breakdown when the request set `"trace": true`.
fn search_response(hits: &[SearchHit], trace: &QueryTrace, traced: bool) -> Response {
    if traced {
        json_response(
            200,
            &TracedSearchResponse {
                hits: SearchResponse::from_hits(hits).hits,
                trace: TraceDto::from_trace(trace),
            },
        )
    } else {
        json_response(200, &SearchResponse::from_hits(hits))
    }
}

fn insert_image(state: &AppState, body: &Value) -> Result<Response, ApiError> {
    let req = InsertRequest::from_value(body)?;
    let (id, objects) = match req.image {
        InsertBody::Scene(scene) => {
            let id = state
                .db
                .insert_scene(&req.name, &scene)
                .map_err(|e| ApiError::from_db(&e))?;
            (id, scene.len())
        }
        InsertBody::Symbolic(symbolic) => {
            let objects = symbolic.object_count();
            let id = state
                .db
                .insert_symbolic(&req.name, *symbolic)
                .map_err(|e| ApiError::from_db(&e))?;
            (id, objects)
        }
    };
    state.stats.inserts.fetch_add(1, Ordering::Relaxed);
    Ok(json_response(
        201,
        &InsertResponse {
            id: id.index(),
            name: req.name,
            objects,
        },
    ))
}

fn delete_image(state: &AppState, id: RecordId) -> Result<Response, ApiError> {
    state.db.remove(id).map_err(|e| ApiError::from_db(&e))?;
    state.stats.edits.fetch_add(1, Ordering::Relaxed);
    Ok(json_response(
        200,
        &AckResponse {
            id: id.index(),
            ok: true,
        },
    ))
}

fn edit_object(
    state: &AppState,
    id: RecordId,
    body: &Value,
    add: bool,
) -> Result<Response, ApiError> {
    let edit = ObjectEdit::from_value(body)?;
    let result = if add {
        state.db.add_object(id, &edit.class, edit.mbr)
    } else {
        state.db.remove_object(id, &edit.class, edit.mbr)
    };
    result.map_err(|e| ApiError::from_db(&e))?;
    state.stats.edits.fetch_add(1, Ordering::Relaxed);
    Ok(json_response(
        200,
        &AckResponse {
            id: id.index(),
            ok: true,
        },
    ))
}

fn search(state: &AppState, body: &Value) -> Result<Response, ApiError> {
    let req = SearchRequest::from_value(body, &QueryOptions::default())?;
    // Always the traced path: metrics and the slow-query ring see every
    // search, and tracing is the only search implementation, so the
    // rankings cannot depend on whether the breakdown is returned.
    let (kind, query) = match &req.query {
        SearchQuery::Scene(scene) => ("scene", convert_scene(scene)),
        SearchQuery::Text { u, v } => (
            "text",
            BeString2D::parse(u, v).map_err(|e| ApiError::from_db(&DbError::from(e)))?,
        ),
    };
    let (hits, trace) = state
        .db
        .search_traced(&query, &req.options)
        .map_err(|e| ApiError::from_db(&e))?;
    state.stats.searches.fetch_add(1, Ordering::Relaxed);
    offer_slow(state, kind, &hits, &req.options, &trace);
    Ok(search_response(&hits, &trace, req.trace))
}

fn search_sketch(state: &AppState, body: &Value) -> Result<Response, ApiError> {
    let req = SketchRequest::from_value(body, &QueryOptions::default())?;
    let scene = Sketch::parse(&req.sketch)
        .and_then(|s| s.to_scene())
        .map_err(|e| ApiError::from_db(&e))?;
    let (hits, trace) = state
        .db
        .search_traced(&convert_scene(&scene), &req.options)
        .map_err(|e| ApiError::from_db(&e))?;
    state.stats.searches.fetch_add(1, Ordering::Relaxed);
    offer_slow(state, "sketch", &hits, &req.options, &trace);
    Ok(search_response(&hits, &trace, req.trace))
}

/// `POST /v1/admin/replicas/fail` / `heal`: fault injection and recovery
/// for one replica. Healing rebuilds the replica's state from a
/// healthy peer before it rejoins rotation.
fn replica_health(state: &AppState, body: &Value, heal: bool) -> Result<Response, ApiError> {
    let req = ReplicaRequest::from_value(body)?;
    let result = if heal {
        state.db.rebuild_replica(req.shard, req.replica)
    } else {
        state.db.fail_replica(req.shard, req.replica)
    };
    result.map_err(|e| ApiError::from_db(&e))?;
    Ok(json_response(
        200,
        &ReplicaResponse {
            shard: req.shard,
            replica: req.replica,
            healthy: heal,
        },
    ))
}

/// `POST /v1/admin/reshard`: start an online reshard in the background.
/// The request returns immediately (202); `GET /v1/stats` reports
/// progress, and the migration keeps serving reads and writes with
/// rankings unchanged throughout.
fn reshard(state: &AppState, body: &Value) -> Result<Response, ApiError> {
    let req = ReshardRequest::from_value(body)?;
    // Atomic admission: the token is held from here until the spawned
    // migration thread finishes, so two racing requests can never both
    // be told 202 (one would silently lose the Resharder's internal
    // lock and its migration would never run).
    if state.reshard_inflight.swap(true, Ordering::SeqCst) {
        return Err(ApiError::coded(
            409,
            "conflict",
            "a reshard is already in progress",
            true,
        ));
    }
    let release = |response| {
        state.reshard_inflight.store(false, Ordering::SeqCst);
        response
    };
    // An aborted earlier migration (internal error; epoch still
    // mid-flight) can only be *resumed* — rerun to the same target.
    if state.db.resharding() && state.db.reshard_progress().to != req.shards {
        return release(Err(ApiError::coded(
            409,
            "conflict",
            format!(
                "an aborted reshard to {} shards must be resumed first",
                state.db.reshard_progress().to
            ),
            false,
        )));
    }
    let from = state.db.shard_count();
    if req.shards == from && !state.db.resharding() {
        return release(Ok(json_response(
            200,
            &ReshardResponse {
                from,
                to: req.shards,
                started: false,
            },
        )));
    }
    let batch = req.batch.unwrap_or(state.config.reshard_batch);
    let db = state.db.clone();
    let inflight = Arc::clone(&state.reshard_inflight);
    let to = req.shards;
    // The migration outlives this request by design; the admission
    // token is released when the run ends, success or not.
    std::thread::spawn(move || {
        if let Err(e) = Resharder::new(&db).batch_ids(batch).run(to) {
            eprintln!("reshard to {to} shards failed: {e}");
        }
        inflight.store(false, Ordering::SeqCst);
    });
    Ok(json_response(
        202,
        &ReshardResponse {
            from,
            to,
            started: true,
        },
    ))
}

/// `GET /v1/stats`: database, replication, planner, reshard, op-log and
/// service statistics in nested sections.
fn stats(state: &AppState) -> Response {
    let db_stats = state.db.stats();
    let reshard = state.db.reshard_progress();
    let replication = state.db.replication_stats();
    let oplog = state.db.oplog_stats();
    let max_lag = match state.db.replication_mode() {
        ReplicationMode::Async { max_lag } => Some(max_lag),
        ReplicationMode::Sync | ReplicationMode::Quorum => None,
    };
    json_response(
        200,
        &StatsV1Response {
            records: db_stats.shard_records.iter().sum(),
            classes: db_stats.classes,
            objects: db_stats.objects,
            topology: TopologySection {
                shards: state.db.shard_count(),
                replicas: state.db.replica_count(),
                shard_records: db_stats.shard_records,
                replica_records: db_stats.replica_records,
                replica_health: db_stats.replica_health,
            },
            replication: ReplicationSection {
                mode: replication.mode.name().to_owned(),
                max_lag,
                shards: replication
                    .shards
                    .iter()
                    .map(|shard| ShardReplicationDto {
                        head_seq: shard.head_seq,
                        replicas: shard
                            .replicas
                            .iter()
                            .map(|r| ReplicaLagDto {
                                last_applied_seq: r.last_applied_seq,
                                lag: r.lag,
                                healthy: r.healthy,
                            })
                            .collect(),
                    })
                    .collect(),
                catchup_replays: replication.catchup_replays,
                catchup_clones: replication.catchup_clones,
                writer_drains: replication.writer_drains,
                fallback_reads: replication.fallback_reads,
            },
            planner: PlannerSection {
                skipped: state.db.metrics().planner_skipped.get(),
                ordered_scatters: state.db.metrics().planner_ordered_scatters.get(),
                dense_scans: state.db.metrics().planner_dense_scans.get(),
            },
            reshard: ReshardSection {
                active: reshard.active,
                from: reshard.from,
                to: reshard.to,
                migrated_ids: reshard.migrated_ids,
                total_ids: reshard.total_ids,
                moved_records: reshard.moved_records,
            },
            oplog: OplogSection {
                window: oplog.window,
                last_seq: oplog.last_seq,
                entries: oplog.entries,
                wal: oplog.wal.map(|w| WalSection {
                    appended: w.appended,
                    fsyncs: w.fsyncs,
                    truncations: w.truncations,
                    healed_tails: w.healed_tails,
                    recovered: w.recovered,
                }),
            },
            service: ServiceSection {
                requests: state.stats.requests.load(Ordering::Relaxed),
                searches: state.stats.searches.load(Ordering::Relaxed),
                inserts: state.stats.inserts.load(Ordering::Relaxed),
                edits: state.stats.edits.load(Ordering::Relaxed),
                errors: state.stats.errors.load(Ordering::Relaxed),
                shed: state.stats.shed.load(Ordering::Relaxed),
                threads: state.threads,
                uptime_s: state.started.elapsed().as_secs_f64(),
            },
            windows: WindowsSection {
                last_10s: WindowStatsDto::from_summary(&state.windows.summary(W10S)),
                last_1m: WindowStatsDto::from_summary(&state.windows.summary(W1M)),
                last_5m: WindowStatsDto::from_summary(&state.windows.summary(W5M)),
            },
        },
    )
}

/// Resolves a request's optional file name inside the configured
/// snapshot directory ([`PathRequest::from_value`] already rejected
/// separators and traversal).
fn snapshot_target(state: &AppState, req: &PathRequest) -> std::path::PathBuf {
    let name = req.file.as_deref().unwrap_or(&state.config.snapshot_file);
    state.config.snapshot_dir.join(name)
}

fn snapshot(state: &AppState, body: &Value) -> Result<Response, ApiError> {
    let req = PathRequest::from_value(body)?;
    let path = snapshot_target(state, &req);
    let records = state
        .db
        .save_snapshot(&path)
        .map_err(|e| ApiError::from_db(&e))?;
    Ok(json_response(
        200,
        &SnapshotResponse {
            path: path.display().to_string(),
            records,
        },
    ))
}

fn restore(state: &AppState, body: &Value) -> Result<Response, ApiError> {
    let req = PathRequest::from_value(body)?;
    let path = snapshot_target(state, &req);
    // Accepts both sharded manifests and plain single-file snapshots;
    // records are re-routed when the shard topology changed.
    let records = state
        .db
        .restore_from(&path)
        .map_err(|e| ApiError::from_db(&e))?;
    Ok(json_response(
        200,
        &SnapshotResponse {
            path: path.display().to_string(),
            records,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;

    fn state() -> Arc<AppState> {
        // No real listener behind this state: the shutdown poke just
        // fails fast against the unroutable port. Two shards × two
        // replicas so every handler test also exercises routing,
        // scatter-gather, and the write fan-out.
        AppState::new(
            ReplicatedImageDatabase::with_topology(2, 2),
            ServerConfig::default(),
            4,
            ([127, 0, 0, 1], 9).into(),
        )
    }

    fn request(method: Method, path: &str, body: &str) -> Request {
        Request {
            method,
            path: path.into(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            http10: false,
        }
    }

    const SCENE_AB: &str = r#"{"width":100,"height":100,"objects":[
        {"class":"A","mbr":[10,30,40,60]},{"class":"B","mbr":[60,85,40,60]}]}"#;

    #[test]
    fn insert_search_delete_flow() {
        let state = state();
        let resp = handle(
            &state,
            &request(
                Method::Post,
                "/v1/images",
                &format!(r#"{{"name":"left","scene":{SCENE_AB}}}"#),
            ),
        );
        assert_eq!(
            resp.status,
            201,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );

        let resp = handle(
            &state,
            &request(
                Method::Post,
                "/v1/search",
                &format!(r#"{{"scene":{SCENE_AB},"options":{{"top_k":1}}}}"#),
            ),
        );
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"name\":\"left\""), "{body}");

        let resp = handle(&state, &request(Method::Delete, "/v1/images/0", ""));
        assert_eq!(resp.status, 200);
        let resp = handle(&state, &request(Method::Delete, "/v1/images/0", ""));
        assert_eq!(resp.status, 404, "double delete");

        assert_eq!(state.stats.inserts.load(Ordering::Relaxed), 1);
        assert_eq!(state.stats.searches.load(Ordering::Relaxed), 1);
        assert_eq!(state.stats.errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn object_edits() {
        let state = state();
        handle(
            &state,
            &request(
                Method::Post,
                "/v1/images",
                &format!(r#"{{"name":"x","scene":{SCENE_AB}}}"#),
            ),
        );
        let add = r#"{"class":"C","mbr":[1,9,1,9]}"#;
        assert_eq!(
            handle(&state, &request(Method::Post, "/v1/images/0/objects", add)).status,
            200
        );
        assert_eq!(
            handle(
                &state,
                &request(Method::Delete, "/v1/images/0/objects", add)
            )
            .status,
            200
        );
        // removing it again is a semantic failure → 422
        assert_eq!(
            handle(
                &state,
                &request(Method::Delete, "/v1/images/0/objects", add)
            )
            .status,
            422
        );
        // an MBR outside the frame is a semantic failure → 422
        let out = r#"{"class":"C","mbr":[1,500,1,9]}"#;
        assert_eq!(
            handle(&state, &request(Method::Post, "/v1/images/0/objects", out)).status,
            422
        );
    }

    #[test]
    fn sketch_search_and_errors() {
        let state = state();
        handle(
            &state,
            &request(
                Method::Post,
                "/v1/images",
                &format!(r#"{{"name":"ab","scene":{SCENE_AB}}}"#),
            ),
        );
        let resp = handle(
            &state,
            &request(
                Method::Post,
                "/v1/search/sketch",
                r#"{"sketch":"A left-of B"}"#,
            ),
        );
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body).unwrap().contains("\"ab\""));

        let resp = handle(
            &state,
            &request(
                Method::Post,
                "/v1/search/sketch",
                r#"{"sketch":"A nextto B"}"#,
            ),
        );
        assert_eq!(resp.status, 422);
    }

    #[test]
    fn routing_errors_and_health() {
        let state = state();
        assert_eq!(
            handle(&state, &request(Method::Get, "/healthz", "")).status,
            200
        );
        assert_eq!(
            handle(&state, &request(Method::Get, "/nope", "")).status,
            404
        );
        assert_eq!(
            handle(&state, &request(Method::Get, "/stats", "")).status,
            404,
            "unversioned aliases are gone"
        );
        assert_eq!(
            handle(&state, &request(Method::Get, "/v1/images", "")).status,
            405
        );
        assert_eq!(
            handle(&state, &request(Method::Delete, "/v1/images/zz", "")).status,
            400
        );
        assert_eq!(
            handle(&state, &request(Method::Post, "/v1/search", "{broken")).status,
            400
        );
    }

    #[test]
    fn snapshot_restore_cycle() {
        let dir = std::env::temp_dir().join(format!("be2d_handler_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let state = AppState::new(
            ReplicatedImageDatabase::with_topology(2, 2),
            ServerConfig {
                snapshot_dir: dir.clone(),
                ..ServerConfig::default()
            },
            4,
            ([127, 0, 0, 1], 9).into(),
        );
        handle(
            &state,
            &request(
                Method::Post,
                "/v1/images",
                &format!(r#"{{"name":"keep","scene":{SCENE_AB}}}"#),
            ),
        );
        let body = r#"{"path":"cycle.json"}"#;
        let resp = handle(&state, &request(Method::Post, "/v1/snapshot", body));
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert!(dir.join("cycle.json").is_file(), "confined to snapshot_dir");

        // wipe by inserting more, then restore
        handle(
            &state,
            &request(
                Method::Post,
                "/v1/images",
                &format!(r#"{{"name":"extra","scene":{SCENE_AB}}}"#),
            ),
        );
        assert_eq!(state.db.len(), 2);
        let resp = handle(&state, &request(Method::Post, "/v1/restore", body));
        assert_eq!(resp.status, 200);
        assert_eq!(state.db.len(), 1);

        // restoring a missing file is a persistence error
        let resp = handle(
            &state,
            &request(Method::Post, "/v1/restore", r#"{"path":"missing.json"}"#),
        );
        assert_eq!(resp.status, 500);

        // arbitrary filesystem paths are rejected before touching disk
        for escape in [r#"{"path":"/etc/hostname"}"#, r#"{"path":"../../x.json"}"#] {
            let resp = handle(&state, &request(Method::Post, "/v1/snapshot", escape));
            assert_eq!(resp.status, 400, "{escape}");
            let resp = handle(&state, &request(Method::Post, "/v1/restore", escape));
            assert_eq!(resp.status, 400, "{escape}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_and_shutdown() {
        let state = state();
        let resp = handle(&state, &request(Method::Get, "/v1/stats", ""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"records\":0"), "{body}");
        assert!(body.contains("\"threads\":4"), "{body}");
        assert!(body.contains("\"shards\":2"), "{body}");
        assert!(body.contains("\"replicas\":2"), "{body}");
        assert!(body.contains("\"shard_records\":[0,0]"), "{body}");
        assert!(body.contains("\"replica_records\":[[0,0],[0,0]]"), "{body}");
        assert!(
            body.contains("\"replica_health\":[[true,true],[true,true]]"),
            "{body}"
        );
        assert!(body.contains("\"skipped\":0"), "{body}");

        assert!(!state.shutting_down());
        let resp = handle(&state, &request(Method::Post, "/v1/admin/shutdown", ""));
        assert_eq!(resp.status, 200);
        assert!(state.shutting_down());
    }

    #[test]
    fn healthz_reports_degraded_on_partial_replica_loss() {
        let state = state();
        let resp = handle(&state, &request(Method::Get, "/healthz", ""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"version\""), "{body}");
        assert!(body.contains("\"uptime_s\""), "{body}");

        state.db.fail_replica(0, 1).unwrap();
        let resp = handle(&state, &request(Method::Get, "/healthz", ""));
        assert_eq!(resp.status, 200, "partial loss still serves");
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"status\":\"degraded\""), "{body}");

        state.db.rebuild_replica(0, 1).unwrap();
        let resp = handle(&state, &request(Method::Get, "/healthz", ""));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"status\":\"ok\""), "{body}");
    }

    #[test]
    fn health_endpoint_rolls_up_subsystem_verdicts() {
        let state = state();
        let resp = handle(&state, &request(Method::Get, "/v1/health", ""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        for name in ["shards", "replicas", "replication", "wal", "slo"] {
            assert!(body.contains(&format!("\"name\":\"{name}\"")), "{body}");
        }

        state.db.fail_replica(1, 0).unwrap();
        let resp = handle(&state, &request(Method::Get, "/v1/health", ""));
        assert_eq!(resp.status, 200, "diagnosis endpoint never 503s");
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert!(body.contains("failed_replicas=1"), "{body}");
    }

    #[test]
    fn debug_events_serves_the_journal_with_a_cursor() {
        let state = state();
        handle(
            &state,
            &request(
                Method::Post,
                "/v1/images",
                &format!(r#"{{"name":"seed","scene":{SCENE_AB}}}"#),
            ),
        );
        state.db.fail_replica(0, 1).unwrap();
        state.db.rebuild_replica(0, 1).unwrap();

        let resp = handle(&state, &request(Method::Get, "/v1/debug/events", ""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"type\":\"replica_failed\""), "{body}");
        assert!(body.contains("\"type\":\"replica_healed\""), "{body}");
        assert!(body.contains("\"last_seq\":2"), "{body}");
        assert!(body.contains("\"method\":\"replay\""), "{body}");

        // The cursor skips already-seen events.
        let mut req = request(Method::Get, "/v1/debug/events", "");
        req.query = "since=1".into();
        let resp = handle(&state, &req);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(!body.contains("replica_failed"), "{body}");
        assert!(body.contains("replica_healed"), "{body}");

        // A cursor past the head yields an empty list, same last_seq.
        req.query = "since=99".into();
        let resp = handle(&state, &req);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"events\":[]"), "{body}");
        assert!(body.contains("\"last_seq\":2"), "{body}");

        // A malformed cursor is a 400.
        req.query = "since=xyz".into();
        assert_eq!(handle(&state, &req).status, 400);
    }

    #[test]
    fn stats_v1_includes_rolling_windows() {
        let state = state();
        let resp = handle(&state, &request(Method::Get, "/v1/stats", ""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"windows\""), "{body}");
        assert!(body.contains("\"last_10s\""), "{body}");
        assert!(body.contains("\"last_5m\""), "{body}");
        // Windows record after dispatch, so a response reports the
        // requests served before it: the second scrape sees the first.
        let resp = handle(&state, &request(Method::Get, "/v1/stats", ""));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"requests\":1"), "{body}");
    }

    #[test]
    fn replica_fail_and_heal_endpoints() {
        let state = state();
        handle(
            &state,
            &request(
                Method::Post,
                "/v1/images",
                &format!(r#"{{"name":"kept","scene":{SCENE_AB}}}"#),
            ),
        );

        // Fail replica 1 of shard 0: searches keep answering.
        let body = r#"{"shard":0,"replica":1}"#;
        let resp = handle(
            &state,
            &request(Method::Post, "/v1/admin/replicas/fail", body),
        );
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("\"healthy\":false"));
        let resp = handle(
            &state,
            &request(
                Method::Post,
                "/v1/search",
                &format!(r#"{{"scene":{SCENE_AB}}}"#),
            ),
        );
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body).unwrap().contains("\"kept\""));
        let resp = handle(&state, &request(Method::Get, "/v1/stats", ""));
        let stats_body = String::from_utf8(resp.body).unwrap();
        assert!(
            stats_body.contains("\"replica_health\":[[true,false],[true,true]]"),
            "{stats_body}"
        );

        // Failing the last healthy copy of the shard is a 409 conflict.
        let resp = handle(
            &state,
            &request(
                Method::Post,
                "/v1/admin/replicas/fail",
                r#"{"shard":0,"replica":0}"#,
            ),
        );
        assert_eq!(
            resp.status,
            409,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );

        // Heal rebuilds from the healthy peer and rejoins.
        let resp = handle(
            &state,
            &request(Method::Post, "/v1/admin/replicas/heal", body),
        );
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("\"healthy\":true"));
        let resp = handle(&state, &request(Method::Get, "/v1/stats", ""));
        let stats_body = String::from_utf8(resp.body).unwrap();
        assert!(
            stats_body.contains("\"replica_health\":[[true,true],[true,true]]"),
            "{stats_body}"
        );

        // Out-of-range coordinates are 409, malformed bodies 400.
        let resp = handle(
            &state,
            &request(
                Method::Post,
                "/v1/admin/replicas/heal",
                r#"{"shard":9,"replica":0}"#,
            ),
        );
        assert_eq!(resp.status, 409);
        let resp = handle(
            &state,
            &request(Method::Post, "/v1/admin/replicas/fail", r#"{"shard":0}"#),
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn reshard_endpoint_migrates_in_the_background() {
        let state = state();
        for i in 0..12 {
            handle(
                &state,
                &request(
                    Method::Post,
                    "/v1/images",
                    &format!(r#"{{"name":"img-{i}","scene":{SCENE_AB}}}"#),
                ),
            );
        }

        // Same-count target: 200 no-op, nothing started.
        let resp = handle(
            &state,
            &request(Method::Post, "/v1/admin/reshard", r#"{"shards":2}"#),
        );
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("\"started\":false"));

        // Growth: accepted, runs in the background, lands on 4 shards.
        let resp = handle(
            &state,
            &request(
                Method::Post,
                "/v1/admin/reshard",
                r#"{"shards":4,"batch":3}"#,
            ),
        );
        assert_eq!(
            resp.status,
            202,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("\"started\":true"));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while (state.db.resharding() || state.db.shard_count() != 4)
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        assert_eq!(state.db.shard_count(), 4);
        assert_eq!(state.db.len(), 12);

        // Stats report the finished migration.
        let resp = handle(&state, &request(Method::Get, "/v1/stats", ""));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"shards\":4"), "{body}");
        assert!(
            body.contains("\"reshard\":{\"active\":false,\"from\":2,\"to\":4,\"migrated_ids\":12,"),
            "{body}"
        );

        // Searches still answer with the full corpus.
        let resp = handle(
            &state,
            &request(
                Method::Post,
                "/v1/search",
                &format!(r#"{{"scene":{SCENE_AB},"options":{{"top_k":null}}}}"#),
            ),
        );
        assert_eq!(resp.status, 200);

        // Malformed bodies are 400.
        let resp = handle(
            &state,
            &request(Method::Post, "/v1/admin/reshard", r#"{"shards":0}"#),
        );
        assert_eq!(resp.status, 400);
    }
}
