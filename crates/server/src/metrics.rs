//! The server's Prometheus registry: every metric family `/v1/metrics`
//! exposes, wired to the lock-free handles the request path and the
//! database record into.
//!
//! Naming follows the Prometheus conventions: `be2d_` prefix,
//! `_seconds` histograms (bucket bounds in seconds), `_total` counters.
//! The full table lives in the README's "Observability" section —
//! names are a public, stable API.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::handlers::ServerStats;
use crate::router::Route;
use be2d_db::ReplicatedImageDatabase;
use be2d_metrics::{Counter, Gauge, Histogram, Registry};

/// Stable `route` label values, one per [`Route`] variant plus the
/// `"unmatched"` bucket for 404/405/400-id requests.
pub(crate) const ROUTE_LABELS: [&str; 20] = [
    "insert_image",
    "delete_image",
    "add_object",
    "remove_object",
    "search",
    "search_sketch",
    "stats_v1",
    "healthz",
    "health",
    "metrics",
    "slow_queries",
    "debug_events",
    "checkpoint",
    "snapshot",
    "restore",
    "replica_fail",
    "replica_heal",
    "reshard",
    "shutdown",
    "unmatched",
];

/// Index of a resolved route (or the unmatched bucket) in
/// [`ROUTE_LABELS`].
fn route_index(route: Option<Route>) -> usize {
    match route {
        Some(Route::InsertImage) => 0,
        Some(Route::DeleteImage(_)) => 1,
        Some(Route::AddObject(_)) => 2,
        Some(Route::RemoveObject(_)) => 3,
        Some(Route::Search) => 4,
        Some(Route::SearchSketch) => 5,
        Some(Route::Stats) => 6,
        Some(Route::Health) => 7,
        Some(Route::HealthReport) => 8,
        Some(Route::Metrics) => 9,
        Some(Route::SlowQueries) => 10,
        Some(Route::DebugEvents) => 11,
        Some(Route::Checkpoint) => 12,
        Some(Route::Snapshot) => 13,
        Some(Route::Restore) => 14,
        Some(Route::ReplicaFail) => 15,
        Some(Route::ReplicaHeal) => 16,
        Some(Route::Reshard) => 17,
        Some(Route::Shutdown) => 18,
        None => 19,
    }
}

/// The request path's own metric handles (per-route latency, status
/// classes, queue pressure). Recording is atomics only.
#[derive(Debug)]
pub(crate) struct HttpMetrics {
    /// Request duration per route label, parallel to [`ROUTE_LABELS`].
    request_duration: Vec<Arc<Histogram>>,
    responses_2xx: Arc<Counter>,
    responses_4xx: Arc<Counter>,
    responses_5xx: Arc<Counter>,
    /// Time an accepted connection waited in the pool queue before a
    /// worker picked it up.
    pub(crate) queue_wait: Arc<Histogram>,
    /// Jobs waiting in the pool queue, sampled at each accept.
    pub(crate) queue_depth: Arc<Gauge>,
}

impl HttpMetrics {
    pub(crate) fn new() -> HttpMetrics {
        HttpMetrics {
            request_duration: ROUTE_LABELS
                .iter()
                .map(|_| Arc::new(Histogram::new()))
                .collect(),
            responses_2xx: Arc::new(Counter::new()),
            responses_4xx: Arc::new(Counter::new()),
            responses_5xx: Arc::new(Counter::new()),
            queue_wait: Arc::new(Histogram::new()),
            queue_depth: Arc::new(Gauge::new()),
        }
    }

    /// Records one served request: latency under its route label plus
    /// the status-class counter.
    pub(crate) fn record(&self, route: Option<Route>, status: u16, elapsed: Duration) {
        self.request_duration[route_index(route)].record(elapsed);
        match status {
            500.. => self.responses_5xx.inc(),
            400.. => self.responses_4xx.inc(),
            _ => self.responses_2xx.inc(),
        }
    }
}

/// Builds the registry behind `GET /v1/metrics`: registers the shared
/// HTTP and database handles plus scrape-time callbacks for values
/// derived from existing state (record counts, replication lag,
/// uptime). Called once at server construction; scrapes never touch
/// the hot path.
pub(crate) fn build_registry(
    db: &ReplicatedImageDatabase,
    stats: &Arc<ServerStats>,
    http: &HttpMetrics,
    started: Instant,
) -> Registry {
    let registry = Registry::new();

    // --- request path -----------------------------------------------------
    for (label, hist) in ROUTE_LABELS.iter().zip(&http.request_duration) {
        registry.register_histogram(
            "be2d_http_request_duration_seconds",
            "End-to-end request latency by route",
            &[("route", label)],
            Arc::clone(hist),
        );
    }
    for (class, counter) in [
        ("2xx", &http.responses_2xx),
        ("4xx", &http.responses_4xx),
        ("5xx", &http.responses_5xx),
    ] {
        registry.register_counter(
            "be2d_http_responses_total",
            "Responses by status class",
            &[("class", class)],
            Arc::clone(counter),
        );
    }
    registry.register_histogram(
        "be2d_http_queue_wait_seconds",
        "Time accepted connections waited for a worker",
        &[],
        Arc::clone(&http.queue_wait),
    );
    registry.register_gauge(
        "be2d_http_queue_depth",
        "Connections waiting in the pool queue (sampled at accept)",
        &[],
        Arc::clone(&http.queue_depth),
    );
    let shed = Arc::clone(stats);
    registry.counter_fn(
        "be2d_http_shed_total",
        "Connections shed with 503 because the queue was full",
        &[],
        move || shed.shed.load(std::sync::atomic::Ordering::Relaxed),
    );
    let requests = Arc::clone(stats);
    registry.counter_fn(
        "be2d_http_requests_total",
        "Requests fully served (any status)",
        &[],
        move || requests.requests.load(std::sync::atomic::Ordering::Relaxed),
    );

    // --- database ---------------------------------------------------------
    let m = db.metrics().clone();
    let slots = m.scatter.len();
    for (i, hist) in m.scatter.slots().iter().enumerate() {
        // The final slot absorbs every shard index past the pool.
        let label = if i + 1 == slots {
            format!("{i}+")
        } else {
            i.to_string()
        };
        registry.register_histogram(
            "be2d_db_scatter_duration_seconds",
            "Per-shard scatter scan duration",
            &[("shard", &label)],
            Arc::clone(hist),
        );
    }
    registry.register_histogram(
        "be2d_db_gather_duration_seconds",
        "K-way merge (gather) duration per search",
        &[],
        Arc::clone(&m.gather),
    );
    registry.register_histogram(
        "be2d_db_search_duration_seconds",
        "End-to-end database search duration",
        &[],
        Arc::clone(&m.search_total),
    );
    registry.register_histogram(
        "be2d_db_oplog_append_duration_seconds",
        "Logged-mutation duration (leader apply through acks)",
        &[],
        Arc::clone(&m.oplog_append),
    );
    registry.register_histogram(
        "be2d_db_wal_fsync_duration_seconds",
        "WAL sync_data duration (only appends that flushed a batch)",
        &[],
        Arc::clone(&m.wal_fsync),
    );
    registry.register_histogram(
        "be2d_db_checkpoint_duration_seconds",
        "WAL checkpoint duration (anchor snapshot + truncation)",
        &[],
        Arc::clone(&m.checkpoint),
    );
    registry.register_counter(
        "be2d_db_replica_picks_total",
        "Replica read-routing decisions",
        &[],
        Arc::clone(&m.replica_picks),
    );
    registry.register_gauge(
        "be2d_db_outstanding_reads",
        "Reads currently holding a replica read lock",
        &[],
        Arc::clone(&m.outstanding_reads),
    );
    registry.register_counter(
        "be2d_db_replica_fallback_reads_total",
        "Bounded-lag reads that found no in-sync follower and fell back to the leader",
        &[],
        Arc::clone(&m.replica_fallback_reads),
    );
    registry.register_counter(
        "be2d_db_planner_ordered_scatters_total",
        "Multi-shard searches run with a selectivity-ordered scatter",
        &[],
        Arc::clone(&m.planner_ordered_scatters),
    );
    registry.register_counter(
        "be2d_db_planner_dense_scans_total",
        "Per-shard scans that walked their candidates with the dense scan",
        &[],
        Arc::clone(&m.planner_dense_scans),
    );
    registry.register_counter(
        "be2d_db_stage2_scored_total",
        "Candidates exactly scored (stage-2 survivors of bounded retrieval)",
        &[],
        Arc::clone(&m.stage2_scored),
    );
    registry.register_counter(
        "be2d_db_bound_pruned_total",
        "Candidates skipped because their admissible score bound excluded them",
        &[],
        Arc::clone(&m.bound_pruned),
    );
    registry.register_counter(
        "be2d_db_planner_skipped_total",
        "Shards the scatter planner proved empty and skipped",
        &[],
        Arc::clone(&m.planner_skipped),
    );
    let records_db = db.clone();
    registry.gauge_fn(
        "be2d_db_records",
        "Live records across all shards",
        &[],
        move || records_db.len() as f64,
    );
    let lag_db = db.clone();
    registry.gauge_fn(
        "be2d_db_replication_max_lag",
        "Worst healthy-replica apply lag in op-log sequences",
        &[],
        move || {
            lag_db
                .replication_stats()
                .shards
                .iter()
                .flat_map(|s| s.replicas.iter())
                .filter(|r| r.healthy)
                .map(|r| r.lag)
                .max()
                .unwrap_or(0) as f64
        },
    );

    // --- process ----------------------------------------------------------
    registry.gauge_fn(
        "be2d_uptime_seconds",
        "Seconds since the server started",
        &[],
        move || started.elapsed().as_secs_f64(),
    );
    registry
        .gauge(
            "be2d_build_info",
            "Build metadata carried in labels; value is always 1",
            &[("version", env!("CARGO_PKG_VERSION"))],
        )
        .set(1);

    registry
}
