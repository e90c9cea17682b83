//! The load generator: drives a running server over real sockets with a
//! configurable request mix and open-loop rate, and reports throughput
//! and latency percentiles.
//!
//! The operation stream comes from `be2d-workload`: scenes from the
//! corpus generator, queries derived from the prefill corpus (so
//! searches resemble real partial-match traffic), and the op sequence
//! from a seeded [`RequestMix`] schedule — the same run is reproducible
//! byte-for-byte from the seed.
//!
//! [`RequestMix`]: be2d_workload::RequestMix

use crate::client::Client;
use be2d_geometry::Scene;
use be2d_workload::metrics::percentile;
use be2d_workload::{
    derive_queries, generate_scene, Corpus, CorpusConfig, Query, QueryKind, RequestKind,
    RequestMix, SceneConfig, Skew,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Parameters of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Total requests in the timed run.
    pub requests: usize,
    /// Concurrent connections (worker threads).
    pub connections: usize,
    /// Open-loop request rate in req/s across all connections; 0 means
    /// closed-loop (send as fast as responses return).
    pub rate: f64,
    /// The operation mix.
    pub mix: RequestMix,
    /// Master seed: scenes, queries and the op schedule all derive from
    /// it.
    pub seed: u64,
    /// Images inserted before the timed run starts, so searches have a
    /// corpus to hit.
    pub prefill: usize,
    /// Shape of generated scenes.
    pub scene: SceneConfig,
    /// Per-request socket timeout.
    pub timeout: Duration,
    /// Hot/cold skew for choosing edit targets and search queries.
    /// `Skew::with_stride(p, shards)` aims the hot edits at records
    /// owned by shard 0 of an `--shards shards` server, so hot-shard
    /// imbalance can be exercised on purpose (watch `/v1/stats`
    /// `topology.shard_records`).
    pub skew: Skew,
    /// When > 0, trigger a live `POST /v1/admin/reshard` to this shard
    /// count mid-run — the hot-shard-split scenario: skewed traffic
    /// keeps flowing while the server migrates, and the run still has
    /// to finish error-free.
    pub reshard_to: usize,
    /// Requests completed before the reshard fires (with
    /// [`reshard_to`](Self::reshard_to) > 0).
    pub reshard_after: usize,
    /// Batch-size override sent with the reshard request (0 = server
    /// default).
    pub reshard_batch: usize,
    /// When > 0, every Nth search request sets `"trace": true` and the
    /// returned per-stage breakdown is folded into the report's `trace`
    /// section (0 = no tracing).
    pub trace_sample: usize,
    /// Scrape `GET /v1/metrics` at the start and end of the timed run
    /// and fold the counter deltas (requests by status class, bound
    /// pruning, planner skips) into the report's `metrics_delta`
    /// section.
    pub scrape_metrics: bool,
}

impl LoadgenConfig {
    /// Sensible defaults against `addr`: 1000 requests, 4 connections,
    /// closed loop, the serving mix, 64 prefill images.
    #[must_use]
    pub fn new(addr: SocketAddr) -> LoadgenConfig {
        LoadgenConfig {
            addr,
            requests: 1000,
            connections: 4,
            rate: 0.0,
            mix: RequestMix::serving_default(),
            seed: 42,
            prefill: 64,
            scene: SceneConfig::default(),
            timeout: Duration::from_secs(10),
            skew: Skew::uniform(),
            reshard_to: 0,
            reshard_after: 0,
            reshard_batch: 0,
            trace_sample: 0,
            scrape_metrics: false,
        }
    }
}

/// Latency percentiles in milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
}

/// Per-stage server-side timings aggregated over the traced search
/// samples (`--trace-sample N`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStages {
    /// Traced searches whose breakdown was parsed.
    pub sampled: usize,
    /// Mean planner stage (shard pruning) in ms.
    pub planner_mean_ms: f64,
    /// Mean scatter stage (parallel fan-out wall-clock) in ms.
    pub scatter_mean_ms: f64,
    /// Mean gather stage (k-way merge) in ms.
    pub gather_mean_ms: f64,
    /// Mean server-side search total in ms.
    pub total_mean_ms: f64,
    /// Worst server-side search total in ms.
    pub total_max_ms: f64,
}

/// One parsed per-stage breakdown from a traced search response.
#[derive(Debug, Clone, Copy)]
struct TraceSample {
    planner_ms: f64,
    scatter_ms: f64,
    gather_ms: f64,
    total_ms: f64,
}

/// The run summary, serialised to `BENCH_server.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Fixed tag `"server"` for tooling that collects BENCH files.
    pub benchmark: String,
    /// Requests completed (success or error).
    pub requests: usize,
    /// Requests that failed (socket error or HTTP status >= 400).
    pub errors: usize,
    /// Wall-clock seconds of the timed run.
    pub elapsed_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Latency percentiles over successful requests.
    pub latency_ms: LatencySummary,
    /// The op mix, in `RequestMix` string form.
    pub mix: String,
    /// The target skew, in `Skew` string form (`"uniform"` when off).
    pub skew: String,
    /// Worker connections used.
    pub connections: usize,
    /// Configured open-loop rate (0 = closed loop).
    pub rate_rps: f64,
    /// The live-reshard target fired mid-run (0 = no reshard scenario).
    pub reshard_to: usize,
    /// Wall-clock milliseconds from the reshard request until `/v1/stats`
    /// reported the migration finished (0 when no reshard ran).
    pub reshard_duration_ms: f64,
    /// Requests actually performed per kind (fallbacks included).
    pub by_kind: BTreeMap<String, u64>,
    /// Server-side per-stage timings over traced search samples
    /// (`None` when the run sampled no traces).
    pub trace: Option<TraceStages>,
    /// Server-side counter deltas over the timed run, from scraping
    /// `GET /v1/metrics` at start and end (`--scrape-metrics`; `None`
    /// when the run did not scrape or a scrape failed).
    pub metrics_delta: Option<MetricsDelta>,
}

/// Server-counter movement over one timed run: the difference between
/// a `GET /v1/metrics` scrape at run start and one at run end.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsDelta {
    /// Requests the server fully served during the run.
    pub requests: u64,
    /// 2xx responses during the run.
    pub responses_2xx: u64,
    /// 4xx responses during the run.
    pub responses_4xx: u64,
    /// 5xx responses during the run.
    pub responses_5xx: u64,
    /// Candidates bounded searches pruned by score bound.
    pub bound_pruned: u64,
    /// Shards the scatter planner proved empty and skipped.
    pub planner_skipped: u64,
}

impl LoadgenReport {
    /// Serialises the report as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialises")
    }

    /// Human-readable multi-line summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} requests in {:.2}s ({:.0} req/s), {} errors\n\
             latency p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms  max {:.2}ms\n\
             mix {} over {} connections{}\n",
            self.requests,
            self.elapsed_s,
            self.throughput_rps,
            self.errors,
            self.latency_ms.p50_ms,
            self.latency_ms.p95_ms,
            self.latency_ms.p99_ms,
            self.latency_ms.max_ms,
            self.mix,
            self.connections,
            if self.rate_rps > 0.0 {
                format!(", open-loop {} req/s", self.rate_rps)
            } else {
                ", closed-loop".into()
            },
        );
        if self.skew != "uniform" {
            out.push_str(&format!("  target skew {}\n", self.skew));
        }
        if self.reshard_to > 0 {
            out.push_str(&format!(
                "  live reshard to {} shards finished in {:.0}ms mid-run\n",
                self.reshard_to, self.reshard_duration_ms
            ));
        }
        if let Some(trace) = &self.trace {
            out.push_str(&format!(
                "  server stages over {} traced searches: planner {:.3}ms  \
                 scatter {:.3}ms  gather {:.3}ms  total mean {:.3}ms / max {:.3}ms\n",
                trace.sampled,
                trace.planner_mean_ms,
                trace.scatter_mean_ms,
                trace.gather_mean_ms,
                trace.total_mean_ms,
                trace.total_max_ms,
            ));
        }
        if let Some(delta) = &self.metrics_delta {
            out.push_str(&format!(
                "  server counters over the run: requests {}  2xx {}  4xx {}  \
                 5xx {}  bound_pruned {}  planner_skips {}\n",
                delta.requests,
                delta.responses_2xx,
                delta.responses_4xx,
                delta.responses_5xx,
                delta.bound_pruned,
                delta.planner_skipped,
            ));
        }
        for (kind, count) in &self.by_kind {
            out.push_str(&format!("  {kind}: {count}\n"));
        }
        out
    }
}

/// JSON for the compact scene wire form the API accepts.
#[must_use]
pub fn scene_to_json(scene: &Scene) -> String {
    let objects: Vec<String> = scene
        .iter()
        .map(|o| {
            let m = o.mbr();
            format!(
                r#"{{"class":{:?},"mbr":[{},{},{},{}]}}"#,
                o.class().name(),
                m.x_begin(),
                m.x_end(),
                m.y_begin(),
                m.y_end()
            )
        })
        .collect();
    format!(
        r#"{{"width":{},"height":{},"objects":[{}]}}"#,
        scene.width(),
        scene.height(),
        objects.join(",")
    )
}

/// One owned image on the server: its id plus how many loadgen objects
/// were added to it (so object removals always have a real target).
struct OwnedImage {
    id: u64,
    added_objects: usize,
}

struct WorkerOutcome {
    latencies_ms: Vec<f64>,
    errors: usize,
    by_kind: BTreeMap<String, u64>,
    traces: Vec<TraceSample>,
}

/// Runs the load against an already-listening server.
///
/// # Errors
///
/// Returns the first prefill error; errors in the timed run are counted
/// in the report instead of aborting it.
///
/// # Panics
///
/// Panics when `connections` is 0.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    assert!(config.connections > 0, "need at least one connection");

    // Prefill corpus + derived queries: searches during the run look
    // like partial-icon / jittered-relation traffic against known
    // images.
    let corpus = Corpus::generate(
        &CorpusConfig {
            images: config.prefill.max(1),
            scene: config.scene,
        },
        config.seed,
    );
    let queries = derive_queries(
        &corpus,
        &[
            QueryKind::DropObjects {
                keep: (config.scene.objects / 2).max(1),
            },
            QueryKind::Jitter { max_delta: 12 },
        ],
        32,
        config.seed ^ 0x9e37,
    );
    {
        let mut client = Client::new(config.addr, config.timeout);
        for (id, scene) in corpus.iter() {
            let body = format!(
                r#"{{"name":"prefill-{id}","scene":{}}}"#,
                scene_to_json(scene)
            );
            let response = client.request("POST", "/v1/images", &body)?;
            if response.status != 201 {
                return Err(io::Error::other(format!(
                    "prefill insert failed with {}: {}",
                    response.status,
                    response.text()
                )));
            }
        }
    }

    // Counter scrape at run start: everything the prefill did is
    // excluded from the delta.
    let metrics_before = config
        .scrape_metrics
        .then(|| scrape_metrics(config))
        .flatten();

    // One deterministic op schedule, sliced round-robin across workers.
    let schedule = {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x517c);
        config.mix.schedule(config.requests, &mut rng)
    };
    let interval = if config.rate > 0.0 {
        Some(Duration::from_secs_f64(1.0 / config.rate))
    } else {
        None
    };

    let started = Instant::now();
    let completed = std::sync::atomic::AtomicUsize::new(0);
    let (outcomes, reshard_outcome) = std::thread::scope(|scope| {
        // The live-reshard scenario: once enough requests completed,
        // fire POST /v1/admin/reshard and poll /v1/stats until the migration
        // finishes — all while the workers keep the load flowing.
        let admin = (config.reshard_to > 0).then(|| {
            let completed = &completed;
            scope.spawn(move || run_reshard_trigger(config, completed))
        });
        let handles: Vec<_> = (0..config.connections)
            .map(|worker| {
                let schedule = &schedule;
                let queries = &queries;
                let completed = &completed;
                scope.spawn(move || {
                    run_worker(
                        config, worker, schedule, queries, started, interval, completed,
                    )
                })
            })
            .collect();
        let outcomes: Vec<WorkerOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect();
        let reshard_outcome = admin.map(|h| h.join().expect("reshard trigger panicked"));
        (outcomes, reshard_outcome)
    });
    let elapsed = started.elapsed();
    let metrics_delta = metrics_before
        .and_then(|before| scrape_metrics(config).map(|after| after.delta_since(&before)));

    let mut latencies: Vec<f64> = Vec::with_capacity(config.requests);
    let mut errors = 0usize;
    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    let mut traces: Vec<TraceSample> = Vec::new();
    for outcome in outcomes {
        latencies.extend(outcome.latencies_ms);
        errors += outcome.errors;
        for (kind, count) in outcome.by_kind {
            *by_kind.entry(kind).or_insert(0) += count;
        }
        traces.extend(outcome.traces);
    }
    let reshard_duration_ms = match reshard_outcome {
        Some(ReshardOutcome::Finished { duration_ms }) => duration_ms,
        Some(ReshardOutcome::Failed) => {
            // A reshard that never finished cleanly is a run failure:
            // CI's zero-error acceptance must catch it.
            errors += 1;
            0.0
        }
        None => 0.0,
    };
    latencies.sort_by(f64::total_cmp);

    let elapsed_s = elapsed.as_secs_f64().max(1e-9);
    Ok(LoadgenReport {
        benchmark: "server".into(),
        requests: config.requests,
        errors,
        elapsed_s,
        throughput_rps: config.requests as f64 / elapsed_s,
        latency_ms: LatencySummary {
            p50_ms: percentile(&latencies, 50.0),
            p95_ms: percentile(&latencies, 95.0),
            p99_ms: percentile(&latencies, 99.0),
            max_ms: latencies.last().copied().unwrap_or(0.0),
            mean_ms: if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<f64>() / latencies.len() as f64
            },
        },
        mix: config.mix.to_string(),
        skew: config.skew.to_string(),
        connections: config.connections,
        rate_rps: config.rate,
        reshard_to: config.reshard_to,
        reshard_duration_ms,
        by_kind,
        trace: summarise_traces(&traces),
        metrics_delta,
    })
}

/// One scrape's worth of the counters the delta report tracks.
#[derive(Debug, Clone, Copy, Default)]
struct MetricsSnapshot {
    requests: u64,
    responses_2xx: u64,
    responses_4xx: u64,
    responses_5xx: u64,
    bound_pruned: u64,
    planner_skipped: u64,
}

impl MetricsSnapshot {
    /// Counter movement since `before` (saturating: a restarted server
    /// between scrapes yields zeros, not garbage).
    fn delta_since(&self, before: &MetricsSnapshot) -> MetricsDelta {
        MetricsDelta {
            requests: self.requests.saturating_sub(before.requests),
            responses_2xx: self.responses_2xx.saturating_sub(before.responses_2xx),
            responses_4xx: self.responses_4xx.saturating_sub(before.responses_4xx),
            responses_5xx: self.responses_5xx.saturating_sub(before.responses_5xx),
            bound_pruned: self.bound_pruned.saturating_sub(before.bound_pruned),
            planner_skipped: self.planner_skipped.saturating_sub(before.planner_skipped),
        }
    }
}

/// Scrapes `GET /v1/metrics` once; `None` on any transport or parse
/// failure (a failed scrape degrades the report, never the run).
fn scrape_metrics(config: &LoadgenConfig) -> Option<MetricsSnapshot> {
    let mut client = Client::new(config.addr, config.timeout);
    let response = client.request("GET", "/v1/metrics", "").ok()?;
    if response.status != 200 {
        return None;
    }
    Some(parse_metrics_snapshot(&response.text()))
}

/// Pulls the tracked counter samples out of one Prometheus text
/// exposition body.
fn parse_metrics_snapshot(text: &str) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(v) = value.parse::<u64>() else {
            continue;
        };
        match key {
            "be2d_http_requests_total" => snap.requests = v,
            "be2d_db_bound_pruned_total" => snap.bound_pruned = v,
            "be2d_db_planner_skipped_total" => snap.planner_skipped = v,
            k if k.starts_with("be2d_http_responses_total") => {
                if k.contains("class=\"2xx\"") {
                    snap.responses_2xx = v;
                } else if k.contains("class=\"4xx\"") {
                    snap.responses_4xx = v;
                } else if k.contains("class=\"5xx\"") {
                    snap.responses_5xx = v;
                }
            }
            _ => {}
        }
    }
    snap
}

/// Folds the collected per-stage breakdowns into the report section.
fn summarise_traces(traces: &[TraceSample]) -> Option<TraceStages> {
    if traces.is_empty() {
        return None;
    }
    let n = traces.len() as f64;
    let mean = |f: fn(&TraceSample) -> f64| traces.iter().map(f).sum::<f64>() / n;
    Some(TraceStages {
        sampled: traces.len(),
        planner_mean_ms: mean(|t| t.planner_ms),
        scatter_mean_ms: mean(|t| t.scatter_ms),
        gather_mean_ms: mean(|t| t.gather_ms),
        total_mean_ms: mean(|t| t.total_ms),
        total_max_ms: traces.iter().map(|t| t.total_ms).fold(0.0, f64::max),
    })
}

/// How the mid-run reshard trigger ended.
enum ReshardOutcome {
    /// `/v1/stats` confirmed the migration finished after this many
    /// wall-clock milliseconds.
    Finished { duration_ms: f64 },
    /// The request failed or the migration never finished in time.
    Failed,
}

/// Waits for `reshard_after` completed requests, fires
/// `POST /v1/admin/reshard`, then polls `/v1/stats` until the migration
/// reports done.
fn run_reshard_trigger(
    config: &LoadgenConfig,
    completed: &std::sync::atomic::AtomicUsize,
) -> ReshardOutcome {
    use std::sync::atomic::Ordering;
    let after = config.reshard_after.min(config.requests);
    while completed.load(Ordering::Relaxed) < after {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut client = Client::new(config.addr, config.timeout);
    let body = if config.reshard_batch > 0 {
        format!(
            r#"{{"shards":{},"batch":{}}}"#,
            config.reshard_to, config.reshard_batch
        )
    } else {
        format!(r#"{{"shards":{}}}"#, config.reshard_to)
    };
    let fired = Instant::now();
    let accepted = client
        .request("POST", "/v1/admin/reshard", &body)
        .map(|response| response.status == 202 || response.status == 200)
        .unwrap_or(false);
    if !accepted {
        return ReshardOutcome::Failed;
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while Instant::now() < deadline {
        if let Ok(response) = client.request("GET", "/v1/stats", "") {
            if response.status == 200 && reshard_finished(&response.body, config.reshard_to) {
                return ReshardOutcome::Finished {
                    duration_ms: fired.elapsed().as_secs_f64() * 1e3,
                };
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    ReshardOutcome::Failed
}

/// Whether a `/v1/stats` body says the migration to `to` shards is
/// done: `reshard.active` is false and `topology.shards` is the target.
fn reshard_finished(body: &[u8], to: usize) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let Ok(value) = serde_json::from_str::<Value>(text) else {
        return false;
    };
    let lookup = |section: &str, key: &str| {
        let find = |map: &[(String, Value)], name: &str| {
            map.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
        };
        find(value.as_map()?, section)?
            .as_map()
            .and_then(|map| find(map, key))
    };
    let inactive = matches!(lookup("reshard", "active"), Some(Value::Bool(false)));
    let on_target = lookup("topology", "shards")
        .and_then(|v| u64::from_value(&v).ok())
        .is_some_and(|shards| shards == to as u64);
    inactive && on_target
}

#[allow(clippy::too_many_arguments)]
fn run_worker(
    config: &LoadgenConfig,
    worker: usize,
    schedule: &[RequestKind],
    queries: &[Query],
    started: Instant,
    interval: Option<Duration>,
    completed: &std::sync::atomic::AtomicUsize,
) -> WorkerOutcome {
    let mut client = Client::new(config.addr, config.timeout);
    let mut rng = StdRng::seed_from_u64(config.seed ^ (worker as u64).wrapping_mul(0x85eb_ca6b));
    let mut owned: Vec<OwnedImage> = Vec::new();
    let mut outcome = WorkerOutcome {
        latencies_ms: Vec::new(),
        errors: 0,
        by_kind: BTreeMap::new(),
        traces: Vec::new(),
    };

    let mut index = worker;
    while index < schedule.len() {
        if let Some(interval) = interval {
            // Open loop: request `index` is due at start + index·interval,
            // regardless of how fast earlier responses came back.
            let due = started + interval.mul_checked(index);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let kind = effective_kind(schedule[index], &owned);
        let sent = Instant::now();
        let ok = perform(
            config,
            &mut client,
            &mut rng,
            &mut owned,
            queries,
            index,
            kind,
            &mut outcome.traces,
        );
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        *outcome.by_kind.entry(kind.name().to_owned()).or_insert(0) += 1;
        if ok {
            outcome.latencies_ms.push(latency_ms);
        } else {
            outcome.errors += 1;
        }
        completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        index += config.connections;
    }
    outcome
}

/// Picks the target slot in `owned` under the configured skew.
///
/// Stride-mode skew is applied to the **record id**, not the list
/// position: a hot draw picks among owned images whose id is
/// `≡ 0 (mod stride)`, which — against a server routing records
/// `id % shards` with `shards == stride` — lands every hot edit on
/// shard 0. Prefix mode (and uniform) delegate to [`Skew::pick`] over
/// list positions, i.e. the oldest owned images run hot.
fn pick_owned(skew: &Skew, owned: &[OwnedImage], rng: &mut StdRng) -> usize {
    if skew.stride > 1 && !skew.is_uniform() {
        if rng.random_bool(skew.hot_probability) {
            let hot: Vec<usize> = owned
                .iter()
                .enumerate()
                .filter(|(_, img)| img.id % skew.stride as u64 == 0)
                .map(|(slot, _)| slot)
                .collect();
            if !hot.is_empty() {
                return hot[rng.random_range(0..hot.len())];
            }
        }
        return rng.random_range(0..owned.len());
    }
    skew.pick(owned.len(), rng)
}

/// Downgrades ops that need an owned image when the worker has none
/// (yet): they become inserts, keeping the run error-free by design.
fn effective_kind(kind: RequestKind, owned: &[OwnedImage]) -> RequestKind {
    match kind {
        RequestKind::RemoveImage | RequestKind::AddObject if owned.is_empty() => {
            RequestKind::InsertImage
        }
        RequestKind::RemoveObject if !owned.iter().any(|img| img.added_objects > 0) => {
            if owned.is_empty() {
                RequestKind::InsertImage
            } else {
                RequestKind::AddObject
            }
        }
        kind => kind,
    }
}

#[allow(clippy::too_many_arguments)]
fn perform(
    config: &LoadgenConfig,
    client: &mut Client,
    rng: &mut StdRng,
    owned: &mut Vec<OwnedImage>,
    queries: &[Query],
    index: usize,
    kind: RequestKind,
    traces: &mut Vec<TraceSample>,
) -> bool {
    let result = match kind {
        RequestKind::InsertImage => {
            let scene = generate_scene(&config.scene, rng);
            let body = format!(
                r#"{{"name":"lg-{index}","scene":{}}}"#,
                scene_to_json(&scene)
            );
            client.request("POST", "/v1/images", &body).map(|response| {
                let ok = response.status == 201;
                if ok {
                    if let Some(id) = inserted_id(&response.body) {
                        owned.push(OwnedImage {
                            id,
                            added_objects: 0,
                        });
                    }
                }
                ok
            })
        }
        RequestKind::RemoveImage => {
            let slot = pick_owned(&config.skew, owned, rng);
            // Order-preserving removal: prefix-mode skew targets "the
            // oldest owned images", which swap_remove would scramble.
            let image = owned.remove(slot);
            client
                .request("DELETE", &format!("/v1/images/{}", image.id), "")
                .map(|response| response.status == 200)
        }
        RequestKind::AddObject => {
            let slot = pick_owned(&config.skew, owned, rng);
            let image = &mut owned[slot];
            let body = loadgen_object_body();
            let path = format!("/v1/images/{}/objects", image.id);
            client.request("POST", &path, &body).map(|response| {
                let ok = response.status == 200;
                if ok {
                    image.added_objects += 1;
                }
                ok
            })
        }
        RequestKind::RemoveObject => {
            let slot = owned
                .iter()
                .position(|img| img.added_objects > 0)
                .expect("effective_kind guarantees a target");
            let image = &mut owned[slot];
            let body = loadgen_object_body();
            let path = format!("/v1/images/{}/objects", image.id);
            client.request("DELETE", &path, &body).map(|response| {
                let ok = response.status == 200;
                if ok {
                    image.added_objects -= 1;
                }
                ok
            })
        }
        RequestKind::Search => {
            let slot = if config.skew.is_uniform() {
                index % queries.len()
            } else {
                config.skew.pick(queries.len(), rng)
            };
            let query = &queries[slot];
            // Every Nth search asks the server for its per-stage timing
            // breakdown; the parsed stages feed the report's `trace`
            // section. Rankings are identical either way.
            let traced = config.trace_sample > 0 && index.is_multiple_of(config.trace_sample);
            let body = format!(
                r#"{{"scene":{},"options":{{"top_k":10}}{}}}"#,
                scene_to_json(&query.scene),
                if traced { r#","trace":true"# } else { "" }
            );
            client.request("POST", "/v1/search", &body).map(|response| {
                let ok = response.status == 200;
                if ok && traced {
                    if let Some(sample) = parse_trace(&response.body) {
                        traces.push(sample);
                    }
                }
                ok
            })
        }
        RequestKind::SearchSketch => {
            let sketches = [
                r#"{"sketch":"C0 left-of C1"}"#,
                r#"{"sketch":"C1 above C2; C0 left-of C2"}"#,
                r#"{"sketch":"C2 overlaps C3"}"#,
            ];
            let body = sketches[index % sketches.len()];
            client
                .request("POST", "/v1/search/sketch", body)
                .map(|response| response.status == 200)
        }
        RequestKind::Stats => client
            .request("GET", "/v1/stats", "")
            .map(|response| response.status == 200),
    };
    result.unwrap_or(false)
}

/// The fixed object every loadgen add/remove uses: tiny, in-frame for
/// any generated scene, and class-distinct from the corpus alphabet.
fn loadgen_object_body() -> String {
    r#"{"class":"LG","mbr":[0,3,0,3]}"#.to_owned()
}

/// Extracts the `"trace"` stage breakdown from a traced search
/// response body.
fn parse_trace(body: &[u8]) -> Option<TraceSample> {
    let text = std::str::from_utf8(body).ok()?;
    let value: Value = serde_json::from_str(text).ok()?;
    let lookup = |map: &[(String, Value)], key: &str| {
        map.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let trace = lookup(value.as_map()?, "trace")?;
    let trace_map = trace.as_map()?.to_vec();
    let stage = |key: &str| lookup(&trace_map, key).and_then(|v| f64::from_value(&v).ok());
    Some(TraceSample {
        planner_ms: stage("planner_ms")?,
        scatter_ms: stage("scatter_ms")?,
        gather_ms: stage("gather_ms")?,
        total_ms: stage("total_ms")?,
    })
}

/// Extracts `"id"` from an insert response body.
fn inserted_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let value: Value = serde_json::from_str(text).ok()?;
    let map = value.as_map()?;
    map.iter().find_map(|(k, v)| {
        if k == "id" {
            u64::from_value(v).ok()
        } else {
            None
        }
    })
}

/// `Instant + Duration * n` without overflow panics.
trait MulChecked {
    fn mul_checked(self, n: usize) -> Duration;
}

impl MulChecked for Duration {
    #[allow(clippy::cast_possible_truncation)]
    fn mul_checked(self, n: usize) -> Duration {
        self.checked_mul(n as u32).unwrap_or(Duration::MAX / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use be2d_geometry::SceneBuilder;

    #[test]
    fn scene_json_matches_api_form() {
        let scene = SceneBuilder::new(64, 32)
            .object("A", (1, 5, 2, 6))
            .build()
            .unwrap();
        assert_eq!(
            scene_to_json(&scene),
            r#"{"width":64,"height":32,"objects":[{"class":"A","mbr":[1,5,2,6]}]}"#
        );
    }

    #[test]
    fn effective_kind_fallbacks() {
        let none: Vec<OwnedImage> = Vec::new();
        assert_eq!(
            effective_kind(RequestKind::RemoveImage, &none),
            RequestKind::InsertImage
        );
        assert_eq!(
            effective_kind(RequestKind::RemoveObject, &none),
            RequestKind::InsertImage
        );
        let plain = vec![OwnedImage {
            id: 0,
            added_objects: 0,
        }];
        assert_eq!(
            effective_kind(RequestKind::RemoveObject, &plain),
            RequestKind::AddObject
        );
        assert_eq!(
            effective_kind(RequestKind::RemoveImage, &plain),
            RequestKind::RemoveImage
        );
        let with_objects = vec![OwnedImage {
            id: 0,
            added_objects: 2,
        }];
        assert_eq!(
            effective_kind(RequestKind::RemoveObject, &with_objects),
            RequestKind::RemoveObject
        );
    }

    #[test]
    fn stride_skew_targets_ids_on_one_shard() {
        use rand::SeedableRng;
        let owned: Vec<OwnedImage> = (0..20)
            .map(|id| OwnedImage {
                id,
                added_objects: 0,
            })
            .collect();
        let skew = Skew::with_stride(1.0, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let slot = pick_owned(&skew, &owned, &mut rng);
            assert_eq!(owned[slot].id % 4, 0, "hot edits stay on shard 0's ids");
        }
        // prefix mode stays within bounds and favours the head
        let skew = Skew::new(0.95, 0.1).unwrap();
        let head = (0..400)
            .filter(|_| pick_owned(&skew, &owned, &mut rng) < 2)
            .count();
        assert!(head > 250, "prefix skew too weak: {head}/400");
    }

    #[test]
    fn inserted_id_parses_insert_response() {
        assert_eq!(
            inserted_id(br#"{"id":17,"name":"x","objects":3}"#),
            Some(17)
        );
        assert_eq!(inserted_id(b"not json"), None);
        assert_eq!(inserted_id(br#"{"name":"x"}"#), None);
    }

    #[test]
    fn report_serialises_with_kind_breakdown() {
        let report = LoadgenReport {
            benchmark: "server".into(),
            requests: 10,
            errors: 0,
            elapsed_s: 0.5,
            throughput_rps: 20.0,
            latency_ms: LatencySummary {
                p50_ms: 1.0,
                p95_ms: 2.0,
                p99_ms: 3.0,
                max_ms: 4.0,
                mean_ms: 1.5,
            },
            mix: "insert=1,search=3".into(),
            skew: "uniform".into(),
            connections: 2,
            rate_rps: 0.0,
            reshard_to: 8,
            reshard_duration_ms: 41.5,
            by_kind: [("search".to_owned(), 7u64), ("insert".to_owned(), 3u64)]
                .into_iter()
                .collect(),
            trace: Some(TraceStages {
                sampled: 4,
                planner_mean_ms: 0.01,
                scatter_mean_ms: 0.8,
                gather_mean_ms: 0.05,
                total_mean_ms: 0.9,
                total_max_ms: 1.4,
            }),
            metrics_delta: Some(MetricsDelta {
                requests: 12,
                responses_2xx: 10,
                responses_4xx: 1,
                responses_5xx: 0,
                bound_pruned: 42,
                planner_skipped: 5,
            }),
        };
        let json = report.to_json();
        assert!(json.contains("\"benchmark\":\"server\""), "{json}");
        assert!(json.contains("\"p99_ms\":3.0"), "{json}");
        assert!(json.contains("\"search\":7"), "{json}");
        assert!(json.contains("\"reshard_to\":8"), "{json}");
        assert!(json.contains("\"sampled\":4"), "{json}");
        assert!(json.contains("\"bound_pruned\":42"), "{json}");
        let summary = report.summary();
        assert!(summary.contains("closed-loop"), "{summary}");
        assert!(summary.contains("live reshard to 8 shards"), "{summary}");
        assert!(summary.contains("4 traced searches"), "{summary}");
        assert!(
            summary.contains("server counters over the run"),
            "{summary}"
        );
        assert!(summary.contains("bound_pruned 42"), "{summary}");
    }

    #[test]
    fn metrics_snapshot_parses_prometheus_exposition() {
        let text = "\
# HELP be2d_http_requests_total Requests accepted.\n\
# TYPE be2d_http_requests_total counter\n\
be2d_http_requests_total 120\n\
be2d_http_responses_total{class=\"2xx\"} 100\n\
be2d_http_responses_total{class=\"4xx\"} 15\n\
be2d_http_responses_total{class=\"5xx\"} 5\n\
be2d_db_bound_pruned_total 900\n\
be2d_db_planner_skipped_total 7\n\
be2d_http_request_seconds_bucket{le=\"0.001\"} 80\n\
garbage line without value\n";
        let snap = parse_metrics_snapshot(text);
        assert_eq!(snap.requests, 120);
        assert_eq!(snap.responses_2xx, 100);
        assert_eq!(snap.responses_4xx, 15);
        assert_eq!(snap.responses_5xx, 5);
        assert_eq!(snap.bound_pruned, 900);
        assert_eq!(snap.planner_skipped, 7);

        let before = MetricsSnapshot {
            requests: 100,
            responses_2xx: 90,
            responses_4xx: 20, // counter went "backwards": saturates to 0
            responses_5xx: 1,
            bound_pruned: 400,
            planner_skipped: 7,
        };
        let delta = snap.delta_since(&before);
        assert_eq!(delta.requests, 20);
        assert_eq!(delta.responses_2xx, 10);
        assert_eq!(delta.responses_4xx, 0);
        assert_eq!(delta.responses_5xx, 4);
        assert_eq!(delta.bound_pruned, 500);
        assert_eq!(delta.planner_skipped, 0);
    }

    #[test]
    fn parse_trace_reads_stage_breakdowns() {
        let body = br#"{"hits":[],"trace":{"planner_ms":0.01,"scatter_ms":1.5,
            "gather_ms":0.2,"total_ms":1.8,"shards":[]}}"#;
        let sample = parse_trace(body).expect("parses");
        assert!((sample.total_ms - 1.8).abs() < 1e-12);
        assert!((sample.scatter_ms - 1.5).abs() < 1e-12);
        assert!(parse_trace(br#"{"hits":[]}"#).is_none(), "untraced body");
        assert!(parse_trace(b"not json").is_none());
    }

    #[test]
    fn reshard_finished_parses_stats_bodies() {
        assert!(reshard_finished(
            br#"{"records":10,"topology":{"shards":8},"reshard":{"active":false}}"#,
            8
        ));
        assert!(!reshard_finished(
            br#"{"topology":{"shards":8},"reshard":{"active":true}}"#,
            8
        ));
        assert!(!reshard_finished(
            br#"{"topology":{"shards":4},"reshard":{"active":false}}"#,
            8
        ));
        assert!(!reshard_finished(
            br#"{"shards":8,"reshard_active":false}"#,
            8
        ));
        assert!(!reshard_finished(b"not json", 8));
    }
}
