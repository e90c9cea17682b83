//! The traced run: a per-layer budget of the same seeded request stream.
//!
//! It has two halves, both with one client, as the untraced closed loop:
//!
//! 1. A closed-loop phase over HTTP against a real server. It gives the
//!    end-to-end mean and median per request kind (search, write), and
//!    the server's own mean handler time per kind from the deltas of
//!    `be2d_http_request_duration_seconds` in `/v1/metrics`.
//! 2. An in-process replay of the same stream against a database of the
//!    same topology. It calls each layer's public functions in the
//!    order the handler does, with a timer around each call. Searches
//!    split by the program's own `QueryTrace` (planner, scatter envelope,
//!    merge). The scatter envelope is then split among the layers inside
//!    the shard scans by re-running their calls per scanned shard
//!    (`with_replica_read`) and sharing the envelope in proportion.
//!    Write steps with no public entry point (op-log append, fsync) come
//!    from the deltas of the `DbMetrics` histograms around each write.
//!
//! The parts are means, so they add up: `handlers.self` is the server's
//! handler time minus the in-process parts inside the handler, and
//! `net.residual` is the end-to-end mean minus `http.parse` and the
//! handler time — socket, kernel and pool queue. That closes the sum by
//! construction, so the check that can fail is another: the parts
//! inside the handler cannot take longer than the handler itself, so
//! per request kind `handlers.self` may not fall below
//! `-OVERRUN_TOLERANCE` of the server's handler mean. A larger overrun
//! means the replay overstates the layers and its split does not stand
//! for the server. Counts reconcile separately: per scanned shard, the
//! replayed candidate set must equal `scored + bound_pruned` from the
//! trace, and the traces must sum to the `DbMetrics` counters.

use crate::report::{metric, percentile, table, Metric};
use crate::serve::{closed_loop, fresh_dir, nanos, Phase};
use crate::spec::Spec;
use crate::stream::{image_name, Inputs, OpGen};
use crate::{check_answers, connections, generators, setup, Args, Outcome};
use be2d_core::{convert_scene, similarity_with, BeString2D, LcsTable, SymbolicImage};
use be2d_db::{ImageRecord, QueryOptions, QuerySketch, QueryTrace, ReplicatedImageDatabase};
use be2d_geometry::ObjectClass;
use be2d_server::api::{
    AckResponse, InsertBody, InsertRequest, InsertResponse, ObjectEdit, SearchQuery, SearchRequest,
    SearchResponse,
};
use be2d_server::http::{try_parse, ParseLimits, Response};
use be2d_server::router::{resolve, Route};
use be2d_server::ServerConfig;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

/// Share of `--seconds` for the HTTP phase. The timed and the untimed
/// replay repeat its request count; the timed one takes about twice as
/// long, as it re-runs every scan's work per layer, so the three
/// together take about `--seconds`.
const PHASE_SHARE: f64 = 0.25;

/// How far the timed in-process parts of a request may overrun the
/// server's handler mean, as a share of the latter. They carry the
/// timers' own cost (`trace.overhead_pct`, about a tenth) and the
/// host's drift between the HTTP phase and the replay; on a 2-vCPU box
/// they overran by up to a sixth, and by up to a quarter with the
/// benchmark pinned to one of its cores. Half the handler mean leaves
/// room for a noisier host and still catches the largest layer (LCS
/// tables, about three quarters of a search) counted twice.
const OVERRUN_TOLERANCE: f64 = 0.5;

const LIMITS: ParseLimits = ParseLimits {
    max_head_bytes: 16 * 1024,
    max_body_bytes: 8 * 1024 * 1024,
};

/// The additive search budget, in the order a request meets it.
const SEARCH_PARTS: [&str; 17] = [
    "search.net.residual_us",
    "search.http.parse_us",
    "search.router.resolve_us",
    "search.api.decode_us",
    "convert.query_us",
    "replica.planner_us",
    "index.candidates_us",
    "signature.bound_us",
    "annotated.materialise_us",
    "lcs.table_us",
    "similarity.score_us",
    "database.self_us",
    "shard.merge_us",
    "replica.search_self_us",
    "search.api.encode_us",
    "search.handlers.self_us",
    "search.e2e_mean_us",
];

/// The additive write budget (per write, all write kinds pooled).
const WRITE_PARTS: [&str; 11] = [
    "write.net.residual_us",
    "write.http.parse_us",
    "write.router.resolve_us",
    "write.api.decode_us",
    "convert.scene_us",
    "oplog.append_us",
    "wal.fsync_us",
    "replica.write_self_us",
    "write.api.encode_us",
    "write.handlers.self_us",
    "write.e2e_mean_us",
];

/// Sums in nanoseconds (or counts) per name, plus request counts.
#[derive(Default)]
struct Acc {
    sums: BTreeMap<&'static str, f64>,
    searches: u64,
    writes: u64,
    /// Per write kind: (ops, wall ns).
    ops: BTreeMap<&'static str, (u64, f64)>,
    /// Per-request in-process wall of the handler-side calls.
    request_ns: f64,
    requests: u64,
    mismatches: u64,
}

impl Acc {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }
    fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// A stopwatch that only reads the clock when timing is on, so the
/// untimed replay measures the same calls without the timers.
struct Laps {
    on: bool,
    last: Instant,
}

impl Laps {
    fn new(on: bool) -> Laps {
        Laps {
            on,
            last: Instant::now(),
        }
    }
    fn lap(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let now = Instant::now();
        let ns = (now - self.last).as_nanos() as f64;
        self.last = now;
        ns
    }
}

pub fn run(args: &Args, spec: &Spec) -> io::Result<Outcome> {
    let inputs = Inputs::generate(spec, args.seed);
    let phase_for = Duration::from_secs_f64(args.seconds * PHASE_SHARE);

    // 1. End to end over HTTP, one client.
    let (server, ids, _) = setup(args, spec, &inputs)?;
    let threads = crate::check::threads_of(&server.get("/v1/stats")?.body).unwrap_or(0);
    println!("env: server.threads={threads}");
    let before = handler_ns(&server.get("/v1/metrics")?.body);
    let mut gens = generators(spec, args.seed, &ids, &inputs, connections(), (0, 1));
    let http = closed_loop(server.addr, &mut gens[..1], &inputs, phase_for);
    let after = handler_ns(&server.get("/v1/metrics")?.body);
    let (mut attempted, mut failed) = check_answers(&server, spec, &inputs, &ids, &gens, (0, 1))?;
    attempted += http.samples.len() as u64;
    failed += http.samples.iter().filter(|s| !s.ok).count() as u64;
    drop(server);

    // 2. In-process replay of the same ops, in the same order, as the
    // HTTP phase sent: timed first, right after that phase, as its parts
    // are compared with the server's handler time and the host's speed
    // drifts; then untimed, on a fresh database when the stream writes.
    let first_client =
        |ids: &[u64]| OpGen::new(spec, args.seed, 0, connections(), ids, inputs.queries.len());
    let (db, ids) = in_process_db(args, spec, &inputs, "replay-a")?;
    let mut acc = Acc::default();
    let counters_before = (
        db.metrics().stage2_scored.get(),
        db.metrics().bound_pruned.get(),
    );
    let mut gen = first_client(&ids);
    for _ in 0..http.samples.len() {
        replay_one(&db, &inputs, &mut gen, &mut acc, true)?;
    }
    let counted = (
        db.metrics().stage2_scored.get() - counters_before.0,
        db.metrics().bound_pruned.get() - counters_before.1,
    );
    if counted
        != (
            acc.get("database.scored") as u64,
            acc.get("database.bound_pruned") as u64,
        )
    {
        eprintln!("DbMetrics counters {counted:?} disagree with the per-query traces");
        acc.mismatches += 1;
    }
    let db = if spec.search_share < 1.0 {
        drop(db);
        in_process_db(args, spec, &inputs, "replay-b")?.0
    } else {
        db
    };
    let mut untimed = Acc::default();
    let mut gen = first_client(&ids);
    for _ in 0..acc.requests {
        replay_one(&db, &inputs, &mut gen, &mut untimed, false)?;
    }
    let overhead_pct =
        (acc.request_ns / acc.requests as f64 / (untimed.request_ns / untimed.requests as f64)
            - 1.0)
            * 100.0;
    drop(db);

    let (layers, reconciled) = budget(&acc, &untimed, &http, before, after, overhead_pct);
    print!(
        "{}",
        table(
            &format!("{} (seed {}, per layer)", spec.name, args.seed),
            &layers
        )
    );
    failed += acc.mismatches + u64::from(!reconciled);
    attempted += acc.requests;
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: layers,
    })
}

/// A database of the workload's topology, prefilled in-process.
fn in_process_db(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    tag: &str,
) -> io::Result<(ReplicatedImageDatabase, Vec<u64>)> {
    let config = ServerConfig {
        shards: spec.shards,
        replicas: spec.replicas,
        wal_dir: if spec.wal {
            Some(fresh_dir(&args.work.join(tag))?)
        } else {
            None
        },
        wal_fsync_every: 1,
        ..ServerConfig::default()
    };
    let db =
        ReplicatedImageDatabase::with_config(config.replica_config()).map_err(io::Error::other)?;
    let ids = inputs
        .corpus
        .iter()
        .map(|(i, scene)| {
            db.insert_scene(&image_name(i.index()), scene)
                .map(|id| id.index() as u64)
        })
        .collect::<Result<_, _>>()
        .map_err(io::Error::other)?;
    Ok((db, ids))
}

/// The request bytes the HTTP client sends for an op.
fn raw_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: be2d\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn json(body: &[u8]) -> Value {
    serde_json::from_str(std::str::from_utf8(body).expect("benchmark bodies are UTF-8"))
        .expect("benchmark bodies are JSON")
}

fn encode<T: Serialize>(status: u16, dto: &T) {
    let body = serde_json::to_string(dto).expect("response DTOs serialise");
    let mut out = Vec::with_capacity(body.len() + 128);
    Response::json(status, body)
        .write_to(&mut out, true)
        .expect("writing to a Vec cannot fail");
    black_box(out);
}

/// Replays one op through the handler's public calls.
fn replay_one(
    db: &ReplicatedImageDatabase,
    inputs: &Inputs,
    gen: &mut OpGen,
    acc: &mut Acc,
    timed: bool,
) -> io::Result<()> {
    let op = gen.next();
    let (method, path, body) = op.request(inputs);
    let raw = raw_request(method, &path, &body);
    let mut t = Laps::new(timed);
    let started = Instant::now();
    let (req, _) = try_parse(&raw, &LIMITS)
        .ok()
        .flatten()
        .expect("benchmark requests parse");
    let parse = t.lap();
    let route = resolve(req.method, &req.path)
        .expect("benchmark paths resolve")
        .route;
    let resolve_ns = t.lap();
    let mut new_id = None;
    match route {
        Route::Search => {
            let request = SearchRequest::from_value(&json(&req.body), &QueryOptions::serving())
                .map_err(|e| io::Error::other(e.message))?;
            let SearchQuery::Scene(scene) = request.query else {
                unreachable!("the benchmark sends scene queries")
            };
            acc.add("search.api.decode_us", t.lap());
            let query = convert_scene(&scene);
            acc.add("convert.query_us", t.lap());
            let (hits, trace) = db
                .search_traced(&query, &request.options)
                .map_err(io::Error::other)?;
            let wall = t.lap();
            encode(200, &SearchResponse::from_hits(&hits));
            acc.add("search.api.encode_us", t.lap());
            let took = nanos(started.elapsed()) as f64;
            acc.request_ns += took;
            acc.add("search.replay_us", took);
            if timed {
                split_search(db, &query, &request.options, &trace, wall, acc);
            }
            acc.searches += 1;
        }
        Route::InsertImage => {
            let request = InsertRequest::from_value(&json(&req.body))
                .map_err(|e| io::Error::other(e.message))?;
            let InsertBody::Scene(scene) = request.image else {
                unreachable!("the benchmark inserts scenes")
            };
            acc.add("write.api.decode_us", t.lap());
            let symbolic = SymbolicImage::from_scene(&scene);
            acc.add("convert.scene_us", t.lap());
            let id = write_step(db, acc, &mut t, "replica.insert_us", |db| {
                db.insert_symbolic(&request.name, symbolic)
            })?;
            encode(
                201,
                &InsertResponse {
                    id: id.index(),
                    name: request.name,
                    objects: scene.len(),
                },
            );
            new_id = Some(id.index() as u64);
        }
        Route::DeleteImage(id) => {
            write_step(db, acc, &mut t, "replica.remove_us", |db| db.remove(id))?;
            encode(
                200,
                &AckResponse {
                    id: id.index(),
                    ok: true,
                },
            );
        }
        Route::AddObject(id) | Route::RemoveObject(id) => {
            let edit = ObjectEdit::from_value(&json(&req.body))
                .map_err(|e| io::Error::other(e.message))?;
            acc.add("write.api.decode_us", t.lap());
            write_step(db, acc, &mut t, "replica.edit_us", |db| {
                if matches!(route, Route::AddObject(_)) {
                    db.add_object(id, &edit.class, edit.mbr)
                } else {
                    db.remove_object(id, &edit.class, edit.mbr)
                }
            })?;
            encode(
                200,
                &AckResponse {
                    id: id.index(),
                    ok: true,
                },
            );
        }
        other => unreachable!("the benchmark never sends {other:?}"),
    }
    if op.is_search() {
        acc.add("search.http.parse_us", parse);
        acc.add("search.router.resolve_us", resolve_ns);
    } else {
        acc.add("write.api.encode_us", t.lap());
        let took = nanos(started.elapsed()) as f64;
        acc.request_ns += took;
        acc.add("write.replay_us", took);
        acc.writes += 1;
        acc.add("write.http.parse_us", parse);
        acc.add("write.router.resolve_us", resolve_ns);
    }
    acc.requests += 1;
    gen.complete(op, true, new_id);
    Ok(())
}

/// Times one database write and splits it with the op-log and WAL
/// histogram deltas (one client, so the deltas are this write's own).
fn write_step<R>(
    db: &ReplicatedImageDatabase,
    acc: &mut Acc,
    t: &mut Laps,
    op: &'static str,
    f: impl FnOnce(&ReplicatedImageDatabase) -> Result<R, be2d_db::DbError>,
) -> io::Result<R> {
    let m = db.metrics();
    let (append0, fsync0) = (m.oplog_append.snapshot(), m.wal_fsync.snapshot());
    t.lap();
    let out = f(db).map_err(io::Error::other)?;
    let wall = t.lap();
    let (append1, fsync1) = (m.oplog_append.snapshot(), m.wal_fsync.snapshot());
    t.lap();
    let append = (append1.sum_ns - append0.sum_ns) as f64;
    let fsync = (fsync1.sum_ns - fsync0.sum_ns) as f64;
    acc.add("oplog.append_us", append - fsync);
    acc.add("wal.fsync_us", fsync);
    acc.add("wal.fsyncs", (fsync1.count - fsync0.count) as f64);
    acc.add("replica.write_self_us", wall - append);
    let entry = acc.ops.entry(op).or_default();
    entry.0 += 1;
    entry.1 += wall;
    Ok(out)
}

/// Splits one search's database time. Planner, merge and the scatter
/// envelope come from the program's trace; the envelope is shared among
/// the in-scan layers in proportion to their replayed work.
fn split_search(
    db: &ReplicatedImageDatabase,
    query: &BeString2D,
    options: &QueryOptions,
    trace: &QueryTrace,
    wall: f64,
    acc: &mut Acc,
) {
    let classes: Vec<ObjectClass> = query.class_counts().into_keys().collect();
    // candidates, bound, materialise, lcs, similarity (LCS excluded)
    let mut work = [0f64; 5];
    let mut shard_sum = 0f64;
    for st in trace.shards.iter().filter(|s| !s.skipped) {
        shard_sum += st.elapsed_ns as f64;
        let candidates = db.with_replica_read(st.shard, st.replica, |rdb| {
            let mut t = Laps::new(true);
            let ids = rdb.class_index().candidates_any(&classes);
            let candidates: Vec<&ImageRecord> =
                ids.into_iter().filter_map(|id| rdb.get(id)).collect();
            work[0] += t.lap();
            let n = candidates.len();
            // Two-stage retrieval exactly scores a prefix of the
            // bound-ranked candidates, `scored` long.
            let scored: Vec<&ImageRecord> = if options.two_stage.is_some() {
                let sketch = QuerySketch::of_variants([query]);
                let mut ranked: Vec<(f64, &ImageRecord)> = candidates
                    .iter()
                    .map(|r| (sketch.bound(&r.sketch, &options.config).value(), *r))
                    .collect();
                work[1] += t.lap();
                ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.id.cmp(&b.1.id)));
                ranked.into_iter().take(st.scored).map(|(_, r)| r).collect()
            } else {
                candidates
            };
            t.lap();
            for record in scored {
                let target = record.symbolic.to_be_string_2d();
                work[2] += t.lap();
                black_box(similarity_with(query, &target, &options.config));
                let similarity = t.lap();
                // The same two tables `similarity_with` builds; its own
                // work is the rest (clamped: the second build runs warm).
                black_box(LcsTable::build(query.x(), target.x()));
                black_box(LcsTable::build(query.y(), target.y()));
                let lcs = t.lap().min(similarity);
                work[3] += lcs;
                work[4] += similarity - lcs;
            }
            n
        });
        if candidates != st.scored + st.bound_pruned {
            eprintln!(
                "shard {}: replayed {candidates} candidates, trace says scored {} + pruned {}",
                st.shard, st.scored, st.bound_pruned
            );
            acc.mismatches += 1;
        }
        acc.add("database.candidates", candidates as f64);
        acc.add("database.scored", st.scored as f64);
        acc.add("database.bound_pruned", st.bound_pruned as f64);
    }
    let envelope = trace.scatter_ns as f64;
    let measured: f64 = work.iter().sum();
    let scan_self = (shard_sum - measured).max(0.0);
    let share = if measured + scan_self > 0.0 {
        envelope / (measured + scan_self)
    } else {
        0.0
    };
    let layers = [
        "index.candidates_us",
        "signature.bound_us",
        "annotated.materialise_us",
        "lcs.table_us",
        "similarity.score_us",
    ];
    for (name, ns) in layers.into_iter().zip(work) {
        acc.add(name, ns * share);
    }
    acc.add("database.self_us", scan_self * share);
    acc.add("replica.planner_us", trace.planner_ns as f64);
    acc.add("shard.merge_us", trace.gather_ns as f64);
    acc.add(
        "replica.search_self_us",
        wall - (trace.planner_ns + trace.scatter_ns + trace.gather_ns) as f64,
    );
    acc.add("replica.scatter_us", envelope);
    acc.add("database.scan_us", shard_sum);
    let lanes = trace.shards.len().min(connections()).max(1) as f64;
    acc.add("scatter.capacity_ns", envelope * lanes);
}

/// Server-side handler time, `(sum ns, count)` per request kind, from
/// the per-route request-duration histograms.
fn handler_ns(metrics_text: &[u8]) -> BTreeMap<&'static str, (f64, f64)> {
    let text = String::from_utf8_lossy(metrics_text);
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("be2d_http_request_duration_seconds_") else {
            continue;
        };
        let (series, value) = rest.rsplit_once(' ').unwrap_or((rest, ""));
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let kind = match series
            .split_once("route=\"")
            .map(|(_, r)| r.trim_end_matches("\"}"))
        {
            Some("search") => "search",
            Some("insert_image" | "delete_image" | "add_object" | "remove_object") => "write",
            _ => continue,
        };
        let entry = out.entry(kind).or_default();
        if series.starts_with("sum{") {
            entry.0 += value * 1e9;
        } else if series.starts_with("count{") {
            entry.1 += value;
        }
    }
    out
}

/// Per-layer means in microseconds, and whether the replay stands for
/// the server: per kind, its timed parts overrun the server's handler
/// mean by at most `OVERRUN_TOLERANCE`. Means add up; medians do not, so
/// the budget closes on the mean and the median is reported beside it.
fn budget(
    acc: &Acc,
    untimed: &Acc,
    http: &Phase,
    before: BTreeMap<&'static str, (f64, f64)>,
    after: BTreeMap<&'static str, (f64, f64)>,
    overhead_pct: f64,
) -> (Vec<Metric>, bool) {
    let mut reconciled = true;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let kinds = [
        (
            "search",
            acc.searches,
            &SEARCH_PARTS[..],
            ["search.e2e_p50_us", "search.handler_us", "search.replay_us"],
        ),
        (
            "write",
            acc.writes,
            &WRITE_PARTS[..],
            ["write.e2e_p50_us", "write.handler_us", "write.replay_us"],
        ),
    ];
    for (kind, n, parts, [p50_name, handler_name, replay_name]) in kinds {
        if n == 0 {
            continue;
        }
        let mut e2e: Vec<u64> = http
            .samples
            .iter()
            .filter(|s| s.search == (kind == "search"))
            .map(|s| s.latency_ns)
            .collect();
        e2e.sort_unstable();
        let e2e_mean = e2e.iter().sum::<u64>() as f64 / e2e.len().max(1) as f64 / 1e3;
        let (sum1, count1) = after.get(kind).copied().unwrap_or_default();
        let (sum0, count0) = before.get(kind).copied().unwrap_or_default();
        let handler = (sum1 - sum0) / (count1 - count0).max(1.0) / 1e3;
        let last = parts.len() - 1;
        let (residual, parse, handlers_self, total) =
            (parts[0], parts[1], parts[last - 1], parts[last]);
        for &name in &parts[1..last - 1] {
            values.insert(name, acc.get(name) / n as f64 / 1e3);
        }
        let inside: f64 = parts[2..last - 1].iter().map(|name| values[name]).sum();
        values.insert(handlers_self, handler - inside);
        values.insert(residual, e2e_mean - values[parse] - handler);
        values.insert(total, e2e_mean);
        values.insert(p50_name, percentile(&e2e, 0.5) as f64 / 1e3);
        values.insert(handler_name, handler);
        values.insert(replay_name, untimed.get(replay_name) / n as f64 / 1e3);
        if values[handlers_self] < -OVERRUN_TOLERANCE * handler {
            eprintln!(
                "{kind}: the in-process parts take {inside:.1} us per request, the server's whole handler {handler:.1} us; more than the {OVERRUN_TOLERANCE} tolerance over"
            );
            reconciled = false;
        }
    }
    let searches = acc.searches.max(1) as f64;
    let candidates = acc.get("database.candidates");
    let op_mean = |op: &str| acc.ops.get(op).map_or(0.0, |&(n, ns)| ns / n as f64 / 1e3);
    let summary = [
        "search.e2e_p50_us",
        "search.handler_us",
        "search.replay_us",
        "write.e2e_p50_us",
        "write.handler_us",
        "write.replay_us",
    ];
    let mut metrics: Vec<Metric> = SEARCH_PARTS
        .iter()
        .chain(&WRITE_PARTS)
        .chain(&summary)
        .map(|&name| metric(name, values.get(name).copied().unwrap_or(0.0), "us"))
        .collect();
    metrics.extend([
        metric(
            "replica.scatter_us",
            acc.get("replica.scatter_us") / searches / 1e3,
            "us",
        ),
        metric(
            "database.scan_us",
            acc.get("database.scan_us") / searches / 1e3,
            "us",
        ),
        metric(
            "replica.scatter_efficiency",
            acc.get("database.scan_us") / acc.get("scatter.capacity_ns").max(1.0),
            "ratio",
        ),
        metric("database.candidates", candidates / searches, "count"),
        metric(
            "database.scored",
            acc.get("database.scored") / searches,
            "count",
        ),
        metric(
            "database.bound_pruned",
            acc.get("database.bound_pruned") / searches,
            "count",
        ),
        metric(
            "database.scored_ratio",
            acc.get("database.scored") / candidates.max(1.0),
            "ratio",
        ),
        metric("replica.insert_us", op_mean("replica.insert_us"), "us"),
        metric("replica.remove_us", op_mean("replica.remove_us"), "us"),
        metric("replica.edit_us", op_mean("replica.edit_us"), "us"),
        metric(
            "wal.fsyncs_per_write",
            acc.get("wal.fsyncs") / acc.writes.max(1) as f64,
            "count",
        ),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric("trace.requests", acc.requests as f64, "count"),
    ]);
    (metrics, reconciled)
}
