//! E12 — replica-scaling sweep: read-dominant mixed throughput of the
//! [`ReplicatedImageDatabase`] across replica counts *and* replication
//! modes: sync at replicas ∈ {1, 2, 3}, then quorum and async at 3.
//!
//! Each configuration runs the same closed-loop workload over a fixed
//! shard count: `readers` threads issue ranked searches back-to-back
//! while `writers` threads continuously insert (and periodically
//! remove) records. With one replica every write gates that shard's
//! only copy; with R replicas the round-robin read picker lands `R-1`
//! of every shard's read traffic on copies the current write is not
//! holding, so read latency under write load flattens as replicas are
//! added — the read-scaling the replication layer exists for. Writes
//! get *more* expensive with R under sync fan-out, which is exactly
//! what the mode sweep prices: quorum acks at a majority and async at
//! the leader alone (followers drain off the write path), so their
//! `writes/s` at R=3 recovers (part of) the R=1 write cost.
//!
//! Writes `BENCH_replica_scaling.json`:
//!
//! ```json
//! {"benchmark":"replica_scaling","shards":2,"host_threads":4,
//!  "sweep":[{"replicas":1,"mode":"sync","throughput_qps":...}, ...],
//!  "speedup_3_vs_1":1.4,"async_write_speedup_vs_sync":1.3}
//! ```
//!
//! On a single-core host the sweep degenerates to ≈1× by construction;
//! the JSON records `host_threads` so downstream tooling can interpret
//! the numbers honestly.

use be2d_bench::standard_config;
use be2d_core::convert_scene;
use be2d_db::{QueryOptions, ReplicaConfig, ReplicatedImageDatabase, ReplicationMode};
use be2d_workload::metrics::percentile;
use be2d_workload::{derive_queries, Corpus, CorpusConfig, QueryKind, SceneConfig};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Config {
    images: usize,
    duration: Duration,
    shards: usize,
    readers: usize,
    writers: usize,
    /// Pause between one writer's insert+remove pairs: writes are a
    /// steady paced trickle (the serving shape), not an unthrottled
    /// flood that would starve the searches being measured.
    write_pause: Duration,
    out: String,
    points: Vec<(usize, ReplicationMode)>,
}

impl Config {
    fn full() -> Config {
        Config {
            images: 1200,
            duration: Duration::from_millis(2500),
            shards: 2,
            readers: host_threads().min(4),
            writers: 2,
            write_pause: Duration::from_millis(1),
            out: "BENCH_replica_scaling.json".into(),
            points: vec![
                (1, ReplicationMode::Sync),
                (2, ReplicationMode::Sync),
                (3, ReplicationMode::Sync),
                (3, ReplicationMode::Quorum),
                (3, ReplicationMode::Async { max_lag: 1024 }),
            ],
        }
    }

    /// CI-sized preset: same shape, a fraction of the wall clock.
    fn small() -> Config {
        Config {
            images: 500,
            duration: Duration::from_millis(1500),
            ..Config::full()
        }
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

fn usage() -> &'static str {
    "exp_replica_scaling — sweep ReplicatedImageDatabase over replicas {1,2,3}\n\
     \n\
     options:\n\
       --preset small|full  workload size (default full; CI uses small)\n\
       --images N           corpus size per configuration\n\
       --duration-ms D      timed window per configuration\n\
       --shards N           fixed shard count under the sweep (default 2)\n\
       --readers N          searcher threads (default min(4, host threads))\n\
       --writers N          insert/remove threads (default 2)\n\
       --out PATH           JSON report path (default BENCH_replica_scaling.json)\n\
       --help               this text\n"
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    // The preset picks the base configuration; every other flag is an
    // override applied afterwards, so flag order never matters.
    let mut overrides: Vec<(String, String)> = Vec::new();
    let mut config = Config::full();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flag == "--preset" {
            config = match value.as_str() {
                "small" => Config::small(),
                "full" => Config::full(),
                other => return Err(format!("unknown preset {other:?} (small | full)")),
            };
        } else {
            overrides.push((flag.clone(), value.clone()));
        }
    }
    for (flag, value) in overrides {
        match flag.as_str() {
            "--images" => {
                config.images = value
                    .parse()
                    .map_err(|_| "--images must be a number".to_owned())?;
            }
            "--duration-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| "--duration-ms must be a number".to_owned())?;
                config.duration = Duration::from_millis(ms);
            }
            "--shards" => {
                config.shards = value
                    .parse()
                    .map_err(|_| "--shards must be a number".to_owned())?;
            }
            "--readers" => {
                config.readers = value
                    .parse()
                    .map_err(|_| "--readers must be a number".to_owned())?;
            }
            "--writers" => {
                config.writers = value
                    .parse()
                    .map_err(|_| "--writers must be a number".to_owned())?;
            }
            "--out" => config.out = value,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if config.readers == 0 {
        return Err("--readers must be at least 1".into());
    }
    if config.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(config)
}

struct SweepPoint {
    replicas: usize,
    mode: &'static str,
    searches: u64,
    writes: u64,
    throughput_qps: f64,
    writes_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// One timed read-dominant run against a fresh database.
#[allow(clippy::cast_precision_loss)]
fn run_point(
    config: &Config,
    corpus: &Corpus,
    replicas: usize,
    mode: ReplicationMode,
) -> SweepPoint {
    let db = ReplicatedImageDatabase::with_config(ReplicaConfig {
        shards: config.shards,
        replicas,
        mode,
        oplog_window: 4096,
        wal: None,
    })
    .expect("in-memory topology always opens");
    for (id, scene) in corpus.iter() {
        db.insert_scene(&id.to_string(), scene)
            .expect("prefill insert");
    }
    let queries = derive_queries(corpus, &[QueryKind::DropObjects { keep: 4 }], 24, 11);
    // Per-shard scoring stays serial: the only parallelism under test is
    // reader concurrency across replicas plus the cross-shard scatter.
    let options = QueryOptions {
        top_k: Some(10),
        ..QueryOptions::default()
    };

    // Warm-up outside the timed window.
    for query in queries.iter().take(4) {
        std::hint::black_box(
            db.search_traced(&convert_scene(&query.scene), &options)
                .expect("search")
                .0,
        );
    }

    let scenes: Vec<_> = corpus.iter().map(|(_, scene)| scene).collect();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (latencies, writes) = std::thread::scope(|scope| {
        let reader_handles: Vec<_> = (0..config.readers)
            .map(|reader| {
                let db = db.clone();
                let queries = &queries;
                let options = &options;
                let stop = &stop;
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut i = reader;
                    while !stop.load(Ordering::Relaxed) {
                        let query = &queries[i % queries.len()];
                        let t0 = Instant::now();
                        std::hint::black_box(
                            db.search_traced(&convert_scene(&query.scene), options)
                                .expect("search")
                                .0,
                        );
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        i += 1;
                    }
                    latencies
                })
            })
            .collect();
        let writer_handles: Vec<_> = (0..config.writers)
            .map(|writer| {
                let db = db.clone();
                let scenes = &scenes;
                let stop = &stop;
                scope.spawn(move || {
                    let mut writes = 0u64;
                    let mut i = writer;
                    while !stop.load(Ordering::Relaxed) {
                        // Insert + remove keeps the database size stable,
                        // so every sweep point searches the same corpus.
                        let scene = scenes[i % scenes.len()];
                        let id = db
                            .insert_scene(&format!("w{writer}-{i}"), scene)
                            .expect("insert");
                        db.remove(id).expect("remove own insert");
                        writes += 2;
                        i += 1;
                        std::thread::sleep(config.write_pause);
                    }
                    writes
                })
            })
            .collect();

        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);

        let mut latencies: Vec<f64> = reader_handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect();
        latencies.sort_by(f64::total_cmp);
        let writes: u64 = writer_handles
            .into_iter()
            .map(|h| h.join().expect("writer panicked"))
            .sum();
        (latencies, writes)
    });
    // Async acks at the leader: drain the followers before calling the
    // run done, so the timed window never hides unfinished work beyond
    // its own boundary.
    db.flush_replication();
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);

    SweepPoint {
        replicas,
        mode: mode.name(),
        searches: latencies.len() as u64,
        writes,
        throughput_qps: latencies.len() as f64 / elapsed,
        writes_per_s: writes as f64 / elapsed,
        p50_ms: percentile(&latencies, 50.0),
        p95_ms: percentile(&latencies, 95.0),
        p99_ms: percentile(&latencies, 99.0),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) if message.is_empty() => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    println!("=== E12: replica scaling (read fan-out vs write fan-out) ===\n");
    println!(
        "corpus {} images over {} shards, {} readers + {} writers, {:.1}s per point, host threads: {}\n",
        config.images,
        config.shards,
        config.readers,
        config.writers,
        config.duration.as_secs_f64(),
        host_threads()
    );

    let corpus = Corpus::generate(
        &CorpusConfig {
            images: config.images,
            scene: SceneConfig {
                objects: 8,
                ..standard_config(8)
            },
        },
        3,
    );

    println!(
        "{:>8}  {:>7}  {:>10}  {:>12}  {:>9}  {:>9}  {:>9}  {:>10}",
        "replicas", "mode", "searches", "queries/s", "p50 ms", "p95 ms", "p99 ms", "writes/s"
    );
    let mut sweep = Vec::new();
    for &(replicas, mode) in &config.points {
        let point = run_point(&config, &corpus, replicas, mode);
        println!(
            "{:>8}  {:>7}  {:>10}  {:>12.1}  {:>9.2}  {:>9.2}  {:>9.2}  {:>10.1}",
            point.replicas,
            point.mode,
            point.searches,
            point.throughput_qps,
            point.p50_ms,
            point.p95_ms,
            point.p99_ms,
            point.writes_per_s
        );
        sweep.push(point);
    }

    let sync_at = |replicas: usize| {
        sweep
            .iter()
            .find(|p| p.replicas == replicas && p.mode == "sync")
    };
    let mode_at_3 = |mode: &str| sweep.iter().find(|p| p.replicas == 3 && p.mode == mode);
    let speedup = match (sync_at(1), sync_at(3)) {
        (Some(one), Some(three)) if one.throughput_qps > 0.0 => {
            three.throughput_qps / one.throughput_qps
        }
        _ => 0.0,
    };
    let write_speedup = |mode: &str| match (sync_at(3), mode_at_3(mode)) {
        (Some(sync), Some(point)) if sync.writes_per_s > 0.0 => {
            point.writes_per_s / sync.writes_per_s
        }
        _ => 0.0,
    };
    let quorum_write_speedup = write_speedup("quorum");
    let async_write_speedup = write_speedup("async");
    println!("\n3-replica vs 1-replica query throughput (sync): {speedup:.2}x");
    println!(
        "R=3 write throughput vs sync: quorum {quorum_write_speedup:.2}x, async {async_write_speedup:.2}x"
    );
    if host_threads() == 1 {
        println!("(single-core host: replica fan-out cannot beat serial work here; run on a multi-core host for the real scaling curve)");
    }

    let rows: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                r#"{{"replicas":{},"mode":{:?},"searches":{},"writes":{},"throughput_qps":{:.3},"writes_per_s":{:.3},"p50_ms":{:.4},"p95_ms":{:.4},"p99_ms":{:.4}}}"#,
                p.replicas,
                p.mode,
                p.searches,
                p.writes,
                p.throughput_qps,
                p.writes_per_s,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms
            )
        })
        .collect();
    let json = format!(
        r#"{{"benchmark":"replica_scaling","images":{},"shards":{},"readers":{},"writers":{},"duration_s":{:.3},"host_threads":{},"speedup_3_vs_1":{:.4},"quorum_write_speedup_vs_sync":{:.4},"async_write_speedup_vs_sync":{:.4},"sweep":[{}]}}"#,
        config.images,
        config.shards,
        config.readers,
        config.writers,
        config.duration.as_secs_f64(),
        host_threads(),
        speedup,
        quorum_write_speedup,
        async_write_speedup,
        rows.join(",")
    );
    let write = std::fs::File::create(&config.out).and_then(|mut f| f.write_all(json.as_bytes()));
    match write {
        Ok(()) => {
            println!("report written to {}", config.out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", config.out);
            ExitCode::FAILURE
        }
    }
}
