//! E11 — shard-scaling sweep: mixed reader/writer throughput of an
//! unreplicated sharded database
//! ([`ReplicatedImageDatabase::with_topology(n, 1)`](ReplicatedImageDatabase::with_topology))
//! at shards ∈ {1, 2, 4, 8}. Writes pay the op-log append of the
//! serving write path.
//!
//! Each configuration runs the same closed-loop workload: `readers`
//! threads issue ranked searches back-to-back while `writers` threads
//! continuously insert (and periodically remove) records. With one
//! shard every write briefly gates the single reader-writer lock; with
//! N shards a write gates only `1/N` of each query's work, so mixed
//! throughput scales until the host runs out of cores.
//!
//! Writes `BENCH_shard_scaling.json`:
//!
//! ```json
//! {"benchmark":"shard_scaling","host_threads":4,
//!  "sweep":[{"shards":1,"throughput_qps":...,"p50_ms":...}, ...],
//!  "speedup_4_vs_1":1.9}
//! ```
//!
//! On a single-core host the sweep degenerates to ≈1× by construction
//! (parallel scatter cannot beat serial work on one core); the JSON
//! records `host_threads` so downstream tooling can interpret the
//! numbers honestly.

use be2d_bench::standard_config;
use be2d_core::convert_scene;
use be2d_db::{QueryOptions, ReplicatedImageDatabase};
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
    readers: usize,
    writers: usize,
    /// Pause between one writer's insert+remove pairs: writes are a
    /// steady paced trickle (the serving shape), not an unthrottled
    /// flood that would starve the searches being measured.
    write_pause: Duration,
    out: String,
    shard_counts: Vec<usize>,
}

impl Config {
    fn full() -> Config {
        Config {
            images: 1500,
            duration: Duration::from_millis(2500),
            readers: host_threads().min(4),
            writers: 2,
            write_pause: Duration::from_millis(2),
            out: "BENCH_shard_scaling.json".into(),
            shard_counts: vec![1, 2, 4, 8],
        }
    }

    /// CI-sized preset: same shape, a fraction of the wall clock.
    fn small() -> Config {
        Config {
            images: 600,
            duration: Duration::from_millis(1500),
            ..Config::full()
        }
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

fn usage() -> &'static str {
    "exp_shard_scaling — sweep an unreplicated sharded database over shards {1,2,4,8}\n\
     \n\
     options:\n\
       --preset small|full  workload size (default full; CI uses small)\n\
       --images N           corpus size per configuration\n\
       --duration-ms D      timed window per configuration\n\
       --readers N          searcher threads (default min(4, host threads))\n\
       --writers N          insert/remove threads (default 2)\n\
       --out PATH           JSON report path (default BENCH_shard_scaling.json)\n\
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
    Ok(config)
}

struct SweepPoint {
    shards: usize,
    searches: u64,
    writes: u64,
    throughput_qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// One timed mixed-workload run against a fresh database.
#[allow(clippy::cast_precision_loss)]
fn run_point(config: &Config, corpus: &Corpus, shards: usize) -> SweepPoint {
    let db = ReplicatedImageDatabase::with_topology(shards, 1);
    for (id, scene) in corpus.iter() {
        db.insert_scene(&id.to_string(), scene)
            .expect("prefill insert");
    }
    let queries = derive_queries(corpus, &[QueryKind::DropObjects { keep: 4 }], 24, 11);
    // Per-shard scoring stays serial: the only parallelism under test is
    // reader concurrency plus the cross-shard scatter itself.
    let options = QueryOptions {
        top_k: Some(10),
        ..QueryOptions::default()
    };

    // Warm-up outside the timed window.
    for query in queries.iter().take(4) {
        std::hint::black_box(db.search_traced(&convert_scene(&query.scene), &options))
            .expect("warm-up search");
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
                            db.search_traced(&convert_scene(&query.scene), options),
                        )
                        .expect("search");
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
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);

    SweepPoint {
        shards,
        searches: latencies.len() as u64,
        writes,
        throughput_qps: latencies.len() as f64 / elapsed,
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

    println!("=== E11: shard scaling (scatter-gather vs single lock) ===\n");
    println!(
        "corpus {} images, {} readers + {} writers, {:.1}s per point, host threads: {}\n",
        config.images,
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
        "{:>7}  {:>10}  {:>12}  {:>9}  {:>9}  {:>9}  {:>9}",
        "shards", "searches", "queries/s", "p50 ms", "p95 ms", "p99 ms", "writes"
    );
    let mut sweep = Vec::new();
    for &shards in &config.shard_counts {
        let point = run_point(&config, &corpus, shards);
        println!(
            "{:>7}  {:>10}  {:>12.1}  {:>9.2}  {:>9.2}  {:>9.2}  {:>9}",
            point.shards,
            point.searches,
            point.throughput_qps,
            point.p50_ms,
            point.p95_ms,
            point.p99_ms,
            point.writes
        );
        sweep.push(point);
    }

    let qps_at = |shards: usize| {
        sweep
            .iter()
            .find(|p| p.shards == shards)
            .map_or(0.0, |p| p.throughput_qps)
    };
    let speedup = if qps_at(1) > 0.0 {
        qps_at(4) / qps_at(1)
    } else {
        0.0
    };
    println!("\n4-shard vs 1-shard query throughput: {speedup:.2}x");
    if host_threads() == 1 {
        println!("(single-core host: scatter-gather cannot beat serial work here; run on a multi-core host for the real scaling curve)");
    }

    let rows: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                r#"{{"shards":{},"searches":{},"writes":{},"throughput_qps":{:.3},"p50_ms":{:.4},"p95_ms":{:.4},"p99_ms":{:.4}}}"#,
                p.shards, p.searches, p.writes, p.throughput_qps, p.p50_ms, p.p95_ms, p.p99_ms
            )
        })
        .collect();
    let json = format!(
        r#"{{"benchmark":"shard_scaling","images":{},"readers":{},"writers":{},"duration_s":{:.3},"host_threads":{},"speedup_4_vs_1":{:.4},"sweep":[{}]}}"#,
        config.images,
        config.readers,
        config.writers,
        config.duration.as_secs_f64(),
        host_threads(),
        speedup,
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
