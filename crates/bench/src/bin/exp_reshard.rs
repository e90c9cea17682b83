//! E13 — online reshard impact: serving latency before, during and
//! after a live 4 → 8 shard migration, swept over reshard batch sizes.
//!
//! Each sweep point loads the same corpus into a fresh
//! [`ReplicatedImageDatabase`], keeps `readers` search threads and one
//! paced writer running, measures a *before* window, runs
//! [`Resharder`] to the target shard count (collecting the *during*
//! latencies and the migration wall clock), then measures an *after*
//! window. Larger batches finish the migration in fewer
//! stop-the-world steps but hold every lock longer per step — the p99
//! column is where that trade shows up.
//!
//! Writes `BENCH_reshard.json`:
//!
//! ```json
//! {"benchmark":"reshard","from":4,"to":8,"images":1200,"host_threads":4,
//!  "sweep":[{"batch":16,"reshard_ms":...,"moved":...,"batches":...,
//!            "before":{"p50_ms":...},"during":{...},"after":{...}}, ...]}
//! ```

use be2d_bench::standard_config;
use be2d_core::convert_scene;
use be2d_db::{QueryOptions, ReplicatedImageDatabase, Resharder};
use be2d_workload::metrics::percentile;
use be2d_workload::{derive_queries, Corpus, CorpusConfig, QueryKind, SceneConfig};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Config {
    images: usize,
    from: usize,
    to: usize,
    replicas: usize,
    readers: usize,
    window: Duration,
    write_pause: Duration,
    batches: Vec<usize>,
    out: String,
}

impl Config {
    fn full() -> Config {
        Config {
            images: 1200,
            from: 4,
            to: 8,
            replicas: 2,
            readers: host_threads().min(4),
            window: Duration::from_millis(800),
            write_pause: Duration::from_millis(1),
            batches: vec![16, 128, 1024],
            out: "BENCH_reshard.json".into(),
        }
    }

    /// CI-sized preset: same shape, a fraction of the wall clock.
    fn small() -> Config {
        Config {
            images: 500,
            window: Duration::from_millis(400),
            batches: vec![16, 256],
            ..Config::full()
        }
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

fn usage() -> &'static str {
    "exp_reshard — serving latency across a live shard migration, per batch size\n\
     \n\
     options:\n\
       --preset small|full  workload size (default full; CI uses small)\n\
       --images N           corpus size per sweep point\n\
       --from N             shard count before the migration (default 4)\n\
       --to N               shard count after the migration (default 8)\n\
       --replicas R         replicas per shard (default 2)\n\
       --readers N          searcher threads (default min(4, host threads))\n\
       --window-ms D        before/after measurement window (default 800)\n\
       --out PATH           JSON report path (default BENCH_reshard.json)\n\
       --help               this text\n"
}

fn parse_args(args: &[String]) -> Result<Config, String> {
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
    let number = |value: &str, flag: &str| -> Result<usize, String> {
        value
            .parse()
            .map_err(|_| format!("{flag} must be a number"))
    };
    for (flag, value) in overrides {
        match flag.as_str() {
            "--images" => config.images = number(&value, "--images")?,
            "--from" => config.from = number(&value, "--from")?.max(1),
            "--to" => config.to = number(&value, "--to")?.max(1),
            "--replicas" => config.replicas = number(&value, "--replicas")?.max(1),
            "--readers" => config.readers = number(&value, "--readers")?,
            "--window-ms" => {
                config.window = Duration::from_millis(number(&value, "--window-ms")? as u64);
            }
            "--out" => config.out = value,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if config.readers == 0 {
        return Err("--readers must be at least 1".into());
    }
    if config.from == config.to {
        return Err("--from and --to must differ (nothing to migrate)".into());
    }
    Ok(config)
}

/// Measurement phases, used to tag every search latency.
const BEFORE: usize = 0;
const DURING: usize = 1;
const AFTER: usize = 2;
const STOP: usize = 3;

struct PhaseLatencies {
    per_phase: [Vec<f64>; 3],
}

struct SweepPoint {
    batch: usize,
    reshard_ms: f64,
    moved: usize,
    migration_batches: u64,
    searches: [u64; 3],
    p50: [f64; 3],
    p95: [f64; 3],
    p99: [f64; 3],
}

#[allow(clippy::cast_precision_loss)]
fn run_point(config: &Config, corpus: &Corpus, batch: usize) -> SweepPoint {
    let db = ReplicatedImageDatabase::with_topology(config.from, config.replicas);
    for (id, scene) in corpus.iter() {
        db.insert_scene(&id.to_string(), scene)
            .expect("prefill insert");
    }
    let queries = derive_queries(corpus, &[QueryKind::DropObjects { keep: 4 }], 24, 13);
    let options = QueryOptions {
        top_k: Some(10),
        ..QueryOptions::default()
    };
    for query in queries.iter().take(4) {
        std::hint::black_box(
            db.search_traced(&convert_scene(&query.scene), &options)
                .expect("search")
                .0,
        );
    }

    let scenes: Vec<_> = corpus.iter().map(|(_, scene)| scene).collect();
    let phase = AtomicUsize::new(BEFORE);
    let (latencies, report) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..config.readers)
            .map(|reader| {
                let db = db.clone();
                let queries = &queries;
                let options = &options;
                let phase = &phase;
                scope.spawn(move || {
                    let mut out = PhaseLatencies {
                        per_phase: [Vec::new(), Vec::new(), Vec::new()],
                    };
                    let mut i = reader;
                    loop {
                        let tag = phase.load(Ordering::Relaxed);
                        if tag == STOP {
                            break;
                        }
                        let query = &queries[i % queries.len()];
                        let t0 = Instant::now();
                        std::hint::black_box(
                            db.search_traced(&convert_scene(&query.scene), options)
                                .expect("search")
                                .0,
                        );
                        out.per_phase[tag].push(t0.elapsed().as_secs_f64() * 1e3);
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        // One paced writer keeps the routing epoch under real mutation
        // pressure for the whole run.
        let writer = {
            let db = db.clone();
            let scenes = &scenes;
            let phase = &phase;
            let pause = config.write_pause;
            scope.spawn(move || {
                let mut i = 0usize;
                while phase.load(Ordering::Relaxed) != STOP {
                    let scene = scenes[i % scenes.len()];
                    let id = db.insert_scene(&format!("w{i}"), scene).expect("insert");
                    db.remove(id).expect("remove own insert");
                    i += 1;
                    std::thread::sleep(pause);
                }
            })
        };

        std::thread::sleep(config.window);
        phase.store(DURING, Ordering::Relaxed);
        let t0 = Instant::now();
        let report = Resharder::new(&db)
            .batch_ids(batch)
            .run(config.to)
            .expect("reshard");
        let reshard_ms = t0.elapsed().as_secs_f64() * 1e3;
        phase.store(AFTER, Ordering::Relaxed);
        std::thread::sleep(config.window);
        phase.store(STOP, Ordering::Relaxed);

        let mut merged = PhaseLatencies {
            per_phase: [Vec::new(), Vec::new(), Vec::new()],
        };
        for handle in readers {
            let out = handle.join().expect("reader panicked");
            for (into, from) in merged.per_phase.iter_mut().zip(out.per_phase) {
                into.extend(from);
            }
        }
        writer.join().expect("writer panicked");
        for lane in &mut merged.per_phase {
            lane.sort_by(f64::total_cmp);
        }
        (merged, (report, reshard_ms))
    });
    let (progress, reshard_ms) = report;
    assert_eq!(db.shard_count(), config.to, "migration finished");

    let stat = |lane: &[f64], p: f64| percentile(lane, p);
    SweepPoint {
        batch,
        reshard_ms,
        moved: progress.moved_records,
        migration_batches: progress.batches,
        searches: [
            latencies.per_phase[BEFORE].len() as u64,
            latencies.per_phase[DURING].len() as u64,
            latencies.per_phase[AFTER].len() as u64,
        ],
        p50: [
            stat(&latencies.per_phase[BEFORE], 50.0),
            stat(&latencies.per_phase[DURING], 50.0),
            stat(&latencies.per_phase[AFTER], 50.0),
        ],
        p95: [
            stat(&latencies.per_phase[BEFORE], 95.0),
            stat(&latencies.per_phase[DURING], 95.0),
            stat(&latencies.per_phase[AFTER], 95.0),
        ],
        p99: [
            stat(&latencies.per_phase[BEFORE], 99.0),
            stat(&latencies.per_phase[DURING], 99.0),
            stat(&latencies.per_phase[AFTER], 99.0),
        ],
    }
}

fn phase_json(point: &SweepPoint, phase: usize) -> String {
    format!(
        r#"{{"searches":{},"p50_ms":{:.4},"p95_ms":{:.4},"p99_ms":{:.4}}}"#,
        point.searches[phase], point.p50[phase], point.p95[phase], point.p99[phase]
    )
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

    println!("=== E13: online reshard impact (serving latency across a live migration) ===\n");
    println!(
        "corpus {} images, {} -> {} shards x {} replicas, {} readers, {:.1}s windows, host threads: {}\n",
        config.images,
        config.from,
        config.to,
        config.replicas,
        config.readers,
        config.window.as_secs_f64(),
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
        5,
    );

    println!(
        "{:>6}  {:>11}  {:>7}  {:>8}  {:>24}  {:>24}  {:>24}",
        "batch",
        "reshard ms",
        "moved",
        "batches",
        "before p50/p95/p99",
        "during p50/p95/p99",
        "after p50/p95/p99"
    );
    let mut sweep = Vec::new();
    for &batch in &config.batches {
        let point = run_point(&config, &corpus, batch);
        println!(
            "{:>6}  {:>11.1}  {:>7}  {:>8}  {:>8.2}/{:>6.2}/{:>6.2}  {:>8.2}/{:>6.2}/{:>6.2}  {:>8.2}/{:>6.2}/{:>6.2}",
            point.batch,
            point.reshard_ms,
            point.moved,
            point.migration_batches,
            point.p50[BEFORE],
            point.p95[BEFORE],
            point.p99[BEFORE],
            point.p50[DURING],
            point.p95[DURING],
            point.p99[DURING],
            point.p50[AFTER],
            point.p95[AFTER],
            point.p99[AFTER],
        );
        sweep.push(point);
    }

    let rows: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                r#"{{"batch":{},"reshard_ms":{:.3},"moved":{},"batches":{},"before":{},"during":{},"after":{}}}"#,
                p.batch,
                p.reshard_ms,
                p.moved,
                p.migration_batches,
                phase_json(p, BEFORE),
                phase_json(p, DURING),
                phase_json(p, AFTER),
            )
        })
        .collect();
    let json = format!(
        r#"{{"benchmark":"reshard","images":{},"from":{},"to":{},"replicas":{},"readers":{},"window_s":{:.3},"host_threads":{},"sweep":[{}]}}"#,
        config.images,
        config.from,
        config.to,
        config.replicas,
        config.readers,
        config.window.as_secs_f64(),
        host_threads(),
        rows.join(",")
    );
    let write = std::fs::File::create(&config.out).and_then(|mut f| f.write_all(json.as_bytes()));
    match write {
        Ok(()) => {
            println!("\nreport written to {}", config.out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", config.out);
            ExitCode::FAILURE
        }
    }
}
