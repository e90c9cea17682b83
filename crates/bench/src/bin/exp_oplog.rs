//! E14 — operation-log economics: what the per-shard op log buys and
//! what the write-ahead log costs.
//!
//! Three measurements over the same corpus:
//!
//! 1. **Catch-up: replay vs clone.** A replica is failed, the leader
//!    absorbs a gap of writes, and the replica is rebuilt. When the gap
//!    fits the op-log window the rebuild replays just the missed ops;
//!    when the window has wrapped it falls back to a full clone. The
//!    experiment times both paths on identical state and reports the
//!    ratio — the incremental catch-up the log exists for.
//! 2. **WAL durability cost.** Insert throughput with the WAL off,
//!    fsyncing every record (`fsync_every=1`, the crash-durable
//!    setting), and fsyncing in batches (`fsync_every=64`). This is
//!    the price list for the durability trade-off documented in the
//!    README.
//! 3. **Ack latency by replication mode.** Per-insert latency at
//!    R=3 under sync (ack = every healthy replica) vs async (ack =
//!    leader; followers drain off the write path).
//!
//! Writes `BENCH_oplog.json`:
//!
//! ```json
//! {"benchmark":"oplog","catchup":{"replay_ms":...,"clone_ms":...,
//!  "replay_speedup":...},"wal":[{"config":"off","inserts_per_s":...}],
//!  "ack":[{"mode":"sync","p50_us":...,"p95_us":...}]}
//! ```

use be2d_bench::standard_config;
use be2d_db::{ReplicaConfig, ReplicatedImageDatabase, ReplicationMode, WalConfig};
use be2d_workload::metrics::percentile;
use be2d_workload::{Corpus, CorpusConfig, SceneConfig};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Config {
    /// Corpus prefilled before each measurement.
    images: usize,
    /// Writes absorbed while the replica is down (the catch-up gap).
    gap: usize,
    /// Inserts per WAL / ack measurement.
    writes: usize,
    out: String,
}

impl Config {
    fn full() -> Config {
        // The corpus dwarfs the gap on purpose: incremental catch-up
        // exists for the regime where re-cloning the whole replica
        // costs far more than replaying the handful of missed ops.
        Config {
            images: 2000,
            gap: 100,
            writes: 400,
            out: "BENCH_oplog.json".into(),
        }
    }

    /// CI-sized preset: same shape, a fraction of the wall clock.
    fn small() -> Config {
        Config {
            images: 600,
            gap: 40,
            writes: 150,
            ..Config::full()
        }
    }
}

fn usage() -> &'static str {
    "exp_oplog — price the op log: catch-up replay vs clone, WAL fsync cost, ack latency by mode\n\
     \n\
     options:\n\
       --preset small|full  workload size (default full; CI uses small)\n\
       --images N           corpus prefilled before each measurement\n\
       --gap N              writes absorbed while the replica is down\n\
       --writes N           inserts per WAL / ack-latency measurement\n\
       --out PATH           JSON report path (default BENCH_oplog.json)\n\
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
    for (flag, value) in overrides {
        let parsed = value.parse::<usize>();
        match flag.as_str() {
            "--images" => config.images = parsed.map_err(|_| "--images must be a number")?,
            "--gap" => config.gap = parsed.map_err(|_| "--gap must be a number")?,
            "--writes" => config.writes = parsed.map_err(|_| "--writes must be a number")?,
            "--out" => config.out = value,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if config.gap == 0 || config.writes == 0 || config.images == 0 {
        return Err("--images, --gap and --writes must be at least 1".into());
    }
    Ok(config)
}

fn corpus(config: &Config) -> Corpus {
    Corpus::generate(
        &CorpusConfig {
            images: config.images,
            scene: SceneConfig {
                objects: 8,
                ..standard_config(8)
            },
        },
        7,
    )
}

fn open(
    mode: ReplicationMode,
    oplog_window: usize,
    wal: Option<WalConfig>,
) -> ReplicatedImageDatabase {
    ReplicatedImageDatabase::with_config(ReplicaConfig {
        shards: 1,
        replicas: 2,
        mode,
        oplog_window,
        wal,
    })
    .expect("topology opens")
}

fn prefill(db: &ReplicatedImageDatabase, corpus: &Corpus) {
    for (id, scene) in corpus.iter() {
        db.insert_scene(&id.to_string(), scene).expect("prefill");
    }
}

/// Fails replica 1, absorbs `gap` writes, times the rebuild. With
/// `oplog_window` ≥ gap the rebuild replays; with a window the gap has
/// wrapped it clones.
fn time_catchup(config: &Config, corpus: &Corpus, oplog_window: usize) -> (f64, u64, u64) {
    let db = open(ReplicationMode::Sync, oplog_window, None);
    prefill(&db, corpus);
    db.fail_replica(0, 1).expect("fail replica");
    let scenes: Vec<_> = corpus.iter().map(|(_, scene)| scene).collect();
    for i in 0..config.gap {
        db.insert_scene(&format!("gap-{i}"), scenes[i % scenes.len()])
            .expect("gap insert");
    }
    let t0 = Instant::now();
    db.rebuild_replica(0, 1).expect("rebuild");
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = db.replication_stats();
    (elapsed_ms, stats.catchup_replays, stats.catchup_clones)
}

/// Insert throughput under one WAL configuration.
#[allow(clippy::cast_precision_loss)]
fn time_wal(config: &Config, corpus: &Corpus, wal: Option<WalConfig>) -> f64 {
    let db = open(ReplicationMode::Sync, 1024, wal);
    let scenes: Vec<_> = corpus.iter().map(|(_, scene)| scene).collect();
    let t0 = Instant::now();
    for i in 0..config.writes {
        db.insert_scene(&format!("w-{i}"), scenes[i % scenes.len()])
            .expect("insert");
    }
    config.writes as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Per-insert ack latency (µs percentiles) at R=3 under `mode`.
fn time_ack(config: &Config, corpus: &Corpus, mode: ReplicationMode) -> (f64, f64) {
    let db = ReplicatedImageDatabase::with_config(ReplicaConfig {
        shards: 1,
        replicas: 3,
        mode,
        oplog_window: 4096,
        wal: None,
    })
    .expect("topology opens");
    let scenes: Vec<_> = corpus.iter().map(|(_, scene)| scene).collect();
    let mut latencies = Vec::with_capacity(config.writes);
    for i in 0..config.writes {
        let t0 = Instant::now();
        db.insert_scene(&format!("a-{i}"), scenes[i % scenes.len()])
            .expect("insert");
        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    db.flush_replication();
    latencies.sort_by(f64::total_cmp);
    (percentile(&latencies, 50.0), percentile(&latencies, 95.0))
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

    println!("=== E14: op-log economics (catch-up, WAL cost, ack latency) ===\n");
    println!(
        "corpus {} images, catch-up gap {}, {} writes per measurement\n",
        config.images, config.gap, config.writes
    );
    let corpus = corpus(&config);

    // 1. Catch-up: a window that holds the gap vs one it has wrapped.
    let (replay_ms, replays, clones) = time_catchup(&config, &corpus, config.gap * 4);
    assert!(
        replays >= 1 && clones == 0,
        "gap within window must replay (replays={replays}, clones={clones})"
    );
    let (clone_ms, replays2, clones2) = time_catchup(&config, &corpus, (config.gap / 8).max(2));
    assert!(
        clones2 >= 1 && replays2 == 0,
        "wrapped window must clone (replays={replays2}, clones={clones2})"
    );
    let replay_speedup = if replay_ms > 0.0 {
        clone_ms / replay_ms
    } else {
        0.0
    };
    println!(
        "catch-up over a {}-write gap: replay {replay_ms:.2}ms vs clone {clone_ms:.2}ms ({replay_speedup:.1}x)",
        config.gap
    );

    // 2. WAL durability price list.
    let wal_dir = std::env::temp_dir().join(format!("be2d_exp_oplog_{}", std::process::id()));
    let wal_at = |tag: &str, fsync_every: u64| WalConfig {
        dir: wal_dir.join(tag),
        fsync_every,
    };
    let wal_points = [
        ("off", time_wal(&config, &corpus, None)),
        (
            "fsync-every-1",
            time_wal(&config, &corpus, Some(wal_at("f1", 1))),
        ),
        (
            "fsync-every-64",
            time_wal(&config, &corpus, Some(wal_at("f64", 64))),
        ),
    ];
    println!("\nWAL insert throughput:");
    for (tag, per_s) in &wal_points {
        println!("  {tag:>15}: {per_s:>10.1} inserts/s");
    }
    std::fs::remove_dir_all(&wal_dir).ok();

    // 3. Ack latency by mode at R=3.
    let ack_points = [
        ("sync", time_ack(&config, &corpus, ReplicationMode::Sync)),
        (
            "quorum",
            time_ack(&config, &corpus, ReplicationMode::Quorum),
        ),
        (
            "async",
            time_ack(&config, &corpus, ReplicationMode::Async { max_lag: 1024 }),
        ),
    ];
    println!("\nack latency at R=3:");
    for (mode, (p50, p95)) in &ack_points {
        println!("  {mode:>7}: p50 {p50:>8.1}us  p95 {p95:>8.1}us");
    }

    let wal_rows: Vec<String> = wal_points
        .iter()
        .map(|(tag, per_s)| format!(r#"{{"config":{tag:?},"inserts_per_s":{per_s:.3}}}"#))
        .collect();
    let ack_rows: Vec<String> = ack_points
        .iter()
        .map(|(mode, (p50, p95))| {
            format!(r#"{{"mode":{mode:?},"p50_us":{p50:.3},"p95_us":{p95:.3}}}"#)
        })
        .collect();
    let json = format!(
        r#"{{"benchmark":"oplog","images":{},"gap":{},"writes":{},"catchup":{{"replay_ms":{:.4},"clone_ms":{:.4},"replay_speedup":{:.4}}},"wal":[{}],"ack":[{}]}}"#,
        config.images,
        config.gap,
        config.writes,
        replay_ms,
        clone_ms,
        replay_speedup,
        wal_rows.join(","),
        ack_rows.join(",")
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
