//! E16 — planner economics: what the selectivity-ordered scatter,
//! per-shard candidate strategy, and least-outstanding replica picker
//! cost under hot-shard skew.
//!
//! The corpus is deliberately skewed: ids route to shards round-robin
//! (`id % shards`), and every record on the even ("hot") shards
//! carries the query classes `{C, R}` buried in six filler objects —
//! under the default Dice normalisation the clutter drags both the
//! admissible bound and the exact score far below the strong band
//! while making each exact evaluation expensive. The odd shards carry
//! `R` only on sparse near-copies of the canonical query layout
//! (shard 1 sparsest, just enough to fill top-k). An `AllClasses`
//! query over `{C, R}` therefore sees several expensive
//! low-selectivity shards full of weak candidates and cheap shards
//! full of strong ones. An unordered scatter burns a frontier batch of
//! exact scores on every hot shard before the racing threshold lands;
//! the planner sequences the cheapest k-filling shard first, so the
//! threshold precedes every hot shard and deletes that work entirely.
//!
//! The query battery runs on the sharded database:
//!
//! 1. **Equivalence.** Every ranking is asserted bit-identical
//!    (`f64::to_bits`) to a single `ImageDatabase` holding the same
//!    scenes before anything is timed.
//! 2. **Latency.** Per-query p50/p95, sequential and under concurrent
//!    reader pressure (where the least-outstanding picker spreads
//!    replicas).
//! 3. **Work.** Exactly-scored candidates, plus the planner's ordered
//!    scatters and dense scans.
//!
//! Writes `BENCH_planner.json` (the planner's figures sit under `v2`):
//!
//! ```json
//! {"benchmark":"planner","images":3000,"shards":6,
//!  "v2":{"p50_us":...,"p95_us":...,"concurrent_p95_us":...,"scored":...,
//!        "ordered_scatters":...,"dense_scans":...}}
//! ```

use be2d_bench::FRONTIER;
use be2d_core::convert_scene;
use be2d_db::{
    ImageDatabase, PrefilterMode, QueryOptions, ReplicaConfig, ReplicatedImageDatabase,
    ReplicationMode,
};
use be2d_geometry::{Scene, SceneBuilder};
use be2d_workload::metrics::percentile;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Config {
    /// Corpus size (ids route round-robin, so shard 0 owns 1/shards).
    images: usize,
    /// Queries in the battery.
    queries: usize,
    /// Shards (shard 0 is the engineered hot shard).
    shards: usize,
    /// Replicas per shard (the picker only matters beyond 1).
    replicas: usize,
    /// Concurrent readers in the contended phase.
    readers: usize,
    /// Wall-clock per concurrent phase.
    window: Duration,
    /// Result size per query (the threshold seed).
    top_k: usize,
    out: String,
}

impl Config {
    fn full() -> Config {
        Config {
            images: 3000,
            queries: 24,
            shards: 6,
            replicas: 2,
            readers: 4,
            window: Duration::from_millis(800),
            top_k: 10,
            out: "BENCH_planner.json".into(),
        }
    }

    /// CI-sized preset: same shape, a fraction of the wall clock.
    fn small() -> Config {
        Config {
            images: 900,
            queries: 12,
            window: Duration::from_millis(300),
            ..Config::full()
        }
    }
}

fn usage() -> &'static str {
    "exp_planner — price the planner: ordered scatter + per-shard strategy + replica picker under hot-shard skew\n\
     \n\
     options:\n\
       --preset small|full  workload size (default full; CI uses small)\n\
       --images N           corpus size\n\
       --queries N          queries in the battery\n\
       --shards N           shards (shard 0 is the hot shard)\n\
       --replicas N         replicas per shard\n\
       --readers N          concurrent readers in the contended phase\n\
       --top-k N            result size per query\n\
       --out PATH           JSON report path (default BENCH_planner.json)\n\
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
            "--queries" => config.queries = parsed.map_err(|_| "--queries must be a number")?,
            "--shards" => config.shards = parsed.map_err(|_| "--shards must be a number")?,
            "--replicas" => config.replicas = parsed.map_err(|_| "--replicas must be a number")?,
            "--readers" => config.readers = parsed.map_err(|_| "--readers must be a number")?,
            "--top-k" => config.top_k = parsed.map_err(|_| "--top-k must be a number")?,
            "--out" => config.out = value,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if config.images == 0 || config.queries == 0 || config.shards == 0 || config.replicas == 0 {
        return Err("--images, --queries, --shards and --replicas must be at least 1".into());
    }
    Ok(config)
}

/// Tiny deterministic LCG shared by every scene generator.
fn lcg(seed: u64) -> impl FnMut(i64) -> i64 {
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    move |modulus: i64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) as i64).rem_euclid(modulus)
    }
}

/// The canonical strong layout: three `C` objects and one `R`, each
/// jittered by a few pixels per instance so exact scores spread without
/// leaving the high band.
fn strong_scene(seed: u64) -> Scene {
    let mut next = lcg(seed);
    let mut jitter = [0i64; 16];
    for j in &mut jitter {
        *j = next(12) - 6;
    }
    let j = |k: usize| jitter[k];
    SceneBuilder::new(1024, 1024)
        .object("C", (100 + j(0), 180 + j(1), 100 + j(2), 170 + j(3)))
        .object("C", (300 + j(4), 390 + j(5), 140 + j(6), 210 + j(7)))
        .object("C", (520 + j(8), 610 + j(9), 120 + j(10), 190 + j(11)))
        .object("R", (330 + j(12), 368 + j(13), 150 + j(14), 196 + j(15)))
        .build()
        .expect("strong scene in frame")
}

/// A hot-shard record: it matches the query classes (so it is always a
/// candidate) but six filler objects bury them — under Dice
/// normalisation both the admissible bound and the exact score sit far
/// below the strong band, and every exact evaluation walks a long
/// BE-string.
fn hot_scene(seed: u64) -> Scene {
    let mut next = lcg(seed);
    let mut b = SceneBuilder::new(1024, 1024);
    for class in ["C", "R", "D", "F", "G", "H", "J", "K"] {
        let (x, y) = (next(880), next(880));
        b = b.object(class, (x, x + 40 + next(60), y, y + 30 + next(60)));
    }
    b.build().expect("hot scene in frame")
}

/// A cold-shard background record: common classes, no `R` — never a
/// candidate for the battery, but it keeps the `C` postings dense so
/// selectivity comes from `R` alone.
fn background_scene(seed: u64) -> Scene {
    let mut next = lcg(seed);
    let mut b = SceneBuilder::new(1024, 1024);
    for class in ["C", "D", "G"] {
        let (x, y) = (next(880), next(880));
        b = b.object(class, (x, x + 40 + next(60), y, y + 30 + next(60)));
    }
    b.build().expect("background scene in frame")
}

/// Scene for global id `i`: ids route round-robin (`id % shards`).
/// Even shards are hot — every record an expensive weak candidate, so
/// an unordered scatter burns a frontier batch of exact scores on each
/// before the threshold lands. Odd shards are cold: shard 1 carries a
/// strong near-match of the canonical layout on its first 13 slots
/// only (just enough to fill top-k whatever the corpus size — the
/// cheapest possible threshold seed), the other odd shards on every
/// 7th slot; the rest are background records.
fn skewed_scene(i: usize, shards: usize) -> Scene {
    let shard = i % shards;
    let slot = i / shards;
    let strong = if shard == 1 {
        slot < 13
    } else {
        slot.is_multiple_of(7)
    };
    if shards > 1 && shard.is_multiple_of(2) {
        hot_scene(i as u64)
    } else if strong {
        strong_scene(i as u64)
    } else {
        background_scene(i as u64)
    }
}

/// The battery: jittered instances of the canonical strong layout, so
/// strong records answer with high scores and the hot shard's weak
/// candidates sit below the threshold the sequenced first wave seeds.
fn queries(config: &Config) -> Vec<Scene> {
    (0..config.queries)
        .map(|q| strong_scene(0xbeef ^ (q as u64).wrapping_mul(0x9e37_79b9)))
        .collect()
}

/// The sharded database and a single `ImageDatabase` reference holding
/// the same scenes under the same ids.
fn build(config: &Config) -> (ReplicatedImageDatabase, ImageDatabase) {
    let db = ReplicatedImageDatabase::with_config(ReplicaConfig {
        shards: config.shards,
        replicas: config.replicas,
        mode: ReplicationMode::Sync,
        oplog_window: 1024,
        wal: None,
    })
    .expect("in-memory topology opens");
    let mut reference = ImageDatabase::new();
    for i in 0..config.images {
        let name = format!("img-{i}");
        let scene = skewed_scene(i, config.shards);
        let id = db.insert_scene(&name, &scene).expect("prefill insert");
        let ref_id = reference
            .insert_scene(&name, &scene)
            .expect("reference insert");
        assert_eq!(id, ref_id, "ids agree with the reference");
    }
    (db, reference)
}

#[derive(Debug, Default)]
struct PlannerResult {
    p50_us: f64,
    p95_us: f64,
    concurrent_p95_us: f64,
    scored: u64,
    ordered_scatters: u64,
    dense_scans: u64,
}

/// Sequential battery + contended phase.
fn measure(config: &Config, db: &ReplicatedImageDatabase, queries: &[Scene]) -> PlannerResult {
    let options = QueryOptions {
        prefilter: PrefilterMode::AllClasses,
        top_k: Some(config.top_k),
        ..QueryOptions::default()
    };

    for query in queries.iter().take(4) {
        std::hint::black_box(
            db.search_traced(&convert_scene(query), &options)
                .expect("warm-up")
                .0,
        );
    }

    let scored_before = db.metrics().stage2_scored.get();
    let mut latencies = Vec::new();
    for _ in 0..3 {
        for query in queries {
            let t0 = Instant::now();
            std::hint::black_box(
                db.search_traced(&convert_scene(query), &options)
                    .expect("search")
                    .0,
            );
            latencies.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    latencies.sort_by(f64::total_cmp);
    let scored = db.metrics().stage2_scored.get() - scored_before;

    // Contended phase: `readers` threads hammer the battery; the
    // picker's job is to keep replicas evenly loaded.
    let stop = AtomicBool::new(false);
    let concurrent = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.readers)
            .map(|reader| {
                let stop = &stop;
                let options = &options;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = reader;
                    while !stop.load(Ordering::Relaxed) {
                        let t0 = Instant::now();
                        std::hint::black_box(
                            db.search_traced(&convert_scene(&queries[i % queries.len()]), options)
                                .expect("concurrent search")
                                .0,
                        );
                        out.push(t0.elapsed().as_secs_f64() * 1e6);
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        std::thread::sleep(config.window);
        stop.store(true, Ordering::SeqCst);
        let mut all: Vec<f64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader joins"))
            .collect();
        all.sort_by(f64::total_cmp);
        all
    });

    PlannerResult {
        p50_us: percentile(&latencies, 50.0),
        p95_us: percentile(&latencies, 95.0),
        concurrent_p95_us: percentile(&concurrent, 95.0),
        scored,
        ordered_scatters: db.metrics().planner_ordered_scatters.get(),
        dense_scans: db.metrics().planner_dense_scans.get(),
    }
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
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

    println!("=== E16: planner under hot-shard skew ===\n");
    println!(
        "{} images over {} shards x {} replicas, {} queries, top-{} frontier {FRONTIER}\n",
        config.images, config.shards, config.replicas, config.queries, config.top_k,
    );

    let (db, reference) = build(&config);
    let battery = queries(&config);

    // Equivalence first: the optimisation must not exist observably.
    let options = QueryOptions {
        prefilter: PrefilterMode::AllClasses,
        top_k: Some(config.top_k),
        ..QueryOptions::default()
    };
    for (qi, query) in battery.iter().enumerate() {
        let expect = reference.search_scene(query, &options);
        let got = db
            .search_traced(&convert_scene(query), &options)
            .expect("sharded search")
            .0;
        assert_eq!(
            expect.len(),
            got.len(),
            "the planner changed result size (q{qi})"
        );
        for (a, b) in expect.iter().zip(&got) {
            assert!(
                a.id == b.id && a.score.to_bits() == b.score.to_bits(),
                "the planner broke bit-identity (q{qi})"
            );
        }
    }
    println!(
        "bit-identity: sharded == single ImageDatabase across {} queries\n",
        battery.len()
    );

    let r = measure(&config, &db, &battery);
    println!(
        "{:>10} {:>10} {:>14} {:>10}",
        "p50", "p95", "concurrent p95", "scored"
    );
    println!(
        "{:>8.1}us {:>8.1}us {:>12.1}us {:>10}",
        r.p50_us, r.p95_us, r.concurrent_p95_us, r.scored
    );
    println!(
        "plan: {} ordered scatters, {} dense scans",
        r.ordered_scatters, r.dense_scans
    );

    let json = format!(
        r#"{{"benchmark":"planner","images":{},"shards":{},"replicas":{},"queries":{},"readers":{},"top_k":{},"frontier":{FRONTIER},"v2":{{"p50_us":{:.3},"p95_us":{:.3},"concurrent_p95_us":{:.3},"scored":{},"ordered_scatters":{},"dense_scans":{}}}}}"#,
        config.images,
        config.shards,
        config.replicas,
        config.queries,
        config.readers,
        config.top_k,
        r.p50_us,
        r.p95_us,
        r.concurrent_p95_us,
        r.scored,
        r.ordered_scatters,
        r.dense_scans,
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
