//! E15 — bounded retrieval economics: what the admissible score bound
//! buys at stage 1 and what the exact §3 re-rank still costs.
//!
//! Over a seeded corpus, a battery of corpus-derived queries runs twice
//! at each corpus size through `ImageDatabase::search_bounded` —
//! exhaustive (no threshold: every candidate exactly scored) and
//! staged (a fresh `ScoreThreshold`: candidates ranked by the
//! admissible [`ScoreBound`], exactly scored in batches of the
//! database's fixed frontier, early exit once the k-th exact score
//! dominates every remaining bound). The experiment reports, per corpus
//! size:
//!
//! 1. **Exact-scoring reduction.** `SearchStats` totals: candidates,
//!    exactly-scored survivors, and bound-pruned candidates, plus the
//!    scored fraction — the work stage 1 deleted.
//! 2. **Latency.** Per-query p50/p95 for both modes and the speedup.
//! 3. **Equivalence.** Every staged ranking is asserted bit-identical
//!    (`f64::to_bits`) to its exhaustive twin before being counted —
//!    a benchmark run that breaks admissibility fails loudly.
//!
//! Writes `BENCH_twostage.json`:
//!
//! ```json
//! {"benchmark":"twostage","frontier":64,"top_k":10,"sweep":[
//!  {"images":500,"candidates":...,"scored":...,"bound_pruned":...,
//!   "scored_fraction":...,"exhaustive_p50_us":...,"staged_p50_us":...,
//!   "speedup_p50":...}]}
//! ```
//!
//! [`ScoreBound`]: be2d_db::ScoreBound

use be2d_bench::{standard_config, FRONTIER};
use be2d_db::{ImageDatabase, QueryOptions, ScoreThreshold, SearchStats};
use be2d_workload::metrics::percentile;
use be2d_workload::{Corpus, CorpusConfig, SceneConfig};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Config {
    /// Largest corpus in the sweep (smaller points are fractions of it).
    images: usize,
    /// Queries per corpus size (drawn evenly from the corpus).
    queries: usize,
    /// Result size requested per query.
    top_k: usize,
    out: String,
}

impl Config {
    fn full() -> Config {
        Config {
            images: 2000,
            queries: 24,
            top_k: 10,
            out: "BENCH_twostage.json".into(),
        }
    }

    /// CI-sized preset: same shape, a fraction of the wall clock.
    fn small() -> Config {
        Config {
            images: 600,
            queries: 12,
            ..Config::full()
        }
    }
}

fn usage() -> &'static str {
    "exp_twostage — price bounded retrieval: exact-scoring reduction and latency vs corpus size\n\
     \n\
     options:\n\
       --preset small|full  workload size (default full; CI uses small)\n\
       --images N           largest corpus in the sweep\n\
       --queries N          queries per corpus size\n\
       --top-k N            result size requested per query\n\
       --out PATH           JSON report path (default BENCH_twostage.json)\n\
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
            "--top-k" => config.top_k = parsed.map_err(|_| "--top-k must be a number")?,
            "--out" => config.out = value,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if config.images == 0 || config.queries == 0 {
        return Err("--images and --queries must be at least 1".into());
    }
    Ok(config)
}

#[derive(Debug, Default)]
struct ModeTotals {
    stats: SearchStats,
    latencies_us: Vec<f64>,
}

/// One corpus-size measurement: both modes over the query battery, with
/// every staged ranking asserted bit-identical to its exhaustive twin.
fn measure(config: &Config, corpus: &Corpus, images: usize) -> (ModeTotals, ModeTotals) {
    let mut db = ImageDatabase::new();
    let mut queries = Vec::new();
    for (i, (id, scene)) in corpus.iter().enumerate().take(images) {
        db.insert_scene(&id.to_string(), scene).expect("insert");
        if queries.len() < config.queries && i % images.div_ceil(config.queries) == 0 {
            queries.push(be2d_core::SymbolicImage::from_scene(scene).to_be_string_2d());
        }
    }
    let options = QueryOptions {
        top_k: Some(config.top_k),
        ..QueryOptions::default()
    };

    let mut exhaustive = ModeTotals::default();
    let mut staged = ModeTotals::default();
    for query in &queries {
        let t0 = Instant::now();
        let (expect, stats) = db.search_bounded(query, &options, None);
        exhaustive
            .latencies_us
            .push(t0.elapsed().as_secs_f64() * 1e6);
        exhaustive.stats.candidates += stats.candidates;
        exhaustive.stats.scored += stats.scored;
        exhaustive.stats.bound_pruned += stats.bound_pruned;

        let t0 = Instant::now();
        let (hits, stats) = db.search_bounded(query, &options, Some(&ScoreThreshold::new()));
        staged.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        staged.stats.candidates += stats.candidates;
        staged.stats.scored += stats.scored;
        staged.stats.bound_pruned += stats.bound_pruned;

        assert_eq!(
            expect.len(),
            hits.len(),
            "the bound changed the result size"
        );
        for (a, b) in expect.iter().zip(&hits) {
            assert!(
                a.id == b.id && a.score.to_bits() == b.score.to_bits(),
                "the bound broke bit-identity at {images} images"
            );
        }
    }
    exhaustive.latencies_us.sort_by(f64::total_cmp);
    staged.latencies_us.sort_by(f64::total_cmp);
    (exhaustive, staged)
}

#[allow(clippy::cast_precision_loss)]
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

    println!("=== E15: bounded retrieval (scoring reduction, latency) ===\n");
    println!(
        "corpus up to {} images, {} queries per size, frontier {FRONTIER}, top-{}\n",
        config.images, config.queries, config.top_k
    );
    let corpus = Corpus::generate(
        &CorpusConfig {
            images: config.images,
            scene: SceneConfig {
                objects: 8,
                ..standard_config(8)
            },
        },
        7,
    );

    let sizes = [
        (config.images / 4).max(1),
        (config.images / 2).max(1),
        config.images,
    ];
    let mut rows = Vec::new();
    println!(
        "{:>8} {:>12} {:>10} {:>8} {:>14} {:>12} {:>8}",
        "images", "candidates", "scored", "frac", "exhaustive p50", "staged p50", "speedup"
    );
    for images in sizes {
        let (exhaustive, staged) = measure(&config, &corpus, images);
        let scored_fraction =
            staged.stats.scored as f64 / (staged.stats.candidates as f64).max(1.0);
        let ex_p50 = percentile(&exhaustive.latencies_us, 50.0);
        let ex_p95 = percentile(&exhaustive.latencies_us, 95.0);
        let st_p50 = percentile(&staged.latencies_us, 50.0);
        let st_p95 = percentile(&staged.latencies_us, 95.0);
        let speedup = if st_p50 > 0.0 { ex_p50 / st_p50 } else { 0.0 };
        println!(
            "{:>8} {:>12} {:>10} {:>8.3} {:>12.1}us {:>10.1}us {:>7.2}x",
            images,
            staged.stats.candidates,
            staged.stats.scored,
            scored_fraction,
            ex_p50,
            st_p50,
            speedup
        );
        rows.push(format!(
            r#"{{"images":{images},"candidates":{},"scored":{},"bound_pruned":{},"scored_fraction":{scored_fraction:.4},"exhaustive_p50_us":{ex_p50:.3},"exhaustive_p95_us":{ex_p95:.3},"staged_p50_us":{st_p50:.3},"staged_p95_us":{st_p95:.3},"speedup_p50":{speedup:.4}}}"#,
            staged.stats.candidates, staged.stats.scored, staged.stats.bound_pruned
        ));
    }

    let json = format!(
        r#"{{"benchmark":"twostage","images":{},"queries":{},"frontier":{FRONTIER},"top_k":{},"sweep":[{}]}}"#,
        config.images,
        config.queries,
        config.top_k,
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
