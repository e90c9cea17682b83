//! E7 — end-to-end indexing and query throughput ("the similarity can be
//! evaluated in a reasonable time", §4), with the prefilter ablation.

use be2d_bench::{fmt_duration, median_time, table_row};
use be2d_db::{ImageDatabase, PrefilterMode, QueryOptions};
use be2d_workload::{derive_queries, Corpus, CorpusConfig, QueryKind, SceneConfig};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    println!("=== E7: database throughput ===\n");
    println!(
        "(host parallelism: {} threads)\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (images, classes) in [(1_000usize, 12usize), (10_000, 12), (10_000, 64)] {
        let corpus = Corpus::generate(
            &CorpusConfig {
                images,
                scene: SceneConfig {
                    objects: 8,
                    classes,
                    ..SceneConfig::default()
                },
            },
            3,
        );
        let t0 = Instant::now();
        let mut db = ImageDatabase::new();
        for (id, scene) in corpus.iter() {
            db.insert_scene(&id.to_string(), scene).expect("insert");
        }
        let index_time = t0.elapsed();
        println!(
            "corpus {images} ({classes} classes): indexed in {} ({:.0} images/s)",
            fmt_duration(index_time),
            images as f64 / index_time.as_secs_f64()
        );

        let queries = derive_queries(&corpus, &[QueryKind::DropObjects { keep: 4 }], 5, 11);
        let widths = [24, 12, 12, 12];
        println!(
            "{}",
            table_row(
                &[
                    "configuration".into(),
                    "candidates".into(),
                    "per query".into(),
                    "queries/s".into()
                ],
                &widths
            )
        );
        for (label, prefilter) in [
            ("no prefilter", PrefilterMode::None),
            ("any-class", PrefilterMode::AnyClass),
            ("all-classes", PrefilterMode::AllClasses),
        ] {
            let options = QueryOptions {
                prefilter,
                top_k: Some(10),
                ..QueryOptions::default()
            };
            // candidate count under this prefilter (average over queries)
            let candidates: usize = queries
                .iter()
                .map(|q| {
                    db.search_scene(
                        &q.scene,
                        &QueryOptions {
                            top_k: None,
                            min_score: 0.0,
                            ..options.clone()
                        },
                    )
                    .len()
                })
                .sum::<usize>()
                / queries.len();
            let per_query = median_time(3, || {
                for q in &queries {
                    black_box(db.search_scene(&q.scene, &options));
                }
            }) / queries.len() as u32;
            let row = [
                label.to_string(),
                candidates.to_string(),
                fmt_duration(per_query),
                format!("{:.0}", 1.0 / per_query.as_secs_f64()),
            ];
            println!("{}", table_row(&row, &widths));
        }
        println!();
    }
    println!("O(mn) per candidate keeps even the 10k-image scan interactive; the");
    println!("class-index prefilter multiplies throughput by its selectivity;");
    println!("a scan of 192 or more candidates is split across the host's threads.");
}
