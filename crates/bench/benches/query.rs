//! E7 — end-to-end database query latency across corpus sizes and
//! option presets.

use be2d_db::{ImageDatabase, PrefilterMode, QueryOptions};
use be2d_workload::{derive_queries, Corpus, CorpusConfig, QueryKind, SceneConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn build(images: usize) -> (ImageDatabase, Vec<be2d_workload::Query>) {
    let corpus = Corpus::generate(
        &CorpusConfig {
            images,
            scene: SceneConfig {
                objects: 8,
                classes: 12,
                ..SceneConfig::default()
            },
        },
        3,
    );
    let mut db = ImageDatabase::new();
    for (id, scene) in corpus.iter() {
        db.insert_scene(&id.to_string(), scene).expect("insert");
    }
    let queries = derive_queries(&corpus, &[QueryKind::DropObjects { keep: 4 }], 3, 11);
    (db, queries)
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("db_search");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for images in [100usize, 1_000, 5_000] {
        let (db, queries) = build(images);
        for (label, prefilter) in [
            ("nofilter", PrefilterMode::None),
            ("anyclass", PrefilterMode::AnyClass),
        ] {
            let options = QueryOptions {
                prefilter,
                top_k: Some(10),
                ..QueryOptions::default()
            };
            group.bench_with_input(
                BenchmarkId::new(label, images),
                &(&db, &queries, options),
                |b, (db, queries, options)| {
                    b.iter(|| {
                        for q in queries.iter() {
                            black_box(db.search_scene(black_box(&q.scene), options));
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
