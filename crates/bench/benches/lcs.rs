//! E3a — modified LCS cost over the (m, n) grid: the paper's O(mn),
//! plus the lane-batched exact scorer on the `exact-scan` shape.

use be2d_bench::standard_config;
use be2d_core::{
    be_lcs_length, convert_scene, BeString2D, ExactScorer, ScoreScratch, SimilarityConfig,
    SymbolicImage,
};
use be2d_geometry::Transform;
use be2d_workload::{scene_from_seed, SceneConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

fn strings(n: usize, seed: u64) -> BeString2D {
    convert_scene(&scene_from_seed(&standard_config(n), seed))
}

fn bench_lcs_square(c: &mut Criterion) {
    let mut group = c.benchmark_group("lcs_m_equals_n");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200));
    for n in [8usize, 16, 32, 64, 128, 256, 512] {
        let q = strings(n, 10 + n as u64);
        let d = strings(n, 20 + n as u64);
        group.throughput(Throughput::Elements((n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &(q, d), |b, (q, d)| {
            b.iter(|| {
                black_box(
                    be_lcs_length(black_box(q.x()), black_box(d.x()))
                        + be_lcs_length(black_box(q.y()), black_box(d.y())),
                )
            });
        });
    }
    group.finish();
}

fn bench_lcs_fixed_query(c: &mut Criterion) {
    // m fixed (query sketch), n growing (database image): linear in n
    let mut group = c.benchmark_group("lcs_fixed_query_m8");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(200));
    let q = strings(8, 5);
    for n in [8usize, 32, 128, 512] {
        let d = strings(n, 30 + n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &d, |b, d| {
            b.iter(|| {
                black_box(
                    be_lcs_length(black_box(q.x()), black_box(d.x()))
                        + be_lcs_length(black_box(q.y()), black_box(d.y())),
                )
            });
        });
    }
    group.finish();
}

/// The `exact-scan` serving shape: a corpus of default 8-object scenes
/// (6 classes, 256×256) scored against 4- and 8-object queries. Each
/// iteration scores the whole corpus, so ns per candidate is
/// `1000 / (Melem/s)`: `be_lcs_length` runs the scalar kernel per
/// candidate on pre-materialised strings (both axes), `exact_scorer`
/// encodes stored images and runs the lane kernel, LANES at a time,
/// through one reused scratch.
fn bench_lane_kernel(c: &mut Criterion) {
    const CORPUS: usize = 256;
    let mut group = c.benchmark_group("exact_scan_per_candidate");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200));
    group.throughput(Throughput::Elements(CORPUS as u64));
    let corpus: Vec<SymbolicImage> = (0..CORPUS as u64)
        .map(|seed| SymbolicImage::from_scene(&scene_from_seed(&SceneConfig::default(), seed)))
        .collect();
    let strings: Vec<BeString2D> = corpus.iter().map(SymbolicImage::to_be_string_2d).collect();
    let cfg = SimilarityConfig::default();
    for objects in [4usize, 8] {
        let query_cfg = SceneConfig {
            objects,
            ..SceneConfig::default()
        };
        let q = convert_scene(&scene_from_seed(&query_cfg, 1_000 + objects as u64));
        group.bench_with_input(
            BenchmarkId::new("be_lcs_length", format!("q{objects}")),
            &strings,
            |b, strings| {
                b.iter(|| {
                    strings
                        .iter()
                        .map(|d| {
                            be_lcs_length(black_box(q.x()), black_box(d.x()))
                                + be_lcs_length(black_box(q.y()), black_box(d.y()))
                        })
                        .sum::<usize>()
                });
            },
        );
        let scorer = ExactScorer::new(&q, &[Transform::Identity], &cfg);
        let mut scratch = ScoreScratch::default();
        let mut out = Vec::with_capacity(CORPUS);
        group.bench_with_input(
            BenchmarkId::new("exact_scorer", format!("q{objects}")),
            &corpus,
            |b, corpus| {
                b.iter(|| {
                    out.clear();
                    scorer.score_images(black_box(corpus), &mut scratch, &mut out);
                    out.len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lcs_square,
    bench_lcs_fixed_query,
    bench_lane_kernel
);
criterion_main!(benches);
