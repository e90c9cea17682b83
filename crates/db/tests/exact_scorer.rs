//! The database's lane-batched exact scorer against the one-target
//! reference: every hit of [`ImageDatabase::search`] must carry exactly
//! the `(transform, similarity)` that [`best_transform_similarity`]
//! computes on the record's materialised 2D BE-string — score bits,
//! chosen transform and the whole [`Similarity`] — and the ranking must
//! be the reference ranking, across every similarity configuration and
//! both direct retrieval (one batch of every candidate, scored in
//! chunks on helper threads) and bounded retrieval (frontier batches,
//! scored serially).

use be2d_core::{
    best_transform_similarity, convert_scene, AxisCombine, BeString2D, Normalization,
    SimilarityConfig,
};
use be2d_db::{ImageDatabase, PrefilterMode, QueryOptions, ScoreThreshold, SearchHit};
use be2d_geometry::{ObjectClass, Rect, Scene, Transform};

const CLASSES: [&str; 5] = ["A", "B", "C", "D", "F"];

/// A deterministic scene with 0..=7 objects: sizes, positions, class
/// sets and object counts all vary, so lane groups mix string lengths
/// and some images (including the empty one) share no class with a
/// query.
fn scene(seed: u64) -> Scene {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut s = Scene::new(96, 96).expect("frame");
    for _ in 0..next(8) {
        let (xb, yb) = (next(80) as i64, next(80) as i64);
        let (w, h) = (1 + next(16) as i64, 1 + next(16) as i64);
        let class = CLASSES[next(CLASSES.len() as u64) as usize];
        let rect = Rect::new(xb, xb + w, yb, yb + h).expect("rect");
        s.add(ObjectClass::new(class), rect).expect("in frame");
    }
    s
}

fn configs() -> Vec<SimilarityConfig> {
    let mut out = Vec::new();
    for normalization in [
        Normalization::QueryCoverage,
        Normalization::TargetCoverage,
        Normalization::Dice,
    ] {
        for axis_combine in [AxisCombine::Mean, AxisCombine::Product, AxisCombine::Min] {
            for count_dummies in [true, false] {
                out.push(SimilarityConfig {
                    normalization,
                    axis_combine,
                    count_dummies,
                });
            }
        }
    }
    out
}

/// The reference ranking: every record scored one at a time on its
/// materialised strings, sorted by score then id.
fn reference(db: &ImageDatabase, query: &BeString2D, options: &QueryOptions) -> Vec<SearchHit> {
    let mut hits: Vec<SearchHit> = db
        .iter()
        .map(|r| {
            let (transform, similarity) = best_transform_similarity(
                query,
                &r.symbolic.to_be_string_2d(),
                &options.transforms,
                &options.config,
            )
            .expect("non-empty transforms");
            SearchHit {
                id: r.id,
                name: r.name.clone(),
                score: similarity.score,
                transform,
                similarity,
            }
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
    hits
}

#[test]
fn search_hits_are_bit_identical_to_best_transform_similarity() {
    let mut db = ImageDatabase::new();
    // 203 live records: past the 192 candidates at which a batch is
    // split across threads, and a multiple neither of the lane width
    // nor of any chunk count, so the last chunk ends in a partial lane
    // group.
    for seed in 0..205 {
        db.insert_scene(&format!("img-{seed}"), &scene(seed))
            .expect("insert");
    }
    // Removed records leave dead slots the scan must skip.
    for id in [3, 40] {
        db.remove(be2d_db::RecordId(id)).expect("live record");
    }
    let mut checked = 0;
    for query in [1000, 5].map(|seed| convert_scene(&scene(seed))) {
        for config in configs() {
            let base = QueryOptions {
                top_k: None,
                transforms: Transform::ALL.to_vec(),
                config,
                // every record is a candidate, so the reference needs no
                // prefilter
                prefilter: PrefilterMode::None,
                ..QueryOptions::default()
            };
            let all = reference(&db, &query, &base);
            for bounded in [false, true] {
                // a cut makes bounded retrieval prune by bound
                for top_k in [None, Some(7)] {
                    let options = QueryOptions {
                        top_k,
                        ..base.clone()
                    };
                    let threshold = bounded.then(ScoreThreshold::new);
                    let (got, stats) = db.search_bounded(&query, &options, threshold.as_ref());
                    assert_eq!(stats.candidates, 203);
                    let want = &all[..top_k.unwrap_or(all.len())];
                    assert_eq!(got.len(), want.len(), "{options:?}");
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(g.id, w.id, "{options:?}");
                        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{options:?}");
                        assert_eq!(g.transform, w.transform, "{options:?}");
                        assert_eq!(g.similarity, w.similarity, "{options:?}");
                        assert_eq!(g, w, "{options:?}");
                    }
                    checked += got.len();
                }
            }
        }
    }
    assert!(checked > 10_000, "the battery compared {checked} hits");
}

#[test]
fn similarity_to_matches_the_reference() {
    let mut db = ImageDatabase::new();
    let ids: Vec<_> = (0..12)
        .map(|seed| db.insert_scene("img", &scene(seed)).expect("insert"))
        .collect();
    let query = convert_scene(&scene(99));
    for config in configs() {
        let options = QueryOptions {
            config,
            ..QueryOptions::default()
        };
        for &id in &ids {
            let got = db.similarity_to(&query, id, &options).expect("live id");
            let target = db.get(id).expect("live").symbolic.to_be_string_2d();
            let want = be2d_core::similarity_with(&query, &target, &config);
            assert_eq!(got.score.to_bits(), want.score.to_bits());
            assert_eq!(got, want);
        }
    }
}
