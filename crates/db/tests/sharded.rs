//! Scatter-gather equivalence: an unreplicated
//! `ReplicatedImageDatabase::with_topology(n, 1)` search must return the
//! **bit-identical** ranked ids and scores of a single-shard
//! [`ImageDatabase`] holding the same records — for every shard count,
//! every option combination, and including score ties — plus a
//! concurrent reader/writer stress test over the sharded topology.

use be2d_core::convert_scene;
use be2d_db::{
    ImageDatabase, PrefilterMode, QueryOptions, RecordId, ReplicatedImageDatabase, SearchHit,
};
use be2d_geometry::{ObjectClass, Rect, Scene, SceneBuilder};

/// Tiny deterministic generator (xorshift64*), so the corpus is seeded
/// without pulling a rand dependency into the db crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> i64 {
        i64::try_from(self.next() % n).expect("small bound")
    }
}

const CLASSES: [&str; 6] = ["A", "B", "C", "D", "F", "G"];

/// A random scene with 2–5 objects over a 6-class alphabet. Positions
/// and sizes vary enough that scores spread over (0, 1].
fn random_scene(rng: &mut Lcg) -> Scene {
    let objects = 2 + rng.below(4);
    let mut builder = SceneBuilder::new(256, 256);
    for _ in 0..objects {
        let class = CLASSES[usize::try_from(rng.below(6)).unwrap()];
        let xb = rng.below(200);
        let yb = rng.below(200);
        let w = 8 + rng.below(48);
        let h = 8 + rng.below(48);
        builder = builder.object(class, (xb, xb + w, yb, yb + h));
    }
    builder.build().expect("generated scene is valid")
}

/// The seeded corpus: mostly unique scenes plus deliberate duplicates
/// (every 5th scene repeats an earlier one) so ranked ties are common
/// and the cross-shard tie-break is genuinely exercised.
fn corpus(seed: u64, n: usize) -> Vec<Scene> {
    let mut rng = Lcg(seed | 1);
    let mut scenes: Vec<Scene> = Vec::with_capacity(n);
    for i in 0..n {
        if i % 5 == 4 {
            let back = usize::try_from(rng.below(i as u64)).unwrap();
            scenes.push(scenes[back].clone());
        } else {
            scenes.push(random_scene(&mut rng));
        }
    }
    scenes
}

/// A scene query through the database's one search call.
fn search(db: &ReplicatedImageDatabase, query: &Scene, options: &QueryOptions) -> Vec<SearchHit> {
    db.search_traced(&convert_scene(query), options)
        .expect("every shard has a healthy replica")
        .0
}

/// Applies the same mutation history (inserts, removals, object edits)
/// to a single-shard and an N-shard database, so both hold identical
/// records under identical global ids.
fn build_pair(scenes: &[Scene], shards: usize) -> (ImageDatabase, ReplicatedImageDatabase) {
    let mut single = ImageDatabase::new();
    let sharded = ReplicatedImageDatabase::with_topology(shards, 1);
    for (i, scene) in scenes.iter().enumerate() {
        let a = single.insert_scene(&format!("img{i}"), scene).unwrap();
        let b = sharded.insert_scene(&format!("img{i}"), scene).unwrap();
        assert_eq!(a, b, "id assignment must match the single-shard path");
    }
    // A few removals and §3.2 edits keep dead slots and refreshed
    // sketches and postings in the picture.
    for i in [3usize, 11, 17] {
        if i < scenes.len() {
            single.remove(RecordId(i)).unwrap();
            sharded.remove(RecordId(i)).unwrap();
        }
    }
    let extra = Rect::new(240, 250, 240, 250).unwrap();
    for i in [1usize, 8] {
        if i < scenes.len() {
            single
                .add_object(RecordId(i), &ObjectClass::new("Z"), extra)
                .unwrap();
            sharded
                .add_object(RecordId(i), &ObjectClass::new("Z"), extra)
                .unwrap();
        }
    }
    (single, sharded)
}

fn option_variants() -> Vec<(&'static str, QueryOptions)> {
    vec![
        ("default", QueryOptions::default()),
        (
            "unbounded, no prefilter",
            QueryOptions {
                top_k: None,
                min_score: 0.0,
                prefilter: PrefilterMode::None,
                ..QueryOptions::default()
            },
        ),
        (
            "all-classes via index",
            QueryOptions {
                top_k: None,
                prefilter: PrefilterMode::AllClasses,
                ..QueryOptions::default()
            },
        ),
        (
            "top 25",
            QueryOptions {
                top_k: Some(25),
                ..QueryOptions::default()
            },
        ),
        (
            "transform invariant, floored",
            QueryOptions {
                min_score: 0.35,
                top_k: None,
                ..QueryOptions::transform_invariant()
            },
        ),
    ]
}

#[test]
fn sharded_ranking_is_bit_identical_to_single_shard() {
    // 197 live records: the "unbounded, no prefilter" variant scores
    // every one, so the single database and the one-shard topology split
    // that scan across threads while the wider topologies score each
    // shard serially.
    let scenes = corpus(0xBE2D, 200);
    let queries: Vec<Scene> = corpus(0x517C, 12);

    for shards in [1usize, 2, 4, 8] {
        let (single, sharded) = build_pair(&scenes, shards);
        assert_eq!(single.len(), sharded.len());
        assert!(single.len() >= 192);
        for (label, options) in option_variants() {
            for (qi, query) in queries.iter().enumerate() {
                let expect = single.search_scene(query, &options);
                let got = search(&sharded, query, &options);
                assert_eq!(
                    expect.len(),
                    got.len(),
                    "{shards} shards, options {label}, query {qi}"
                );
                for (a, b) in expect.iter().zip(&got) {
                    assert_eq!(a.id, b.id, "{shards} shards, {label}, query {qi}");
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "score must be bit-identical: {shards} shards, {label}, query {qi}"
                    );
                    assert_eq!(a.name, b.name);
                    assert_eq!(a.transform, b.transform);
                }
            }
        }
    }
}

#[test]
fn duplicate_corpus_ties_preserve_global_order() {
    // An all-duplicates corpus: every record scores identically, so the
    // entire ranking is one big tie and ordering is purely the id
    // tie-break — the hardest case for a distributed merge.
    let mut rng = Lcg(99);
    let scene = random_scene(&mut rng);
    for shards in [2usize, 4, 8] {
        let sharded = ReplicatedImageDatabase::with_topology(shards, 1);
        let mut single = ImageDatabase::new();
        for i in 0..33 {
            single.insert_scene(&format!("dup{i}"), &scene).unwrap();
            sharded.insert_scene(&format!("dup{i}"), &scene).unwrap();
        }
        let options = QueryOptions {
            top_k: None,
            ..QueryOptions::default()
        };
        let expect = single.search_scene(&scene, &options);
        let got = search(&sharded, &scene, &options);
        assert_eq!(expect.len(), 33);
        assert_eq!(got.len(), 33);
        for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
            assert_eq!(a.id, b.id, "{shards} shards, position {i}");
            assert_eq!(a.id, RecordId(i), "pure ties order by id");
        }
    }
}

#[test]
fn concurrent_writers_on_other_shards_during_search() {
    let scenes = corpus(0xABCD, 64);
    let sharded = ReplicatedImageDatabase::with_topology(4, 1);
    for (i, scene) in scenes.iter().enumerate() {
        sharded.insert_scene(&format!("img{i}"), scene).unwrap();
    }
    let queries = corpus(0x1234, 6);
    let options = QueryOptions {
        top_k: Some(20),
        ..QueryOptions::default()
    };

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for reader in 0..4 {
            let db = sharded.clone();
            let queries = &queries;
            let options = &options;
            readers.push(scope.spawn(move || {
                let mut total = 0usize;
                for round in 0..40 {
                    let hits = search(&db, &queries[(reader + round) % queries.len()], options);
                    // Whatever interleaving the writers produce, every
                    // observed result set must be internally coherent.
                    assert!(hits.len() <= 20);
                    let mut seen = std::collections::HashSet::new();
                    for window in hits.windows(2) {
                        assert!(
                            window[0].score > window[1].score
                                || (window[0].score == window[1].score
                                    && window[0].id < window[1].id),
                            "global order holds under concurrent writes"
                        );
                    }
                    for hit in &hits {
                        assert!(seen.insert(hit.id), "duplicate id {}", hit.id);
                    }
                    total += hits.len();
                }
                total
            }));
        }
        // Two writers churn inserts/removals; their writes land on
        // whichever shard owns the freshly assigned id, so all four
        // shards see write traffic while searches are in flight.
        for writer in 0..2u64 {
            let db = sharded.clone();
            let scenes = &scenes;
            scope.spawn(move || {
                let mut rng = Lcg(writer * 7919 + 13);
                for i in 0..60 {
                    let scene = &scenes[usize::try_from(rng.below(scenes.len() as u64)).unwrap()];
                    let id = db.insert_scene(&format!("w{writer}-{i}"), scene).unwrap();
                    if i % 3 == 0 {
                        db.remove(id).unwrap();
                    }
                }
            });
        }
        for handle in readers {
            assert!(handle.join().expect("reader panicked") > 0);
        }
    });
    // 2 writers × 60 inserts, a third removed again.
    assert_eq!(sharded.len(), 64 + 120 - 40);
}

#[test]
fn inserts_racing_restore_never_fail_or_reuse_ids() {
    let scenes = corpus(0xD00D, 24);
    let dir = std::env::temp_dir().join(format!("be2d_shard_race_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.json");

    // Snapshot a populated database, then restore it repeatedly into a
    // *fresh* database (id counter at 0) while writer threads insert:
    // every insert must succeed with a unique id even when its
    // pre-allocated slot is suddenly occupied by restored records.
    let source = ReplicatedImageDatabase::with_topology(4, 1);
    for (i, scene) in scenes.iter().enumerate() {
        source.insert_scene(&format!("img{i}"), scene).unwrap();
    }
    source.save_snapshot(&path).unwrap();

    for round in 0..8 {
        let db = ReplicatedImageDatabase::with_topology(4, 1);
        let ids = std::thread::scope(|scope| {
            let restorer = {
                let db = db.clone();
                let path = path.clone();
                scope.spawn(move || db.restore_from(&path).unwrap())
            };
            let writers: Vec<_> = (0..3)
                .map(|w| {
                    let db = db.clone();
                    let scene = &scenes[w];
                    scope.spawn(move || {
                        (0..12)
                            .map(|i| {
                                db.insert_scene(&format!("r{round}-w{w}-{i}"), scene)
                                    .unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            assert_eq!(restorer.join().expect("restore"), 24);
            writers
                .into_iter()
                .flat_map(|h| h.join().expect("writer"))
                .collect::<Vec<_>>()
        });
        let unique: std::collections::HashSet<_> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "no id handed out twice");
        // An insert either linearised before the restore (its slot now
        // holds a restored "img*" record, or nothing) or after it (its
        // own record survives). Nothing else may occupy a handed-out id.
        for id in ids {
            if let Some(record) = db.get(id).unwrap() {
                assert!(
                    record.name.starts_with(&format!("r{round}-w"))
                        || record.name.starts_with("img"),
                    "unexpected record {} under {id:?}",
                    record.name
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_snapshot_survives_topology_change_with_identical_ranking() {
    let scenes = corpus(0xFEED, 40);
    let (single, sharded) = build_pair(&scenes, 4);
    let dir = std::env::temp_dir().join(format!("be2d_shard_equiv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.json");
    sharded.save_snapshot(&path).unwrap();

    let restored = ReplicatedImageDatabase::with_topology(2, 1);
    restored.restore_from(&path).unwrap();
    let options = QueryOptions {
        top_k: None,
        prefilter: PrefilterMode::None,
        ..QueryOptions::default()
    };
    for query in corpus(0x77, 5) {
        let expect = single.search_scene(&query, &options);
        let got = search(&restored, &query, &options);
        assert_eq!(expect.len(), got.len());
        for (a, b) in expect.iter().zip(&got) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
