//! Concurrent-correctness stress test: one unreplicated, sharded
//! [`ReplicatedImageDatabase`] hammered by mixed reader/writer threads, with every observed search
//! result set checked for internal consistency — no torn reads, no
//! panics, no half-applied edits visible to readers.

use be2d_core::convert_scene;
use be2d_db::{
    ImageDatabase, PrefilterMode, QueryOptions, QueryTrace, RecordId, ReplicatedImageDatabase,
    SearchHit,
};
use be2d_geometry::{ObjectClass, Rect, Scene, SceneBuilder};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn scene(x: i64, extra: bool) -> Scene {
    let mut b = SceneBuilder::new(200, 200)
        .object("A", (x % 50, x % 50 + 20, 10, 40))
        .object("B", (80, 150, x % 40 + 10, x % 40 + 60));
    if extra {
        b = b.object("C", (160, 190, 160, 190));
    }
    b.build().expect("valid scene")
}

/// A scene query through the database's one search call.
fn search(
    db: &ReplicatedImageDatabase,
    query: &Scene,
    options: &QueryOptions,
) -> (Vec<SearchHit>, QueryTrace) {
    db.search_traced(&convert_scene(query), options)
        .expect("every shard has a healthy replica")
}

/// Seed records: 200 per shard, so an unfiltered direct search scores
/// more than 192 candidates in every shard and splits each scan across
/// threads.
const SEEDS: i64 = 800;

/// Every shard's single replica, cloned under that shard's read lock.
fn snapshot_shards(db: &ReplicatedImageDatabase) -> Vec<ImageDatabase> {
    (0..db.shard_count())
        .map(|shard| db.with_replica_read(shard, 0, Clone::clone))
        .collect()
}

/// Asserts the invariants every coherent result set satisfies,
/// regardless of which database version the search observed.
fn check_consistent(hits: &[SearchHit], options: &QueryOptions) {
    if let Some(k) = options.top_k {
        assert!(hits.len() <= k, "top_k respected");
    }
    let mut seen = std::collections::HashSet::new();
    for window in hits.windows(2) {
        assert!(
            window[0].score >= window[1].score,
            "scores sorted descending"
        );
    }
    for hit in hits {
        assert!(seen.insert(hit.id), "duplicate id {} in results", hit.id);
        assert!(
            (0.0..=1.0 + 1e-9).contains(&hit.score),
            "score in range: {}",
            hit.score
        );
        assert!(hit.score >= options.min_score, "score floor respected");
        assert!(!hit.name.is_empty(), "name survived the read");
    }
}

#[test]
fn mixed_readers_and_writers_stay_consistent() {
    // 4 shards: the stress covers cross-shard scatter-gather reads
    // racing per-shard writes (one shard is the single-lock case, which
    // the unit tests already exercise).
    let db = ReplicatedImageDatabase::with_topology(4, 1);
    for i in 0..SEEDS {
        db.insert_scene(&format!("seed{i}"), &scene(i, i % 3 == 0))
            .expect("seed insert");
    }
    let stop = AtomicBool::new(false);
    // Searchers that have completed at least one search.
    let searched = AtomicUsize::new(0);

    std::thread::scope(|s| {
        // --- searchers: three different option shapes, including the
        // threaded scan, all validating every result set they see.
        for worker in 0..3 {
            let db = db.clone();
            let (stop, searched) = (&stop, &searched);
            s.spawn(move || {
                let options = match worker {
                    0 => QueryOptions::default(),
                    1 => QueryOptions {
                        prefilter: PrefilterMode::None,
                        top_k: None,
                        ..QueryOptions::default()
                    },
                    _ => QueryOptions::transform_invariant(),
                };
                let query = scene(17, true);
                let mut searches = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (hits, trace) = search(&db, &query, &options);
                    check_consistent(&hits, &options);
                    if worker == 1 {
                        assert!(
                            trace.shards.iter().all(|shard| shard.scored >= 192),
                            "every shard scan is split across threads"
                        );
                    }
                    searches += 1;
                    if searches == 1 {
                        searched.fetch_add(1, Ordering::SeqCst);
                    }
                }
                assert!(searches > 0, "searcher made progress");
            });
        }

        // --- serialisation reader: snapshots must always be complete,
        // parseable documents even while writers churn.
        {
            let db = db.clone();
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let shards = snapshot_shards(&db);
                    for shard in &shards {
                        let json = shard.to_json().expect("serialises");
                        let back = ImageDatabase::from_json(&json).expect("parses back");
                        assert_eq!(back.len(), shard.len(), "no torn shard snapshot");
                    }
                }
            });
        }

        // --- inserter/remover: grows the db, trims its own inserts.
        let inserter = {
            let db = db.clone();
            s.spawn(move || {
                let mut mine = Vec::new();
                for i in SEEDS..SEEDS + 192 {
                    let id = db
                        .insert_scene(&format!("w{i}"), &scene(i, i % 2 == 0))
                        .expect("insert");
                    mine.push(id);
                    if i % 3 == 0 {
                        let victim = mine.remove(mine.len() / 2);
                        db.remove(victim).expect("remove own insert");
                    }
                }
            })
        };

        // --- object editor: §3.2 add/remove on the stable seed rows.
        let editor = {
            let db = db.clone();
            s.spawn(move || {
                let class = ObjectClass::new("X");
                let mbr = Rect::new(0, 9, 0, 9).expect("rect");
                for round in 0..96usize {
                    let id = RecordId(round % 32);
                    db.add_object(id, &class, mbr).expect("add to seed record");
                    db.remove_object(id, &class, mbr).expect("remove again");
                }
            })
        };

        // Writers finish on their own; searchers poll until told to stop.
        // Stop only once every searcher has searched and both writers are
        // done, so searches race the whole write schedule however the
        // threads are scheduled; after 30 s, fail loudly instead.
        let guard = Instant::now() + Duration::from_secs(30);
        while searched.load(Ordering::SeqCst) < 3
            || !inserter.is_finished()
            || !editor.is_finished()
        {
            if Instant::now() > guard {
                stop.store(true, Ordering::SeqCst);
                panic!("waited 30 s for the searchers and writers");
            }
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Post-conditions: seed rows all alive, writer net growth applied,
    // and the §3.2 editor left no stray X objects behind.
    assert!(db.len() >= SEEDS as usize, "seed records survived");
    let x_query = SceneBuilder::new(200, 200)
        .object("X", (0, 9, 0, 9))
        .build()
        .expect("query");
    assert!(
        search(&db, &x_query, &QueryOptions::default()).0.is_empty(),
        "every add_object was matched by its remove_object"
    );
    let shards = snapshot_shards(&db);
    let restored: usize = shards
        .iter()
        .map(|shard| {
            let json = shard.to_json().expect("final snapshot");
            ImageDatabase::from_json(&json).expect("parses").len()
        })
        .sum();
    assert_eq!(restored, db.len());
}
