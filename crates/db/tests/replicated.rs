//! Replication equivalence and fault tolerance:
//! `ReplicatedImageDatabase::search` must return the **bit-identical**
//! ranked ids and scores of the unreplicated ranking for every replica
//! count — while replicas fail, rebuild, and rejoin under concurrent
//! write traffic.

use be2d_core::convert_scene;
use be2d_db::{
    ImageDatabase, PrefilterMode, QueryOptions, RecordId, ReplicatedImageDatabase, SearchHit,
};
use be2d_geometry::{ObjectClass, Rect, Scene, SceneBuilder};

/// Tiny deterministic generator (xorshift64*), matching the sharded
/// equivalence suite.
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

/// A scene query through the database's one search call.
fn search(db: &ReplicatedImageDatabase, query: &Scene, options: &QueryOptions) -> Vec<SearchHit> {
    db.search_traced(&convert_scene(query), options).unwrap().0
}

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

/// Mostly unique scenes plus deliberate duplicates (every 5th repeats
/// an earlier one) so ranked ties are common.
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

/// Applies the same mutation history to a single unreplicated database
/// and a shards×replicas topology, so both hold identical records.
fn build_pair(
    scenes: &[Scene],
    shards: usize,
    replicas: usize,
) -> (ImageDatabase, ReplicatedImageDatabase) {
    let mut single = ImageDatabase::new();
    let replicated = ReplicatedImageDatabase::with_topology(shards, replicas);
    for (i, scene) in scenes.iter().enumerate() {
        let a = single.insert_scene(&format!("img{i}"), scene).unwrap();
        let b = replicated.insert_scene(&format!("img{i}"), scene).unwrap();
        assert_eq!(a, b, "id assignment must match the unreplicated path");
    }
    for i in [3usize, 11, 17] {
        if i < scenes.len() {
            single.remove(RecordId(i)).unwrap();
            replicated.remove(RecordId(i)).unwrap();
        }
    }
    let extra = Rect::new(240, 250, 240, 250).unwrap();
    for i in [1usize, 8] {
        if i < scenes.len() {
            single
                .add_object(RecordId(i), &ObjectClass::new("Z"), extra)
                .unwrap();
            replicated
                .add_object(RecordId(i), &ObjectClass::new("Z"), extra)
                .unwrap();
        }
    }
    (single, replicated)
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
fn replicated_ranking_is_bit_identical_to_unreplicated() {
    let scenes = corpus(0xBE2D, 60);
    let queries: Vec<Scene> = corpus(0x517C, 10);

    for replicas in [1usize, 2, 3] {
        let (single, replicated) = build_pair(&scenes, 4, replicas);
        assert_eq!(single.len(), replicated.len());
        for (label, options) in option_variants() {
            for (qi, query) in queries.iter().enumerate() {
                let expect = single.search_scene(query, &options);
                let got = search(&replicated, query, &options);
                assert_eq!(
                    expect.len(),
                    got.len(),
                    "{replicas} replicas, options {label}, query {qi}"
                );
                for (a, b) in expect.iter().zip(&got) {
                    assert_eq!(a.id, b.id, "{replicas} replicas, {label}, query {qi}");
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "score must be bit-identical: {replicas} replicas, {label}, query {qi}"
                    );
                    assert_eq!(a.name, b.name);
                    assert_eq!(a.transform, b.transform);
                }
            }
        }
    }
}

#[test]
fn ranking_is_identical_with_replicas_failed() {
    // With one replica per shard failed, every search still answers
    // from the survivors — with the exact same ranked result, because
    // healthy replicas hold identical records.
    let scenes = corpus(0xFACE, 48);
    let (single, replicated) = build_pair(&scenes, 3, 2);
    for shard in 0..3 {
        replicated.fail_replica(shard, shard % 2).unwrap();
    }
    let queries: Vec<Scene> = corpus(0x99, 8);
    let options = QueryOptions {
        top_k: None,
        ..QueryOptions::default()
    };
    // Repeat so the round-robin picker cycles over its (reduced) choices.
    for round in 0..4 {
        for query in &queries {
            let expect = single.search_scene(query, &options);
            let got = search(&replicated, query, &options);
            assert_eq!(expect.len(), got.len(), "round {round}");
            for (a, b) in expect.iter().zip(&got) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }
}

#[test]
fn replica_loss_under_concurrent_writes() {
    // Readers, writers, and a fault injector all run concurrently:
    // searches must stay internally coherent and never error while a
    // replica is failed and later rebuilt mid-traffic.
    let scenes = corpus(0xABCD, 48);
    let db = ReplicatedImageDatabase::with_topology(2, 3);
    for (i, scene) in scenes.iter().enumerate() {
        db.insert_scene(&format!("img{i}"), scene).unwrap();
    }
    let queries = corpus(0x1234, 6);
    let options = QueryOptions {
        top_k: Some(20),
        ..QueryOptions::default()
    };

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for reader in 0..4 {
            let db = db.clone();
            let queries = &queries;
            let options = &options;
            readers.push(scope.spawn(move || {
                let mut total = 0usize;
                for round in 0..40 {
                    let hits = search(&db, &queries[(reader + round) % queries.len()], options);
                    assert!(hits.len() <= 20);
                    let mut seen = std::collections::HashSet::new();
                    for window in hits.windows(2) {
                        assert!(
                            window[0].score > window[1].score
                                || (window[0].score == window[1].score
                                    && window[0].id < window[1].id),
                            "global order holds under faults + writes"
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
        // Two writers churn inserts/removals across both shards.
        for writer in 0..2u64 {
            let db = db.clone();
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
        // The fault injector fails and rebuilds replicas in a rolling
        // pattern while the traffic above is in flight.
        {
            let db = db.clone();
            scope.spawn(move || {
                for round in 0..12 {
                    let shard = round % 2;
                    let replica = round % 3;
                    if db.fail_replica(shard, replica).is_ok() {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        db.rebuild_replica(shard, replica).unwrap();
                    }
                }
            });
        }
        for handle in readers {
            assert!(handle.join().expect("reader panicked") > 0);
        }
    });
    // 2 writers × 60 inserts, a third removed again.
    assert_eq!(db.len(), 48 + 120 - 40);

    // After the dust settles, rebuild anything still out of rotation;
    // every replica of a shard must then be byte-identical.
    for shard in 0..2 {
        for replica in 0..3 {
            db.rebuild_replica(shard, replica).unwrap();
        }
        let reference = db.with_replica_read(shard, 0, Clone::clone);
        for replica in 1..3 {
            let copy = db.with_replica_read(shard, replica, Clone::clone);
            assert_eq!(reference, copy, "shard {shard} replica {replica} diverged");
        }
    }
}

#[test]
fn rebuild_then_rejoin_is_consistent() {
    let scenes = corpus(0xD00D, 30);
    let (single, replicated) = build_pair(&scenes, 2, 2);

    // Fail one replica per shard, then mutate: the failed copies stay
    // frozen while the survivors absorb every write.
    replicated.fail_replica(0, 1).unwrap();
    replicated.fail_replica(1, 0).unwrap();
    let mut single = single;
    let late = corpus(0xEE, 6);
    for (i, scene) in late.iter().enumerate() {
        let a = single.insert_scene(&format!("late{i}"), scene).unwrap();
        let b = replicated.insert_scene(&format!("late{i}"), scene).unwrap();
        assert_eq!(a, b);
    }
    single.remove(RecordId(5)).unwrap();
    replicated.remove(RecordId(5)).unwrap();

    // Rebuild + rejoin, then prove the rejoined replicas serve the
    // exact unreplicated ranking (force reads onto them by failing the
    // formerly healthy copies).
    replicated.rebuild_replica(0, 1).unwrap();
    replicated.rebuild_replica(1, 0).unwrap();
    replicated.fail_replica(0, 0).unwrap();
    replicated.fail_replica(1, 1).unwrap();

    let options = QueryOptions {
        top_k: None,
        ..QueryOptions::default()
    };
    for query in corpus(0x77, 6) {
        let expect = single.search_scene(&query, &options);
        let got = search(&replicated, &query, &options);
        assert_eq!(expect.len(), got.len());
        for (a, b) in expect.iter().zip(&got) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
    assert_eq!(replicated.len(), single.len());
}
