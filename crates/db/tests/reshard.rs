//! Live-migration test harness for online resharding: a seeded corpus
//! is resharded while concurrent writers edit and readers search, and
//! at every migration checkpoint the ranked results must be
//! **bit-identical** (`f64::to_bits`, ties included) to a never-sharded
//! reference database holding the same records.

use be2d_core::convert_scene;
use be2d_db::{
    DbError, ImageDatabase, PrefilterMode, QueryOptions, RecordId, ReplicatedImageDatabase,
    Resharder, SearchHit,
};
use be2d_geometry::{ObjectClass, Rect, Scene, SceneBuilder};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A scene query through the database's one search call.
fn search(db: &ReplicatedImageDatabase, query: &Scene, options: &QueryOptions) -> Vec<SearchHit> {
    db.search_traced(&convert_scene(query), options).unwrap().0
}

/// Spins until `done()` holds, however the threads are scheduled. After
/// 30 s it raises `stop`, so every polling thread winds down, and fails
/// loudly instead of hanging.
fn wait_for(what: &str, stop: &AtomicBool, done: impl Fn() -> bool) {
    let guard = Instant::now() + Duration::from_secs(30);
    while !done() {
        if Instant::now() > guard {
            stop.store(true, Ordering::SeqCst);
            panic!("waited 30 s for {what}");
        }
        std::thread::yield_now();
    }
}

fn scene(x: i64) -> Scene {
    SceneBuilder::new(100, 100)
        .object("A", (x, x + 10, 10, 20))
        .object("B", (50, 90, 50, 90))
        .build()
        .unwrap()
}

fn varied_scene(i: i64) -> Scene {
    // Three shapes so queries discriminate: position, extra class, size.
    let x = (i * 7) % 80;
    let mut builder = SceneBuilder::new(100, 100)
        .object("A", (x, x + 9, 5, 15))
        .object("B", (30, 60, 40, 70));
    if i % 3 == 0 {
        builder = builder.object("C", (x / 2, x / 2 + 5, 80, 90));
    }
    builder.build().unwrap()
}

fn query_battery() -> Vec<(Scene, QueryOptions)> {
    let default = QueryOptions::default();
    let prefiltered = QueryOptions {
        prefilter: PrefilterMode::AllClasses,
        ..QueryOptions::default()
    };
    let top5 = QueryOptions {
        top_k: Some(5),
        ..QueryOptions::default()
    };
    vec![
        (varied_scene(4), default.clone()),
        (varied_scene(9), prefiltered.clone()),
        (scene(12), top5),
        (varied_scene(21), default),
        (scene(3), prefiltered),
    ]
}

/// Asserts `db` ranks every battery query bit-identically to the
/// never-sharded `reference`.
fn assert_bit_identical(reference: &ImageDatabase, db: &ReplicatedImageDatabase, when: &str) {
    for (i, (query, options)) in query_battery().iter().enumerate() {
        let expect = reference.search_scene(query, options);
        let hits = search(db, query, options);
        assert_eq!(expect.len(), hits.len(), "{when}: query {i} length");
        for (rank, (a, b)) in expect.iter().zip(&hits).enumerate() {
            assert_eq!(a.id, b.id, "{when}: query {i} rank {rank}");
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{when}: query {i} rank {rank} score"
            );
        }
    }
}

/// A writer thread that mirrors every edit into the reference database
/// and can be paused at a consistent point for checkpoint comparisons.
struct MirroredWriter {
    pause: AtomicBool,
    parked: AtomicBool,
    stop: AtomicBool,
    edits: AtomicUsize,
}

impl MirroredWriter {
    fn new() -> MirroredWriter {
        MirroredWriter {
            pause: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            edits: AtomicUsize::new(0),
        }
    }

    /// Blocks the writer at its next op boundary (both databases in the
    /// same state) and waits until it is parked.
    fn park(&self) {
        self.pause.store(true, Ordering::SeqCst);
        while !self.parked.load(Ordering::SeqCst) && !self.stop.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    fn resume(&self) {
        self.pause.store(false, Ordering::SeqCst);
    }

    /// The writer's main loop: insert, edit objects, and remove records
    /// on `db`, mirroring every successful op into `reference` so the
    /// pair is equal whenever the writer is parked.
    fn run(&self, db: &ReplicatedImageDatabase, reference: &Mutex<ImageDatabase>) {
        let class = ObjectClass::new("W");
        let mbr = Rect::new(0, 4, 0, 4).unwrap();
        let mut owned: Vec<RecordId> = Vec::new();
        let mut step = 0usize;
        while !self.stop.load(Ordering::SeqCst) {
            if self.pause.load(Ordering::SeqCst) {
                self.parked.store(true, Ordering::SeqCst);
                while self.pause.load(Ordering::SeqCst) && !self.stop.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                self.parked.store(false, Ordering::SeqCst);
                continue;
            }
            step += 1;
            match step % 5 {
                0 if owned.len() > 4 => {
                    let id = owned.remove(step % owned.len());
                    db.remove(id).unwrap();
                    reference.lock().unwrap().remove(id).unwrap();
                }
                1 | 2 if !owned.is_empty() => {
                    // §3.2 edit pair: add then remove one object, so the
                    // record's classes are unchanged at op boundaries.
                    let id = owned[step % owned.len()];
                    db.add_object(id, &class, mbr).unwrap();
                    reference
                        .lock()
                        .unwrap()
                        .add_object(id, &class, mbr)
                        .unwrap();
                    db.remove_object(id, &class, mbr).unwrap();
                    reference
                        .lock()
                        .unwrap()
                        .remove_object(id, &class, mbr)
                        .unwrap();
                }
                _ => {
                    let scene = varied_scene((step % 37) as i64);
                    let id = db.insert_scene(&format!("writer-{step}"), &scene).unwrap();
                    reference
                        .lock()
                        .unwrap()
                        .insert_symbolic_with_id(
                            id,
                            &format!("writer-{step}"),
                            be2d_core::SymbolicImage::from_scene(&scene),
                        )
                        .unwrap();
                    owned.push(id);
                }
            }
            self.edits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The headline satellite: reshard 2→4 and then 4→3 while a writer
/// thread edits, asserting bit-identical rankings at every migration
/// checkpoint against a never-sharded reference.
#[test]
fn mid_migration_rankings_match_reference_under_concurrent_writes() {
    let db = ReplicatedImageDatabase::with_topology(2, 2);
    let reference = Mutex::new(ImageDatabase::new());
    for i in 0..70 {
        let scene = varied_scene(i);
        let id = db.insert_scene(&format!("seed-{i}"), &scene).unwrap();
        reference
            .lock()
            .unwrap()
            .insert_symbolic_with_id(
                id,
                &format!("seed-{i}"),
                be2d_core::SymbolicImage::from_scene(&scene),
            )
            .unwrap();
    }

    let writer = MirroredWriter::new();
    let mut checkpoints = 0usize;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| writer.run(&db, &reference));

        for (target, batch) in [(4usize, 9usize), (3, 13)] {
            Resharder::new(&db)
                .batch_ids(batch)
                .run_with_checkpoints(target, |_| {
                    // Park the writer at an op boundary: both databases
                    // now hold exactly the same records.
                    writer.park();
                    let reference = reference.lock().unwrap();
                    assert_bit_identical(&reference, &db, &format!("reshard->{target}"));
                    drop(reference);
                    writer.resume();
                    // Let the writer land at least two edits before the
                    // next batch, so edits genuinely interleave with
                    // every stage of the migration.
                    let target_edits = writer.edits.load(Ordering::Relaxed) + 2;
                    wait_for("two writer edits", &writer.stop, || {
                        writer.edits.load(Ordering::Relaxed) >= target_edits
                    });
                    checkpoints += 1;
                })
                .unwrap();
            assert_eq!(db.shard_count(), target);
        }

        writer.stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    });

    assert!(checkpoints >= 6, "checkpoints exercised: {checkpoints}");
    assert!(
        writer.edits.load(Ordering::Relaxed) > 10,
        "writer actually raced the migration: {} edits",
        writer.edits.load(Ordering::Relaxed)
    );
    // Quiesced end state: still bit-identical, and still serving.
    assert_bit_identical(&reference.lock().unwrap(), &db, "after both reshards");
    let next = db.insert_scene("post", &varied_scene(5)).unwrap();
    assert!(db.get(next).unwrap().is_some());
}

/// Fault-injection satellite: one replica per shard dies mid-reshard,
/// the migration completes without it, and the heal rebuilds each dead
/// replica **on the new topology**, exactly up to date with its peer.
#[test]
fn replica_killed_mid_reshard_heals_onto_new_topology() {
    let db = ReplicatedImageDatabase::with_topology(2, 3);
    for i in 0..60 {
        db.insert_scene(&format!("seed-{i}"), &varied_scene(i))
            .unwrap();
    }

    let mut injected = false;
    Resharder::new(&db)
        .batch_ids(7)
        .run_with_checkpoints(4, |progress| {
            if !injected && progress.active && progress.migrated_ids >= 14 {
                injected = true;
                // One replica per physical shard (old and new layout
                // shards alike) goes dark mid-migration.
                for shard in 0..4 {
                    db.fail_replica(shard, 1).unwrap();
                }
            }
            if injected && progress.active {
                // Writes keep landing on the healthy copies only.
                let id = db
                    .insert_scene(&format!("during-{}", progress.batches), &scene(9))
                    .unwrap();
                if progress.batches % 2 == 0 {
                    db.remove(id).unwrap();
                }
            }
        })
        .unwrap();
    assert!(injected, "the fault actually fired mid-migration");
    assert_eq!(db.shard_count(), 4);

    let health = db.replica_health();
    assert!(
        health.iter().all(|shard| !shard[1]),
        "failed replicas stayed out of rotation: {health:?}"
    );

    // Heal: every rebuilt replica must equal its shard's surviving copy
    // bit-for-bit — i.e. land on the *new* topology exactly up to date,
    // not on the pre-reshard layout it died under.
    for shard in 0..4 {
        db.rebuild_replica(shard, 1).unwrap();
        let primary = db.with_replica_read(shard, 0, Clone::clone);
        let rebuilt = db.with_replica_read(shard, 1, Clone::clone);
        assert_eq!(primary, rebuilt, "shard {shard} rebuilt copy diverges");
    }
    assert!(db.replica_health().iter().flatten().all(|&h| h));

    // And the healed copies serve: force reads onto replica 1 by
    // failing replica 0 and 2, then search.
    for shard in 0..4 {
        db.fail_replica(shard, 0).unwrap();
        db.fail_replica(shard, 2).unwrap();
    }
    let hits = search(&db, &varied_scene(4), &QueryOptions::default());
    assert!(!hits.is_empty());
}

/// Readers hammer the database throughout a grow and a shrink; every
/// result must be duplicate-free and globally ordered (score desc, id
/// asc) — the observable fingerprint of exactly-once scatter coverage.
#[test]
fn concurrent_searches_stay_consistent_through_grow_and_shrink() {
    let db = ReplicatedImageDatabase::with_topology(3, 2);
    for i in 0..90 {
        db.insert_scene(&format!("seed-{i}"), &varied_scene(i))
            .unwrap();
    }

    let stop = AtomicBool::new(false);
    let searches = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for reader in 0..3 {
            let db = db.clone();
            let stop = &stop;
            let searches = &searches;
            scope.spawn(move || {
                let options = QueryOptions::default();
                let mut i = reader;
                while !stop.load(Ordering::Relaxed) {
                    let hits = search(&db, &varied_scene((i % 30) as i64), &options);
                    let mut seen = std::collections::HashSet::new();
                    for window in hits.windows(2) {
                        let ordered = window[0].score > window[1].score
                            || (window[0].score == window[1].score && window[0].id < window[1].id);
                        assert!(ordered, "ranking order broke mid-reshard");
                    }
                    for hit in &hits {
                        assert!(seen.insert(hit.id), "duplicate id {} in result", hit.id);
                    }
                    searches.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        let writer_db = db.clone();
        let stop_ref = &stop;
        scope.spawn(move || {
            let mut i = 0usize;
            while !stop_ref.load(Ordering::Relaxed) {
                let id = writer_db
                    .insert_scene(&format!("churn-{i}"), &varied_scene((i % 23) as i64))
                    .unwrap();
                if i.is_multiple_of(2) {
                    writer_db.remove(id).unwrap();
                }
                i += 1;
                std::thread::yield_now();
            }
        });

        // Each checkpoint waits until at least one search completed
        // since the previous batch, so the scatter path provably
        // overlaps every stage of both migrations.
        let wait_for_a_search = |_: &be2d_db::ReshardProgress| {
            let target = searches.load(Ordering::Relaxed) + 1;
            wait_for("a search", &stop, || {
                searches.load(Ordering::Relaxed) >= target
            });
        };
        Resharder::new(&db)
            .batch_ids(11)
            .run_with_checkpoints(8, wait_for_a_search)
            .unwrap();
        Resharder::new(&db)
            .batch_ids(17)
            .run_with_checkpoints(2, wait_for_a_search)
            .unwrap();
        stop.store(true, Ordering::SeqCst);
    });

    assert_eq!(db.shard_count(), 2);
    assert!(
        searches.load(Ordering::Relaxed) > 10,
        "readers actually overlapped the migration: {} searches",
        searches.load(Ordering::Relaxed)
    );
    // All seed records survived the round trip.
    for i in 0..90 {
        assert_eq!(
            db.get(RecordId(i)).unwrap().unwrap().name,
            format!("seed-{i}"),
            "seed record {i}"
        );
    }
}

/// A snapshot taken mid-migration carries the routing epoch (manifest
/// v4) and restores exactly — into replicated databases of any
/// topology and into the sharded database alike.
#[test]
fn mid_migration_snapshot_restores_exactly() {
    let dir = std::env::temp_dir().join(format!("be2d_reshard_snap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mid.json");

    let db = ReplicatedImageDatabase::with_topology(4, 2);
    for i in 0..50 {
        db.insert_scene(&format!("seed-{i}"), &varied_scene(i))
            .unwrap();
    }
    db.remove(RecordId(17)).unwrap();

    let mut saved_mid = false;
    Resharder::new(&db)
        .batch_ids(6)
        .run_with_checkpoints(6, |progress| {
            if !saved_mid && progress.active && progress.migrated_ids >= 18 {
                saved_mid = true;
                assert_eq!(db.save_snapshot(&path).unwrap(), 49);
            }
        })
        .unwrap();
    assert!(saved_mid, "snapshot was taken mid-migration");

    let manifest = std::fs::read_to_string(&path).unwrap();
    assert!(manifest.contains("\"version\":4"), "{manifest}");
    assert!(manifest.contains("\"old_shards\":4"), "{manifest}");
    assert!(manifest.contains("\"new_shards\":6"), "{manifest}");

    // The restored corpus equals the migrating corpus at save time
    // (contents were quiescent, so that is the full seed set).
    for (shards, replicas) in [(1usize, 1usize), (5, 2), (6, 1)] {
        let back = ReplicatedImageDatabase::with_topology(shards, replicas);
        assert_eq!(back.restore_from(&path).unwrap(), 49, "{shards}x{replicas}");
        for i in 0..50usize {
            match (i, back.get(RecordId(i)).unwrap()) {
                (17, found) => assert!(found.is_none()),
                (_, Some(record)) => assert_eq!(record.name, format!("seed-{i}")),
                (_, None) => panic!("record {i} lost restoring into {shards}x{replicas}"),
            }
        }
        assert_eq!(
            back.insert_scene("next", &scene(0)).unwrap(),
            RecordId(50),
            "id counter heals across a mid-migration restore"
        );
    }
    let sharded = ReplicatedImageDatabase::with_topology(3, 1);
    assert_eq!(sharded.restore_from(&path).unwrap(), 49);
    assert_eq!(sharded.get(RecordId(3)).unwrap().unwrap().name, "seed-3");
    std::fs::remove_dir_all(&dir).ok();
}

/// Degenerate topologies: 1→N and N→1 round-trip with full fidelity.
#[test]
fn reshard_to_and_from_a_single_shard() {
    let db = ReplicatedImageDatabase::with_topology(1, 1);
    for i in 0..25 {
        db.insert_scene(&format!("img-{i}"), &varied_scene(i))
            .unwrap();
    }
    let reference = {
        let mut reference = ImageDatabase::new();
        for i in 0..25 {
            reference
                .insert_scene(&format!("img-{i}"), &varied_scene(i))
                .unwrap();
        }
        reference
    };

    Resharder::new(&db).batch_ids(3).run(6).unwrap();
    assert_eq!(db.shard_count(), 6);
    assert_bit_identical(&reference, &db, "1->6");

    Resharder::new(&db).batch_ids(4).run(1).unwrap();
    assert_eq!(db.shard_count(), 1);
    assert_bit_identical(&reference, &db, "6->1");
    assert_eq!(db.len(), 25);

    // Clamped and invalid targets.
    let report = Resharder::new(&db).run(0).unwrap();
    assert_eq!(report.to, 1, "0 clamps to 1 (a no-op here)");
    assert!(matches!(
        db.remove(RecordId(99)),
        Err(DbError::UnknownRecord { id: 99 })
    ));
}
