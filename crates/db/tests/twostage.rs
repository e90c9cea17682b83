//! Two-stage retrieval equivalence: ranking by admissible score bound
//! with exact §3 re-ranking of a frontier must return results
//! **bit-identical** (`f64::to_bits`, ties included) to exhaustive
//! scoring — across option sets, topologies, concurrent §3.2 edits,
//! mid-reshard checkpoints, and replica failures.

use be2d_core::convert_scene;
use be2d_db::{
    CandidateSource, ImageDatabase, Parallelism, PrefilterMode, QueryOptions, RecordId,
    ReplicatedImageDatabase, Resharder, SearchHit,
};
use be2d_geometry::{ObjectClass, Rect, Scene, SceneBuilder, Transform};

/// A scene query through the database's one search call.
fn search(db: &ReplicatedImageDatabase, query: &Scene, options: &QueryOptions) -> Vec<SearchHit> {
    db.search_traced(&convert_scene(query), options).unwrap().0
}

/// A discriminating corpus: objects vary in position, size, class set,
/// and relation order, so scores spread out and pruning has teeth.
fn varied_scene(i: i64) -> Scene {
    let x = (i * 7) % 80;
    let y = (i * 13) % 70;
    let mut builder = SceneBuilder::new(120, 120)
        .object("A", (x, x + 9, y, y + 12))
        .object("B", (30, 60, 40, 70));
    if i % 3 == 0 {
        builder = builder.object("C", (x / 2, x / 2 + 5, 80, 95));
    }
    if i % 4 == 1 {
        builder = builder.object("D", (90, 110, y / 2, y / 2 + 8));
    }
    builder.build().unwrap()
}

fn corpus(n: i64) -> Vec<(String, Scene)> {
    (0..n)
        .map(|i| (format!("img-{i}"), varied_scene(i)))
        .collect()
}

/// The option matrix: every combination the query planner treats
/// differently, each paired with a descriptive label.
fn option_battery() -> Vec<(&'static str, QueryOptions)> {
    let base = QueryOptions::default();
    vec![
        ("default", base.clone()),
        (
            "top5",
            QueryOptions {
                top_k: Some(5),
                ..base.clone()
            },
        ),
        (
            "top1",
            QueryOptions {
                top_k: Some(1),
                ..base.clone()
            },
        ),
        (
            "top0",
            QueryOptions {
                top_k: Some(0),
                ..base.clone()
            },
        ),
        (
            "unbounded",
            QueryOptions {
                top_k: None,
                ..base.clone()
            },
        ),
        (
            "min-score",
            QueryOptions {
                top_k: Some(8),
                min_score: 0.35,
                ..base.clone()
            },
        ),
        (
            "prefilter-all",
            QueryOptions {
                prefilter: PrefilterMode::AllClasses,
                top_k: Some(6),
                ..base.clone()
            },
        ),
        (
            "class-index",
            QueryOptions {
                candidates: CandidateSource::ClassIndex,
                top_k: Some(6),
                ..base.clone()
            },
        ),
        (
            "all-transforms",
            QueryOptions {
                transforms: Transform::ALL.to_vec(),
                top_k: Some(5),
                ..base.clone()
            },
        ),
        (
            "serial",
            QueryOptions {
                parallel: Parallelism::Off,
                top_k: Some(7),
                ..base.clone()
            },
        ),
        (
            "parallel",
            QueryOptions {
                parallel: Parallelism::On,
                top_k: Some(7),
                ..base
            },
        ),
    ]
}

fn assert_hits_identical(expect: &[SearchHit], got: &[SearchHit], when: &str) {
    assert_eq!(expect.len(), got.len(), "{when}: result length");
    for (rank, (a, b)) in expect.iter().zip(got).enumerate() {
        assert_eq!(a.id, b.id, "{when}: rank {rank} id");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{when}: rank {rank} score bits"
        );
        assert_eq!(a.transform, b.transform, "{when}: rank {rank} transform");
    }
}

/// Runs the full option battery × frontier sizes against one search
/// function, comparing two-stage output to exhaustive output.
fn assert_two_stage_equivalent<F>(search: F, queries: &[Scene], label: &str)
where
    F: Fn(&Scene, &QueryOptions) -> Vec<SearchHit>,
{
    for (opt_name, options) in option_battery() {
        for (qi, query) in queries.iter().enumerate() {
            let exhaustive = search(query, &options);
            for frontier in [1usize, 4, 64] {
                let staged = search(query, &options.clone().with_two_stage(frontier));
                assert_hits_identical(
                    &exhaustive,
                    &staged,
                    &format!("{label}/{opt_name}/q{qi}/frontier={frontier}"),
                );
            }
        }
    }
}

fn battery_queries() -> Vec<Scene> {
    vec![varied_scene(4), varied_scene(9), varied_scene(21)]
}

/// Single database: the whole option matrix is bit-identical.
#[test]
fn single_database_matches_exhaustive() {
    let mut db = ImageDatabase::new();
    for (name, scene) in corpus(60) {
        db.insert_scene(&name, &scene).unwrap();
    }
    assert_two_stage_equivalent(|q, o| db.search_scene(q, o), &battery_queries(), "single");
}

/// Sharded topologies (including the single-shard fast path) share the
/// same guarantee; multi-shard runs exercise the cross-shard threshold.
#[test]
fn sharded_databases_match_exhaustive() {
    for shards in [1usize, 4] {
        let db = ReplicatedImageDatabase::with_topology(shards, 1);
        for (name, scene) in corpus(60) {
            db.insert_scene(&name, &scene).unwrap();
        }
        assert_two_stage_equivalent(
            |q, o| search(&db, q, o),
            &battery_queries(),
            &format!("sharded-{shards}"),
        );
    }
}

/// Replicated scatter-gather (the traced search path) is bit-identical,
/// and stays so with a replica failed out of every shard.
#[test]
fn replicated_database_matches_exhaustive_even_with_failed_replicas() {
    let db = ReplicatedImageDatabase::with_topology(3, 2);
    for (name, scene) in corpus(60) {
        db.insert_scene(&name, &scene).unwrap();
    }
    assert_two_stage_equivalent(
        |q, o| search(&db, q, o),
        &battery_queries(),
        "replicated-3x2",
    );

    for shard in 0..3 {
        db.fail_replica(shard, (shard + 1) % 2).unwrap();
    }
    assert_two_stage_equivalent(
        |q, o| search(&db, q, o),
        &battery_queries(),
        "replicated-3x2-degraded",
    );
}

/// §3.2 edits between searches keep the sketches (and therefore the
/// two-stage ranking) exact: after every add/remove/insert/delete the
/// staged result still matches exhaustive bit-for-bit.
#[test]
fn equivalence_survives_incremental_edits() {
    let db = ReplicatedImageDatabase::with_topology(2, 2);
    let mut ids: Vec<RecordId> = corpus(40)
        .iter()
        .map(|(name, scene)| db.insert_scene(name, scene).unwrap())
        .collect();
    let class = ObjectClass::new("W");
    let mbr = Rect::new(0, 4, 0, 4).unwrap();
    let queries = battery_queries();

    for step in 0..12usize {
        match step % 4 {
            0 => {
                let id = ids[step * 3 % ids.len()];
                db.add_object(id, &class, mbr).unwrap();
            }
            1 => {
                let id = ids[(step * 5 + 1) % ids.len()];
                // Only remove where the previous step added; tolerate
                // misses so the schedule stays simple.
                let _ = db.remove_object(id, &class, mbr);
            }
            2 => {
                let id = db
                    .insert_scene(&format!("edit-{step}"), &varied_scene(step as i64 + 100))
                    .unwrap();
                ids.push(id);
            }
            _ => {
                let id = ids.remove(step % ids.len());
                db.remove(id).unwrap();
            }
        }
        let options = QueryOptions {
            top_k: Some(6),
            ..QueryOptions::default()
        };
        for (qi, query) in queries.iter().enumerate() {
            let exhaustive = search(&db, query, &options);
            let staged = search(&db, query, &options.clone().with_two_stage(4));
            assert_hits_identical(&exhaustive, &staged, &format!("edit step {step} q{qi}"));
        }
    }
}

/// Mid-reshard: at every migration checkpoint (old and new shards both
/// live, routed by the epoch) two-stage search still equals exhaustive.
#[test]
fn equivalence_holds_at_every_reshard_checkpoint() {
    let db = ReplicatedImageDatabase::with_topology(2, 2);
    for (name, scene) in corpus(70) {
        db.insert_scene(&name, &scene).unwrap();
    }
    let queries = battery_queries();
    let options = QueryOptions {
        top_k: Some(5),
        ..QueryOptions::default()
    };
    let mut checkpoints = 0usize;
    for (target, batch) in [(5usize, 9usize), (3, 13)] {
        Resharder::new(&db)
            .batch_ids(batch)
            .run_with_checkpoints(target, |_| {
                for (qi, query) in queries.iter().enumerate() {
                    let exhaustive = search(&db, query, &options);
                    let staged = search(&db, query, &options.clone().with_two_stage(8));
                    assert_hits_identical(
                        &exhaustive,
                        &staged,
                        &format!("reshard->{target} checkpoint {checkpoints} q{qi}"),
                    );
                }
                checkpoints += 1;
            })
            .unwrap();
        assert_eq!(db.shard_count(), target);
    }
    assert!(checkpoints >= 6, "checkpoints exercised: {checkpoints}");
}

/// Two-stage pruning actually prunes: with a small top-k on a corpus
/// with a clear score gradient, fewer candidates are exactly scored
/// than exist, and stats account for every candidate.
#[test]
fn stats_show_real_pruning_and_account_for_every_candidate() {
    let mut db = ImageDatabase::new();
    for (name, scene) in corpus(120) {
        db.insert_scene(&name, &scene).unwrap();
    }
    let query = varied_scene(4);
    let options = QueryOptions {
        top_k: Some(3),
        ..QueryOptions::default()
    }
    .with_two_stage(8);
    let (hits, stats) = db.search_bounded(
        &be2d_core::SymbolicImage::from_scene(&query).to_be_string_2d(),
        &options,
        None,
    );
    assert_eq!(hits.len(), 3);
    assert_eq!(
        stats.scored + stats.bound_pruned,
        stats.candidates,
        "every candidate is either scored or pruned: {stats:?}"
    );
    assert!(
        stats.scored < stats.candidates,
        "pruning never fired on a 120-image corpus: {stats:?}"
    );

    // Exhaustive mode scores everything and prunes nothing.
    let exhaustive = QueryOptions {
        top_k: Some(3),
        ..QueryOptions::default()
    };
    let (_, stats) = db.search_bounded(
        &be2d_core::SymbolicImage::from_scene(&query).to_be_string_2d(),
        &exhaustive,
        None,
    );
    assert_eq!(stats.scored, stats.candidates);
    assert_eq!(stats.bound_pruned, 0);
}

/// The traced scatter path reports per-shard stage-2 stats that add up,
/// and the shared cross-shard threshold never changes the merged top-k.
#[test]
fn traces_carry_stage_counts_across_shards() {
    let db = ReplicatedImageDatabase::with_topology(4, 1);
    for (name, scene) in corpus(100) {
        db.insert_scene(&name, &scene).unwrap();
    }
    let query = varied_scene(9);
    let options = QueryOptions {
        top_k: Some(4),
        ..QueryOptions::default()
    }
    .with_two_stage(8);
    let (hits, trace) = db.search_traced(&convert_scene(&query), &options).unwrap();
    assert_eq!(hits.len(), 4);
    let scored: usize = trace.shards.iter().map(|s| s.scored).sum();
    let pruned: usize = trace.shards.iter().map(|s| s.bound_pruned).sum();
    assert!(scored > 0, "{trace:?}");
    assert!(
        scored + pruned >= hits.len(),
        "stage totals too small: {trace:?}"
    );
    let exhaustive = search(
        &db,
        &query,
        &QueryOptions {
            top_k: Some(4),
            ..QueryOptions::default()
        },
    );
    assert_hits_identical(&exhaustive, &hits, "traced scatter");

    let m = db.metrics();
    assert!(m.stage2_scored.get() >= scored as u64);
}
