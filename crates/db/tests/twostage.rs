//! Bounded retrieval equivalence: ranking candidates by admissible
//! score bound, exactly scoring a frontier and stopping early must
//! return results **bit-identical** (`f64::to_bits`, ties included) to
//! scoring every candidate directly — across option sets, topologies,
//! concurrent §3.2 edits, mid-reshard checkpoints, and replica
//! failures. The corpora are large enough that the early exit fires in
//! every suite, and each suite asserts that it did.
//!
//! Whether a search is bounded is the database's decision: a
//! multi-shard search with a `top_k` is, anything else scores
//! directly. A single database is driven both ways through
//! `search_bounded`.

use be2d_core::{convert_scene, BeString2D};
use be2d_db::{
    ImageDatabase, PrefilterMode, QueryOptions, QueryTrace, RecordId, ReplicatedImageDatabase,
    Resharder, ScoreThreshold, SearchHit, TwoStage,
};
use be2d_geometry::{ObjectClass, Rect, Scene, SceneBuilder, Transform};

/// A scene query through the sharded database's one search call.
fn traced(
    db: &ReplicatedImageDatabase,
    query: &Scene,
    options: &QueryOptions,
) -> (Vec<SearchHit>, QueryTrace) {
    db.search_traced(&convert_scene(query), options).unwrap()
}

/// A scene query scored directly: every candidate exactly scored.
fn direct(db: &ImageDatabase, query: &Scene, options: &QueryOptions) -> Vec<SearchHit> {
    db.search_bounded(&convert_scene(query), options, None).0
}

/// Candidates the bound pruned in one scatter, summed over shards.
fn pruned(trace: &QueryTrace) -> usize {
    trace.shards.iter().map(|s| s.bound_pruned).sum()
}

/// Whether a search's bound pruning can only come from the early exit:
/// a zero score floor prunes nothing at stage 1, and `top_k == 0`
/// prunes everything without scoring.
fn prunes_by_early_exit_only(options: &QueryOptions) -> bool {
    options.min_score <= 0.0 && options.top_k.is_some_and(|k| k > 0)
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

/// Records per corpus: enough that a shard of a 4-way split still
/// holds more candidates than one frontier batch (64).
const CORPUS: i64 = 320;

fn reference(n: i64) -> ImageDatabase {
    let mut db = ImageDatabase::new();
    for (name, scene) in corpus(n) {
        db.insert_scene(&name, &scene).unwrap();
    }
    db
}

fn sharded(shards: usize, replicas: usize, n: i64) -> ReplicatedImageDatabase {
    let db = ReplicatedImageDatabase::with_topology(shards, replicas);
    for (name, scene) in corpus(n) {
        db.insert_scene(&name, &scene).unwrap();
    }
    db
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
            "prefilter-none",
            QueryOptions {
                prefilter: PrefilterMode::None,
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
            "top-7",
            QueryOptions {
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

/// Runs the full option battery through `search`, which returns its
/// hits and bound-pruned count, against direct scoring of `reference`.
/// Returns the candidates the early exit pruned over the battery.
fn assert_bounded_equivalent<F>(
    reference: &ImageDatabase,
    search: F,
    queries: &[Scene],
    label: &str,
) -> usize
where
    F: Fn(&Scene, &QueryOptions) -> (Vec<SearchHit>, usize),
{
    let mut early_exit = 0;
    for (opt_name, options) in option_battery() {
        for (qi, query) in queries.iter().enumerate() {
            let (hits, pruned) = search(query, &options);
            assert_hits_identical(
                &direct(reference, query, &options),
                &hits,
                &format!("{label}/{opt_name}/q{qi}"),
            );
            if prunes_by_early_exit_only(&options) {
                early_exit += pruned;
            }
        }
    }
    early_exit
}

fn battery_queries() -> Vec<Scene> {
    vec![varied_scene(4), varied_scene(9), varied_scene(21)]
}

/// Single database: the whole option matrix is bit-identical between
/// `search_bounded` with a fresh threshold and without one, and the
/// early exit prunes.
#[test]
fn single_database_bounded_matches_direct() {
    let db = reference(CORPUS);
    let early_exit = assert_bounded_equivalent(
        &db,
        |q, o| {
            let (hits, stats) =
                db.search_bounded(&convert_scene(q), o, Some(&ScoreThreshold::new()));
            assert_eq!(stats.candidates, stats.scored + stats.bound_pruned);
            (hits, stats.bound_pruned)
        },
        &battery_queries(),
        "single",
    );
    assert!(early_exit > 0, "the early exit never fired");
}

/// Sharded topologies share the same guarantee against a single
/// database. The multi-shard scatter is bounded and its early exit
/// prunes; a lone shard scores directly.
#[test]
fn sharded_databases_match_single_database() {
    let reference = reference(CORPUS);
    for shards in [1usize, 4] {
        let db = sharded(shards, 1, CORPUS);
        let early_exit = assert_bounded_equivalent(
            &reference,
            |q, o| {
                let (hits, trace) = traced(&db, q, o);
                (hits, pruned(&trace))
            },
            &battery_queries(),
            &format!("sharded-{shards}"),
        );
        if shards == 1 {
            assert_eq!(early_exit, 0, "a lone shard scores directly");
        } else {
            assert!(
                early_exit > 0,
                "{shards} shards: the early exit never fired"
            );
        }
    }
}

/// Replicated scatter-gather is bit-identical, and stays so with a
/// replica failed out of every shard.
#[test]
fn replicated_database_matches_single_database_even_with_failed_replicas() {
    let reference = reference(CORPUS);
    let db = sharded(3, 2, CORPUS);
    let search = |q: &Scene, o: &QueryOptions| {
        let (hits, trace) = traced(&db, q, o);
        (hits, pruned(&trace))
    };
    let early_exit =
        assert_bounded_equivalent(&reference, search, &battery_queries(), "replicated-3x2");
    assert!(early_exit > 0, "3x2: the early exit never fired");

    for shard in 0..3 {
        db.fail_replica(shard, (shard + 1) % 2).unwrap();
    }
    let early_exit = assert_bounded_equivalent(
        &reference,
        search,
        &battery_queries(),
        "replicated-3x2-degraded",
    );
    assert!(early_exit > 0, "3x2 degraded: the early exit never fired");
}

/// §3.2 edits between searches keep the sketches (and therefore the
/// bounded ranking) exact: after every add/remove/insert/delete, applied
/// alike to a 2×2 topology and a single database, the bounded scatter
/// still matches direct scoring bit-for-bit.
#[test]
fn equivalence_survives_incremental_edits() {
    let db = sharded(2, 2, CORPUS);
    let mut mirror = reference(CORPUS);
    let mut ids: Vec<RecordId> = mirror.iter().map(|r| r.id).collect();
    let class = ObjectClass::new("W");
    let mbr = Rect::new(0, 4, 0, 4).unwrap();
    let queries = battery_queries();
    let options = QueryOptions {
        top_k: Some(6),
        ..QueryOptions::default()
    };

    let mut early_exit = 0;
    for step in 0..12usize {
        match step % 4 {
            0 => {
                let id = ids[step * 3 % ids.len()];
                db.add_object(id, &class, mbr).unwrap();
                mirror.add_object(id, &class, mbr).unwrap();
            }
            1 => {
                let id = ids[(step * 5 + 1) % ids.len()];
                // Only remove where the previous step added; tolerate
                // misses so the schedule stays simple.
                assert_eq!(
                    db.remove_object(id, &class, mbr).is_ok(),
                    mirror.remove_object(id, &class, mbr).is_ok()
                );
            }
            2 => {
                let name = format!("edit-{step}");
                let scene = varied_scene(step as i64 + 100);
                let id = db.insert_scene(&name, &scene).unwrap();
                assert_eq!(mirror.insert_scene(&name, &scene).unwrap(), id);
                ids.push(id);
            }
            _ => {
                let id = ids.remove(step % ids.len());
                db.remove(id).unwrap();
                mirror.remove(id).unwrap();
            }
        }
        for (qi, query) in queries.iter().enumerate() {
            let (hits, trace) = traced(&db, query, &options);
            assert_hits_identical(
                &direct(&mirror, query, &options),
                &hits,
                &format!("edit step {step} q{qi}"),
            );
            early_exit += pruned(&trace);
        }
    }
    assert!(early_exit > 0, "the early exit never fired");
}

/// Mid-reshard: at every migration checkpoint (old and new shards both
/// live, routed by the epoch) the bounded scatter still equals direct
/// scoring of a single database.
#[test]
fn equivalence_holds_at_every_reshard_checkpoint() {
    let reference = reference(CORPUS);
    let db = sharded(2, 2, CORPUS);
    let queries = battery_queries();
    let options = QueryOptions {
        top_k: Some(5),
        ..QueryOptions::default()
    };
    let mut checkpoints = 0usize;
    let mut early_exit = 0;
    for (target, batch) in [(5usize, 41usize), (3, 53)] {
        Resharder::new(&db)
            .batch_ids(batch)
            .run_with_checkpoints(target, |_| {
                for (qi, query) in queries.iter().enumerate() {
                    let (hits, trace) = traced(&db, query, &options);
                    assert_hits_identical(
                        &direct(&reference, query, &options),
                        &hits,
                        &format!("reshard->{target} checkpoint {checkpoints} q{qi}"),
                    );
                    early_exit += pruned(&trace);
                }
                checkpoints += 1;
            })
            .unwrap();
        assert_eq!(db.shard_count(), target);
    }
    assert!(checkpoints >= 6, "checkpoints exercised: {checkpoints}");
    assert!(early_exit > 0, "the early exit never fired");
}

/// Bounded pruning actually prunes: with a small top-k on a corpus
/// with a clear score gradient, fewer candidates are exactly scored
/// than exist, and stats account for every candidate.
#[test]
fn stats_show_real_pruning_and_account_for_every_candidate() {
    let db = reference(CORPUS);
    let query = convert_scene(&varied_scene(4));
    let options = QueryOptions {
        top_k: Some(3),
        ..QueryOptions::default()
    };
    let (hits, stats) = db.search_bounded(&query, &options, Some(&ScoreThreshold::new()));
    assert_eq!(hits.len(), 3);
    assert_eq!(
        stats.scored + stats.bound_pruned,
        stats.candidates,
        "every candidate is either scored or pruned: {stats:?}"
    );
    assert!(
        stats.scored < stats.candidates,
        "pruning never fired on a {CORPUS}-image corpus: {stats:?}"
    );

    // Direct scoring scores everything and prunes nothing.
    let (_, stats) = db.search_bounded(&query, &options, None);
    assert_eq!(stats.scored, stats.candidates);
    assert_eq!(stats.bound_pruned, 0);
}

/// The traced scatter path reports per-shard stage-2 stats that add up,
/// and the shared cross-shard threshold never changes the merged top-k.
#[test]
fn traces_carry_stage_counts_across_shards() {
    let db = sharded(4, 1, CORPUS);
    let query = varied_scene(9);
    let options = QueryOptions {
        top_k: Some(4),
        ..QueryOptions::default()
    };
    let (hits, trace) = traced(&db, &query, &options);
    assert_eq!(hits.len(), 4);
    let scored: usize = trace.shards.iter().map(|s| s.scored).sum();
    assert!(scored > 0, "{trace:?}");
    assert!(pruned(&trace) > 0, "the early exit never fired: {trace:?}");
    assert_hits_identical(
        &direct(&reference(CORPUS), &query, &options),
        &hits,
        "traced scatter",
    );

    let m = db.metrics();
    assert!(m.stage2_scored.get() >= scored as u64);
}

/// The decision itself, whatever the retired `two_stage` option says:
/// a single database and a 1×1 topology score directly (nothing pruned,
/// no ordered scatter); a 2×2 or 4×1 top-k scatter is ordered and
/// bounded, with every shard's candidates either scored or pruned.
#[test]
fn bounded_iff_multi_shard_top_k() {
    let reference = reference(CORPUS);
    let queries = battery_queries();
    for two_stage in [None, Some(TwoStage {})] {
        let options = QueryOptions {
            top_k: Some(5),
            two_stage,
            ..QueryOptions::default()
        };
        for query in &queries {
            let (_, stats) = reference.search_bounded(&convert_scene(query), &options, None);
            assert_eq!(stats.bound_pruned, 0, "single {two_stage:?}");
            assert_eq!(stats.scored, stats.candidates, "single {two_stage:?}");
        }
        for (shards, replicas) in [(1usize, 1usize), (2, 2), (4, 1)] {
            let db = sharded(shards, replicas, CORPUS);
            let when = format!("{shards}x{replicas} {two_stage:?}");
            for query in &queries {
                let (_, trace) = traced(&db, query, &options);
                if shards == 1 {
                    assert!(!trace.ordered, "{when}");
                    assert_eq!(pruned(&trace), 0, "{when}");
                    continue;
                }
                assert!(trace.ordered, "{when}");
                let query: BeString2D = convert_scene(query);
                for st in &trace.shards {
                    let candidates = db.with_replica_read(st.shard, st.replica, |shard| {
                        shard.search_bounded(&query, &options, None).1.candidates
                    });
                    assert_eq!(
                        candidates,
                        st.scored + st.bound_pruned,
                        "{when}: shard {}",
                        st.shard
                    );
                }
            }
            // Without a top-k nothing can be pruned: no threshold.
            let unbounded = QueryOptions {
                top_k: None,
                ..options.clone()
            };
            let (_, trace) = traced(&db, &queries[0], &unbounded);
            assert!(!trace.ordered, "{when} unbounded");
            assert_eq!(pruned(&trace), 0, "{when} unbounded");
        }
    }
}
