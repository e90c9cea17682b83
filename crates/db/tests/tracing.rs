//! Query tracing and metrics instrumentation: traced searches must be
//! bit-identical to untraced ones, stage timings must nest inside the
//! measured total, and the always-on histograms must observe traffic.

use be2d_core::convert_scene;
use be2d_db::{
    CandidateStrategy, PrefilterMode, QueryOptions, QueryTrace, ReplicatedImageDatabase,
};
use be2d_geometry::{Scene, SceneBuilder};

const CLASSES: [&str; 6] = ["A", "B", "C", "D", "F", "G"];

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

fn populated(shards: usize, replicas: usize, n: usize) -> (ReplicatedImageDatabase, Vec<Scene>) {
    let mut rng = Lcg(0xbe2d | 1);
    let db = ReplicatedImageDatabase::with_topology(shards, replicas);
    let mut scenes = Vec::with_capacity(n);
    for i in 0..n {
        let scene = random_scene(&mut rng);
        db.insert_scene(&format!("img{i}"), &scene).unwrap();
        scenes.push(scene);
    }
    (db, scenes)
}

/// Back-to-back searches land on different replicas of each shard, so
/// ids, order, and scores must match to the last bit of the `f64`.
#[test]
fn repeated_searches_are_bit_identical_across_replica_picks() {
    let (db, scenes) = populated(4, 2, 120);
    let options = QueryOptions::default();
    for scene in scenes.iter().take(25) {
        let query = convert_scene(scene);
        let (plain, _) = db.search_traced(&query, &options).unwrap();
        let (traced, _) = db.search_traced(&query, &options).unwrap();
        assert_eq!(plain.len(), traced.len());
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "scores must match bit-for-bit"
            );
        }
    }
}

/// Stage timings are measured disjointly inside the total, the shard
/// list covers the topology, and per-shard hit counts bound the merged
/// result.
#[test]
fn trace_stages_nest_inside_the_total() {
    let (db, scenes) = populated(4, 2, 120);
    let options = QueryOptions {
        top_k: Some(10),
        ..QueryOptions::default()
    };
    for scene in scenes.iter().take(10) {
        let (hits, trace) = db.search_traced(&convert_scene(scene), &options).unwrap();
        assert!(
            trace.stage_sum_ns() <= trace.total_ns,
            "stage sum {} must fit in total {}",
            trace.stage_sum_ns(),
            trace.total_ns
        );
        assert_eq!(trace.shards.len(), 4, "one entry per shard");
        let contributed: usize = trace.shards.iter().map(|s| s.hits).sum();
        assert!(contributed >= hits.len());
        for shard in &trace.shards {
            assert!(shard.replica < 2);
            if shard.skipped {
                assert_eq!(shard.hits, 0, "a skipped shard contributes nothing");
            }
        }
    }
}

/// A single-shard topology still produces a coherent trace.
#[test]
fn single_shard_trace_has_one_entry() {
    let (db, scenes) = populated(1, 1, 40);
    let (_, trace) = db
        .search_traced(&convert_scene(&scenes[0]), &QueryOptions::default())
        .unwrap();
    assert_eq!(trace.shards.len(), 1);
    assert!(trace.stage_sum_ns() <= trace.total_ns);
    assert!(trace.scatter_ns <= trace.total_ns);
}

/// The always-on histograms and counters observe every search and
/// every logged mutation without any trace flag.
#[test]
fn metrics_observe_traffic() {
    let (db, scenes) = populated(4, 2, 80);
    let m = db.metrics();
    assert_eq!(m.oplog_append.snapshot().count, 80, "one append per insert");
    let before = m.search_total.snapshot().count;
    for scene in scenes.iter().take(5) {
        let _ = db
            .search_traced(&convert_scene(scene), &QueryOptions::default())
            .unwrap()
            .0;
    }
    let total = m.search_total.snapshot();
    assert_eq!(total.count, before + 5);
    assert!(total.sum_ns > 0);
    let scatter0 = m.scatter.get(0).snapshot();
    assert_eq!(scatter0.count, 5, "shard 0 scanned every search");
    assert_eq!(m.replica_picks.get(), 20, "4 picks per 4-shard search");
    assert_eq!(
        m.outstanding_reads.get(),
        0,
        "reads all returned, gauge back to zero"
    );
}

/// Every search counter of `DbMetrics` reconciles exactly with the
/// traces the searches return, on one, two and four shards, over a
/// battery that skips shards, takes the dense scan, runs bounded and
/// direct searches, and searches with no `top_k`.
#[test]
fn counters_reconcile_exactly_with_traces() {
    for (shards, replicas) in [(1, 1), (2, 2), (4, 1)] {
        let (db, scenes) = populated(shards, replicas, 120);
        // "R" lives in one record, so a query for it skips every other
        // shard; "Z" lives nowhere, so a query for it skips them all.
        let lone = |class: &str| {
            SceneBuilder::new(256, 256)
                .object(class, (0, 10, 0, 10))
                .build()
                .expect("valid scene")
        };
        db.insert_scene("rare", &lone("R")).unwrap();
        let mut queries: Vec<Scene> = scenes.iter().take(4).cloned().collect();
        queries.extend([lone("R"), lone("Z")]);
        let battery = [
            QueryOptions::default(),
            QueryOptions::default().with_top_k(None),
            // a floor lets a bounded search prune by bound
            QueryOptions {
                prefilter: PrefilterMode::None,
                top_k: Some(5),
                min_score: 0.5,
                ..QueryOptions::default()
            },
            QueryOptions {
                prefilter: PrefilterMode::AllClasses,
                top_k: Some(3),
                ..QueryOptions::default()
            },
        ];

        let m = db.metrics();
        let counters = || {
            [
                m.replica_picks.get(),
                m.stage2_scored.get(),
                m.bound_pruned.get(),
                m.planner_skipped.get(),
                m.planner_dense_scans.get(),
                m.planner_ordered_scatters.get(),
                m.gather.snapshot().count,
                m.search_total.snapshot().count,
            ]
        };
        let visits = || -> Vec<u64> {
            (0..shards)
                .map(|shard| m.scatter.get(shard).snapshot().count)
                .collect()
        };
        let (counters_before, visits_before) = (counters(), visits());
        let traces: Vec<QueryTrace> = queries
            .iter()
            .flat_map(|query| {
                battery.iter().map(|options| {
                    db.search_traced(&convert_scene(query), options)
                        .expect("healthy topology")
                        .1
                })
            })
            .collect();
        let counters_after = counters();
        let delta: Vec<u64> = (0..counters_before.len())
            .map(|i| counters_after[i] - counters_before[i])
            .collect();

        let entries = || traces.iter().flat_map(|t| &t.shards);
        let sum = |f: fn(&be2d_db::ShardTrace) -> usize| entries().map(f).sum::<usize>() as u64;
        let searches = traces.len() as u64;
        let want = [
            entries().count() as u64,
            sum(|s| s.scored),
            sum(|s| s.bound_pruned),
            sum(|s| usize::from(s.skipped)),
            sum(|s| usize::from(s.strategy == CandidateStrategy::DenseScan)),
            traces.iter().filter(|t| t.ordered).count() as u64,
            searches,
            searches,
        ];
        assert_eq!(delta, want, "{shards}x{replicas}: counter deltas vs traces");
        for (shard, (after, before)) in visits().iter().zip(&visits_before).enumerate() {
            let visited = entries().filter(|s| s.shard == shard).count() as u64;
            assert_eq!(
                after - before,
                visited,
                "{shards}x{replicas}: shard {shard} visits"
            );
        }

        // The battery reached every path it is meant to cover.
        assert!(want[3] > 0, "a shard was skipped");
        assert!(want[4] > 0, "a shard took the dense scan");
        assert!(traces.iter().any(|t| !t.ordered), "a direct search ran");
        if shards > 1 {
            assert!(want[5] > 0, "a bounded search ran");
            assert!(want[2] > 0, "a bounded search pruned by bound");
        }
    }
}
