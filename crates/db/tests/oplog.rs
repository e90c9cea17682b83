//! Write-ahead-log durability: every **acknowledged** write survives an
//! abrupt shutdown (drop without snapshot or checkpoint), torn trailing
//! records are detected and healed rather than poisoning recovery, and
//! snapshot checkpoints bound how much log a reboot has to replay. The
//! recovered corpus must rank bit-identically to one built live.

use be2d_core::convert_scene;
use be2d_db::{
    QueryOptions, RecordId, ReplicaConfig, ReplicatedImageDatabase, ReplicationMode, WalConfig,
};
use be2d_geometry::{ObjectClass, Rect, Scene, SceneBuilder};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn scene(i: i64) -> Scene {
    SceneBuilder::new(120, 120)
        .object("A", ((i * 7) % 80, (i * 7) % 80 + 12, 5, 25))
        .object("B", (30, 70, (i * 11) % 60, (i * 11) % 60 + 18))
        .build()
        .unwrap()
}

fn fresh_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "be2d_oplog_{tag}_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_config(shards: usize, dir: &Path, fsync_every: u64) -> ReplicaConfig {
    ReplicaConfig {
        shards,
        replicas: 1,
        mode: ReplicationMode::Sync,
        oplog_window: 256,
        wal: Some(WalConfig {
            dir: dir.to_path_buf(),
            fsync_every,
        }),
    }
}

/// Mixed mutations (inserts, a remove, an incremental object edit) are
/// appended to the WAL; dropping the database without any snapshot and
/// rebooting from the same directory reproduces the corpus exactly —
/// including bit-identical rankings against a database built live.
#[test]
fn reboot_replays_every_acknowledged_write() {
    let dir = fresh_dir("reboot");

    let reference = ReplicatedImageDatabase::with_topology(2, 1);
    {
        let db = ReplicatedImageDatabase::with_config(wal_config(2, &dir, 1)).unwrap();
        for target in [&db, &reference] {
            for i in 0..12 {
                target.insert_scene(&format!("img-{i}"), &scene(i)).unwrap();
            }
            target.remove(RecordId(5)).unwrap();
            target
                .add_object(
                    RecordId(3),
                    &ObjectClass::new("Z"),
                    Rect::new(0, 9, 0, 9).unwrap(),
                )
                .unwrap();
        }
        assert_eq!(db.len(), 11);
        // Dropped here: no save_snapshot, no checkpoint — the WAL is
        // the only persistent state.
    }

    let back = ReplicatedImageDatabase::with_config(wal_config(2, &dir, 1)).unwrap();
    assert_eq!(back.len(), 11);
    assert!(back.get(RecordId(5)).unwrap().is_none());
    for i in (0..12).filter(|&i| i != 5) {
        assert_eq!(
            back.get(RecordId(i)).unwrap().unwrap().name,
            format!("img-{i}")
        );
    }
    assert!(back.oplog_stats().wal.expect("wal on").recovered >= 14);

    let options = QueryOptions::default();
    for probe in 0..12 {
        let a = reference
            .search_traced(&convert_scene(&scene(probe)), &options)
            .unwrap()
            .0;
        let b = back
            .search_traced(&convert_scene(&scene(probe)), &options)
            .unwrap()
            .0;
        assert_eq!(a.len(), b.len(), "probe {probe}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id, "probe {probe}");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "probe {probe}");
        }
    }

    // Id healing is monotonic: the next insert collides with nothing.
    let next = back.insert_scene("after", &scene(40)).unwrap();
    assert!(next.index() >= 12, "{next:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn trailing record — half a line, as an abrupt kill mid-append
/// leaves behind — is detected by the per-record checksum, truncated
/// away, and counted; every complete record before it still replays.
#[test]
fn torn_tail_is_healed_and_prefix_replays() {
    let dir = fresh_dir("torn");
    {
        let db = ReplicatedImageDatabase::with_config(wal_config(1, &dir, 1)).unwrap();
        for i in 0..6 {
            db.insert_scene(&format!("img-{i}"), &scene(i)).unwrap();
        }
    }

    // Simulate the kill: a partial record with no trailing newline.
    let wal = dir.join("shard0.wal");
    let before = std::fs::metadata(&wal).unwrap().len();
    let mut file = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    file.write_all(b"{\"seq\":99,\"sum\":\"00000000").unwrap();
    drop(file);

    let back = ReplicatedImageDatabase::with_config(wal_config(1, &dir, 1)).unwrap();
    assert_eq!(back.len(), 6);
    for i in 0..6 {
        assert_eq!(
            back.get(RecordId(i)).unwrap().unwrap().name,
            format!("img-{i}")
        );
    }
    let wal_stats = back.oplog_stats().wal.expect("wal on");
    assert_eq!(wal_stats.healed_tails, 1);
    assert_eq!(wal_stats.recovered, 6);

    // The torn bytes are gone from disk (boot heals in place, then the
    // recovery checkpoint rewrites the file), and the sequence counter
    // moved past every replayed record: new writes append cleanly and
    // survive another reboot.
    assert!(std::fs::metadata(&wal).unwrap().len() < before);
    back.insert_scene("post-heal", &scene(30)).unwrap();
    drop(back);
    let again = ReplicatedImageDatabase::with_config(wal_config(1, &dir, 1)).unwrap();
    assert_eq!(again.len(), 7);
    std::fs::remove_dir_all(&dir).ok();
}

/// `checkpoint_wal` anchors a snapshot and drops the replayed prefix:
/// only ops logged after the checkpoint are replayed on the next boot.
#[test]
fn checkpoint_bounds_replay_to_the_tail() {
    let dir = fresh_dir("ckpt");
    {
        let db = ReplicatedImageDatabase::with_config(wal_config(2, &dir, 1)).unwrap();
        for i in 0..10 {
            db.insert_scene(&format!("img-{i}"), &scene(i)).unwrap();
        }
        assert_eq!(db.checkpoint_wal().unwrap(), 10);
        for i in 10..13 {
            db.insert_scene(&format!("img-{i}"), &scene(i)).unwrap();
        }
    }

    let back = ReplicatedImageDatabase::with_config(wal_config(2, &dir, 1)).unwrap();
    assert_eq!(back.len(), 13);
    for i in 0..13 {
        assert_eq!(
            back.get(RecordId(i)).unwrap().unwrap().name,
            format!("img-{i}")
        );
    }
    // Exactly the three post-checkpoint inserts replayed; the first ten
    // came from the anchor snapshot.
    assert_eq!(back.oplog_stats().wal.expect("wal on").recovered, 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// WAL durability composes with asynchronous replication: acks return
/// from the leader, the background pump drains the follower, and after
/// an abrupt drop the reboot still owns every acknowledged write.
#[test]
fn async_mode_with_wal_survives_reboot() {
    let dir = fresh_dir("async");
    {
        let db = ReplicatedImageDatabase::with_config(ReplicaConfig {
            shards: 2,
            replicas: 2,
            mode: ReplicationMode::Async { max_lag: 8 },
            oplog_window: 256,
            wal: Some(WalConfig {
                dir: dir.clone(),
                fsync_every: 1,
            }),
        })
        .unwrap();
        for i in 0..9 {
            db.insert_scene(&format!("img-{i}"), &scene(i)).unwrap();
        }
        db.flush_replication();
        let stats = db.replication_stats();
        assert_eq!(stats.mode.name(), "async");
        for shard in &stats.shards {
            for replica in &replica_lags(shard) {
                assert_eq!(*replica, 0);
            }
        }
    }

    let back = ReplicatedImageDatabase::with_config(ReplicaConfig {
        shards: 2,
        replicas: 2,
        mode: ReplicationMode::Async { max_lag: 8 },
        oplog_window: 256,
        wal: Some(WalConfig {
            dir: dir.clone(),
            fsync_every: 4,
        }),
    })
    .unwrap();
    assert_eq!(back.len(), 9);
    for i in 0..9 {
        assert_eq!(
            back.get(RecordId(i)).unwrap().unwrap().name,
            format!("img-{i}")
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn replica_lags(shard: &be2d_db::ShardReplication) -> Vec<u64> {
    shard.replicas.iter().map(|r| r.lag).collect()
}
