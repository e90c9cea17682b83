//! Property tests for snapshot manifests: arbitrary v4 manifests either
//! round-trip exactly or are **rejected cleanly** — a failed restore
//! never leaves a partial corpus behind, and id-counter healing is
//! always monotonic (an insert after any successful restore can never
//! collide with a restored record or reuse a pre-restore id). Retired
//! v1–v3 layouts are always rejected cleanly.

use be2d_core::convert_scene;
use be2d_db::{ImageDatabase, QueryOptions, RecordId, ReplicatedImageDatabase, SearchHit};
use be2d_geometry::{ObjectClass, Rect, Scene, SceneBuilder};
use proptest::prelude::*;
use serde::{Deserialize, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn scene(i: i64) -> Scene {
    SceneBuilder::new(80, 80)
        .object("A", ((i * 5) % 60, (i * 5) % 60 + 8, 4, 14))
        .object("B", (20, 50, 30, 60))
        .build()
        .unwrap()
}

fn fresh_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "be2d_manifest_prop_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fields of a parsed manifest, extracted through the JSON tree so
/// the test can re-emit any manifest version (with optional damage).
struct ManifestFields {
    format: String,
    snapshot_id: u64,
    writer: u64,
    shards: u64,
    next_id: u64,
    records: u64,
    files: Vec<String>,
    file_snapshots: Vec<u64>,
    edits: Vec<u64>,
    old_shards: u64,
    new_shards: u64,
    boundary: u64,
    log_heads: Vec<u64>,
    wal_seq: u64,
}

fn field<'v>(map: &'v [(String, Value)], key: &str) -> &'v Value {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("manifest field {key} missing"))
}

fn num(map: &[(String, Value)], key: &str) -> u64 {
    u64::from_value(field(map, key)).unwrap_or_else(|_| panic!("field {key} is not a number"))
}

fn parse_fields(path: &Path) -> ManifestFields {
    let text = std::fs::read_to_string(path).unwrap();
    let value: Value = serde_json::from_str(&text).unwrap();
    let map = value.as_map().expect("manifest is a JSON object");
    let strings = |key: &str| -> Vec<String> {
        field(map, key)
            .as_seq()
            .unwrap()
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                other => panic!("{key} holds {other:?}"),
            })
            .collect()
    };
    let numbers = |key: &str| -> Vec<u64> {
        field(map, key)
            .as_seq()
            .unwrap()
            .iter()
            .map(|v| u64::from_value(v).unwrap())
            .collect()
    };
    ManifestFields {
        format: match field(map, "format") {
            Value::Str(s) => s.clone(),
            other => panic!("format holds {other:?}"),
        },
        snapshot_id: num(map, "snapshot_id"),
        writer: num(map, "writer"),
        shards: num(map, "shards"),
        next_id: num(map, "next_id"),
        records: num(map, "records"),
        files: strings("files"),
        file_snapshots: numbers("file_snapshots"),
        edits: numbers("edits"),
        old_shards: num(map, "old_shards"),
        new_shards: num(map, "new_shards"),
        boundary: num(map, "boundary"),
        log_heads: numbers("log_heads"),
        wal_seq: num(map, "wal_seq"),
    }
}

fn join_u64(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn join_files(files: &[String]) -> String {
    files
        .iter()
        .map(|f| format!("{f:?}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Re-emits the manifest in the requested on-disk version.
fn emit(fields: &ManifestFields, version: u8) -> String {
    match version {
        1 => format!(
            r#"{{"format":{:?},"version":1,"snapshot_id":{},"shards":{},"next_id":{},"records":{},"files":[{}]}}"#,
            fields.format,
            fields.snapshot_id,
            fields.shards,
            fields.next_id,
            fields.records,
            join_files(&fields.files),
        ),
        2 => format!(
            r#"{{"format":{:?},"version":2,"snapshot_id":{},"writer":{},"shards":{},"next_id":{},"records":{},"files":[{}],"file_snapshots":[{}],"edits":[{}]}}"#,
            fields.format,
            fields.snapshot_id,
            fields.writer,
            fields.shards,
            fields.next_id,
            fields.records,
            join_files(&fields.files),
            join_u64(&fields.file_snapshots),
            join_u64(&fields.edits),
        ),
        3 => format!(
            r#"{{"format":{:?},"version":3,"snapshot_id":{},"writer":{},"shards":{},"next_id":{},"records":{},"files":[{}],"file_snapshots":[{}],"edits":[{}],"old_shards":{},"new_shards":{},"boundary":{}}}"#,
            fields.format,
            fields.snapshot_id,
            fields.writer,
            fields.shards,
            fields.next_id,
            fields.records,
            join_files(&fields.files),
            join_u64(&fields.file_snapshots),
            join_u64(&fields.edits),
            fields.old_shards,
            fields.new_shards,
            fields.boundary,
        ),
        4 => format!(
            r#"{{"format":{:?},"version":4,"snapshot_id":{},"writer":{},"shards":{},"next_id":{},"records":{},"files":[{}],"file_snapshots":[{}],"edits":[{}],"old_shards":{},"new_shards":{},"boundary":{},"log_heads":[{}],"wal_seq":{}}}"#,
            fields.format,
            fields.snapshot_id,
            fields.writer,
            fields.shards,
            fields.next_id,
            fields.records,
            join_files(&fields.files),
            join_u64(&fields.file_snapshots),
            join_u64(&fields.edits),
            fields.old_shards,
            fields.new_shards,
            fields.boundary,
            join_u64(&fields.log_heads),
            fields.wal_seq,
        ),
        other => panic!("no manifest version {other}"),
    }
}

/// What the strategy does to an otherwise-valid manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    /// Leave it valid (must round-trip).
    None,
    /// Understate `next_id` (must round-trip: healing is monotonic).
    UnderstateNextId,
    /// Unknown format string (rejected).
    BadFormat,
    /// `shards` disagrees with the file list (rejected).
    ShardCountLie,
    /// One shard file vanished from disk (rejected).
    MissingFile,
    /// One file generation disagrees with the shard file (rejected —
    /// a torn snapshot must never restore silently).
    TornGeneration,
    /// Epoch does not fit the physical shards (rejected; v3 only —
    /// lower versions carry no epoch, so they get `ShardCountLie`).
    BadEpoch,
    /// A file name tries to escape the snapshot directory (rejected).
    EscapingFileName,
}

const DAMAGES: [Damage; 8] = [
    Damage::None,
    Damage::UnderstateNextId,
    Damage::BadFormat,
    Damage::ShardCountLie,
    Damage::MissingFile,
    Damage::TornGeneration,
    Damage::BadEpoch,
    Damage::EscapingFileName,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for any source topology, record count,
    /// manifest version, and damage, a restore either reproduces the
    /// saved corpus exactly (valid v4 manifests, including understated
    /// id counters, which heal monotonically) or fails cleanly with the
    /// target database untouched (damaged manifests, and every retired
    /// v1–v3 layout).
    #[test]
    fn manifests_roundtrip_or_reject_cleanly(
        source_shards in 1usize..5,
        records in 0usize..14,
        removed_every in 2usize..5,
        target_shards in 1usize..5,
        replicas in 1usize..3,
        version in 1u8..5,
        damage_index in 0usize..DAMAGES.len(),
    ) {
        let mut damage = DAMAGES[damage_index];
        if version < 3 && damage == Damage::BadEpoch {
            damage = Damage::ShardCountLie;
        }
        let dir = fresh_dir();
        let path = dir.join("m.json");

        // Source corpus with some dead ids, saved as a v4 manifest.
        let source = ReplicatedImageDatabase::with_topology(source_shards, 1);
        let mut live: Vec<usize> = Vec::new();
        for i in 0..records {
            source.insert_scene(&format!("img-{i}"), &scene(i as i64)).unwrap();
            if i % removed_every == 0 {
                source.remove(RecordId(i)).unwrap();
            } else {
                live.push(i);
            }
        }
        source.save_snapshot(&path).unwrap();

        // Re-emit at the requested version, with the requested damage.
        let mut fields = parse_fields(&path);
        match damage {
            Damage::None => {}
            Damage::UnderstateNextId => fields.next_id = 0,
            Damage::BadFormat => fields.format = "be2d-something-else".into(),
            Damage::ShardCountLie => fields.shards += 1,
            Damage::MissingFile => std::fs::remove_file(dir.join(&fields.files[0])).unwrap(),
            Damage::TornGeneration => {
                fields.file_snapshots[0] = fields.file_snapshots[0].wrapping_add(1);
                // v1 derives generations from snapshot_id; tear that instead.
                if version == 1 {
                    fields.snapshot_id = fields.snapshot_id.wrapping_add(1);
                }
            }
            Damage::BadEpoch => fields.new_shards = fields.shards + 3,
            Damage::EscapingFileName => fields.files[0] = "../escape.json".into(),
        }
        std::fs::write(&path, emit(&fields, version)).unwrap();

        // A busy target: 3 pre-existing records that must survive any
        // *failed* restore untouched.
        let target = ReplicatedImageDatabase::with_topology(target_shards, replicas);
        for i in 0..3 {
            target.insert_scene(&format!("busy-{i}"), &scene(40 + i)).unwrap();
        }

        let expect_ok =
            version == 4 && matches!(damage, Damage::None | Damage::UnderstateNextId);
        match target.restore_from(&path) {
            Ok(restored) => {
                prop_assert!(expect_ok, "damage {damage:?} restored successfully");
                prop_assert_eq!(restored, live.len());
                prop_assert_eq!(target.len(), live.len());
                for &i in &live {
                    let record = target.get(RecordId(i)).unwrap();
                    prop_assert!(record.is_some(), "record {} lost", i);
                    prop_assert_eq!(record.unwrap().name, format!("img-{i}"));
                }
                // Counter healing is monotonic: the next insert must
                // collide with no restored record, and the counter can
                // never move backwards past ids this instance already
                // handed out — even when the manifest understated
                // next_id. (Dead ids *above* every live record carry no
                // state a corrupt manifest is obliged to preserve.)
                let next = target.insert_scene("after", &scene(70)).unwrap();
                prop_assert!(next.index() >= 3, "{:?}", next);
                prop_assert!(!live.contains(&next.index()), "{:?} collided", next);
                if damage == Damage::None {
                    prop_assert!(next.index() >= records.max(3), "{:?}", next);
                }
                prop_assert!(target.get(next).unwrap().is_some());
            }
            Err(e) => {
                prop_assert!(!expect_ok, "valid manifest rejected: {e}");
                // Clean rejection: no partial restore, the busy corpus
                // is exactly as it was.
                prop_assert_eq!(target.len(), 3, "partial restore after {}", e);
                for i in 0..3usize {
                    let record = target.get(RecordId(i)).unwrap();
                    prop_assert!(record.is_some());
                    prop_assert_eq!(record.unwrap().name, format!("busy-{i}"));
                }
                // Nothing escaped the snapshot directory.
                prop_assert!(!dir.join("../escape.json").exists());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Whether any map in the tree has a `key` entry.
fn has_key(v: &Value, key: &str) -> bool {
    match v {
        Value::Map(entries) => entries.iter().any(|(k, v)| k == key || has_key(v, key)),
        Value::Seq(items) => items.iter().any(|v| has_key(v, key)),
        _ => false,
    }
}

/// The tree as a save from before candidates became exact wrote it:
/// every record (a map holding `symbolic` and `sketch`) also carries
/// its 64-bit Bloom class `signature`, just before the sketch.
fn with_old_signatures(v: &Value) -> Value {
    match v {
        Value::Map(entries) => {
            let is_record = ["symbolic", "sketch"]
                .iter()
                .all(|key| entries.iter().any(|(k, _)| k == key));
            let mut out = Vec::with_capacity(entries.len() + 1);
            for (k, v) in entries {
                if is_record && k == "sketch" {
                    out.push(("signature".to_owned(), Value::Int(0x8000_0000_0040_0001)));
                }
                out.push((k.clone(), with_old_signatures(v)));
            }
            Value::Map(out)
        }
        Value::Seq(items) => Value::Seq(items.iter().map(with_old_signatures).collect()),
        other => other.clone(),
    }
}

fn assert_same_ranking(expect: &[SearchHit], got: &[SearchHit], when: &str) {
    assert_eq!(expect.len(), got.len(), "{when}");
    for (a, b) in expect.iter().zip(got) {
        assert_eq!(a.id, b.id, "{when}");
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{when}");
    }
}

/// Snapshots written before records dropped their class signature still
/// restore: the shard files of a v4 manifest and a plain
/// `ImageDatabase` JSON whose records carry `signature` load to equal
/// records and identical rankings. A fresh save writes no signature.
#[test]
fn snapshots_with_old_class_signatures_restore() {
    let source = ReplicatedImageDatabase::with_topology(3, 1);
    let mut single = ImageDatabase::new();
    for i in 0..24 {
        let name = format!("img-{i}");
        assert_eq!(
            source.insert_scene(&name, &scene(i)).unwrap(),
            single.insert_scene(&name, &scene(i)).unwrap()
        );
    }
    let extra = (ObjectClass::new("C"), Rect::new(60, 70, 60, 70).unwrap());
    for id in [RecordId(2), RecordId(9)] {
        source.add_object(id, &extra.0, extra.1).unwrap();
        single.add_object(id, &extra.0, extra.1).unwrap();
    }
    source.remove(RecordId(5)).unwrap();
    single.remove(RecordId(5)).unwrap();

    let queries: Vec<_> = [scene(3), scene(11), scene(40)]
        .iter()
        .map(convert_scene)
        .collect();
    let options = [
        QueryOptions::default(),
        QueryOptions::default().with_top_k(None),
    ];
    let rankings = |search: &dyn Fn(&be2d_core::BeString2D, &QueryOptions) -> Vec<SearchHit>,
                    when: &str| {
        for query in &queries {
            for o in &options {
                assert_same_ranking(&single.search(query, o), &search(query, o), when);
            }
        }
    };

    // Sharded: rewrite every shard file as an old save wrote it.
    let dir = fresh_dir();
    let path = dir.join("m.json");
    source.save_snapshot(&path).unwrap();
    for file in parse_fields(&path).files {
        let shard_path = dir.join(file);
        let value: Value =
            serde_json::from_str(&std::fs::read_to_string(&shard_path).unwrap()).unwrap();
        assert!(!has_key(&value, "signature"), "fresh shard file");
        let old = with_old_signatures(&value);
        assert!(has_key(&old, "signature"));
        std::fs::write(&shard_path, serde_json::to_string(&old).unwrap()).unwrap();
    }
    let restored = ReplicatedImageDatabase::with_topology(2, 2);
    assert_eq!(restored.restore_from(&path).unwrap(), single.len());
    for record in single.iter() {
        assert_eq!(restored.get(record.id).unwrap().as_ref(), Some(record));
    }
    rankings(
        &|q, o| restored.search_traced(q, o).unwrap().0,
        "restored shards",
    );
    std::fs::remove_dir_all(&dir).ok();

    // Plain JSON save.
    let json = single.to_json().unwrap();
    let value: Value = serde_json::from_str(&json).unwrap();
    assert!(!has_key(&value, "signature"), "fresh JSON save");
    let old = serde_json::to_string(&with_old_signatures(&value)).unwrap();
    let back = ImageDatabase::from_json(&old).unwrap();
    assert_eq!(back, single);
    rankings(&|q, o| back.search(q, o), "restored JSON");
}
