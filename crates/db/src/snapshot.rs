//! The on-disk snapshot format of a sharded database: one manifest at
//! the snapshot path plus one `<path>.g<generation>.shardK` file per
//! shard.
//!
//! Every file is written crash-safely (temp + `sync_all` + rename).
//! Shard file names embed the snapshot generation, so a failed or
//! crashed save never disturbs the previous generation's files, and the
//! manifest — written last — carries the generation every shard file
//! must echo, so a mixed state can never restore silently. Saves are
//! incremental: a shard whose edit counter is unchanged since the
//! previous snapshot by the same database instance is re-referenced,
//! not rewritten.

use crate::database::write_atomic;
use crate::epoch::RoutingEpoch;
use crate::{DbError, ImageDatabase, RecordId};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

const MANIFEST_FORMAT: &str = "be2d-shard-manifest";
const SHARD_FORMAT: &str = "be2d-shard";

/// Everything a sharded snapshot writes: a consistent clone of every
/// *dirtied* shard plus the id counter and per-shard edit counters at
/// clone time.
pub(crate) struct SnapshotPayload {
    /// Consistent point-in-time clone per shard; `None` means the shard
    /// is untouched since the previous snapshot (the caller checked
    /// [`PreviousSnapshot::reusable`]) and was deliberately **not**
    /// cloned — its previous generation file is re-referenced instead,
    /// keeping snapshot cost proportional to write traffic.
    pub shards: Vec<Option<ImageDatabase>>,
    /// Total live records across all shards at clone time.
    pub records: usize,
    /// The global id counter at clone time.
    pub next_id: usize,
    /// Per-shard edit counters at clone time (incremental-save key).
    pub edits: Vec<u64>,
    /// The owning database instance's stable id.
    pub writer: u64,
    /// The routing epoch at clone time; a database mid-reshard records
    /// the in-flight migration so the snapshot restores exactly.
    pub epoch: RoutingEpoch,
    /// Per-shard op-log head sequences at clone time.
    pub log_heads: Vec<u64>,
    /// The global sequence watermark: every op at or below it is
    /// contained in this snapshot. WAL recovery replays only above it.
    pub wal_seq: u64,
}

/// A snapshot loaded back from disk: the per-shard databases in their
/// saved physical layout plus everything needed to re-route them.
pub(crate) struct LoadedSnapshot {
    /// One database per saved physical shard.
    pub shards: Vec<ImageDatabase>,
    /// The saved global id counter.
    pub next_id: usize,
    /// The routing epoch the shards were saved under.
    pub epoch: RoutingEpoch,
}

/// The manifest currently at a snapshot path, pre-validated for
/// incremental reuse. Loaded *before* any shard lock is taken, so the
/// reuse decision (and the skipped clones it buys) costs no lock time.
pub(crate) struct PreviousSnapshot {
    manifest: Option<ShardManifest>,
}

impl PreviousSnapshot {
    /// A previous snapshot that reuses nothing (every shard rewritten).
    pub(crate) fn none() -> PreviousSnapshot {
        PreviousSnapshot { manifest: None }
    }

    /// Reads and validates the manifest at `path`. Only a **steady**
    /// manifest written by this very database instance (`writer`) over
    /// the same topology is trusted — edit counters from another
    /// process (or another instance in this process) are meaningless
    /// here, and a mid-migration manifest's shard files never line up
    /// with a steady topology.
    pub(crate) fn load(path: &Path, writer: u64, shard_count: usize) -> PreviousSnapshot {
        let manifest = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| parse_manifest(&text))
            .filter(|m| {
                m.format == MANIFEST_FORMAT
                    && m.writer == writer
                    && m.writer != 0
                    && m.shards == shard_count
                    && m.old_shards == shard_count
                    && m.new_shards == shard_count
                    && m.files.len() == shard_count
                    && m.file_snapshots.len() == shard_count
                    && m.edits.len() == shard_count
                    && m.log_heads.len() == shard_count
            });
        PreviousSnapshot { manifest }
    }

    /// Whether shard `shard` need not be cloned or rewritten: its edit
    /// counter still equals the previous snapshot's and the previous
    /// generation file is still on disk.
    pub(crate) fn reusable(&self, path: &Path, shard: usize, edits: u64) -> bool {
        self.manifest
            .as_ref()
            .is_some_and(|m| m.edits[shard] == edits && sibling(path, &m.files[shard]).is_file())
    }

    /// The previous generation reference (file name, generation id) for
    /// one shard.
    fn reference(&self, shard: usize) -> Option<(String, u64)> {
        self.manifest
            .as_ref()
            .map(|m| (m.files[shard].clone(), m.file_snapshots[shard]))
    }
}

/// The manifest written at the snapshot path proper (version 4).
///
/// `shards` counts **physical** shard files; `old_shards` /
/// `new_shards` / `boundary` persist the routing epoch, so a snapshot
/// taken during an online reshard records exactly which layout owns
/// each id. Steady snapshots have `old_shards == new_shards == shards`.
/// `log_heads` / `wal_seq` persist the op-log positions, anchoring
/// write-ahead-log recovery (see `oplog.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardManifest {
    format: String,
    version: u32,
    /// The generation this save created (fresh shard files use it).
    snapshot_id: u64,
    /// Stable id of the database instance that wrote the manifest; edit
    /// counters are only comparable within one instance.
    writer: u64,
    shards: usize,
    next_id: usize,
    records: usize,
    /// Plain file names next to the manifest (no directories).
    files: Vec<String>,
    /// The generation each file in `files` belongs to — files of
    /// shards untouched since the previous snapshot are re-referenced
    /// from their old generation instead of rewritten.
    file_snapshots: Vec<u64>,
    /// Per-shard edit counters at snapshot time.
    edits: Vec<u64>,
    /// Routing epoch: the layout records migrate from.
    old_shards: usize,
    /// Routing epoch: the layout records migrate to.
    new_shards: usize,
    /// Routing epoch: the migration watermark (see
    /// [`RoutingEpoch`](crate::epoch::RoutingEpoch)).
    boundary: usize,
    /// Per-shard op-log head sequences at snapshot time.
    log_heads: Vec<u64>,
    /// The global sequence watermark this snapshot contains; WAL
    /// recovery replays only records above it.
    wal_seq: u64,
}

impl ShardManifest {
    /// The persisted routing epoch.
    fn epoch(&self) -> RoutingEpoch {
        RoutingEpoch {
            old_n: self.old_shards,
            new_n: self.new_shards,
            boundary: self.boundary,
        }
    }
}

/// Parses a version-4 manifest; anything else is not a manifest.
fn parse_manifest(text: &str) -> Option<ShardManifest> {
    serde_json::from_str::<ShardManifest>(text).ok()
}

/// The sequence watermark recorded in the manifest at `path` (0 when
/// the file is missing or not a parseable manifest — recovery then
/// replays the whole WAL from scratch).
pub(crate) fn wal_floor_of(path: &Path) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| parse_manifest(&text))
        .map_or(0, |m| m.wal_seq)
}

/// One per-shard snapshot file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardFile {
    format: String,
    snapshot_id: u64,
    shard: usize,
    of: usize,
    db: ImageDatabase,
}

/// Writes a sharded snapshot (manifest + per-shard generation files) at
/// `path`. Shards the caller marked reusable (`None` clones) are not
/// rewritten: the new manifest re-references their previous generation
/// files from `previous`. Returns the number of live records saved.
///
/// The caller must already hold its snapshot-I/O lock, and `previous`
/// must be the [`PreviousSnapshot`] its reuse decisions were made
/// against.
pub(crate) fn save_snapshot_at(
    path: &Path,
    payload: SnapshotPayload,
    previous: &PreviousSnapshot,
) -> Result<usize, DbError> {
    let records = payload.records;
    let snapshot_id = fresh_snapshot_id();
    let manifest_name = file_name_of(path)?;
    let shard_count = payload.shards.len();

    let mut files = Vec::with_capacity(shard_count);
    let mut file_snapshots = Vec::with_capacity(shard_count);
    for (shard, db) in payload.shards.into_iter().enumerate() {
        let Some(db) = db else {
            // Untouched since the previous generation: re-reference the
            // existing file instead of rewriting it.
            let Some((name, generation)) = previous.reference(shard) else {
                return Err(DbError::Persist {
                    reason: format!(
                        "shard {shard} was marked reusable but no previous manifest is available"
                    ),
                });
            };
            files.push(name);
            file_snapshots.push(generation);
            continue;
        };
        let name = shard_file_name(&manifest_name, snapshot_id, shard);
        let shard_file = ShardFile {
            format: SHARD_FORMAT.to_owned(),
            snapshot_id,
            shard,
            of: shard_count,
            db,
        };
        let json = serde_json::to_string(&shard_file).map_err(|e| DbError::Persist {
            reason: e.to_string(),
        })?;
        write_atomic(&sibling(path, &name), &json)?;
        files.push(name);
        file_snapshots.push(snapshot_id);
    }
    let manifest = ShardManifest {
        format: MANIFEST_FORMAT.to_owned(),
        version: 4,
        snapshot_id,
        writer: payload.writer,
        shards: shard_count,
        next_id: payload.next_id,
        records,
        files,
        file_snapshots,
        edits: payload.edits,
        old_shards: payload.epoch.old_n,
        new_shards: payload.epoch.new_n,
        boundary: payload.epoch.boundary,
        log_heads: payload.log_heads,
        wal_seq: payload.wal_seq,
    };
    let json = serde_json::to_string(&manifest).map_err(|e| DbError::Persist {
        reason: e.to_string(),
    })?;
    write_atomic(path, &json)?;
    cleanup_stale_generations(path, &manifest_name);
    Ok(records)
}

/// Loads a snapshot from `path`: either a version-4 manifest or
/// a plain [`ImageDatabase::save`] file, returning the per-shard
/// databases in their saved physical layout plus id counter and epoch.
///
/// The caller must already hold its snapshot-I/O lock.
pub(crate) fn load_snapshot_at(path: &Path) -> Result<LoadedSnapshot, DbError> {
    let text = std::fs::read_to_string(path)?;
    if let Some(manifest) = parse_manifest(&text) {
        let shards = load_manifest_shards(path, &manifest)?;
        Ok(LoadedSnapshot {
            shards,
            next_id: manifest.next_id,
            epoch: manifest.epoch(),
        })
    } else {
        // Plain single-shard snapshot: treat it as a 1-shard save.
        let db = ImageDatabase::from_json(&text)?;
        let next_id = db.next_id();
        Ok(LoadedSnapshot {
            shards: vec![db],
            next_id,
            epoch: RoutingEpoch::steady(1),
        })
    }
}

/// Re-routes a loaded snapshot into `n` steady shards, preserving every
/// record's global id. A steady same-count restore is a move, not a
/// replay; anything else — topology change or a snapshot taken
/// mid-reshard — is replayed record by record through the saved
/// [`RoutingEpoch`].
pub(crate) fn reroute_shards(
    saved: LoadedSnapshot,
    n: usize,
) -> Result<Vec<ImageDatabase>, DbError> {
    let epoch = saved.epoch;
    if epoch.is_steady() && epoch.new_n == n && saved.shards.len() == n {
        return Ok(saved.shards);
    }
    let mut rebuilt: Vec<ImageDatabase> = (0..n).map(|_| ImageDatabase::new()).collect();
    for (old_shard, db) in saved.shards.into_iter().enumerate() {
        for record in db.iter() {
            let global = epoch
                .global_of(old_shard, record.id.index())
                .ok_or_else(|| DbError::Persist {
                    reason: format!(
                        "snapshot shard {old_shard} slot {} resolves to no global id under \
                             epoch {} -> {} @ {} (corrupt manifest)",
                        record.id.index(),
                        epoch.old_n,
                        epoch.new_n,
                        epoch.boundary
                    ),
                })?;
            let (shard, local) = (global % n, RecordId(global / n));
            rebuilt[shard].insert_symbolic_with_id(local, &record.name, record.symbolic.clone())?;
        }
    }
    Ok(rebuilt)
}

/// The id-counter value a restore must raise the allocator to: strictly
/// above every slot the rebuilt shards occupy, even when a corrupt
/// manifest understates `next_id` (which would otherwise poison all
/// future inserts with slot-occupied errors).
pub(crate) fn heal_next_id(rebuilt: &[ImageDatabase], manifest_next_id: usize) -> usize {
    let n = rebuilt.len();
    let mut required = manifest_next_id;
    for (shard, db) in rebuilt.iter().enumerate() {
        if db.next_id() > 0 {
            required = required.max((db.next_id() - 1) * n + shard + 1);
        }
    }
    required
}

/// A practically unique snapshot id: wall-clock nanos mixed with a
/// process-local counter and the pid, so two snapshots — even in the
/// same nanosecond or from two processes — get distinct generations.
/// Also used as the per-instance writer id of each database.
pub(crate) fn fresh_snapshot_id() -> u64 {
    use std::sync::atomic::AtomicU64;
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| {
            u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
        });
    nanos ^ SEQ.fetch_add(1, Ordering::Relaxed).rotate_left(32) ^ u64::from(std::process::id())
}

fn file_name_of(path: &Path) -> Result<String, DbError> {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .ok_or_else(|| DbError::Persist {
            reason: format!("snapshot path {} has no file name", path.display()),
        })
}

/// `manifest.json` → `manifest.json.g1f3a.shard3`. The generation in
/// the name keeps every snapshot's files disjoint from its
/// predecessors'.
fn shard_file_name(manifest_name: &str, snapshot_id: u64, shard: usize) -> String {
    format!("{manifest_name}.g{snapshot_id:x}.shard{shard}")
}

/// Best-effort removal of shard files from superseded snapshot
/// generations: everything shaped `<manifest>.g*.shard*` that the
/// manifest **currently on disk** does not reference. The manifest is
/// re-read (instead of trusting the one just written) so a concurrent
/// save that won the manifest race does not get its files deleted.
fn cleanup_stale_generations(manifest_path: &Path, manifest_name: &str) {
    let Some(dir) = manifest_path.parent().filter(|d| !d.as_os_str().is_empty()) else {
        return;
    };
    let referenced: Vec<String> = std::fs::read_to_string(manifest_path)
        .ok()
        .and_then(|text| parse_manifest(&text))
        .map(|manifest| manifest.files)
        .unwrap_or_default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let prefix = format!("{manifest_name}.g");
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&prefix)
            && name.contains(".shard")
            && !referenced.iter().any(|f| f == &name)
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// A path next to `path` with the given file name.
fn sibling(path: &Path, name: &str) -> PathBuf {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.join(name),
        _ => PathBuf::from(name),
    }
}

/// Loads and validates every shard file a manifest names.
fn load_manifest_shards(
    manifest_path: &Path,
    manifest: &ShardManifest,
) -> Result<Vec<ImageDatabase>, DbError> {
    let invalid = |reason: String| DbError::Persist { reason };
    if manifest.format != MANIFEST_FORMAT {
        return Err(invalid(format!(
            "unknown manifest format {:?}",
            manifest.format
        )));
    }
    if manifest.shards == 0
        || manifest.files.len() != manifest.shards
        || manifest.file_snapshots.len() != manifest.shards
    {
        return Err(invalid(format!(
            "manifest names {} files for {} shards",
            manifest.files.len(),
            manifest.shards
        )));
    }
    if manifest.old_shards == 0
        || manifest.new_shards == 0
        || manifest.epoch().phys() != manifest.shards
    {
        return Err(invalid(format!(
            "manifest epoch {} -> {} does not fit its {} physical shards",
            manifest.old_shards, manifest.new_shards, manifest.shards
        )));
    }
    let mut out = Vec::with_capacity(manifest.shards);
    for (shard, name) in manifest.files.iter().enumerate() {
        // The manifest may come from an untrusted snapshot directory:
        // never let it name files outside the manifest's own directory.
        if name.is_empty() || name.contains(['/', '\\']) || name == "." || name == ".." {
            return Err(invalid(format!("manifest names an unsafe file {name:?}")));
        }
        let path = sibling(manifest_path, name);
        let text = std::fs::read_to_string(&path)?;
        let file: ShardFile = serde_json::from_str(&text)
            .map_err(|e| invalid(format!("shard file {} is malformed: {e}", path.display())))?;
        if file.format != SHARD_FORMAT {
            return Err(invalid(format!(
                "shard file {} has unknown format {:?}",
                path.display(),
                file.format
            )));
        }
        if file.snapshot_id != manifest.file_snapshots[shard] {
            return Err(invalid(format!(
                "shard file {} belongs to snapshot {} but the manifest expects snapshot {} \
                 (torn or mixed snapshot generations)",
                path.display(),
                file.snapshot_id,
                manifest.file_snapshots[shard]
            )));
        }
        if file.shard != shard || file.of != manifest.shards {
            return Err(invalid(format!(
                "shard file {} claims shard {}/{} but the manifest expects {}/{}",
                path.display(),
                file.shard,
                file.of,
                shard,
                manifest.shards
            )));
        }
        out.push(file.db);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplicatedImageDatabase;
    use be2d_geometry::{Scene, SceneBuilder};

    fn scene(x: i64) -> Scene {
        SceneBuilder::new(100, 100)
            .object("A", (x, x + 10, 10, 20))
            .object("B", (50, 90, 50, 90))
            .build()
            .unwrap()
    }

    fn filled(shards: usize, n: i64) -> ReplicatedImageDatabase {
        let db = ReplicatedImageDatabase::with_topology(shards, 1);
        for i in 0..n {
            db.insert_scene(&format!("img{i}"), &scene(i % 40)).unwrap();
        }
        db
    }

    fn name_of(db: &ReplicatedImageDatabase, id: usize) -> Option<String> {
        db.get(RecordId(id)).unwrap().map(|r| r.name)
    }

    #[test]
    fn snapshot_roundtrip_same_topology() {
        let dir = std::env::temp_dir().join(format!("be2d_shard_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");

        let db = filled(4, 11);
        db.remove(RecordId(6)).unwrap();
        assert_eq!(db.save_snapshot(&path).unwrap(), 10);
        let manifest: ShardManifest =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(manifest.files.len(), 4);
        for name in &manifest.files {
            assert!(dir.join(name).is_file(), "{name}");
        }

        // A second save with no edits in between is fully incremental:
        // every shard file is re-referenced, none rewritten.
        assert_eq!(db.save_snapshot(&path).unwrap(), 10);
        let second: ShardManifest =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(second.files, manifest.files, "unchanged shards reused");

        // An edit dirties exactly one shard; the next save rewrites that
        // shard only and cleans its superseded generation file up.
        db.remove(RecordId(8)).unwrap(); // 8 % 4 = shard 0
        assert_eq!(db.save_snapshot(&path).unwrap(), 9);
        let third: ShardManifest =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_ne!(third.files[0], manifest.files[0], "dirty shard rewritten");
        assert_eq!(third.files[1..], manifest.files[1..], "clean shards kept");
        assert!(!dir.join(&manifest.files[0]).exists(), "stale file cleaned");
        for name in &third.files {
            assert!(dir.join(name).is_file(), "{name}");
        }

        let back = ReplicatedImageDatabase::with_topology(4, 1);
        assert_eq!(back.restore_from(&path).unwrap(), 9);
        assert_eq!(back.len(), 9);
        assert_eq!(back.stats().shard_records, db.stats().shard_records);
        assert!(name_of(&back, 6).is_none());
        assert!(name_of(&back, 8).is_none());
        assert_eq!(name_of(&back, 7).unwrap(), "img7");
        // the id counter survives: the next insert continues the sequence
        assert_eq!(back.insert_scene("next", &scene(2)).unwrap(), RecordId(11));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_reroutes_on_shard_count_change() {
        let dir = std::env::temp_dir().join(format!("be2d_shard_reroute_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");

        let db = filled(4, 13);
        db.remove(RecordId(2)).unwrap();
        db.save_snapshot(&path).unwrap();

        for target in [1usize, 2, 8] {
            let back = ReplicatedImageDatabase::with_topology(target, 1);
            assert_eq!(back.restore_from(&path).unwrap(), 12, "{target} shards");
            for i in 0..13usize {
                match (i, back.get(RecordId(i)).unwrap()) {
                    (2, found) => assert!(found.is_none()),
                    (_, Some(record)) => {
                        assert_eq!(record.name, format!("img{i}"));
                        assert_eq!(
                            record.symbolic,
                            db.get(RecordId(i)).unwrap().unwrap().symbolic,
                            "content survives re-routing"
                        );
                    }
                    (_, None) => panic!("record {i} lost in {target}-shard restore"),
                }
            }
            assert_eq!(back.insert_scene("next", &scene(0)).unwrap(), RecordId(13));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_heals_understated_manifest_next_id() {
        let dir = std::env::temp_dir().join(format!("be2d_shard_nextid_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");

        let db = filled(2, 9);
        db.save_snapshot(&path).unwrap();
        // Corrupt the manifest: claim the id counter is far below the
        // ids the shard files actually hold.
        let manifest = std::fs::read_to_string(&path).unwrap();
        assert!(manifest.contains("\"next_id\":9"), "{manifest}");
        std::fs::write(&path, manifest.replace("\"next_id\":9", "\"next_id\":1")).unwrap();

        let back = ReplicatedImageDatabase::with_topology(2, 1);
        assert_eq!(back.restore_from(&path).unwrap(), 9);
        // The counter is healed from the occupied slots: the next insert
        // must not collide with a restored record.
        assert_eq!(back.insert_scene("next", &scene(1)).unwrap(), RecordId(9));
        assert_eq!(back.len(), 10);

        // Restoring into a database whose counter is already higher
        // never moves the counter backwards (ids are never reused).
        let busy = filled(2, 20);
        assert_eq!(busy.restore_from(&path).unwrap(), 9);
        assert_eq!(busy.insert_scene("after", &scene(1)).unwrap(), RecordId(20));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_accepts_plain_database_files() {
        let dir = std::env::temp_dir().join(format!("be2d_shard_plain_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plain.json");

        let mut plain = ImageDatabase::new();
        for i in 0..5i64 {
            plain.insert_scene(&format!("img{i}"), &scene(i)).unwrap();
        }
        plain.remove(RecordId(1)).unwrap();
        plain.save(&path).unwrap();

        let db = ReplicatedImageDatabase::with_topology(3, 1);
        assert_eq!(db.restore_from(&path).unwrap(), 4);
        assert!(name_of(&db, 1).is_none());
        assert_eq!(name_of(&db, 4).unwrap(), "img4");
        assert_eq!(db.insert_scene("next", &scene(0)).unwrap(), RecordId(5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_rejects_torn_snapshots() {
        let dir = std::env::temp_dir().join(format!("be2d_shard_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");

        let db = filled(2, 6);
        db.save_snapshot(&path).unwrap();
        let manifest: ShardManifest =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        // Overwrite shard 1 with a file from a *different* snapshot
        // generation — the mixed state must be rejected.
        let other = filled(2, 3);
        let other_path = dir.join("other.json");
        other.save_snapshot(&other_path).unwrap();
        let other_manifest: ShardManifest =
            serde_json::from_str(&std::fs::read_to_string(&other_path).unwrap()).unwrap();
        std::fs::copy(
            dir.join(&other_manifest.files[1]),
            dir.join(&manifest.files[1]),
        )
        .unwrap();

        let back = ReplicatedImageDatabase::with_topology(2, 1);
        let err = back.restore_from(&path).unwrap_err();
        assert!(
            err.to_string().contains("snapshot"),
            "torn snapshot must fail loudly: {err}"
        );
        assert!(back.is_empty(), "failed restore must not mutate");

        // a missing shard file is also loud
        std::fs::remove_file(dir.join(&manifest.files[0])).unwrap();
        assert!(back.restore_from(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incremental_save_distrusts_foreign_manifests() {
        let dir = std::env::temp_dir().join(format!("be2d_shard_foreign_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");

        let db = filled(2, 6);
        db.save_snapshot(&path).unwrap();
        let first: ShardManifest =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();

        // A *different* database instance with coincidentally equal edit
        // counters must not reuse the other instance's files.
        let other = filled(2, 6);
        other.save_snapshot(&path).unwrap();
        let second: ShardManifest =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(
            first.files.iter().zip(&second.files).all(|(a, b)| a != b),
            "foreign manifest reused: {:?} vs {:?}",
            first.files,
            second.files
        );

        // Restoring bumps edit counters, so the next save rewrites the
        // restored shards instead of trusting pre-restore generations.
        other.restore_from(&path).unwrap();
        other.save_snapshot(&path).unwrap();
        let third: ShardManifest =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(
            second.files.iter().zip(&third.files).all(|(a, b)| a != b),
            "post-restore save must rewrite"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
