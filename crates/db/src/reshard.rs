//! Online shard rebalancing: change a [`ReplicatedImageDatabase`]'s
//! shard count while it keeps serving reads and writes.
//!
//! # How a reshard runs
//!
//! 1. **Install** (topology write lock, no other lock): the target
//!    layout is recorded in the routing epoch. Growth appends fresh
//!    empty replica sets so both layouts' shards exist; the boundary
//!    starts at 0 (nothing migrated). Shrink keeps the physical shards
//!    and starts the boundary at the current id ceiling, so brand-new
//!    inserts route straight to the **new** layout while the sweep
//!    drains old ids downwards.
//! 2. **Batch moves**: each batch takes the migration gate exclusively,
//!    then every shard's write-order mutex, then every replica's write
//!    lock — a bounded stop-the-world per batch, with traffic flowing
//!    freely between batches. Records in the batch's id range are moved
//!    from their old slot to their new slot on every healthy replica,
//!    and only then does the boundary advance. Growth sweeps ascending,
//!    shrink descending — the directions that keep every shard's local
//!    slots unambiguous (see [`epoch`](crate::epoch)).
//! 3. **Finalise** (topology write lock): growth just flips the epoch
//!    steady; shrink additionally verifies the drained shards are empty
//!    and drops them.
//!
//! Because a batch owns every replica write lock before it mutates
//! anything, concurrent searches (which hold the gate shared for their
//! whole scatter) and point reads/writes (which re-validate their route
//! under a lock the batch also needs) never observe a half-moved
//! record: ranked results stay **bit-identical** to a never-resharded
//! database at every point of the migration
//! (`crates/db/tests/reshard.rs`).

use crate::events::EventKind;
use crate::replica::{drain_replica, ReplicaSet};
use crate::{DbError, ImageDatabase, RecordId, ReplicatedImageDatabase};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Progress of an online reshard, exposed via
/// [`ReplicatedImageDatabase::reshard_progress`] (and the server's
/// `/v1/stats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReshardProgress {
    /// Whether a reshard is currently running.
    pub active: bool,
    /// The shard count records migrate from.
    pub from: usize,
    /// The shard count records migrate to.
    pub to: usize,
    /// Global ids swept so far.
    pub migrated_ids: usize,
    /// Global ids to sweep in total (grows if inserts race a growth
    /// migration).
    pub total_ids: usize,
    /// Records physically moved between shards.
    pub moved_records: usize,
    /// Batches executed.
    pub batches: u64,
}

/// Streams records between shards to change a
/// [`ReplicatedImageDatabase`]'s shard count **while it serves**.
///
/// # Example
///
/// ```
/// use be2d_core::convert_scene;
/// use be2d_db::{QueryOptions, ReplicatedImageDatabase, Resharder};
/// use be2d_geometry::SceneBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = ReplicatedImageDatabase::with_topology(2, 1);
/// let scene = SceneBuilder::new(10, 10).object("A", (1, 5, 1, 5)).build()?;
/// for i in 0..10 {
///     db.insert_scene(&format!("img{i}"), &scene)?;
/// }
/// let report = Resharder::new(&db).run(4)?;
/// assert_eq!(db.shard_count(), 4);
/// assert_eq!(report.to, 4);
/// let (hits, _) = db.search_traced(&convert_scene(&scene), &QueryOptions::default())?;
/// assert_eq!(hits.len(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Resharder {
    db: ReplicatedImageDatabase,
    batch: usize,
}

impl Resharder {
    /// A resharder over `db` with the default batch size (128 ids per
    /// stop-the-world batch).
    #[must_use]
    pub fn new(db: &ReplicatedImageDatabase) -> Resharder {
        Resharder {
            db: db.clone(),
            batch: 128,
        }
    }

    /// Sets how many global ids one batch sweeps (clamped to ≥ 1).
    /// Smaller batches mean shorter per-batch write pauses and more
    /// lock churn.
    #[must_use]
    pub fn batch_ids(mut self, batch: usize) -> Resharder {
        self.batch = batch.max(1);
        self
    }

    /// Runs the reshard to `to` shards, blocking until every record is
    /// on the new layout. Reads and writes keep flowing throughout.
    ///
    /// Should a run ever abort on an internal error, the epoch stays
    /// consistent (the boundary advances per moved id) and a rerun to
    /// the **same** target resumes the sweep where it stopped.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Replica`] when another reshard is already
    /// running or an aborted migration to a *different* target awaits
    /// resume, and propagates internal consistency failures (which
    /// would indicate a bug, not an operational condition).
    pub fn run(&self, to: usize) -> Result<ReshardProgress, DbError> {
        self.run_with_checkpoints(to, |_| {})
    }

    /// Like [`run`](Self::run), calling `checkpoint` after every batch
    /// (with **no** lock held) — the hook the migration test harness
    /// uses to assert mid-migration invariants, and a natural place to
    /// throttle.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_with_checkpoints(
        &self,
        to: usize,
        mut checkpoint: impl FnMut(&ReshardProgress),
    ) -> Result<ReshardProgress, DbError> {
        let to = to.max(1);
        let inner = &self.db.inner;
        // A concurrent *reshard* is rejected; a concurrent *restore*
        // (which holds the same lock, but only for its bounded
        // duration) is waited out — otherwise a migration accepted by
        // the server's admin endpoint could silently never run.
        let _reshard = loop {
            if let Some(guard) = inner.reshard_lock.try_lock() {
                break guard;
            }
            if self.db.resharding() {
                return Err(DbError::Replica {
                    reason: "a reshard is already in progress".into(),
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };

        // Install the migration epoch (or adopt an aborted one). The
        // active progress is published while the topology write lock is
        // still held: otherwise a /stats in the gap would see the
        // target shard count with `reshard_active` still false and
        // conclude a just-started migration already finished.
        let mut progress = {
            let mut top = inner.topology.write();
            let from = top.old_n;
            let progress = if !top.is_steady() {
                // A previous run aborted on an internal error. The
                // epoch is still consistent — the boundary advances
                // per moved id — so a rerun to the *same* target
                // resumes the sweep; any other target must wait.
                if top.new_n != to {
                    return Err(DbError::Replica {
                        reason: format!(
                            "an aborted reshard to {} shards must be resumed (requested {to})",
                            top.new_n
                        ),
                    });
                }
                ReshardProgress {
                    active: true,
                    from,
                    to,
                    migrated_ids: 0,
                    total_ids: inner.next_id.load(Ordering::SeqCst),
                    moved_records: 0,
                    batches: 0,
                }
            } else {
                if from == to {
                    let progress = ReshardProgress {
                        from,
                        to,
                        ..ReshardProgress::default()
                    };
                    *inner.progress.lock() = progress.clone();
                    return Ok(progress);
                }
                let replicas = top.sets[0].replicas.len();
                while top.sets.len() < to {
                    top.sets
                        .push(Arc::new(ReplicaSet::new(replicas, inner.oplog_window)));
                }
                let ceiling = inner.next_id.load(Ordering::SeqCst);
                // Growth sweeps ids ascending from 0; shrink descending
                // from the id ceiling (ids above it route new-layout
                // from the start, so racing inserts land correctly).
                let start = if to > from { 0 } else { ceiling };
                top.boundary.store(start, Ordering::SeqCst);
                top.old_n = from;
                top.new_n = to;
                // Fence every shard's op log at the epoch change
                // (defence in depth — install itself re-routes no
                // existing id — skipped on resume, where the original
                // install already fenced). Writers are excluded: they
                // need the topology read lock this block holds
                // exclusively. The barrier stamps healthy replicas
                // applied-to-head, so every lagging follower must be
                // drained *first* (the async pump may be mid-gap):
                // stamping an undrained follower would silently skip
                // its pending ops, and the very first batch that moves
                // one of those never-applied records would fail it out
                // of rotation. The just-installed epoch routes every
                // existing id exactly as the steady epoch the ops were
                // logged under, so the replay is route-stable. A
                // follower whose gap cannot be replayed leaves rotation
                // defensively rather than be stamped into divergence.
                for (shard, set) in top.sets.iter().enumerate() {
                    let _order = set.write_order.lock();
                    for r in 0..set.replicas.len() {
                        if set.health[r].load(Ordering::SeqCst)
                            && !drain_replica(&top, set, shard, r)
                        {
                            set.health[r].store(false, Ordering::SeqCst);
                        }
                    }
                    inner.log_barrier(set);
                }
                ReshardProgress {
                    active: true,
                    from,
                    to,
                    migrated_ids: 0,
                    total_ids: ceiling,
                    moved_records: 0,
                    batches: 0,
                }
            };
            // Nobody takes the topology lock while holding the progress
            // lock, so this nesting cannot deadlock.
            *inner.progress.lock() = progress.clone();
            progress
        };
        inner.events.record(EventKind::ReshardStarted {
            from: progress.from,
            to: progress.to,
        });

        // Sweep in bounded batches until the watermark covers all ids.
        //
        // Growth chases a moving target: concurrent inserts keep raising
        // the id ceiling between batches, and a fixed batch size could
        // chase it forever under a hot write storm. Whenever a batch
        // fails to shrink the remaining distance, the effective batch
        // doubles — inserts are frozen *during* a batch, so a large
        // enough final batch always closes the gap (shrink's target is
        // fixed at install, so its batches never grow).
        let mut effective_batch = self.batch;
        let mut last_remaining = usize::MAX;
        loop {
            let batch = self.step(effective_batch)?;
            progress.migrated_ids += batch.swept;
            progress.total_ids = progress.total_ids.max(batch.total);
            progress.moved_records += batch.moved;
            progress.batches += 1;
            *inner.progress.lock() = progress.clone();
            checkpoint(&progress);
            if batch.done {
                break;
            }
            if batch.remaining >= last_remaining {
                effective_batch = effective_batch.saturating_mul(2);
            }
            last_remaining = batch.remaining;
        }

        // Finalise: flip the epoch steady; shrink drops drained shards.
        {
            let mut top = inner.topology.write();
            if to < progress.from {
                for (shard, set) in top.sets.iter().enumerate().skip(to) {
                    // A drained shard's leftover check is diagnostic: a
                    // (vanishingly rare) all-failed set reads replica 0,
                    // which the sweep kept draining like every other copy.
                    let leader = set.first_healthy().unwrap_or(0);
                    let leftover = set.replicas[leader].read().len();
                    if leftover != 0 {
                        return Err(DbError::Persist {
                            reason: format!(
                                "reshard sweep left {leftover} records on drained shard {shard}"
                            ),
                        });
                    }
                }
                top.sets.truncate(to);
            }
            top.old_n = to;
            top.boundary.store(0, Ordering::SeqCst);
        }
        progress.active = false;
        *inner.progress.lock() = progress.clone();
        inner.events.record(EventKind::ReshardFinished {
            from: progress.from,
            to: progress.to,
            moved_records: progress.moved_records,
            batches: progress.batches,
        });
        checkpoint(&progress);
        Ok(progress)
    }

    /// One stop-the-world batch: move up to `batch` ids, advance the
    /// boundary, release everything.
    fn step(&self, batch: usize) -> Result<BatchOutcome, DbError> {
        let inner = &self.db.inner;
        let top = inner.topology.read();
        let (from_n, to_n) = (top.old_n, top.new_n);
        // Exclusive gate first: in-flight scatters drain, new ones wait.
        let _gate = inner.search_gate.write();
        // Then every shard's write-order mutex (shard order) and every
        // replica's write lock (shard, replica order) — the same global
        // order every other multi-lock path uses, so no deadlock.
        let _orders: Vec<_> = top.sets.iter().map(|set| set.write_order.lock()).collect();
        let mut locks: Vec<Vec<_>> = top
            .sets
            .iter()
            .map(|set| set.replicas.iter().map(|r| r.write()).collect())
            .collect();

        // Before anything moves, bring every healthy lagging replica to
        // its shard head through the already-held write guards (Quorum/
        // Async followers the pump has not reached yet). The barrier
        // stamped after the moves marks every healthy replica applied;
        // draining first keeps that truthful and preserves the
        // "healthy ⇒ replayable gap" invariant. A healthy replica whose
        // gap turns out unreplayable has diverged from the invariant and
        // leaves rotation defensively.
        let pre_epoch = top.epoch();
        for (shard, set) in top.sets.iter().enumerate() {
            for (replica, guard) in locks[shard].iter_mut().enumerate() {
                if !set.health[replica].load(Ordering::SeqCst) {
                    continue;
                }
                let applied = set.applied[replica].load(Ordering::SeqCst);
                if applied >= set.head.load(Ordering::SeqCst) {
                    continue;
                }
                let pending = set.log.lock().collect_since(applied);
                let drained = pending.is_some_and(|pending| {
                    pending.into_iter().all(|(seq, op)| {
                        let ok = op.apply_local(guard, &pre_epoch, shard).is_ok();
                        if ok {
                            set.applied[replica].store(seq, Ordering::SeqCst);
                        }
                        ok
                    })
                });
                if !drained {
                    set.health[replica].store(false, Ordering::SeqCst);
                }
            }
        }

        let boundary = top.boundary.load(Ordering::SeqCst);
        let mut moved = 0usize;
        if to_n > from_n {
            // Growth: ascending sweep towards the id ceiling. The
            // ceiling is re-read under all the locks: any insert that
            // *completed* bumped `next_id` before releasing its
            // write-order mutex, so every live record is below it; ids
            // allocated but not yet inserted re-validate their route
            // and land on the new layout once the boundary passes them.
            let ceiling = inner.next_id.load(Ordering::SeqCst);
            if boundary >= ceiling {
                // Nothing left below the ceiling — including a resumed
                // run whose predecessor already parked the boundary at
                // usize::MAX before aborting short of finalise.
                top.boundary.store(usize::MAX, Ordering::SeqCst);
                return Ok(BatchOutcome {
                    done: true,
                    swept: 0,
                    total: ceiling,
                    moved: 0,
                    remaining: 0,
                });
            }
            let end = (boundary.saturating_add(batch)).min(ceiling);
            for id in boundary..end {
                moved += move_record(&top.sets, &mut locks, id, from_n, to_n)?;
                // Advanced per id, not per batch: no observer can see it
                // mid-batch (all locks are held), but an *aborting*
                // error between moves then leaves the epoch consistent
                // — every id below the boundary moved, none above it —
                // so the migration can be resumed.
                top.boundary.store(id + 1, Ordering::SeqCst);
            }
            if end >= ceiling {
                // Every *completed* insert bumped `next_id` before
                // releasing its write-order mutex, so under all the
                // locks no live record sits at or above `ceiling`. Park
                // the boundary above any future id: pending allocations
                // re-validate their route and land on the new layout,
                // and finalise flips the epoch steady.
                top.boundary.store(usize::MAX, Ordering::SeqCst);
            } else {
                top.boundary.store(end, Ordering::SeqCst);
            }
            // The boundary moved: ops logged before this batch route
            // differently from here on, so no gap may ever be replayed
            // across it. Fence every shard's log (all replicas were
            // drained above and moved identically, so marking healthy
            // replicas applied is truthful).
            if end > boundary {
                for set in top.sets.iter() {
                    inner.log_barrier(set);
                }
            }
            Ok(BatchOutcome {
                done: end >= ceiling,
                swept: end - boundary,
                total: ceiling,
                moved,
                remaining: ceiling - end,
            })
        } else {
            // Shrink: descending sweep towards 0 (the target is fixed —
            // ids allocated after install route new-layout already).
            if boundary == 0 {
                return Ok(BatchOutcome {
                    done: true,
                    swept: 0,
                    total: 0,
                    moved: 0,
                    remaining: 0,
                });
            }
            let start = boundary.saturating_sub(batch);
            for id in (start..boundary).rev() {
                moved += move_record(&top.sets, &mut locks, id, from_n, to_n)?;
                // Per-id advance, for the same abort-consistency reason
                // as the growth sweep.
                top.boundary.store(id, Ordering::SeqCst);
            }
            // Same replay fence as the growth sweep.
            if boundary > start {
                for set in top.sets.iter() {
                    inner.log_barrier(set);
                }
            }
            Ok(BatchOutcome {
                done: start == 0,
                swept: boundary - start,
                total: 0,
                moved,
                remaining: start,
            })
        }
    }
}

struct BatchOutcome {
    done: bool,
    swept: usize,
    total: usize,
    moved: usize,
    /// Ids left to sweep at batch end (the adaptive-batch signal).
    remaining: usize,
}

/// Moves one global id from its old-layout slot to its new-layout slot
/// on every healthy replica. The caller holds every write-order mutex
/// and every replica write lock (`locks` mirrors `sets`). Ids with no
/// live record (removed, or allocated-but-uninserted) move nothing.
///
/// Error policy mirrors the write fan-out: the first healthy replica is
/// authoritative — if *it* fails nothing has been touched and the error
/// propagates cleanly; a later replica that disagrees has diverged and
/// is taken out of rotation rather than abort the move. Should the
/// authoritative destination insert fail, the source removals are
/// undone first, so even that abort leaves every record in place.
fn move_record(
    sets: &[Arc<ReplicaSet>],
    locks: &mut [Vec<parking_lot::RwLockWriteGuard<'_, ImageDatabase>>],
    id: usize,
    from_n: usize,
    to_n: usize,
) -> Result<usize, DbError> {
    let (old_shard, old_local) = (id % from_n, RecordId(id / from_n));
    let (new_shard, new_local) = (id % to_n, RecordId(id / to_n));
    if old_shard == new_shard && old_local == new_local {
        return Ok(0);
    }
    let Some(source) = sets[old_shard].first_healthy() else {
        return Err(ReplicaSet::no_healthy(old_shard));
    };
    let Some(record) = locks[old_shard][source].get(old_local) else {
        return Ok(0);
    };
    let (name, symbolic) = (record.name.clone(), record.symbolic.clone());
    let mut removed_from: Vec<usize> = Vec::new();
    for (replica, guard) in locks[old_shard].iter_mut().enumerate() {
        if !sets[old_shard].health[replica].load(Ordering::SeqCst) {
            continue;
        }
        // Present on every healthy replica by the fan-out invariant.
        match guard.remove(old_local) {
            Ok(_) => removed_from.push(replica),
            Err(e) if replica == source => return Err(e),
            Err(_) => sets[old_shard].health[replica].store(false, Ordering::SeqCst),
        }
    }
    let mut inserted = false;
    for (replica, guard) in locks[new_shard].iter_mut().enumerate() {
        if !sets[new_shard].health[replica].load(Ordering::SeqCst) {
            continue;
        }
        // The destination slot is always vacant: its old-layout
        // occupant (a smaller id under growth, larger under shrink)
        // was swept out earlier in the migration (see `epoch.rs`).
        match guard.insert_symbolic_with_id(new_local, &name, symbolic.clone()) {
            Ok(()) => inserted = true,
            Err(e) if !inserted => {
                // Authoritative destination refused: undo the source
                // removals (their slots were just vacated, so this
                // cannot fail) and abort with the record intact.
                for &replica in &removed_from {
                    let _ = locks[old_shard][replica].insert_symbolic_with_id(
                        old_local,
                        &name,
                        symbolic.clone(),
                    );
                }
                return Err(e);
            }
            Err(_) => sets[new_shard].health[replica].store(false, Ordering::SeqCst),
        }
    }
    sets[old_shard].edits.fetch_add(1, Ordering::SeqCst);
    sets[new_shard].edits.fetch_add(1, Ordering::SeqCst);
    Ok(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryOptions;
    use be2d_core::convert_scene;
    use be2d_geometry::{Scene, SceneBuilder};

    fn scene(x: i64) -> Scene {
        SceneBuilder::new(100, 100)
            .object("A", (x, x + 10, 10, 20))
            .object("B", (50, 90, 50, 90))
            .build()
            .unwrap()
    }

    #[test]
    fn grow_and_shrink_preserve_every_record() {
        let db = ReplicatedImageDatabase::with_topology(2, 2);
        for i in 0..23 {
            db.insert_scene(&format!("img{i}"), &scene(i % 40)).unwrap();
        }
        db.remove(RecordId(5)).unwrap();

        let report = Resharder::new(&db).batch_ids(4).run(5).unwrap();
        assert_eq!(db.shard_count(), 5);
        assert!(!db.resharding());
        assert_eq!(report.from, 2);
        assert_eq!(report.to, 5);
        assert!(report.moved_records > 0, "{report:?}");
        assert_eq!(db.len(), 22);
        for i in 0..23usize {
            match (i, db.get(RecordId(i)).unwrap()) {
                (5, found) => assert!(found.is_none()),
                (_, Some(record)) => assert_eq!(record.name, format!("img{i}")),
                (_, None) => panic!("record {i} lost in growth"),
            }
        }
        // Ids keep the global sequence across the topology change.
        assert_eq!(db.insert_scene("next", &scene(1)).unwrap(), RecordId(23));

        let report = Resharder::new(&db).batch_ids(7).run(3).unwrap();
        assert_eq!(db.shard_count(), 3);
        assert_eq!(report.from, 5);
        assert_eq!(db.len(), 23);
        assert_eq!(db.get(RecordId(23)).unwrap().unwrap().name, "next");
        assert_eq!(db.replica_health(), vec![vec![true, true]; 3]);
        assert_eq!(db.insert_scene("after", &scene(2)).unwrap(), RecordId(24));
    }

    #[test]
    fn reshard_to_same_count_is_a_noop() {
        let db = ReplicatedImageDatabase::with_topology(3, 1);
        db.insert_scene("one", &scene(1)).unwrap();
        let report = Resharder::new(&db).run(3).unwrap();
        assert_eq!(report.batches, 0);
        assert!(!report.active);
        assert_eq!(db.shard_count(), 3);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn reshard_progress_is_observable_at_checkpoints() {
        let db = ReplicatedImageDatabase::with_topology(1, 1);
        for i in 0..40 {
            db.insert_scene(&format!("img{i}"), &scene(i % 40)).unwrap();
        }
        let mut checkpoints = Vec::new();
        Resharder::new(&db)
            .batch_ids(8)
            .run_with_checkpoints(4, |p| checkpoints.push(p.clone()))
            .unwrap();
        assert!(checkpoints.len() >= 5, "{checkpoints:?}");
        assert!(checkpoints.iter().rev().skip(1).all(|p| p.active));
        let last = checkpoints.last().unwrap();
        assert!(!last.active);
        assert_eq!(last.migrated_ids, 40);
        assert_eq!(last.total_ids, 40);
        assert_eq!(db.reshard_progress(), *last);
        // Watermarks are monotone.
        assert!(checkpoints
            .windows(2)
            .all(|w| w[0].migrated_ids <= w[1].migrated_ids));
    }

    #[test]
    fn restore_is_rejected_mid_reshard() {
        let dir = std::env::temp_dir().join(format!("be2d_reshard_restore_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let db = ReplicatedImageDatabase::with_topology(2, 1);
        for i in 0..30 {
            db.insert_scene(&format!("img{i}"), &scene(i % 40)).unwrap();
        }
        db.save_snapshot(&path).unwrap();

        let mut restore_errors = 0;
        Resharder::new(&db)
            .batch_ids(4)
            .run_with_checkpoints(4, |p| {
                if p.active {
                    // Mid-migration, a restore must refuse rather than
                    // fight the sweep over the topology.
                    match db.restore_from(&path) {
                        Err(DbError::Replica { reason }) => {
                            assert!(reason.contains("reshard"), "{reason}");
                            restore_errors += 1;
                        }
                        other => panic!("restore mid-reshard must fail: {other:?}"),
                    }
                }
            })
            .unwrap();
        assert!(restore_errors > 0);
        // Afterwards the restore works again.
        assert_eq!(db.restore_from(&path).unwrap(), 30);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_reshards_are_rejected() {
        let db = ReplicatedImageDatabase::with_topology(2, 1);
        for i in 0..20 {
            db.insert_scene(&format!("img{i}"), &scene(i % 40)).unwrap();
        }
        let mut nested = None;
        Resharder::new(&db)
            .batch_ids(2)
            .run_with_checkpoints(4, |p| {
                if p.active && nested.is_none() {
                    nested = Some(Resharder::new(&db).run(8));
                }
            })
            .unwrap();
        match nested {
            Some(Err(DbError::Replica { reason })) => {
                assert!(reason.contains("already in progress"), "{reason}");
            }
            other => panic!("nested reshard must be rejected: {other:?}"),
        }
        assert_eq!(db.shard_count(), 4);
    }

    #[test]
    fn aborted_reshard_resumes_to_the_same_target() {
        let db = ReplicatedImageDatabase::with_topology(2, 1);
        for i in 0..30 {
            db.insert_scene(&format!("img{i}"), &scene(i % 40)).unwrap();
        }
        let reference: Vec<String> = (0..30).map(|i| format!("img{i}")).collect();

        // Abort mid-sweep (checkpoints run with no lock held, so a
        // panicking hook models any internal abort).
        let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Resharder::new(&db)
                .batch_ids(4)
                .run_with_checkpoints(5, |p| {
                    if p.active && p.migrated_ids >= 8 {
                        panic!("injected abort");
                    }
                })
        }));
        assert!(aborted.is_err());
        assert!(db.resharding(), "epoch still mid-migration");

        // Every record stays reachable under the abandoned epoch, but
        // bulk operations that assume a steady layout are refused.
        for (i, name) in reference.iter().enumerate() {
            assert_eq!(&db.get(RecordId(i)).unwrap().unwrap().name, name);
        }
        let err = Resharder::new(&db).run(3).unwrap_err();
        assert!(err.to_string().contains("resumed"), "{err}");
        let dir = std::env::temp_dir().join(format!("be2d_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        std::fs::write(&path, "{}").unwrap();
        let err = db.restore_from(&path).unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
        std::fs::remove_dir_all(&dir).ok();

        // Rerunning to the same target resumes and completes.
        Resharder::new(&db).batch_ids(4).run(5).unwrap();
        assert!(!db.resharding());
        assert_eq!(db.shard_count(), 5);
        for (i, name) in reference.iter().enumerate() {
            assert_eq!(&db.get(RecordId(i)).unwrap().unwrap().name, name);
        }

        // Abort in the narrowest window — after the final batch parked
        // the boundary at usize::MAX, before finalise — then resume.
        let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Resharder::new(&db)
                .batch_ids(64)
                .run_with_checkpoints(2, |p| {
                    if p.active && p.migrated_ids >= p.total_ids {
                        panic!("abort at the parked boundary");
                    }
                })
        }));
        assert!(aborted.is_err());
        assert!(db.resharding());
        Resharder::new(&db).run(2).unwrap();
        assert_eq!(db.shard_count(), 2);
        assert_eq!(db.len(), 30);
    }

    #[test]
    fn search_is_bit_identical_at_every_checkpoint() {
        let reference = {
            let mut db = ImageDatabase::new();
            for i in 0..60 {
                db.insert_scene(&format!("img{i}"), &scene(i % 40)).unwrap();
            }
            db
        };
        let db = ReplicatedImageDatabase::with_topology(3, 1);
        for i in 0..60 {
            db.insert_scene(&format!("img{i}"), &scene(i % 40)).unwrap();
        }
        let queries: Vec<Scene> = (0..6).map(|i| scene(i * 7)).collect();
        let options = QueryOptions::default();
        let mut compared = 0;
        Resharder::new(&db)
            .batch_ids(5)
            .run_with_checkpoints(7, |_| {
                for query in &queries {
                    let expect = reference.search_scene(query, &options);
                    let hits = db.search_traced(&convert_scene(query), &options).unwrap().0;
                    assert_eq!(expect.len(), hits.len());
                    for (a, b) in expect.iter().zip(&hits) {
                        assert_eq!(a.id, b.id);
                        assert_eq!(a.score.to_bits(), b.score.to_bits());
                    }
                    compared += 1;
                }
            })
            .unwrap();
        assert!(compared >= 60, "checkpoints actually compared: {compared}");
    }
}
