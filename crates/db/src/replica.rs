//! Replicated shards: read-scaling replica sets with health, fault
//! injection, rebuild-then-rejoin recovery, **online resharding** — and
//! a per-shard **operation log** driving incremental catch-up, write-
//! ahead durability, and asynchronous replication.
//!
//! The corpus is split into N independently locked shards, and **R
//! replicas stand behind every shard**. Every mutation (insert,
//! remove, §3.2 object edits) is applied to the shard's leader (its
//! first healthy replica), assigned a global sequence number, and
//! recorded in the shard's bounded in-memory op log; followers apply
//! the same ops **by draining the log in sequence order**, never by
//! re-executing requests, so every replica runs the identical
//! deterministic mutation stream. Searches scatter to **one chosen
//! replica per shard** before a top-k heap merge (see `scatter.rs`);
//! because every in-sync replica holds identical records, the ranked
//! result is **bit-identical** to the unreplicated (and single-shard)
//! ranking, ties included (see `crates/db/tests/replicated.rs`).
//!
//! # Replication modes
//!
//! [`ReplicationMode`] picks the write-acknowledgement point:
//!
//! * **Sync** (default) — the write returns after every healthy replica
//!   applied it: the pre-op-log fan-out behaviour, bit for bit.
//! * **Quorum** — the write returns once a majority applied it; the
//!   rest drain in the background. Reads route only to replicas at the
//!   shard head.
//! * **Async { max_lag }** — the write returns after the leader alone;
//!   a background pump drains followers. Reads route only to replicas
//!   within `max_lag` ops of the head (bounded staleness); point
//!   lookups go to the leader (read-your-writes).
//!
//! # Health, failure, recovery
//!
//! Each replica carries a health bit. [`fail_replica`] takes a replica
//! out of rotation (the fault-injection hook tests and the server's
//! admin endpoint use); reads and writes route around it from that
//! moment on, so it goes stale. [`rebuild_replica`] brings it back:
//! when the replica's gap still fits the shard's log window it
//! **replays just the missed ops** (`catchup_replays` in
//! [`ReplicationStats`]); when the ring has wrapped past its position —
//! or a restore barrier fenced the gap — it falls back to cloning a
//! healthy peer (`catchup_clones`). Either way the shard's write
//! traffic pauses only for the catch-up itself and the rejoined copy is
//! exactly up to date. A shard's **last** healthy replica can never be
//! failed — every shard always serves.
//!
//! # WAL durability
//!
//! With [`ReplicaConfig::wal`] set, every logged op is also appended to
//! a per-shard on-disk write-ahead log (fsynced in batches) between
//! incremental snapshots: recovery = anchor snapshot + replay of the
//! tail, with torn-tail detection and healing. See
//! [`checkpoint_wal`](ReplicatedImageDatabase::checkpoint_wal).
//!
//! # Online resharding
//!
//! The shard count can be changed **while serving** — see
//! [`Resharder`](crate::Resharder). The shard topology lives behind a
//! reader-writer lock; every operation routes through a
//! [`RoutingEpoch`](crate::epoch::RoutingEpoch) that says, per global
//! id, whether the record has already migrated to the new layout.
//! Correctness rests on three rules:
//!
//! 1. The migration **boundary only moves while every shard's
//!    write-order mutex and every replica's write lock are held** (one
//!    bounded batch at a time). A writer that holds its shard's
//!    write-order mutex — or a reader that holds any replica read lock
//!    — therefore observes a frozen boundary; both re-validate their
//!    route after locking and retry if a batch slipped in between.
//! 2. Multi-shard **searches hold a read lease on the migration gate**
//!    for the whole scatter; batch moves take the gate exclusively. A
//!    scatter therefore never observes a half-moved batch, so every
//!    record is seen exactly once and the merged ranking stays
//!    bit-identical mid-migration (`crates/db/tests/reshard.rs`).
//! 3. Topology **structure** (the shard vector itself) changes only
//!    under the topology write lock, taken with no other lock held —
//!    at reshard install (new empty shards appear) and finalise
//!    (drained shards disappear).
//!
//! Because a reshard batch changes how global ids route, replaying ops
//! logged *before* a batch into a replica healed *after* it would
//! mis-route them. Every reshard batch therefore stamps a **barrier**
//! into each shard's log: catch-up never replays across a barrier (it
//! clones instead), and WAL recovery refuses to cross one.
//!
//! [`fail_replica`]: ReplicatedImageDatabase::fail_replica
//! [`rebuild_replica`]: ReplicatedImageDatabase::rebuild_replica

use crate::epoch::RoutingEpoch;
use crate::events::{EventJournal, EventKind};
use crate::metrics::{elapsed_ns, DbMetrics, QueryTrace, ShardTrace};
use crate::oplog::{
    load_wal_file, wal_shard_files, Op, OplogStats, ReplicaLag, ReplicationMode, ReplicationStats,
    ShardLog, ShardReplication, WalConfig, WalRecord, WalState,
};
use crate::reshard::ReshardProgress;
use crate::scatter::{fan_out, merge_top_k};
use crate::snapshot::{
    fresh_snapshot_id, heal_next_id, load_snapshot_at, reroute_shards, save_snapshot_at,
    wal_floor_of, PreviousSnapshot, SnapshotPayload,
};
use crate::{
    CandidateStrategy, DbError, ImageDatabase, ImageRecord, QueryOptions, RecordId, ScoreThreshold,
    SearchHit,
};
use be2d_core::{BeString2D, SymbolicImage};
use be2d_geometry::{ObjectClass, Rect, Scene};
use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;
use std::time::Instant;

/// A scatter over fewer records than this scans its shards in turn on
/// the calling thread.
const SCATTER_MIN_RECORDS: usize = 64;

/// A cheaply clonable, thread-safe image database of N shards × R
/// replicas whose shard count can be changed online.
///
/// With `replicas = 1` it is a plain sharded database: N independently
/// locked shards, scatter-gather search, writes that lock only the
/// owning shard. With more replicas, reads spread across copies and a
/// failed copy can be rebuilt from a healthy peer without downtime.
/// [`Resharder`](crate::Resharder) streams records between shards while
/// the database keeps serving. [`with_config`](Self::with_config)
/// additionally selects the [`ReplicationMode`], the op-log window, and
/// WAL durability.
///
/// # Example
///
/// ```
/// use be2d_core::convert_scene;
/// use be2d_db::{QueryOptions, ReplicatedImageDatabase};
/// use be2d_geometry::SceneBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = ReplicatedImageDatabase::with_topology(2, 2);
/// let scene = SceneBuilder::new(10, 10).object("A", (1, 5, 1, 5)).build()?;
/// let id = db.insert_scene("one", &scene)?;
///
/// // Fail one copy of the owning shard: reads route around it.
/// db.fail_replica(0, 1)?;
/// let (hits, _trace) = db.search_traced(&convert_scene(&scene), &QueryOptions::default())?;
/// assert_eq!(hits[0].id, id);
///
/// // Rebuild it from the healthy peer and rejoin rotation.
/// db.rebuild_replica(0, 1)?;
/// assert!(db.replica_health().iter().flatten().all(|&h| h));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedImageDatabase {
    pub(crate) inner: Arc<Inner>,
}

/// Construction-time configuration of a [`ReplicatedImageDatabase`]
/// (see [`ReplicatedImageDatabase::with_config`]).
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Number of shards (clamped to ≥ 1).
    pub shards: usize,
    /// Replicas per shard (clamped to ≥ 1).
    pub replicas: usize,
    /// Where writes acknowledge: every replica, a majority, or the
    /// leader alone.
    pub mode: ReplicationMode,
    /// Per-shard op-log ring capacity in entries (clamped to ≥ 1). A
    /// failed replica whose gap exceeds the window rebuilds by clone
    /// instead of replay.
    pub oplog_window: usize,
    /// Write-ahead-log durability (off when `None`).
    pub wal: Option<WalConfig>,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            shards: 1,
            replicas: 1,
            mode: ReplicationMode::Sync,
            oplog_window: 1024,
            wal: None,
        }
    }
}

#[derive(Debug)]
pub(crate) struct Inner {
    /// The shard topology: replica sets plus the routing epoch. Taken
    /// for read by every operation; for write only at reshard install /
    /// finalise (with no other lock held).
    pub(crate) topology: RwLock<Topology>,
    /// The next global id; increments on every insert, never reused.
    pub(crate) next_id: AtomicUsize,
    /// Stable id of this database instance (the incremental-snapshot
    /// writer id; see `snapshot.rs`).
    pub(crate) instance: u64,
    /// Serialises snapshot/restore **file I/O** (not regular traffic):
    /// two concurrent saves to one path could otherwise delete each
    /// other's generation files during cleanup, and a save racing a
    /// restore could delete shard files mid-read.
    pub(crate) snapshot_io: parking_lot::Mutex<()>,
    /// The migration gate: searches hold it shared for the
    /// whole scatter, reshard batch moves hold it exclusively — a
    /// scatter can never observe a half-moved batch.
    pub(crate) search_gate: RwLock<()>,
    /// One reshard (or restore) at a time.
    pub(crate) reshard_lock: parking_lot::Mutex<()>,
    /// Last observed reshard progress, for `/v1/stats`.
    pub(crate) progress: parking_lot::Mutex<ReshardProgress>,
    /// Write-acknowledgement mode (fixed at construction).
    pub(crate) mode: ReplicationMode,
    /// Op-log ring capacity per shard (fixed at construction).
    pub(crate) oplog_window: usize,
    /// The one global sequence counter. A sequence is assigned under
    /// the owning shard's write-order mutex *after* the leader applied
    /// the op, so a snapshot taken under all write-order mutexes sees
    /// no in-flight sequence: the recorded watermark is exact.
    pub(crate) op_seq: AtomicU64,
    /// Replica heals that rejoined by replaying the log window.
    pub(crate) catchup_replays: AtomicU64,
    /// Replica heals that fell back to a full shard clone.
    pub(crate) catchup_clones: AtomicU64,
    /// Times a writer drained a lagging follower to stop the ring
    /// evicting an entry the follower still needed.
    pub(crate) writer_drains: AtomicU64,
    /// Write-ahead log (None = in-memory only).
    pub(crate) wal: Option<WalState>,
    /// Wake-up channel of the background drain pump (None in Sync mode,
    /// which never leaves a follower behind).
    pub(crate) pump: Option<Arc<PumpSignal>>,
    /// Lock-free latency/throughput instrumentation handles, shared
    /// with whoever exposes them (see [`DbMetrics`]).
    pub(crate) metrics: DbMetrics,
    /// Bounded ring of typed cluster events (replica fail/heal,
    /// reshard start/finish, WAL checkpoints, …), polled by cursor.
    pub(crate) events: EventJournal,
}

/// The live shard topology: one [`ReplicaSet`] per physical shard plus
/// the routing epoch. `old_n == new_n` when steady; during a reshard
/// the vector holds `max(old_n, new_n)` sets and `boundary` is the
/// migration watermark (see [`RoutingEpoch`]).
#[derive(Debug)]
pub(crate) struct Topology {
    pub(crate) sets: Vec<Arc<ReplicaSet>>,
    pub(crate) old_n: usize,
    pub(crate) new_n: usize,
    /// Stored atomically so batch moves can advance it under read
    /// access to the topology; see the locking rules in the module
    /// docs.
    pub(crate) boundary: AtomicUsize,
}

impl Topology {
    fn steady(n: usize, replicas: usize, window: usize) -> Topology {
        Topology {
            sets: (0..n)
                .map(|_| Arc::new(ReplicaSet::new(replicas, window)))
                .collect(),
            old_n: n,
            new_n: n,
            boundary: AtomicUsize::new(0),
        }
    }

    /// Whether exactly one layout is live.
    pub(crate) fn is_steady(&self) -> bool {
        self.old_n == self.new_n
    }

    /// A point-in-time copy of the routing epoch. The boundary loaded
    /// here is only stable while the caller holds a lock that blocks
    /// batch moves (any write-order mutex, any replica lock, or the
    /// migration gate).
    pub(crate) fn epoch(&self) -> RoutingEpoch {
        RoutingEpoch {
            old_n: self.old_n,
            new_n: self.new_n,
            boundary: self.boundary.load(Ordering::SeqCst),
        }
    }

    /// Global id → (owning shard, local id) under the current epoch.
    fn route(&self, id: RecordId) -> (usize, RecordId) {
        let (shard, local) = self.epoch().route(id.index());
        (shard, RecordId(local))
    }
}

/// One shard's replica set: R copies of the shard behind their own
/// reader-writer locks, health bits, the write serialiser — and the
/// shard's op log with per-replica applied positions.
#[derive(Debug)]
pub(crate) struct ReplicaSet {
    pub(crate) replicas: Vec<RwLock<ImageDatabase>>,
    /// `health[r]` — whether replica r is in rotation.
    pub(crate) health: Vec<AtomicBool>,
    /// Tie-rotation cursor of the read picker (ex round-robin cursor):
    /// when outstanding-read counts tie, consecutive picks still rotate
    /// deterministically instead of herding onto one replica.
    pub(crate) cursor: AtomicUsize,
    /// `outstanding[r]` — reads currently holding replica r's read lock
    /// (the per-replica split of the global `outstanding_reads` gauge).
    /// The least-outstanding picker routes on it.
    pub(crate) outstanding: Vec<AtomicUsize>,
    /// Serialises write applications, rebuilds, background drains, and
    /// health transitions on this shard, so a writer's view of the
    /// healthy set cannot go stale mid-operation. Readers never take
    /// it. Reshard batch moves take **all** shards' mutexes (in shard
    /// order) before moving anything, so holding any one of them
    /// freezes the boundary.
    pub(crate) write_order: parking_lot::Mutex<()>,
    /// Per-shard edit counter (incremental-snapshot key).
    pub(crate) edits: AtomicU64,
    /// The shard's bounded op ring. Lock order: always after
    /// `write_order`, always released before any replica lock.
    pub(crate) log: parking_lot::Mutex<ShardLog>,
    /// Newest sequence published to this shard's log (0 = none yet).
    pub(crate) head: AtomicU64,
    /// `applied[r]` — the highest sequence replica r has applied.
    pub(crate) applied: Vec<AtomicU64>,
}

impl ReplicaSet {
    pub(crate) fn new(replicas: usize, window: usize) -> ReplicaSet {
        ReplicaSet {
            replicas: (0..replicas)
                .map(|_| RwLock::new(ImageDatabase::new()))
                .collect(),
            health: (0..replicas).map(|_| AtomicBool::new(true)).collect(),
            cursor: AtomicUsize::new(0),
            outstanding: (0..replicas).map(|_| AtomicUsize::new(0)).collect(),
            write_order: parking_lot::Mutex::new(()),
            edits: AtomicU64::new(0),
            log: parking_lot::Mutex::new(ShardLog::new(window)),
            head: AtomicU64::new(0),
            applied: (0..replicas).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Least-outstanding pick among the (non-empty) eligible replicas.
    ///
    /// The replica with the fewest in-flight reads wins; on ties the
    /// picker falls back to **power-of-two-choices**: the rotation
    /// cursor nominates two of the tied replicas, their live counts are
    /// re-sampled, and the less loaded one is taken (the first on a
    /// re-tie, so an idle set still rotates `0, 1, 2, 0, …` — no
    /// herding, deterministic spread).
    fn pick_among(&self, eligible: &[usize]) -> usize {
        let min = eligible
            .iter()
            .map(|&r| self.outstanding[r].load(Ordering::Relaxed))
            .min()
            .expect("pick_among requires a non-empty eligible set");
        let tied: Vec<usize> = eligible
            .iter()
            .copied()
            .filter(|&r| self.outstanding[r].load(Ordering::Relaxed) <= min)
            .collect();
        match tied.as_slice() {
            [] => eligible[0], // counts moved under us; any eligible replica is valid
            [only] => *only,
            _ => {
                let c = self.cursor.fetch_add(1, Ordering::Relaxed);
                let a = tied[c % tied.len()];
                let b = tied[(c + 1) % tied.len()];
                // Two choices, freshest counts win: loads may have moved
                // since the tie was computed.
                if self.outstanding[b].load(Ordering::Relaxed)
                    < self.outstanding[a].load(Ordering::Relaxed)
                {
                    b
                } else {
                    a
                }
            }
        }
    }

    /// Least-outstanding pick of a healthy replica (reads route around
    /// failed copies). `None` when every replica is marked failed — a
    /// mid-race state the last-healthy guard makes rare but a diverged
    /// drain can still reach; callers surface it as
    /// [`DbError::Replica`] instead of serving a failed copy.
    pub(crate) fn pick(&self) -> Option<usize> {
        let healthy: Vec<usize> = (0..self.replicas.len())
            .filter(|&r| self.health[r].load(Ordering::SeqCst))
            .collect();
        if healthy.is_empty() {
            return None;
        }
        Some(self.pick_among(&healthy))
    }

    /// Least-outstanding pick among healthy replicas within `max_lag`
    /// ops of the shard head. When no follower qualifies the read falls
    /// back to the leader (always at the head) and bumps `fallback` so
    /// fallback storms are diagnosable; `None` only when every replica
    /// is failed.
    fn pick_within(&self, max_lag: u64, fallback: &be2d_metrics::Counter) -> Option<usize> {
        let head = self.head.load(Ordering::SeqCst);
        let in_sync: Vec<usize> = (0..self.replicas.len())
            .filter(|&r| {
                self.health[r].load(Ordering::SeqCst)
                    && head.saturating_sub(self.applied[r].load(Ordering::SeqCst)) <= max_lag
            })
            .collect();
        if !in_sync.is_empty() {
            return Some(self.pick_among(&in_sync));
        }
        let leader = self.first_healthy()?;
        fallback.inc();
        Some(leader)
    }

    /// The replica a search should read, given the database's mode:
    /// least-outstanding over all healthy replicas under Sync (every
    /// healthy replica is in sync), bounded-lag otherwise. `None` when
    /// the shard has no healthy replica at all.
    fn pick_read(&self, mode: ReplicationMode, metrics: &DbMetrics) -> Option<usize> {
        match mode {
            ReplicationMode::Sync => self.pick(),
            ReplicationMode::Quorum => self.pick_within(0, &metrics.replica_fallback_reads),
            ReplicationMode::Async { max_lag } => {
                self.pick_within(max_lag, &metrics.replica_fallback_reads)
            }
        }
    }

    /// The lowest-indexed healthy replica (the leader: the
    /// deterministic choice for writes, snapshots, rebuild sources, and
    /// occupancy checks). `None` when every replica is marked failed —
    /// never silently replica 0.
    pub(crate) fn first_healthy(&self) -> Option<usize> {
        (0..self.replicas.len()).find(|&r| self.health[r].load(Ordering::SeqCst))
    }

    /// Marks one read in flight on replica `r` (pairs with
    /// [`end_read`](Self::end_read)); the picker routes on these counts.
    fn begin_read(&self, r: usize) {
        self.outstanding[r].fetch_add(1, Ordering::Relaxed);
    }

    fn end_read(&self, r: usize) {
        self.outstanding[r].fetch_sub(1, Ordering::Relaxed);
    }

    fn healthy_count(&self) -> usize {
        self.health
            .iter()
            .filter(|h| h.load(Ordering::SeqCst))
            .count()
    }

    /// The no-healthy-replica error every picker caller surfaces.
    pub(crate) fn no_healthy(shard: usize) -> DbError {
        DbError::Replica {
            reason: format!("shard {shard} has no healthy replica"),
        }
    }
}

/// Drains replica `r` of `set` up to the shard head by replaying the op
/// log in sequence order. The caller must hold the shard's
/// `write_order` mutex (this function itself never takes it). Returns
/// `true` when the replica reached the head; `false` when the gap is
/// not replayable (ring wrapped or barrier in range) or an op failed to
/// apply — in the latter case the replica has diverged and is taken out
/// of rotation.
pub(crate) fn drain_replica(top: &Topology, set: &ReplicaSet, shard: usize, r: usize) -> bool {
    loop {
        let target = set.head.load(Ordering::SeqCst);
        if set.applied[r].load(Ordering::SeqCst) >= target {
            return true;
        }
        // The log mutex is released before the replica lock (lock
        // order: write_order → log → replica).
        let pending = {
            let log = set.log.lock();
            log.collect_since(set.applied[r].load(Ordering::SeqCst))
        };
        let Some(pending) = pending else {
            return false;
        };
        let mut guard = set.replicas[r].write();
        let base = set.applied[r].load(Ordering::SeqCst);
        // The boundary is frozen while the replica write lock is held.
        let epoch = top.epoch();
        for (seq, op) in pending {
            if seq <= base {
                continue;
            }
            if op.apply_local(&mut guard, &epoch, shard).is_err() {
                drop(guard);
                set.health[r].store(false, Ordering::SeqCst);
                return false;
            }
            set.applied[r].store(seq, Ordering::SeqCst);
        }
    }
}

/// The background drain pump's wake-up channel: writers set `dirty` and
/// notify after each non-Sync ack; the pump also sweeps on a timeout so
/// a missed notify only delays, never strands, a follower.
#[derive(Debug, Default)]
pub(crate) struct PumpSignal {
    dirty: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

/// The body of the `be2d-oplog-pump` thread: wait for a write (or the
/// periodic backstop), then drain every lagging healthy replica of
/// every shard. Exits when the database is dropped (the weak reference
/// fails to upgrade). Each shard is swept under its own write-order
/// mutex so health and applied positions only ever change under it.
fn pump_loop(inner: Weak<Inner>, signal: Arc<PumpSignal>) {
    loop {
        {
            let dirty = signal.dirty.lock().unwrap_or_else(|e| e.into_inner());
            let (mut dirty, _) = signal
                .cv
                .wait_timeout(dirty, Duration::from_millis(20))
                .unwrap_or_else(|e| e.into_inner());
            *dirty = false;
        }
        let Some(inner) = inner.upgrade() else {
            return;
        };
        let top = inner.topology.read();
        for (shard, set) in top.sets.iter().enumerate() {
            let _order = set.write_order.lock();
            for r in 0..set.replicas.len() {
                if set.health[r].load(Ordering::SeqCst)
                    && set.applied[r].load(Ordering::SeqCst) < set.head.load(Ordering::SeqCst)
                {
                    drain_replica(&top, set, shard, r);
                }
            }
        }
    }
}

impl Inner {
    /// Applies one mutation through shard `shard`'s op log. The caller
    /// must hold the shard's `write_order` mutex. The leader (first
    /// healthy replica) applies the op authoritatively — its error is
    /// the operation's error and nothing is logged — then the op is
    /// sequenced, WAL-appended (in durability mode), published to the
    /// ring, and acknowledged per the replication mode: every healthy
    /// follower under Sync, a majority under Quorum, the leader alone
    /// under Async. Followers always catch up by draining the log, so
    /// every replica runs the identical mutation stream.
    pub(crate) fn apply_logged(&self, top: &Topology, shard: usize, op: Op) -> Result<(), DbError> {
        let start = Instant::now();
        let set = &top.sets[shard];
        // An async-mode leader may itself have just been promoted while
        // lagging; bring it to the head before it takes new writes.
        let leader = loop {
            let Some(leader) = set.first_healthy() else {
                return Err(ReplicaSet::no_healthy(shard));
            };
            if drain_replica(top, set, shard, leader) {
                break leader;
            }
        };
        let op = Arc::new(op);
        {
            let mut guard = set.replicas[leader].write();
            let epoch = top.epoch();
            op.apply_local(&mut guard, &epoch, shard)?;
        }
        let seq = self.op_seq.fetch_add(1, Ordering::SeqCst) + 1;
        // A WAL append failure is reported to the caller, but the op
        // stays in the in-memory pipeline regardless: the leader has
        // already applied it, and dropping it from the ring would leave
        // followers permanently diverged.
        let wal_result = match &self.wal {
            Some(wal) => wal.append(shard, seq, &op).map(|fsync| {
                if let Some(took) = fsync {
                    self.metrics.wal_fsync.record(took);
                }
            }),
            None => Ok(()),
        };
        // Never evict an entry a healthy follower still needs: drain
        // such followers first, so "healthy ⇒ replayable gap" holds.
        if let Some(evict_seq) = {
            let log = set.log.lock();
            log.eviction_candidate()
        } {
            for r in 0..set.replicas.len() {
                if r != leader
                    && set.health[r].load(Ordering::SeqCst)
                    && set.applied[r].load(Ordering::SeqCst) < evict_seq
                    && drain_replica(top, set, shard, r)
                {
                    self.writer_drains.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        set.log.lock().push(seq, Arc::clone(&op));
        set.head.store(seq, Ordering::SeqCst);
        set.applied[leader].store(seq, Ordering::SeqCst);
        // Acknowledgement: how many healthy replicas must have applied
        // the op before the write returns. When fewer healthy replicas
        // exist than the target, every one of them acks — a quorum of
        // the healthy set, favouring availability.
        let target = match self.mode {
            ReplicationMode::Sync => usize::MAX,
            ReplicationMode::Quorum => set.replicas.len() / 2 + 1,
            ReplicationMode::Async { .. } => 1,
        };
        let mut acked = 1usize;
        if acked < target {
            for r in 0..set.replicas.len() {
                if r == leader || !set.health[r].load(Ordering::SeqCst) {
                    continue;
                }
                if drain_replica(top, set, shard, r) {
                    acked += 1;
                    if acked >= target {
                        break;
                    }
                }
            }
        }
        // Bumped before `write_order` is released (the caller holds it),
        // pairing counter with state for incremental snapshots.
        set.edits.fetch_add(1, Ordering::SeqCst);
        if !matches!(self.mode, ReplicationMode::Sync) {
            self.notify_pump();
        }
        self.metrics.oplog_append.record(start.elapsed());
        wal_result
    }

    /// Stamps a replay fence into `set`'s log: catch-up never replays
    /// across it and WAL recovery refuses to cross it. Every healthy
    /// replica is marked as having applied it (callers guarantee all
    /// healthy replicas hold identical state — they hold the shard's
    /// write-order mutex or the topology write lock, excluding
    /// writers). Barriers are never WAL-appended: restore re-anchors
    /// the WAL instead, and reshard fences are meaningless across a
    /// reboot (recovery replays into the rebooted topology directly).
    pub(crate) fn log_barrier(&self, set: &ReplicaSet) -> u64 {
        let seq = self.op_seq.fetch_add(1, Ordering::SeqCst) + 1;
        set.log.lock().push(seq, Arc::new(Op::Barrier));
        set.head.store(seq, Ordering::SeqCst);
        for (r, applied) in set.applied.iter().enumerate() {
            if set.health[r].load(Ordering::SeqCst) {
                applied.store(seq, Ordering::SeqCst);
            }
        }
        seq
    }

    fn notify_pump(&self) {
        if let Some(pump) = &self.pump {
            let mut dirty = pump.dirty.lock().unwrap_or_else(|e| e.into_inner());
            *dirty = true;
            pump.cv.notify_one();
        }
    }
}

/// Point-in-time statistics of a [`ReplicatedImageDatabase`], observed
/// under one simultaneous read lock across every replica (never torn by
/// a concurrent write).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Live records per physical shard (from each shard's first healthy
    /// replica). During an online reshard this covers both layouts'
    /// shards.
    pub shard_records: Vec<usize>,
    /// Live records per replica: `replica_records[shard][replica]`. A
    /// failed replica's count goes stale until its rebuild.
    pub replica_records: Vec<Vec<usize>>,
    /// Health bits per replica: `replica_health[shard][replica]`.
    pub replica_health: Vec<Vec<bool>>,
    /// Distinct object classes across all shards (union).
    pub classes: usize,
    /// Total objects across all records.
    pub objects: usize,
}

impl Default for ReplicatedImageDatabase {
    fn default() -> Self {
        ReplicatedImageDatabase::with_topology(1, 1)
    }
}

impl ReplicatedImageDatabase {
    /// A single shard with a single replica (drop-in for the plain
    /// database).
    #[must_use]
    pub fn new() -> Self {
        ReplicatedImageDatabase::default()
    }

    /// A database of `shards` × `replicas` (both clamped to ≥ 1), in
    /// the default configuration: synchronous replication, no WAL.
    #[must_use]
    pub fn with_topology(shards: usize, replicas: usize) -> Self {
        ReplicatedImageDatabase::with_config(ReplicaConfig {
            shards,
            replicas,
            ..ReplicaConfig::default()
        })
        .expect("in-memory sync construction is infallible")
    }

    /// Builds a database from a full [`ReplicaConfig`]: topology,
    /// replication mode, op-log window, and optional WAL durability.
    /// With a WAL directory set, recovery runs here — anchor snapshot
    /// (if any) plus replay of the WAL tail, healing a torn tail — and
    /// the recovered state is re-anchored so the next boot replays only
    /// fresh ops. Non-Sync modes spawn the background drain pump.
    ///
    /// # Errors
    ///
    /// Propagates WAL recovery errors (corrupt anchor, unreplayable
    /// ops, I/O) and pump-thread spawn failures. In-memory Sync
    /// construction is infallible.
    pub fn with_config(config: ReplicaConfig) -> Result<Self, DbError> {
        let shards = config.shards.max(1);
        let replicas = config.replicas.max(1);
        let window = config.oplog_window.max(1);
        let pump_signal = if matches!(config.mode, ReplicationMode::Sync) {
            None
        } else {
            Some(Arc::new(PumpSignal::default()))
        };
        let db = ReplicatedImageDatabase {
            inner: Arc::new(Inner {
                topology: RwLock::new(Topology::steady(shards, replicas, window)),
                next_id: AtomicUsize::new(0),
                instance: fresh_snapshot_id(),
                snapshot_io: parking_lot::Mutex::new(()),
                search_gate: RwLock::new(()),
                reshard_lock: parking_lot::Mutex::new(()),
                progress: parking_lot::Mutex::new(ReshardProgress::default()),
                mode: config.mode,
                oplog_window: window,
                op_seq: AtomicU64::new(0),
                catchup_replays: AtomicU64::new(0),
                catchup_clones: AtomicU64::new(0),
                writer_drains: AtomicU64::new(0),
                wal: config.wal.map(WalState::new),
                pump: pump_signal.clone(),
                metrics: DbMetrics::new(),
                events: EventJournal::default(),
            }),
        };
        if db.inner.wal.is_some() {
            db.recover_wal()?;
        }
        if let Some(signal) = pump_signal {
            std::thread::Builder::new()
                .name("be2d-oplog-pump".into())
                .spawn({
                    let weak = Arc::downgrade(&db.inner);
                    move || pump_loop(weak, signal)
                })
                .map_err(DbError::Io)?;
        }
        Ok(db)
    }

    /// The configured write-acknowledgement mode.
    #[must_use]
    pub fn replication_mode(&self) -> ReplicationMode {
        self.inner.mode
    }

    /// Number of shards the database routes to (the **target** topology
    /// during an online reshard; see
    /// [`reshard_progress`](Self::reshard_progress)).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.topology.read().new_n
    }

    /// Replicas per shard.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.inner.topology.read().sets[0].replicas.len()
    }

    /// Whether an online reshard is currently migrating records.
    #[must_use]
    pub fn resharding(&self) -> bool {
        !self.inner.topology.read().is_steady()
    }

    /// The last observed reshard progress (all-zero before the first
    /// reshard; `active == false` once it finished).
    #[must_use]
    pub fn reshard_progress(&self) -> ReshardProgress {
        self.inner.progress.lock().clone()
    }

    /// Total live records (counted on each shard's first healthy
    /// replica — the leader, which is always at the shard head — under
    /// the migration gate so a mid-batch state is never observed).
    #[must_use]
    pub fn len(&self) -> usize {
        let top = self.inner.topology.read();
        let _gate = self.inner.search_gate.read();
        top.sets
            .iter()
            // Diagnostics tolerate the all-failed race: replica 0's
            // (possibly stale) count is reported rather than erroring —
            // no failed copy ever *serves* through this path.
            .map(|set| set.replicas[set.first_healthy().unwrap_or(0)].read().len())
            .sum()
    }

    /// Whether no shard holds a record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Health bits per replica: `result[shard][replica]`.
    #[must_use]
    pub fn replica_health(&self) -> Vec<Vec<bool>> {
        health_bits(&self.inner.topology.read())
    }

    /// The database's lock-free metric handles (per-shard scatter
    /// timings, gather, oplog/WAL latency, replica picks). Cloning the
    /// returned struct shares the underlying atomics, so an exposition
    /// layer can register them once and scrape forever.
    #[must_use]
    pub fn metrics(&self) -> &DbMetrics {
        &self.inner.metrics
    }

    /// The database's event journal: replica fail/heal, reshard
    /// start/finish, and WAL checkpoints are recorded here as they
    /// happen; embedders (the server's health engine) append their own
    /// events — SLO burns, advisor recommendations — to the same ring
    /// so one cursor covers everything.
    #[must_use]
    pub fn events(&self) -> &EventJournal {
        &self.inner.events
    }

    /// All statistics under one simultaneous read lock across every
    /// replica of every shard.
    #[must_use]
    pub fn stats(&self) -> ReplicaStats {
        let top = self.inner.topology.read();
        let guards: Vec<Vec<_>> = top
            .sets
            .iter()
            .map(|set| set.replicas.iter().map(RwLock::read).collect())
            .collect();
        let mut classes: BTreeSet<ObjectClass> = BTreeSet::new();
        let mut stats = ReplicaStats {
            shard_records: Vec::with_capacity(guards.len()),
            replica_records: Vec::with_capacity(guards.len()),
            replica_health: health_bits(&top),
            classes: 0,
            objects: 0,
        };
        for (set, replica_guards) in top.sets.iter().zip(&guards) {
            // Same stale-tolerant rule as `len()`: stats never serve data.
            let primary = &replica_guards[set.first_healthy().unwrap_or(0)];
            classes.extend(primary.class_index().classes().cloned());
            stats.objects += primary.object_count();
            stats.shard_records.push(primary.len());
            stats
                .replica_records
                .push(replica_guards.iter().map(|g| g.len()).collect());
        }
        stats.classes = classes.len();
        stats
    }

    /// Per-shard replication positions — head sequence, per-replica lag
    /// and last-applied sequence — plus the catch-up counters.
    #[must_use]
    pub fn replication_stats(&self) -> ReplicationStats {
        let top = self.inner.topology.read();
        ReplicationStats {
            mode: self.inner.mode,
            shards: top
                .sets
                .iter()
                .map(|set| {
                    let head = set.head.load(Ordering::SeqCst);
                    ShardReplication {
                        head_seq: head,
                        replicas: (0..set.replicas.len())
                            .map(|r| {
                                let applied = set.applied[r].load(Ordering::SeqCst);
                                ReplicaLag {
                                    last_applied_seq: applied,
                                    lag: head.saturating_sub(applied),
                                    healthy: set.health[r].load(Ordering::SeqCst),
                                }
                            })
                            .collect(),
                    }
                })
                .collect(),
            catchup_replays: self.inner.catchup_replays.load(Ordering::Relaxed),
            catchup_clones: self.inner.catchup_clones.load(Ordering::Relaxed),
            writer_drains: self.inner.writer_drains.load(Ordering::Relaxed),
            fallback_reads: self.inner.metrics.replica_fallback_reads.get(),
        }
    }

    /// Op-log state: window, newest sequence, ring occupancy, and WAL
    /// counters when durability mode is on.
    #[must_use]
    pub fn oplog_stats(&self) -> OplogStats {
        let top = self.inner.topology.read();
        OplogStats {
            window: self.inner.oplog_window,
            last_seq: self.inner.op_seq.load(Ordering::SeqCst),
            entries: top.sets.iter().map(|set| set.log.lock().len()).sum(),
            wal: self.inner.wal.as_ref().map(WalState::stats),
        }
    }

    /// Blocks until every healthy replica of every shard has applied
    /// every acknowledged write (lag 0 everywhere). A no-op under Sync;
    /// under Quorum/Async it drains what the background pump hasn't
    /// reached yet — tests and benchmarks use it as a deterministic
    /// settle point.
    pub fn flush_replication(&self) {
        let top = self.inner.topology.read();
        for (shard, set) in top.sets.iter().enumerate() {
            let _order = set.write_order.lock();
            for r in 0..set.replicas.len() {
                if set.health[r].load(Ordering::SeqCst) {
                    drain_replica(&top, set, shard, r);
                }
            }
        }
    }

    /// Indexes a scene (Algorithm-1 conversion outside all locks).
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from the underlying insert.
    pub fn insert_scene(&self, name: &str, scene: &Scene) -> Result<RecordId, DbError> {
        self.insert_symbolic(name, SymbolicImage::from_scene(scene))
    }

    /// Stores a pre-converted symbolic picture through the owning
    /// shard's op log (leader first, followers per the replication
    /// mode).
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from the underlying insert.
    pub fn insert_symbolic(
        &self,
        name: &str,
        symbolic: SymbolicImage,
    ) -> Result<RecordId, DbError> {
        let top = self.inner.topology.read();
        // Ids are handed out before any lock, so a slot may be occupied
        // by a concurrently restored corpus — skip to a fresh id (the
        // restore healed the counter above every restored slot).
        'fresh_id: for _ in 0..64 {
            let id = RecordId(self.inner.next_id.fetch_add(1, Ordering::SeqCst));
            // A reshard batch may move the boundary past `id` between
            // routing and locking; the boundary is frozen while we hold
            // the shard's write-order mutex, so re-route and retry until
            // the route sticks.
            loop {
                let (shard, local) = top.route(id);
                let set = &top.sets[shard];
                let _order = set.write_order.lock();
                if top.route(id) != (shard, local) {
                    continue;
                }
                let Some(leader) = set.first_healthy() else {
                    return Err(ReplicaSet::no_healthy(shard));
                };
                if set.replicas[leader].read().get(local).is_some() {
                    continue 'fresh_id;
                }
                self.inner.apply_logged(
                    &top,
                    shard,
                    Op::Insert {
                        id: id.index(),
                        name: name.to_string(),
                        symbolic: symbolic.clone(),
                    },
                )?;
                return Ok(id);
            }
        }
        Err(DbError::Persist {
            reason: "insert kept colliding with concurrently restored records".into(),
        })
    }

    /// Routes a mutation to the owning shard under its write-order
    /// mutex, re-validating the route against reshard batches, and
    /// applies it through the shard's op log.
    fn routed_write(&self, id: RecordId, op: Op) -> Result<(), DbError> {
        let top = self.inner.topology.read();
        loop {
            let (shard, local) = top.route(id);
            let set = &top.sets[shard];
            let _order = set.write_order.lock();
            // The boundary only moves under *all* write-order mutexes,
            // so holding this one freezes it; a stale route retries.
            if top.route(id) != (shard, local) {
                continue;
            }
            return self
                .inner
                .apply_logged(&top, shard, op)
                .map_err(|e| globalise_error(e, id));
        }
    }

    /// Removes a record through its owning shard's op log.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownRecord`] (with the global id) for dead
    /// or unassigned ids.
    pub fn remove(&self, id: RecordId) -> Result<(), DbError> {
        self.routed_write(id, Op::Remove { id: id.index() })
    }

    /// Looks a record up on one healthy replica, returning a clone with
    /// its **global** id. Under Quorum/Async the lookup reads the
    /// leader (read-your-writes); under Sync the least-outstanding
    /// picker chooses.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Replica`] (retryable) when the owning shard
    /// has no healthy replica at all — a failed copy is never served.
    pub fn get(&self, id: RecordId) -> Result<Option<ImageRecord>, DbError> {
        let top = self.inner.topology.read();
        loop {
            let (shard, local) = top.route(id);
            let set = &top.sets[shard];
            let replica = match self.inner.mode {
                ReplicationMode::Sync => set.pick(),
                _ => set.first_healthy(),
            }
            .ok_or_else(|| ReplicaSet::no_healthy(shard))?;
            set.begin_read(replica);
            let guard = set.replicas[replica].read();
            // The boundary only moves under *all* replica write locks,
            // so holding this read lock freezes it; a stale route means
            // a batch moved the record between routing and locking.
            if top.route(id) != (shard, local) {
                drop(guard);
                set.end_read(replica);
                continue;
            }
            let record = guard.get(local).cloned();
            drop(guard);
            set.end_read(replica);
            return Ok(record.map(|mut r| {
                r.id = id;
                r
            }));
        }
    }

    /// Incremental §3.2 object insertion through the owning shard's op
    /// log.
    ///
    /// # Errors
    ///
    /// Propagates the underlying error; the record is unchanged on error.
    pub fn add_object(&self, id: RecordId, class: &ObjectClass, mbr: Rect) -> Result<(), DbError> {
        self.routed_write(
            id,
            Op::AddObject {
                id: id.index(),
                class: class.clone(),
                mbr,
            },
        )
    }

    /// Incremental §3.2 object removal through the owning shard's op
    /// log.
    ///
    /// # Errors
    ///
    /// Propagates the underlying error; the record is unchanged on error.
    pub fn remove_object(
        &self,
        id: RecordId,
        class: &ObjectClass,
        mbr: Rect,
    ) -> Result<(), DbError> {
        self.routed_write(
            id,
            Op::RemoveObject {
                id: id.index(),
                class: class.clone(),
                mbr,
            },
        )
    }

    /// Scatter-gather ranked search over **one chosen replica per
    /// shard** (least-outstanding among healthy, in-sync copies —
    /// replicas beyond the mode's lag bound are skipped), merged with
    /// a top-k heap, returned with the per-stage [`QueryTrace`] (whose
    /// histograms also feed `/v1/metrics`). Every topology runs the
    /// same plan → scan → merge. Each shard plans its own candidate
    /// generation ([`CandidatePlan`](crate::CandidatePlan)) under the
    /// read lock it scans with: a provably empty shard is skipped, and
    /// dense postings are walked by a dense scan. A search over more
    /// than one shard with a `top_k` is bounded
    /// ([`search_bounded`](ImageDatabase::search_bounded)) under a
    /// shared cross-shard score threshold, and its scatter is ordered by
    /// the leaders' candidate estimates — the most selective shard that
    /// can fill top-k runs first and seeds the threshold. Any other
    /// search scores every candidate directly.
    ///
    /// Ranking — ids, scores, and tie-breaks — is bit-identical to a
    /// single [`ImageDatabase`] over the same records, **even while an
    /// online reshard is migrating records**: the whole scatter holds
    /// the migration gate, so batch moves are atomic to it, and the
    /// epoch maps each shard's local slots back to global ids.
    /// Threshold pruning is admissible whatever order shards publish
    /// into it, so ordering the scatter never changes the merged top-k.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Replica`] (retryable) when any touched shard
    /// has no healthy replica at all — a failed copy is never served.
    pub fn search_traced(
        &self,
        query: &BeString2D,
        options: &QueryOptions,
    ) -> Result<(Vec<SearchHit>, QueryTrace), DbError> {
        let total_start = Instant::now();
        let metrics = &self.inner.metrics;
        let top = self.inner.topology.read();
        // Shared gate lease for the whole scatter: a reshard batch move
        // (exclusive holder) either completed before this search or
        // waits for it — never interleaves.
        let _gate = self.inner.search_gate.read();
        let mode = self.inner.mode;
        let n = top.sets.len();
        // Frozen for the whole scatter: the boundary only moves under
        // the exclusive gate.
        let planner_start = Instant::now();
        let epoch = top.epoch();
        let topology = &*top;
        // A multi-shard top-k search is bounded: shards share a
        // monotone score floor, each publishes its k-th exact score,
        // and the others stop scoring candidates whose bounds fall
        // below it — the merged top-k is unchanged. A lone shard has
        // no one to share it with, so it scores directly, as does a
        // search with no top-k (nothing can be pruned).
        let threshold = (n > 1 && options.top_k.is_some()).then(ScoreThreshold::new);
        // Visit order: most selective first, so the sequenced first
        // wave raises the shared threshold as early (and as high) as
        // possible. Ordering only pays when a threshold exists to
        // tighten — without one it would serialise a shard for nothing.
        let ordered = threshold.is_some();
        let mut visit: Vec<usize> = (0..n).collect();
        if ordered {
            // Each leader's candidate estimate, under a brief read lock;
            // it may go stale the moment it is read — it only steers
            // the order, never what gets scored.
            let query_classes: Vec<ObjectClass> = query.class_counts().into_keys().collect();
            let mut est_of = vec![0usize; n];
            for (shard, est) in est_of.iter_mut().enumerate() {
                let set = &topology.sets[shard];
                let leader = set
                    .first_healthy()
                    .ok_or_else(|| ReplicaSet::no_healthy(shard))?;
                *est = set.replicas[leader]
                    .read()
                    .candidate_plan(&query_classes, options)
                    .estimate;
            }
            visit.sort_by_key(|&shard| (est_of[shard], shard));
            // The sequenced first wave only pays if it can produce a
            // k-th exact score to seed the threshold: a shard with
            // fewer than k candidates seeds nothing and would be pure
            // serialisation. Promote the smallest shard that can fill
            // k; when none can, the minimum-estimate order stands.
            if let Some(k) = options.top_k {
                if let Some(pos) = visit.iter().position(|&shard| est_of[shard] >= k) {
                    let seed = visit.remove(pos);
                    visit.insert(0, seed);
                }
            }
            metrics.planner_ordered_scatters.inc();
        }
        let mut order_of = vec![0usize; n];
        for (position, &shard) in visit.iter().enumerate() {
            order_of[shard] = position;
        }
        let planner_ns = elapsed_ns(planner_start);
        let scatter_start = Instant::now();
        let order_of = &order_of;
        let scan = |shard: usize| -> Result<(Vec<SearchHit>, ShardTrace), DbError> {
            let shard_start = Instant::now();
            let set = &topology.sets[shard];
            let replica = set
                .pick_read(mode, metrics)
                .ok_or_else(|| ReplicaSet::no_healthy(shard))?;
            metrics.replica_picks.inc();
            metrics.outstanding_reads.inc();
            set.begin_read(replica);
            let guard = set.replicas[replica].read();
            let (mut hits, stats) = guard.search_bounded(query, options, threshold.as_ref());
            drop(guard);
            set.end_read(replica);
            metrics.outstanding_reads.dec();
            let skipped = stats.plan.is_empty();
            if skipped {
                metrics.planner_skipped.inc();
            }
            if stats.plan.strategy == CandidateStrategy::DenseScan {
                metrics.planner_dense_scans.inc();
            }
            for hit in &mut hits {
                // Local-slot order maps monotonically to global-id
                // order under any epoch (see `epoch.rs`), so each
                // per-shard ranked list stays merge-ready.
                hit.id = RecordId(
                    epoch
                        .global_of(shard, hit.id.index())
                        .expect("occupied slot resolves under the live epoch"),
                );
            }
            let shard_ns = elapsed_ns(shard_start);
            metrics.scatter.get(shard).record_ns(shard_ns);
            metrics.stage2_scored.add(stats.scored as u64);
            metrics.bound_pruned.add(stats.bound_pruned as u64);
            let trace = ShardTrace {
                shard,
                replica,
                order: order_of[shard],
                first_wave: ordered && order_of[shard] == 0,
                strategy: stats.plan.strategy,
                est_candidates: stats.plan.estimate,
                skipped,
                hits: hits.len(),
                scored: stats.scored,
                bound_pruned: stats.bound_pruned,
                elapsed_ns: shard_ns,
            };
            Ok((hits, trace))
        };
        // Scatter threads only pay off when there is real scoring work
        // to split: on a single-core host, or below SCATTER_MIN_RECORDS
        // total records (next_id is a cheap upper bound), per-query
        // spawns would dominate the microsecond-scale scans, so the
        // shards are scanned in turn on the calling thread instead.
        let threaded = self.inner.next_id.load(Ordering::Relaxed) >= SCATTER_MIN_RECORDS
            && std::thread::available_parallelism().map_or(1, |c| c.get()) > 1;
        let scatter = |shards: &[usize]| {
            if threaded {
                fan_out(shards.iter().copied(), scan)
            } else {
                shards.iter().map(|&shard| scan(shard)).collect()
            }
        };
        let per_shard: Vec<Result<(Vec<SearchHit>, ShardTrace), DbError>> = if ordered {
            // Sequence the first wave: the most selective shard's k-th
            // exact score lands in the shared threshold before any other
            // shard starts scoring, so the expensive shards ride a
            // tightened bound from their first frontier batch.
            let (first, rest) = visit.split_first().expect("multi-shard scatter");
            let mut results = Vec::with_capacity(n);
            results.push(scan(*first));
            results.extend(scatter(rest));
            results
        } else {
            scatter(&visit)
        };
        let scatter_ns = elapsed_ns(scatter_start);
        let mut lists = Vec::with_capacity(per_shard.len());
        let mut shards = Vec::with_capacity(per_shard.len());
        for result in per_shard {
            let (hits, trace) = result?;
            lists.push(hits);
            shards.push(trace);
        }
        // Per-shard entries are reported in shard order whatever order
        // the planner visited them in (`order` keeps the plan visible).
        shards.sort_by_key(|t| t.shard);
        let gather_start = Instant::now();
        let hits = merge_top_k(lists, options.top_k);
        let gather_ns = elapsed_ns(gather_start);
        metrics.gather.record_ns(gather_ns);
        let total_ns = elapsed_ns(total_start);
        metrics.search_total.record_ns(total_ns);
        let trace = QueryTrace {
            planner_ns,
            scatter_ns,
            gather_ns,
            total_ns,
            ordered,
            shards,
        };
        Ok((hits, trace))
    }

    /// Takes a replica out of rotation — the fault-injection hook.
    /// Reads and writes route around it immediately; its contents (and
    /// its applied-sequence position) go stale until
    /// [`rebuild_replica`](Self::rebuild_replica).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Replica`] for out-of-range coordinates or when
    /// the replica is its shard's **last healthy copy** (every shard
    /// must keep serving).
    pub fn fail_replica(&self, shard: usize, replica: usize) -> Result<(), DbError> {
        let top = self.inner.topology.read();
        let set = checked_set(&top, shard, replica)?;
        let _order = set.write_order.lock();
        if set.health[replica].load(Ordering::SeqCst) && set.healthy_count() == 1 {
            return Err(DbError::Replica {
                reason: format!(
                    "replica {replica} is shard {shard}'s last healthy copy and cannot be failed"
                ),
            });
        }
        set.health[replica].store(false, Ordering::SeqCst);
        self.inner
            .events
            .record(EventKind::ReplicaFailed { shard, replica });
        Ok(())
    }

    /// Heals a failed replica and rejoins it to rotation. When the
    /// replica's gap still fits the shard's op-log window — no eviction
    /// or barrier crossed its position — the missed ops are **replayed
    /// in place** (`catchup_replays`), which is proportional to the gap,
    /// not the shard. Otherwise the replica falls back to cloning a
    /// healthy peer (`catchup_clones`), exactly as before the op log
    /// existed. The shard's write traffic pauses for the duration
    /// (readers keep flowing on the healthy replicas), so the rebuilt
    /// copy is exactly up to date the moment it rejoins — a rebuild
    /// during an online reshard catches up to the peer's current
    /// mixed-layout state. Rebuilding an already-healthy replica is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Replica`] for out-of-range coordinates.
    pub fn rebuild_replica(&self, shard: usize, replica: usize) -> Result<(), DbError> {
        let top = self.inner.topology.read();
        let set = checked_set(&top, shard, replica)?;
        let _order = set.write_order.lock();
        if set.health[replica].load(Ordering::SeqCst) {
            return Ok(());
        }
        // Fast path: replay the gap from the ring.
        let pending = {
            let log = set.log.lock();
            log.collect_since(set.applied[replica].load(Ordering::SeqCst))
        };
        if let Some(pending) = pending {
            let replayed = {
                let mut guard = set.replicas[replica].write();
                let epoch = top.epoch();
                pending.into_iter().try_for_each(|(seq, op)| {
                    op.apply_local(&mut guard, &epoch, shard)?;
                    set.applied[replica].store(seq, Ordering::SeqCst);
                    Ok::<(), DbError>(())
                })
            };
            if replayed.is_ok() {
                set.health[replica].store(true, Ordering::SeqCst);
                self.inner.catchup_replays.fetch_add(1, Ordering::Relaxed);
                self.inner.events.record(EventKind::ReplicaHealed {
                    shard,
                    replica,
                    method: "replay",
                });
                return Ok(());
            }
            // A replay failure means the stale state diverged from what
            // the log assumed; fall through to the clone path, which
            // overwrites it wholesale.
        }
        // Clone fallback. The source must be at the shard head first:
        // an async-mode leader may itself have been promoted while
        // lagging.
        let source = loop {
            let Some(source) = set.first_healthy() else {
                return Err(ReplicaSet::no_healthy(shard));
            };
            if drain_replica(&top, set, shard, source) {
                break source;
            }
        };
        let rebuilt = set.replicas[source].read().clone();
        *set.replicas[replica].write() = rebuilt;
        set.applied[replica].store(set.head.load(Ordering::SeqCst), Ordering::SeqCst);
        set.health[replica].store(true, Ordering::SeqCst);
        self.inner.catchup_clones.fetch_add(1, Ordering::Relaxed);
        self.inner.events.record(EventKind::ReplicaHealed {
            shard,
            replica,
            method: "clone",
        });
        Ok(())
    }

    /// Saves a consistent, incremental sharded snapshot (one file per
    /// physical shard, cloned from each shard's leader after draining
    /// it to the shard head). Write
    /// traffic pauses for the duration of the clone so the snapshot is
    /// one global state; readers keep flowing. A snapshot taken during
    /// an online reshard records the routing epoch, and every snapshot
    /// records the op-log positions (manifest v4), so it restores
    /// exactly and anchors WAL recovery.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from serialisation or file I/O.
    pub fn save_snapshot(&self, path: &Path) -> Result<usize, DbError> {
        self.save_snapshot_with_floor(path)
            .map(|(records, _)| records)
    }

    /// `save_snapshot`, also returning the snapshot's exact sequence
    /// watermark: every op with a sequence at or below it is contained
    /// in the snapshot, every later op is not.
    fn save_snapshot_with_floor(&self, path: &Path) -> Result<(usize, u64), DbError> {
        let _io = self.inner.snapshot_io.lock();
        let top = self.inner.topology.read();
        // Parsed before any lock, so deciding what to skip costs no
        // lock or write-pause time. Mid-reshard snapshots never reuse:
        // batch moves dirty shards faster than reuse could help.
        let previous = if top.is_steady() {
            PreviousSnapshot::load(path, self.inner.instance, top.sets.len())
        } else {
            PreviousSnapshot::none()
        };
        let (payload, floor) = {
            let _orders: Vec<_> = top.sets.iter().map(|set| set.write_order.lock()).collect();
            // Under Quorum/Async the leader to be cloned may itself lag
            // (freshly promoted); drain every leader to its head so the
            // snapshot holds *all* acknowledged writes and the recorded
            // watermark is exact.
            let mut leaders = Vec::with_capacity(top.sets.len());
            for (shard, set) in top.sets.iter().enumerate() {
                let leader = loop {
                    let Some(leader) = set.first_healthy() else {
                        return Err(ReplicaSet::no_healthy(shard));
                    };
                    if drain_replica(&top, set, shard, leader) {
                        break leader;
                    }
                };
                leaders.push(leader);
            }
            let guards: Vec<_> = top
                .sets
                .iter()
                .zip(&leaders)
                .map(|(set, &leader)| set.replicas[leader].read())
                .collect();
            let edits: Vec<u64> = top
                .sets
                .iter()
                .map(|set| set.edits.load(Ordering::SeqCst))
                .collect();
            // Only shards dirtied since the previous snapshot are
            // cloned at all: snapshot cost (and the write pause) is
            // proportional to write traffic, not corpus size.
            let shards: Vec<Option<ImageDatabase>> = guards
                .iter()
                .enumerate()
                .map(|(shard, guard)| {
                    (!previous.reusable(path, shard, edits[shard])).then(|| (**guard).clone())
                })
                .collect();
            // Exact because sequences are only assigned under a
            // write-order mutex, all of which are held here.
            let floor = self.inner.op_seq.load(Ordering::SeqCst);
            let payload = SnapshotPayload {
                records: guards.iter().map(|g| g.len()).sum(),
                shards,
                next_id: self.inner.next_id.load(Ordering::SeqCst),
                edits,
                writer: self.inner.instance,
                // Frozen while all write-order mutexes are held.
                epoch: top.epoch(),
                log_heads: top
                    .sets
                    .iter()
                    .map(|set| set.head.load(Ordering::SeqCst))
                    .collect(),
                wal_seq: floor,
            };
            (payload, floor)
        };
        save_snapshot_at(path, payload, &previous).map(|records| (records, floor))
    }

    /// Takes a fresh WAL anchor snapshot and truncates every shard's
    /// on-disk log below its watermark, bounding the next recovery's
    /// replay to ops newer than this call. Returns the record count of
    /// the anchor. Safe to call while serving: ops sequenced after the
    /// anchor have sequences above the floor and survive truncation.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Persist`] when WAL durability mode is off;
    /// propagates snapshot and file I/O errors.
    pub fn checkpoint_wal(&self) -> Result<usize, DbError> {
        let start = Instant::now();
        let Some(wal) = &self.inner.wal else {
            return Err(DbError::Persist {
                reason: "WAL durability mode is not enabled".into(),
            });
        };
        let anchor = WalState::anchor_path(&wal.config.dir);
        let (records, floor) = self.save_snapshot_with_floor(&anchor)?;
        for (shard, _path) in wal_shard_files(&wal.config.dir)? {
            wal.writer(shard).lock().truncate_below(floor)?;
            wal.truncations.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.metrics.checkpoint.record(start.elapsed());
        self.inner
            .events
            .record(EventKind::WalCheckpoint { records });
        Ok(records)
    }

    /// Boot-time WAL recovery: load the anchor snapshot (if any), then
    /// replay every complete WAL record above its watermark into all
    /// replicas, healing torn tails on disk. Runs before the database
    /// is shared, so plain write locks suffice. Finishes by re-anchoring
    /// so the next boot replays only fresh ops.
    fn recover_wal(&self) -> Result<(), DbError> {
        let wal = self
            .inner
            .wal
            .as_ref()
            .expect("recover_wal requires WAL mode");
        let dir = wal.config.dir.clone();
        // First boot on a fresh directory: the anchor written below
        // needs the directory to exist.
        std::fs::create_dir_all(&dir)?;
        let anchor = WalState::anchor_path(&dir);
        let floor = wal_floor_of(&anchor);
        {
            let top = self.inner.topology.read();
            if anchor.exists() {
                let saved = load_snapshot_at(&anchor)?;
                let next_id = saved.next_id;
                let rebuilt = reroute_shards(saved, top.sets.len())?;
                let required = heal_next_id(&rebuilt, next_id);
                for (set, db) in top.sets.iter().zip(&rebuilt) {
                    for replica in &set.replicas {
                        *replica.write() = db.clone();
                    }
                    set.edits.fetch_add(1, Ordering::SeqCst);
                }
                self.inner.next_id.fetch_max(required, Ordering::SeqCst);
            }
            let mut records: Vec<WalRecord> = Vec::new();
            let mut healed = 0u64;
            for (_shard, path) in wal_shard_files(&dir)? {
                let (mut tail, truncated) = load_wal_file(&path, true)?;
                if truncated {
                    healed += 1;
                }
                records.append(&mut tail);
            }
            wal.healed_tails.fetch_add(healed, Ordering::Relaxed);
            // One global sequence order across all shards' files.
            records.sort_by_key(|r| r.seq);
            let mut max_seq = floor;
            let mut replayed = 0u64;
            let epoch = top.epoch();
            for record in records {
                max_seq = max_seq.max(record.seq);
                if record.seq <= floor {
                    // Already contained in the anchor snapshot.
                    continue;
                }
                if record.op.is_barrier() {
                    // By design barriers are never WAL-appended; one
                    // past the anchor means the files predate a restore
                    // that never re-anchored. Refuse rather than replay
                    // across a fence.
                    return Err(DbError::Persist {
                        reason: "WAL contains a replay barrier past the anchor; \
                                 restore from an explicit snapshot instead"
                            .into(),
                    });
                }
                let id = record.op.global_id().expect("non-barrier ops carry an id");
                let (shard, _) = epoch.route(id);
                let set = &top.sets[shard];
                for replica in &set.replicas {
                    record.op.apply_local(&mut replica.write(), &epoch, shard)?;
                }
                if matches!(&record.op, Op::Insert { .. }) {
                    self.inner.next_id.fetch_max(id + 1, Ordering::SeqCst);
                }
                set.edits.fetch_add(1, Ordering::SeqCst);
                replayed += 1;
            }
            wal.recovered.store(replayed, Ordering::Relaxed);
            // Sequences restart above everything ever written, keeping
            // file order strictly increasing across reboots.
            self.inner.op_seq.fetch_max(max_seq, Ordering::SeqCst);
        }
        self.checkpoint_wal()?;
        Ok(())
    }

    /// Restores from a version-4 manifest (mid-reshard snapshots
    /// included) or a plain [`ImageDatabase::save`] file, replacing the
    /// contents of **every replica** — which also heals all failed
    /// replicas, since each now holds the same freshly restored state.
    /// Records are re-routed when the snapshot's topology differs from
    /// this database's; ids are preserved either way. A restore stamps
    /// a barrier into every shard's op log (a pre-restore gap can never
    /// be replayed across it) and, in WAL mode, re-anchors the on-disk
    /// log to the restored state.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Replica`] while an online reshard is running
    /// (the two would fight over the topology), [`DbError::Persist`]
    /// for malformed or inconsistent snapshot files, and propagates I/O
    /// errors. On error the in-memory database is untouched — except
    /// for WAL re-anchoring errors, which surface after the in-memory
    /// restore already applied.
    pub fn restore_from(&self, path: &Path) -> Result<usize, DbError> {
        // A restore replaces the full corpus under a steady topology;
        // it must never interleave with a reshard's migration sweep
        // (409), but two concurrent *restores* simply serialise — the
        // lock's other holder is then bounded.
        let _reshard = match self.inner.reshard_lock.try_lock() {
            Some(guard) => guard,
            None if self.resharding() => {
                return Err(DbError::Replica {
                    reason: "cannot restore while an online reshard is in progress".into(),
                });
            }
            None => self.inner.reshard_lock.lock(),
        };
        let _io = self.inner.snapshot_io.lock();
        {
            // The reshard lock was free, but the epoch may still be
            // mid-migration: a previous reshard aborted on an internal
            // error. Restoring a uniform layout under that epoch would
            // mis-route records; resume the reshard (rerun to the same
            // target) first. Holding the reshard lock keeps the epoch
            // steady after this check.
            let top = self.inner.topology.read();
            if !top.is_steady() {
                return Err(DbError::Replica {
                    reason: format!(
                        "cannot restore while an aborted reshard to {} shards awaits resume",
                        top.new_n
                    ),
                });
            }
        }
        let saved = load_snapshot_at(path)?;
        let next_id = saved.next_id;
        let top = self.inner.topology.read();
        let n = top.sets.len();
        let rebuilt = reroute_shards(saved, n)?;
        let records = rebuilt.iter().map(ImageDatabase::len).sum();
        let required = heal_next_id(&rebuilt, next_id);

        // A restore is a bulk replace, exactly like a reshard batch:
        // exclusive gate first, so an in-flight scatter (which locks
        // shards one at a time) can never mix pre- and post-restore
        // records in one result set.
        let _gate = self.inner.search_gate.write();
        // All write-order mutexes (shard order), then all replica write
        // locks, before the first swap: readers never observe a
        // half-restored state.
        let _orders: Vec<_> = top.sets.iter().map(|set| set.write_order.lock()).collect();
        let mut guards: Vec<Vec<_>> = top
            .sets
            .iter()
            .map(|set| set.replicas.iter().map(RwLock::write).collect())
            .collect();
        for ((set, replica_guards), db) in top.sets.iter().zip(guards.iter_mut()).zip(&rebuilt) {
            for guard in replica_guards.iter_mut() {
                **guard = db.clone();
            }
            for health in &set.health {
                health.store(true, Ordering::SeqCst);
            }
            set.edits.fetch_add(1, Ordering::SeqCst);
        }
        // `fetch_max`, never `store`: an insert racing this restore may
        // have allocated a high id before we took the locks. If its
        // shard insert lands after the swap on a free slot, that insert
        // linearises *after* the restore and its record legitimately
        // survives — its id must never be re-issued, so the counter
        // cannot move backwards past it. If its slot is occupied by a
        // restored record instead, `insert_symbolic` skips to a fresh id.
        self.inner.next_id.fetch_max(required, Ordering::SeqCst);
        // Fence every shard's log: all replicas now hold identical
        // restored state (all healthy, so the barrier marks each as
        // applied) and nothing logged before this point may ever be
        // replayed into it.
        let barrier_seqs: Vec<u64> = top
            .sets
            .iter()
            .map(|set| self.inner.log_barrier(set))
            .collect();
        if let Some(wal) = &self.inner.wal {
            // Re-anchor the WAL to the restored state while every lock
            // is still held (no append can interleave): write the
            // anchor snapshot directly — `snapshot_io` is already ours
            // — then drop all on-disk records at or below the new
            // floor. A crash before the anchor lands recovers the
            // pre-restore state (the restore never acknowledged); a
            // crash after it finds only records the floor skips.
            let floor = self.inner.op_seq.load(Ordering::SeqCst);
            let payload = SnapshotPayload {
                records,
                shards: rebuilt.into_iter().map(Some).collect(),
                next_id: self.inner.next_id.load(Ordering::SeqCst),
                edits: top
                    .sets
                    .iter()
                    .map(|set| set.edits.load(Ordering::SeqCst))
                    .collect(),
                writer: self.inner.instance,
                epoch: top.epoch(),
                log_heads: barrier_seqs,
                wal_seq: floor,
            };
            let anchor = WalState::anchor_path(&wal.config.dir);
            save_snapshot_at(&anchor, payload, &PreviousSnapshot::none())?;
            for (shard, _path) in wal_shard_files(&wal.config.dir)? {
                wal.writer(shard).lock().truncate_below(floor)?;
                wal.truncations.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(records)
    }

    /// Runs a closure with shared read access to one specific replica —
    /// for tests and diagnostics that must inspect a *particular* copy.
    ///
    /// # Panics
    ///
    /// Panics when `shard` or `replica` is out of range.
    pub fn with_replica_read<R>(
        &self,
        shard: usize,
        replica: usize,
        f: impl FnOnce(&ImageDatabase) -> R,
    ) -> R {
        f(&self.inner.topology.read().sets[shard].replicas[replica].read())
    }
}

/// Health bits per replica of a topology (`result[shard][replica]`).
fn health_bits(top: &Topology) -> Vec<Vec<bool>> {
    top.sets
        .iter()
        .map(|set| {
            set.health
                .iter()
                .map(|h| h.load(Ordering::SeqCst))
                .collect()
        })
        .collect()
}

/// Bounds-checks replica coordinates against a topology.
fn checked_set(top: &Topology, shard: usize, replica: usize) -> Result<&Arc<ReplicaSet>, DbError> {
    let set = top.sets.get(shard).ok_or_else(|| DbError::Replica {
        reason: format!("shard {shard} out of range (shards: {})", top.sets.len()),
    })?;
    if replica >= set.replicas.len() {
        return Err(DbError::Replica {
            reason: format!(
                "replica {replica} out of range (replicas: {})",
                set.replicas.len()
            ),
        });
    }
    Ok(set)
}

/// Rewrites shard-local [`DbError::UnknownRecord`] ids back to the
/// global id the caller used.
fn globalise_error(e: DbError, global: RecordId) -> DbError {
    match e {
        DbError::UnknownRecord { .. } => DbError::UnknownRecord { id: global.index() },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use be2d_geometry::SceneBuilder;

    fn scene(x: i64) -> Scene {
        SceneBuilder::new(100, 100)
            .object("A", (x, x + 10, 10, 20))
            .object("B", (50, 90, 50, 90))
            .build()
            .unwrap()
    }

    fn filled(shards: usize, replicas: usize, n: i64) -> ReplicatedImageDatabase {
        let db = ReplicatedImageDatabase::with_topology(shards, replicas);
        for i in 0..n {
            db.insert_scene(&format!("img{i}"), &scene(i % 40)).unwrap();
        }
        db
    }

    fn search(db: &ReplicatedImageDatabase, query: &Scene) -> Vec<SearchHit> {
        let query = be2d_core::convert_scene(query);
        db.search_traced(&query, &QueryOptions::default())
            .unwrap()
            .0
    }

    #[test]
    fn writes_fan_out_to_every_replica() {
        let db = filled(2, 3, 8);
        assert_eq!(db.len(), 8);
        for shard in 0..2 {
            for replica in 0..3 {
                assert_eq!(
                    db.with_replica_read(shard, replica, ImageDatabase::len),
                    4,
                    "shard {shard} replica {replica}"
                );
            }
        }
        db.remove(RecordId(3)).unwrap();
        for replica in 0..3 {
            assert_eq!(db.with_replica_read(1, replica, ImageDatabase::len), 3);
        }
        assert!(matches!(
            db.remove(RecordId(3)),
            Err(DbError::UnknownRecord { id: 3 })
        ));
    }

    #[test]
    fn object_edits_fan_out() {
        let db = filled(2, 2, 4);
        let class = ObjectClass::new("X");
        let mbr = Rect::new(0, 5, 0, 5).unwrap();
        db.add_object(RecordId(1), &class, mbr).unwrap();
        for replica in 0..2 {
            let objects =
                db.with_replica_read(1, replica, |d| d.get(RecordId(0)).unwrap().symbolic.clone());
            assert_eq!(objects.object_count(), 3, "replica {replica}");
        }
        db.remove_object(RecordId(1), &class, mbr).unwrap();
        assert_eq!(
            db.get(RecordId(1))
                .unwrap()
                .unwrap()
                .symbolic
                .object_count(),
            2
        );
        assert!(db
            .add_object(RecordId(77), &class, mbr)
            .is_err_and(|e| matches!(e, DbError::UnknownRecord { id: 77 })));
    }

    #[test]
    fn reads_route_around_failed_replicas() {
        let db = filled(2, 2, 12);
        let query = scene(3);
        let before = search(&db, &query);

        db.fail_replica(0, 0).unwrap();
        db.fail_replica(1, 1).unwrap();
        // Every read still answers, from the surviving copies.
        for _ in 0..8 {
            let hits = search(&db, &query);
            assert_eq!(hits.len(), before.len());
            for (a, b) in before.iter().zip(&hits) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        assert_eq!(db.len(), 12);
        assert!(db.get(RecordId(5)).unwrap().is_some());

        // The last healthy copy of a shard cannot be failed.
        let err = db.fail_replica(0, 1).unwrap_err();
        assert!(matches!(err, DbError::Replica { .. }), "{err}");
        assert!(err.to_string().contains("last healthy"), "{err}");
    }

    #[test]
    fn failed_replica_goes_stale_then_rebuilds() {
        let db = filled(1, 2, 4);
        db.fail_replica(0, 1).unwrap();
        // Writes land only on the healthy replica; the failed one is
        // frozen at 4 records.
        db.insert_scene("late", &scene(7)).unwrap();
        db.remove(RecordId(0)).unwrap();
        assert_eq!(db.with_replica_read(0, 0, ImageDatabase::len), 4);
        assert_eq!(db.with_replica_read(0, 1, ImageDatabase::len), 4);
        assert!(
            db.with_replica_read(0, 1, |d| d.get(RecordId(0)).is_some()),
            "stale replica still holds the removed record"
        );
        assert!(db.with_replica_read(0, 0, |d| d.get(RecordId(0)).is_none()));

        // Rebuild catches the replica up bit-for-bit and rejoins it.
        db.rebuild_replica(0, 1).unwrap();
        let a = db.with_replica_read(0, 0, Clone::clone);
        let b = db.with_replica_read(0, 1, Clone::clone);
        assert_eq!(a, b, "rebuilt replica matches its source exactly");
        assert!(db.replica_health().iter().flatten().all(|&h| h));

        // Rebuilding a healthy replica is a no-op; bad coordinates err.
        db.rebuild_replica(0, 1).unwrap();
        assert!(db.fail_replica(9, 0).is_err());
        assert!(db.rebuild_replica(0, 9).is_err());
    }

    #[test]
    fn journal_records_fail_heal_and_reshard_in_order() {
        let db = filled(2, 2, 6);
        assert_eq!(db.events().last_seq(), 0, "quiet cluster, empty journal");
        db.fail_replica(0, 1).unwrap();
        db.insert_scene("late", &scene(8)).unwrap();
        db.rebuild_replica(0, 1).unwrap();
        crate::Resharder::new(&db).run(4).unwrap();
        let (events, last) = db.events().since(0);
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            vec![
                "replica_failed",
                "replica_healed",
                "reshard_started",
                "reshard_finished"
            ]
        );
        assert_eq!(last, 4);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(matches!(
            events[0].kind,
            EventKind::ReplicaFailed {
                shard: 0,
                replica: 1
            }
        ));
        assert!(matches!(
            events[1].kind,
            EventKind::ReplicaHealed {
                shard: 0,
                replica: 1,
                method: "replay"
            }
        ));
        assert!(matches!(
            events[3].kind,
            EventKind::ReshardFinished { from: 2, to: 4, .. }
        ));
        // Incremental polling from the remembered cursor.
        let (tail, _) = db.events().since(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].kind.name(), "reshard_started");
    }

    #[test]
    fn heal_within_window_replays_instead_of_cloning() {
        let db = filled(1, 2, 6);
        db.fail_replica(0, 1).unwrap();
        db.insert_scene("late", &scene(9)).unwrap();
        db.remove(RecordId(2)).unwrap();
        db.rebuild_replica(0, 1).unwrap();
        let stats = db.replication_stats();
        assert_eq!(stats.catchup_replays, 1, "gap fits the window: replay");
        assert_eq!(stats.catchup_clones, 0);
        let a = db.with_replica_read(0, 0, Clone::clone);
        let b = db.with_replica_read(0, 1, Clone::clone);
        assert_eq!(a, b, "replayed replica matches the leader exactly");
        assert_eq!(stats.shards[0].replicas[1].lag, 0);
    }

    #[test]
    fn heal_past_window_falls_back_to_clone() {
        let db = ReplicatedImageDatabase::with_config(ReplicaConfig {
            shards: 1,
            replicas: 2,
            oplog_window: 2,
            ..ReplicaConfig::default()
        })
        .unwrap();
        for i in 0..4 {
            db.insert_scene(&format!("img{i}"), &scene(i)).unwrap();
        }
        db.fail_replica(0, 1).unwrap();
        for i in 0..5 {
            db.insert_scene(&format!("late{i}"), &scene(i)).unwrap();
        }
        db.rebuild_replica(0, 1).unwrap();
        let stats = db.replication_stats();
        assert_eq!(stats.catchup_replays, 0, "ring wrapped: clone");
        assert_eq!(stats.catchup_clones, 1);
        assert_eq!(db.with_replica_read(0, 1, ImageDatabase::len), 9);
        assert_eq!(stats.shards[0].replicas[1].lag, 0);
    }

    #[test]
    fn async_and_quorum_rank_bit_identically() {
        let sync = filled(2, 3, 20);
        let query = scene(5);
        let expect = search(&sync, &query);
        assert!(!expect.is_empty());
        for mode in [
            ReplicationMode::Quorum,
            ReplicationMode::Async { max_lag: 4 },
        ] {
            let db = ReplicatedImageDatabase::with_config(ReplicaConfig {
                shards: 2,
                replicas: 3,
                mode,
                ..ReplicaConfig::default()
            })
            .unwrap();
            for i in 0..20 {
                db.insert_scene(&format!("img{i}"), &scene(i % 40)).unwrap();
            }
            db.flush_replication();
            let hits = search(&db, &query);
            assert_eq!(hits.len(), expect.len(), "{mode:?}");
            for (a, b) in expect.iter().zip(&hits) {
                assert_eq!(a.id, b.id, "{mode:?}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{mode:?}");
            }
            let stats = db.replication_stats();
            assert_eq!(stats.mode, mode);
            for shard in &stats.shards {
                for replica in &shard.replicas {
                    assert_eq!(replica.lag, 0, "flushed replicas sit at the head");
                }
            }
            assert_eq!(db.get(RecordId(0)).unwrap().unwrap().name, "img0");
        }
    }

    #[test]
    fn search_matches_sharded_and_single() {
        let query = scene(7);
        let single = {
            let mut db = ImageDatabase::new();
            for i in 0..30 {
                db.insert_scene(&format!("img{i}"), &scene(i % 40)).unwrap();
            }
            db
        };
        let expect = single.search_scene(&query, &QueryOptions::default());
        let sharded_hits = search(&filled(3, 1, 30), &query);
        for replicas in [1usize, 2, 3] {
            let db = filled(3, replicas, 30);
            let hits = search(&db, &query);
            assert_eq!(hits.len(), expect.len());
            for ((a, b), c) in expect.iter().zip(&hits).zip(&sharded_hits) {
                assert_eq!(a.id, b.id, "{replicas} replicas");
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(b.id, c.id);
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_and_cross_type_restore() {
        let dir = std::env::temp_dir().join(format!("be2d_replica_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");

        let db = filled(2, 2, 9);
        db.remove(RecordId(4)).unwrap();
        db.fail_replica(1, 0).unwrap();
        assert_eq!(db.save_snapshot(&path).unwrap(), 8);

        // A restore replaces every replica and heals the failed one.
        let back = ReplicatedImageDatabase::with_topology(2, 2);
        back.fail_replica(0, 1).unwrap();
        assert_eq!(back.restore_from(&path).unwrap(), 8);
        assert!(back.replica_health().iter().flatten().all(|&h| h));
        assert!(back.get(RecordId(4)).unwrap().is_none());
        assert_eq!(back.get(RecordId(7)).unwrap().unwrap().name, "img7");
        assert_eq!(back.insert_scene("next", &scene(1)).unwrap(), RecordId(9));

        // The snapshot restores into an unreplicated topology too,
        // shard-count changes included.
        let sharded = ReplicatedImageDatabase::with_topology(3, 1);
        assert_eq!(sharded.restore_from(&path).unwrap(), 8);
        assert_eq!(sharded.get(RecordId(7)).unwrap().unwrap().name, "img7");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_fences_replay_for_pre_restore_gaps() {
        let dir = std::env::temp_dir().join(format!("be2d_replica_fence_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let db = filled(1, 2, 5);
        db.save_snapshot(&path).unwrap();
        db.fail_replica(0, 1).unwrap();
        db.insert_scene("post-fail", &scene(3)).unwrap();
        // The restore heals replica 1 wholesale and stamps a barrier;
        // a later fail + heal replays only post-restore ops.
        db.restore_from(&path).unwrap();
        assert!(db.replica_health().iter().flatten().all(|&h| h));
        db.fail_replica(0, 1).unwrap();
        db.insert_scene("post-restore", &scene(4)).unwrap();
        db.rebuild_replica(0, 1).unwrap();
        let stats = db.replication_stats();
        assert_eq!(stats.catchup_replays, 1);
        let a = db.with_replica_read(0, 0, Clone::clone);
        let b = db.with_replica_read(0, 1, Clone::clone);
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_picker_rotates_and_routes_around_failures() {
        let db = filled(1, 3, 6);
        // With no reads in flight every replica ties at zero
        // outstanding, so consecutive picks rotate deterministically.
        let top = db.inner.topology.read();
        let set = &top.sets[0];
        let picks: Vec<usize> = (0..6).map(|_| set.pick().unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        set.health[1].store(false, Ordering::SeqCst);
        let picks: Vec<usize> = (0..4).map(|_| set.pick().unwrap()).collect();
        assert!(picks.iter().all(|&p| p != 1), "failed replica skipped");
    }

    #[test]
    fn picker_prefers_least_outstanding_replica() {
        let db = filled(1, 3, 6);
        let top = db.inner.topology.read();
        let set = &top.sets[0];
        // Replicas 0 and 2 are busy; every pick lands on idle replica 1.
        set.begin_read(0);
        set.begin_read(0);
        set.begin_read(2);
        for _ in 0..6 {
            assert_eq!(set.pick().unwrap(), 1, "least-outstanding replica wins");
        }
        // Once replica 1 is the busiest, picks spread over the tied rest.
        set.begin_read(1);
        set.begin_read(1);
        set.begin_read(1);
        set.end_read(0);
        set.end_read(0);
        set.end_read(2);
        let picks: Vec<usize> = (0..6).map(|_| set.pick().unwrap()).collect();
        assert!(picks.iter().all(|&p| p != 1), "busiest replica avoided");
        assert!(picks.contains(&0) && picks.contains(&2), "ties rotate");
    }

    #[test]
    fn all_failed_pick_returns_none_not_a_failed_copy() {
        let db = filled(1, 2, 4);
        let top = db.inner.topology.read();
        let set = &top.sets[0];
        // Force the all-failed mid-race state (normally reachable only
        // through a diverged drain; the last-healthy guard blocks the
        // admin path).
        for health in &set.health {
            health.store(false, Ordering::SeqCst);
        }
        assert_eq!(set.pick(), None);
        assert_eq!(set.first_healthy(), None);
        let fallback = be2d_metrics::Counter::new();
        assert_eq!(set.pick_within(0, &fallback), None);
        assert_eq!(fallback.get(), 0, "no leader to fall back to");
    }

    #[test]
    fn lagging_replicas_are_skipped_by_bounded_reads() {
        let db = filled(1, 3, 4);
        let top = db.inner.topology.read();
        let set = &top.sets[0];
        let fallback = be2d_metrics::Counter::new();
        // Pretend replica 2 lags 3 ops behind the head.
        let head = set.head.load(Ordering::SeqCst);
        set.applied[2].store(head - 3, Ordering::SeqCst);
        for _ in 0..6 {
            assert_ne!(
                set.pick_within(0, &fallback).unwrap(),
                2,
                "strict reads skip the laggard"
            );
            assert_ne!(
                set.pick_within(2, &fallback).unwrap(),
                2,
                "lag 3 exceeds the bound of 2"
            );
        }
        let picks: Vec<usize> = (0..6)
            .map(|_| set.pick_within(3, &fallback).unwrap())
            .collect();
        assert!(picks.contains(&2), "lag within the bound rejoins rotation");
        assert_eq!(fallback.get(), 0, "an in-sync follower always existed");
        // Now every follower lags past the bound: the read falls back to
        // the leader and the fallback counter records it.
        set.applied[1].store(head - 3, Ordering::SeqCst);
        set.applied[0].store(head - 3, Ordering::SeqCst);
        assert_eq!(set.pick_within(0, &fallback), Some(0), "leader fallback");
        assert_eq!(fallback.get(), 1, "fallback is counted, not silent");
    }

    #[test]
    fn clones_share_state_and_stats_report_topology() {
        let db = ReplicatedImageDatabase::with_topology(2, 2);
        let other = db.clone();
        db.insert_scene("one", &scene(0)).unwrap();
        assert_eq!(other.len(), 1);

        let stats = other.stats();
        assert_eq!(stats.shard_records, vec![1, 0]);
        assert_eq!(stats.replica_records, vec![vec![1, 1], vec![0, 0]]);
        assert_eq!(stats.replica_health, vec![vec![true, true]; 2]);
        assert_eq!(stats.classes, 2);
        assert_eq!(stats.objects, 2);
        assert_eq!(other.replica_count(), 2);
        assert_eq!(other.shard_count(), 2);
        assert!(!other.resharding());
        assert!(ReplicatedImageDatabase::with_topology(0, 0).shard_count() == 1);

        let oplog = other.oplog_stats();
        assert_eq!(oplog.window, 1024);
        assert_eq!(oplog.last_seq, 1);
        assert_eq!(oplog.entries, 1);
        assert!(oplog.wal.is_none());
        assert_eq!(other.replication_mode(), ReplicationMode::Sync);
    }

    #[test]
    fn ids_are_global_and_sequential() {
        let db = filled(4, 1, 10);
        assert_eq!(db.len(), 10);
        assert_eq!(db.shard_count(), 4);
        assert_eq!(
            db.stats().shard_records,
            vec![3, 3, 2, 2],
            "round-robin routing"
        );
        for i in 0..10 {
            let record = db.get(RecordId(i)).unwrap().expect("live record");
            assert_eq!(record.id, RecordId(i));
            assert_eq!(record.name, format!("img{i}"));
        }
        assert!(db.get(RecordId(10)).unwrap().is_none());
    }

    #[test]
    fn remove_and_edit_route_to_owner() {
        let db = filled(3, 1, 9);
        db.remove(RecordId(4)).unwrap();
        assert!(db.get(RecordId(4)).unwrap().is_none());
        assert_eq!(db.len(), 8);
        assert!(matches!(
            db.remove(RecordId(4)),
            Err(DbError::UnknownRecord { id: 4 })
        ));
        // ids are never reused after removal
        let next = db.insert_scene("late", &scene(1)).unwrap();
        assert_eq!(next, RecordId(9));

        let class = ObjectClass::new("X");
        let mbr = Rect::new(0, 5, 0, 5).unwrap();
        db.add_object(RecordId(5), &class, mbr).unwrap();
        let objects = db
            .get(RecordId(5))
            .unwrap()
            .unwrap()
            .symbolic
            .object_count();
        assert_eq!(objects, 3);
        db.remove_object(RecordId(5), &class, mbr).unwrap();
        assert!(matches!(
            db.add_object(RecordId(77), &class, mbr),
            Err(DbError::UnknownRecord { id: 77 })
        ));
    }

    #[test]
    fn stats_aggregates_consistently() {
        let db = filled(3, 1, 10);
        let stats = db.stats();
        assert_eq!(stats.shard_records.iter().sum::<usize>(), 10);
        assert_eq!(stats.classes, 2, "classes are a union, not a sum");
        assert_eq!(stats.objects, 20);
    }

    #[test]
    fn text_query_ties_and_prefilter_options() {
        let db = filled(4, 1, 20);
        let target = db
            .get(RecordId(3))
            .unwrap()
            .unwrap()
            .symbolic
            .to_be_string_2d();
        let query = BeString2D::parse(&target.x().to_string(), &target.y().to_string()).unwrap();
        let options = QueryOptions {
            prefilter: crate::PrefilterMode::AllClasses,
            ..QueryOptions::default()
        };
        let (hits, _) = db.search_traced(&query, &options).unwrap();
        // Every scene(x) with x >= 1 shares one BE-string (translation
        // preserves boundary order; x = 0 touches the frame edge), so
        // those records tie at 1.0 and the global tie-break (id asc)
        // must hold across shard boundaries.
        assert_eq!(hits[0].id, RecordId(1));
        assert!((hits[0].score - 1.0).abs() < 1e-12);
        assert!(hits.iter().any(|h| h.id == RecordId(3)));
        assert!(hits.windows(2).all(|w| w[0].id < w[1].id), "tie order");
    }
}
