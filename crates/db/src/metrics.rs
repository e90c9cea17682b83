//! Always-on database instrumentation and per-query tracing.
//!
//! [`DbMetrics`] bundles the lock-free handles
//! ([`be2d_metrics::Histogram`] / [`Counter`] / [`Gauge`]) the replicated
//! database records into on every search and write — per-shard scatter
//! timings, gather/merge time, oplog append and WAL fsync latency,
//! replica picks, outstanding reads, and checkpoint duration. The server
//! registers the same handles with its Prometheus registry, so recording
//! here is a handful of relaxed atomic adds and never takes a lock.
//!
//! [`QueryTrace`] is the per-query view of the same stages: every search
//! produces one (the cost is reading a monotonic clock a few times), and
//! callers that set the `trace` flag get it back verbatim.

use std::sync::Arc;
use std::time::Instant;

use crate::CandidateStrategy;
use be2d_metrics::{Counter, Gauge, Histogram, HistogramPool};

/// Slots in the per-shard scatter histogram pool. Shard indices at or
/// beyond the last slot share it (the exposition labels it `"31+"`), so
/// live resharding past 32 shards never reallocates metric storage.
pub const SCATTER_POOL_SLOTS: usize = 32;

/// Elapsed nanoseconds since `start`, saturating at `u64::MAX`.
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// The database's shared metric handles. Cloning shares the underlying
/// atomics; a [`ReplicatedImageDatabase`](crate::ReplicatedImageDatabase)
/// creates one set at construction and exposes it via
/// [`metrics()`](crate::ReplicatedImageDatabase::metrics).
#[derive(Debug, Clone)]
pub struct DbMetrics {
    /// Per-shard scatter scan duration (index = shard, clamped to the
    /// pool's last slot).
    pub scatter: HistogramPool,
    /// Gather/merge (`merge_top_k`) duration per search.
    pub gather: Arc<Histogram>,
    /// End-to-end search duration (entry to exit, all stages included).
    pub search_total: Arc<Histogram>,
    /// Duration of one logged mutation through the op log (leader apply,
    /// sequencing, WAL append, follower acks).
    pub oplog_append: Arc<Histogram>,
    /// Duration of each WAL `sync_data` call (batched appends that skip
    /// the fsync record nothing).
    pub wal_fsync: Arc<Histogram>,
    /// Duration of each WAL checkpoint (anchor snapshot + truncation).
    pub checkpoint: Arc<Histogram>,
    /// Replica read-routing decisions taken (one per shard touched).
    pub replica_picks: Arc<Counter>,
    /// Bounded-lag reads that found no in-sync follower and fell back
    /// to the leader — a sustained rise means followers cannot keep up
    /// with the configured lag bound.
    pub replica_fallback_reads: Arc<Counter>,
    /// Reads currently holding a replica read lock.
    pub outstanding_reads: Arc<Gauge>,
    /// Multi-shard searches the planner ran with a selectivity-ordered
    /// scatter (first wave sequenced, remainder riding its threshold).
    pub planner_ordered_scatters: Arc<Counter>,
    /// Per-shard scans that walked their candidates with the dense scan
    /// instead of the posting walk.
    pub planner_dense_scans: Arc<Counter>,
    /// Per-shard scans the planner proved empty and skipped because
    /// the shard's class postings could not contribute a candidate.
    pub planner_skipped: Arc<Counter>,
    /// Candidates exactly scored (the survivors of a bounded search;
    /// every candidate of a direct one).
    pub stage2_scored: Arc<Counter>,
    /// Candidates a bounded search skipped because their admissible
    /// score bound proved they cannot enter the result.
    pub bound_pruned: Arc<Counter>,
}

impl Default for DbMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl DbMetrics {
    /// Fresh, all-zero metric handles.
    pub fn new() -> Self {
        DbMetrics {
            scatter: HistogramPool::new(SCATTER_POOL_SLOTS),
            gather: Arc::new(Histogram::new()),
            search_total: Arc::new(Histogram::new()),
            oplog_append: Arc::new(Histogram::new()),
            wal_fsync: Arc::new(Histogram::new()),
            checkpoint: Arc::new(Histogram::new()),
            replica_picks: Arc::new(Counter::new()),
            replica_fallback_reads: Arc::new(Counter::new()),
            outstanding_reads: Arc::new(Gauge::new()),
            planner_ordered_scatters: Arc::new(Counter::new()),
            planner_dense_scans: Arc::new(Counter::new()),
            planner_skipped: Arc::new(Counter::new()),
            stage2_scored: Arc::new(Counter::new()),
            bound_pruned: Arc::new(Counter::new()),
        }
    }
}

/// Per-stage timing breakdown of one scatter-gather search, in
/// nanoseconds. Stages are measured disjointly inside the total, so
/// `planner_ns + scatter_ns + gather_ns <= total_ns` always holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// Query-class extraction and epoch snapshot (the scatter plan).
    pub planner_ns: u64,
    /// Wall time of the whole scatter (shards may run in parallel, so
    /// this is the max-ish envelope, not the sum of shard times).
    pub scatter_ns: u64,
    /// K-way merge of the per-shard ranked lists.
    pub gather_ns: u64,
    /// End-to-end search duration.
    pub total_ns: u64,
    /// Whether the planner ordered this scatter by per-shard
    /// selectivity (sequencing the most selective shard first): every
    /// multi-shard search with a `top_k`, since those are bounded under
    /// a cross-shard threshold. `false` for single-shard searches and
    /// searches with no `top_k`.
    pub ordered: bool,
    /// One entry per shard scanned (or skipped by the planner), in
    /// shard-index order regardless of the visit order (each entry's
    /// [`order`](ShardTrace::order) records its position in the plan).
    pub shards: Vec<ShardTrace>,
}

impl QueryTrace {
    /// Sum of the measured stages, in nanoseconds — always at most
    /// [`total_ns`](Self::total_ns).
    #[must_use]
    pub fn stage_sum_ns(&self) -> u64 {
        self.planner_ns + self.scatter_ns + self.gather_ns
    }
}

/// One shard's slice of a [`QueryTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTrace {
    /// Physical shard index.
    pub shard: usize,
    /// Replica the read picker routed this scan to.
    pub replica: usize,
    /// This shard's position in the planner's visit order (0 = scanned
    /// first). Equal to `shard` unless the scatter was
    /// [`ordered`](QueryTrace::ordered).
    pub order: usize,
    /// Whether this shard formed the sequenced first wave of an ordered
    /// scatter — its k-th exact score seeds the cross-shard threshold
    /// before the remaining shards run.
    pub first_wave: bool,
    /// Candidate strategy the shard executed
    /// ([`CandidateStrategy::DenseScan`] when its postings cover at
    /// least half of it; see [`CandidatePlan`](crate::CandidatePlan)).
    pub strategy: CandidateStrategy,
    /// The shard's candidate-count estimate (posting sizes under the
    /// query's prefilter; record count when the options bypass the
    /// inverted index). 0 for skipped shards.
    pub est_candidates: usize,
    /// Whether the shard's plan proved its candidate set empty, so it
    /// scored nothing.
    pub skipped: bool,
    /// Hits this shard contributed before the global merge.
    pub hits: usize,
    /// Candidates this shard exactly scored (stage-2 survivors).
    pub scored: usize,
    /// Candidates this shard's bounded scan pruned by bound (0 when it
    /// scored directly).
    pub bound_pruned: usize,
    /// Scan duration for this shard, in nanoseconds.
    pub elapsed_ns: u64,
}
