//! # be2d-db — the image database
//!
//! The storage and retrieval layer the paper's §3.2/§4 describe: images
//! are stored as coordinate-annotated 2D BE-strings
//! ([`SymbolicImage`](be2d_core::SymbolicImage)), maintained
//! incrementally, and queried by the modified-LCS similarity with
//! optional rotation/reflection invariance.
//!
//! * [`ImageDatabase`] — insert/remove images, add/drop single objects in
//!   place (§3.2), ranked [`search`](ImageDatabase::search);
//! * [`QueryOptions`] — what to retrieve: top-k, score floor, class
//!   prefilter (answered exactly by the inverted [`ClassIndex`]) and D4
//!   transform set. How is the database's own choice: a large
//!   candidate batch is scored on helper threads, and a multi-shard
//!   top-k search ranks candidates by an admissible [`ScoreBound`],
//!   exact-scores a frontier and stops early, with bit-identical
//!   results;
//! * [`SearchHit`] — per-result score, best transform and the full
//!   per-axis similarity breakdown;
//! * [`ReplicatedImageDatabase`] — N independently locked shards × R
//!   replicas: scatter-gather [`search_traced`](ReplicatedImageDatabase::search_traced),
//!   least-outstanding replica reads, op-log write fan-out, replica
//!   fault injection and catch-up recovery, incremental per-shard
//!   snapshots (`with_topology(n, 1)` is the plain sharded database);
//! * [`Resharder`] — online shard rebalancing: streams records between
//!   shards in bounded batches while the database keeps serving, with
//!   rankings bit-identical throughout (progress in
//!   [`ReshardProgress`]);
//! * [`EventJournal`] — a bounded, sequence-numbered ring of typed
//!   cluster events ([`EventKind`]): replica fail/heal, reshard
//!   start/finish, WAL checkpoints, SLO burns, advisor
//!   recommendations — polled incrementally by cursor;
//! * JSON persistence ([`ImageDatabase::to_json`] /
//!   [`ImageDatabase::from_json`]).
//!
//! # Example
//!
//! ```
//! use be2d_db::{ImageDatabase, QueryOptions};
//! use be2d_geometry::SceneBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut db = ImageDatabase::new();
//! let a = SceneBuilder::new(100, 100)
//!     .object("A", (10, 40, 10, 40))
//!     .object("B", (50, 90, 50, 90))
//!     .build()?;
//! let b = SceneBuilder::new(100, 100).object("Z", (0, 50, 0, 50)).build()?;
//! db.insert_scene("two-objects", &a)?;
//! db.insert_scene("other", &b)?;
//!
//! let hits = db.search_scene(&a, &QueryOptions::default());
//! assert_eq!(hits[0].name, "two-objects");
//! assert!((hits[0].score - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod database;
mod epoch;
mod error;
mod events;
mod index;
mod metrics;
mod oplog;
mod query;
mod replica;
mod reshard;
mod scatter;
mod signature;
/// Spatial-pattern sketches: textual queries compiled to scenes.
pub mod sketch;
mod snapshot;

pub use database::{
    CandidatePlan, ImageDatabase, ImageRecord, RecordId, ScoreThreshold, SearchStats,
};
pub use error::DbError;
pub use events::{Event, EventJournal, EventKind, DEFAULT_EVENT_CAPACITY};
pub use index::ClassIndex;
pub use metrics::{DbMetrics, QueryTrace, ShardTrace, SCATTER_POOL_SLOTS};
pub use oplog::{
    OplogStats, ReplicaLag, ReplicationMode, ReplicationStats, ShardReplication, WalConfig,
    WalStats,
};
pub use query::{CandidateStrategy, PrefilterMode, QueryOptions, SearchHit, TwoStage};
pub use replica::{ReplicaConfig, ReplicaStats, ReplicatedImageDatabase};
pub use reshard::{ReshardProgress, Resharder};
pub use signature::{QuerySketch, ScoreBound, ScoreSketch, SKETCH_BUCKETS};
