//! Server configuration.

use crate::advisor::AdvisorMode;
use be2d_db::{ReplicaConfig, ReplicationMode, WalConfig};
use std::path::PathBuf;
use std::time::Duration;

/// Tunables of one [`Server`](crate::Server) instance.
///
/// The defaults are sized for an interactive service on a developer
/// machine; the CLI (`be2d-server --help`) exposes every field.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (printed at boot).
    pub addr: String,
    /// Worker threads; 0 means `available_parallelism` (clamped to
    /// [2, 32]).
    pub threads: usize,
    /// Database shards. 1 (the default) behaves exactly like the
    /// unsharded deployment; more shards scatter-gather searches and
    /// confine each write's lock to the owning shard. 0 is clamped
    /// to 1.
    pub shards: usize,
    /// Replicas per shard. 1 (the default) is the unreplicated
    /// deployment; more replicas spread reads across copies, survive
    /// replica failure (`POST /v1/admin/replicas/fail`), and rebuild from
    /// a healthy peer (`POST /v1/admin/replicas/heal`). 0 is clamped to 1.
    pub replicas: usize,
    /// Global ids swept per online-reshard batch (`POST /v1/admin/reshard`
    /// when the request names no batch size). Smaller batches mean
    /// shorter per-batch write pauses; larger ones finish the migration
    /// in fewer stop-the-world steps.
    pub reshard_batch: usize,
    /// How writes acknowledge across replicas: every healthy replica
    /// (`Sync`, the default), a majority (`Quorum`), or the leader
    /// alone with followers draining in the background (`Async`).
    pub replication: ReplicationMode,
    /// Per-shard operation-log window in ops. A healed replica whose
    /// gap fits the window catches up by replaying just the missed
    /// ops; a larger gap falls back to a full clone.
    pub oplog_window: usize,
    /// Write-ahead-log directory; `Some` turns on crash-durable
    /// logging (every mutation appended, recovery = anchor snapshot +
    /// replay on boot).
    pub wal_dir: Option<PathBuf>,
    /// Fsync after this many WAL records (1 = every acknowledged write
    /// is on disk before the call returns).
    pub wal_fsync_every: u64,
    /// Connections allowed to wait for a free worker before new ones
    /// are shed with `503 Service Unavailable`.
    pub queue_capacity: usize,
    /// Slowest queries retained for `GET /v1/debug/slow_queries`
    /// (0 disables the slow-query ring).
    pub slow_query_capacity: usize,
    /// Socket read timeout: bounds both the wait for the next
    /// keep-alive request and each read while parsing one request.
    pub read_timeout: Duration,
    /// Whole-request read budget, counted from a request's first byte —
    /// the slow-loris bound a per-read timeout cannot provide.
    pub request_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Requests served on one connection before it is closed, freeing
    /// the worker for queued connections.
    pub keep_alive_requests: usize,
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of request body.
    pub max_body_bytes: usize,
    /// Directory all `POST /v1/snapshot` / `POST /v1/restore` files live in.
    /// Request bodies may choose a *file name* inside it, never a path
    /// outside it — network peers must not get arbitrary-path
    /// filesystem access.
    pub snapshot_dir: PathBuf,
    /// Default file name (inside [`snapshot_dir`](Self::snapshot_dir))
    /// when a snapshot/restore body names none.
    pub snapshot_file: String,
    /// The autopilot advisor: `Off` (default) runs no advisor loop;
    /// `DryRun` evaluates windowed signals each
    /// [`advisor_tick`](Self::advisor_tick) and journals
    /// `advisor_recommendation` events without ever issuing an admin
    /// call.
    pub advisor: AdvisorMode,
    /// Interval between advisor evaluations.
    pub advisor_tick: Duration,
    /// Silence per fired advisor signal: an oscillating condition
    /// produces at most one recommendation per cooldown.
    pub advisor_cooldown: Duration,
    /// SLO latency target: the rolling 1-minute p99 above this counts
    /// as a burn in `GET /v1/health`.
    pub slo_p99: Duration,
    /// SLO availability target in [0, 1]; the 5xx error budget is
    /// `1 - slo_availability` of windowed requests.
    pub slo_availability: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            shards: 1,
            replicas: 1,
            reshard_batch: 256,
            replication: ReplicationMode::Sync,
            oplog_window: 1024,
            wal_dir: None,
            wal_fsync_every: 64,
            queue_capacity: 64,
            slow_query_capacity: 32,
            read_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(15),
            write_timeout: Duration::from_secs(5),
            keep_alive_requests: 256,
            max_head_bytes: 16 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
            snapshot_dir: PathBuf::from("."),
            snapshot_file: "be2d-snapshot.json".into(),
            advisor: AdvisorMode::Off,
            advisor_tick: Duration::from_secs(1),
            advisor_cooldown: Duration::from_secs(30),
            slo_p99: Duration::from_millis(250),
            slo_availability: 0.99,
        }
    }
}

impl ServerConfig {
    /// The database topology this server config describes: shards,
    /// replicas, replication mode, op-log window, and (when
    /// [`wal_dir`](Self::wal_dir) is set) the write-ahead log.
    #[must_use]
    pub fn replica_config(&self) -> ReplicaConfig {
        ReplicaConfig {
            shards: self.shards,
            replicas: self.replicas,
            mode: self.replication,
            oplog_window: self.oplog_window,
            wal: self.wal_dir.clone().map(|dir| WalConfig {
                dir,
                fsync_every: self.wal_fsync_every,
            }),
        }
    }

    /// The worker-thread count after resolving `threads == 0` to the
    /// host parallelism.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map_or(2, std::num::NonZeroUsize::get)
                .clamp(2, 32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.effective_threads() >= 2);
        assert!(c.queue_capacity > 0);
        assert!(c.reshard_batch > 0);
        assert!(c.max_head_bytes < c.max_body_bytes);
        assert_eq!(c.advisor, AdvisorMode::Off);
        assert!(c.slo_availability > 0.9 && c.slo_availability < 1.0);
        assert!(c.advisor_cooldown >= c.advisor_tick);
    }

    #[test]
    fn explicit_threads_win() {
        let c = ServerConfig {
            threads: 7,
            ..ServerConfig::default()
        };
        assert_eq!(c.effective_threads(), 7);
    }
}
