//! # be2d-server — the online retrieval service
//!
//! Turns [`ReplicatedImageDatabase`](be2d_db::ReplicatedImageDatabase)
//! into a network-facing service: a dependency-free HTTP/1.1 JSON
//! server on `std::net` (the build is offline — no tokio/hyper) plus a
//! load generator that drives it over real sockets and reports
//! throughput and latency percentiles. With `--shards N` the database
//! is split into N independently locked partitions: searches
//! scatter-gather across all of them while each write locks only the
//! owning shard. With `--replicas R` every shard keeps R copies: reads
//! round-robin across healthy replicas, writes fan out to all of them,
//! and a failed replica can be rebuilt from a healthy peer over the
//! admin API without downtime.
//!
//! The moving parts:
//!
//! * [`Server`] / [`ServerConfig`] — accept loop, keep-alive connection
//!   lifecycle, graceful shutdown (`POST /v1/admin/shutdown` or a
//!   [`ServerHandle`]);
//! * [`ThreadPool`] — bounded-queue workers; a full queue sheds new
//!   connections with `503` instead of buffering unboundedly;
//! * [`http`] — incremental request parser (`Content-Length`, size
//!   limits, pipelining-safe) and response writer;
//! * [`router`] / [`api`] / the handler layer — the endpoint table, the
//!   JSON request/response vocabulary, and their wiring to `be2d-db`;
//! * [`health`] / [`advisor`] — rolling SLO windows, per-subsystem
//!   verdicts behind `GET /v1/health`, and the dry-run autopilot that
//!   journals the admin calls it *would* issue (never acting);
//! * [`client`] — a small blocking HTTP client (loadgen + tests);
//! * [`loadgen`] — the load generator: `be2d-workload` scenes/queries,
//!   a seeded [`RequestMix`](be2d_workload::RequestMix) schedule,
//!   open-loop pacing, `BENCH_server.json` reports.
//!
//! # Endpoints
//!
//! Every route lives under `/v1/`; an unversioned path answers 404.
//! The one exception is the liveness probe, which is infrastructure,
//! not API, and answers on both `GET /healthz` and `GET /v1/healthz`.
//!
//! | method & path | body | effect |
//! |---|---|---|
//! | `POST /v1/images` | `{"name", "scene"}` or `{"name", "symbolic"}` | index an image |
//! | `DELETE /v1/images/{id}` | — | remove an image |
//! | `POST /v1/images/{id}/objects` | `{"class", "mbr"}` | §3.2 incremental object insert |
//! | `DELETE /v1/images/{id}/objects` | `{"class", "mbr"}` | §3.2 incremental object removal |
//! | `POST /v1/search` | `{"scene"` or `"text", "options"?, "trace"?}` | ranked similarity search; `"trace": true` adds a per-stage timing breakdown |
//! | `POST /v1/search/sketch` | `{"sketch", "options"?, "trace"?}` | spatial-pattern sketch search |
//! | `GET /v1/stats` | — | nested statistics: topology, replication (per-replica lag), planner, reshard, op log, service |
//! | `GET /v1/metrics` | — | Prometheus text exposition (histograms, counters, gauges) |
//! | `GET /v1/health` | — | per-subsystem health verdicts (shards, replicas, replication lag, WAL, SLO burn) rolled up to `ok`/`degraded`/`critical` |
//! | `GET /v1/debug/slow_queries` | — | the worst traced queries retained in the slow-query ring |
//! | `GET /v1/debug/events` | — | the structured event journal (`?since={seq}` cursor): replica fail/heal, reshard start/finish, WAL checkpoints, SLO burns, advisor recommendations |
//! | `GET /healthz` | — | load-balancer probe: 200 while every shard can serve (`ok`/`degraded`), 503 when any shard has zero healthy replicas |
//! | `POST /v1/admin/checkpoint` | — | WAL checkpoint: fresh anchor snapshot + log truncation |
//! | `POST /v1/snapshot` | `{"path"?}` | crash-safe incremental snapshot to disk |
//! | `POST /v1/restore` | `{"path"?}` | replace the database from a snapshot |
//! | `POST /v1/admin/reshard` | `{"shards", "batch"?}` | start a live migration to a new shard count |
//! | `POST /v1/admin/replicas/fail` | `{"shard", "replica"}` | take a replica out of rotation (fault injection) |
//! | `POST /v1/admin/replicas/heal` | `{"shard", "replica"}` | rebuild a failed replica (op-log replay, clone fallback) |
//! | `POST /v1/admin/shutdown` | — | graceful shutdown |
//!
//! Errors share one envelope:
//! `{"error":{"code":"...","message":"...","retryable":bool}}` with a
//! stable machine-readable `code` (see `README.md` for the full code
//! table).
//!
//! # Example
//!
//! ```
//! use be2d_server::{Server, ServerConfig};
//! use be2d_server::client::Client;
//! use std::time::Duration;
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     threads: 2,
//!     ..ServerConfig::default()
//! })?;
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let runner = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::new(addr, Duration::from_secs(5));
//! let body = r#"{"name":"one","scene":{"width":10,"height":10,
//!     "objects":[{"class":"A","mbr":[1,4,1,4]}]}}"#;
//! assert_eq!(client.request("POST", "/v1/images", body)?.status, 201);
//!
//! handle.shutdown();
//! runner.join().expect("server thread").unwrap();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The dry-run autopilot advisor.
pub mod advisor;
pub mod api;
/// Blocking HTTP client for tests and the load generator.
pub mod client;
mod config;
mod handlers;
/// Rolling SLO windows and per-subsystem health verdicts.
pub mod health;
/// HTTP/1.1 wire handling.
pub mod http;
/// The load generator.
pub mod loadgen;
mod metrics;
mod pool;
/// Route resolution.
pub mod router;
mod server;
/// The bounded slow-query ring behind `GET /v1/debug/slow_queries`.
pub mod slowlog;

pub use advisor::{AdvisorEngine, AdvisorMode, AdvisorSignals, Recommendation};
pub use config::ServerConfig;
pub use handlers::{AppState, ServerStats};
pub use health::{HealthReport, ServerWindows, Subsystem, Verdict};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use pool::{RejectReason, ThreadPool};
pub use server::{Server, ServerHandle};
pub use slowlog::{SlowQueryEntry, SlowQueryLog};
