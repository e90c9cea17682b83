//! The server proper: accept loop, connection lifecycle, graceful
//! shutdown.

use crate::advisor::{AdvisorEngine, AdvisorMode, AdvisorSignals};
use crate::handlers::{handle, AppState};
use crate::health::{slo_verdict, Verdict, W1M, WINDOW_EPOCH};
use crate::http::{read_request, ParseLimits, Response};
use crate::pool::ThreadPool;
use crate::ServerConfig;
use be2d_db::{EventKind, ReplicatedImageDatabase};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A bound, not-yet-running HTTP service over one
/// [`ReplicatedImageDatabase`].
///
/// # Example
///
/// ```no_run
/// use be2d_server::{Server, ServerConfig};
///
/// # fn main() -> std::io::Result<()> {
/// let server = Server::bind(ServerConfig::default())?;
/// println!("listening on {}", server.local_addr());
/// server.run()?; // blocks until POST /v1/admin/shutdown
/// # Ok(())
/// # }
/// ```
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    pool: ThreadPool,
    addr: SocketAddr,
}

/// A cheap handle for shutting a running server down from another
/// thread (tests, signal bridges, the loadgen harness).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<AppState>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown: stop accepting, drain in-flight
    /// connections, then return from [`Server::run`].
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }
}

impl Server {
    /// Binds a fresh empty database of `config.shards` shards ×
    /// `config.replicas` replicas, replicating per
    /// `config.replication` and (when `config.wal_dir` is set)
    /// recovering from / logging to the write-ahead log.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors and WAL recovery failures.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let db = ReplicatedImageDatabase::with_config(config.replica_config())
            .map_err(io::Error::other)?;
        Server::with_database(config, db)
    }

    /// Binds over an existing (possibly pre-loaded) database. The
    /// database's own topology wins over `config.shards`/`config.replicas`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn with_database(config: ServerConfig, db: ReplicatedImageDatabase) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let threads = config.effective_threads();
        let pool = ThreadPool::new(threads, config.queue_capacity);
        let state = AppState::new(db, config, threads, addr);
        spawn_health_ticker(&state);
        Ok(Server {
            listener,
            state,
            pool,
            addr,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for requesting shutdown from elsewhere.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
            addr: self.addr,
        }
    }

    /// Shared access to the underlying database (e.g. to pre-load
    /// records before serving).
    #[must_use]
    pub fn database(&self) -> ReplicatedImageDatabase {
        self.state.db.clone()
    }

    /// Serves until graceful shutdown is requested via
    /// `POST /v1/admin/shutdown` or a [`ServerHandle`].
    ///
    /// Each accepted connection becomes one bounded-pool job serving up
    /// to `keep_alive_requests` requests; when the pool (workers +
    /// queue) is saturated the connection is immediately answered `503`
    /// and closed — overload sheds instead of queueing unboundedly.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O errors (individual connection errors
    /// only close that connection).
    pub fn run(self) -> io::Result<()> {
        for incoming in self.listener.incoming() {
            if self.state.shutting_down() {
                break;
            }
            let stream = match incoming {
                Ok(stream) => stream,
                // Transient per-connection failures must not kill the
                // accept loop.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(e),
            };
            let state = Arc::clone(&self.state);
            // The job takes ownership of the stream; keep a dup'd handle
            // so a rejected connection can still be answered 503.
            let shed_handle = stream.try_clone().ok();
            let accepted = std::time::Instant::now();
            if self
                .pool
                .try_execute(move || {
                    // Time from accept to a worker picking the job up:
                    // the queue-wait component of request latency.
                    state.http_metrics.queue_wait.record(accepted.elapsed());
                    serve_connection(&state, stream)
                })
                .is_err()
            {
                self.state.stats.shed.fetch_add(1, Ordering::Relaxed);
                if let Some(mut stream) = shed_handle {
                    let _ = stream.set_write_timeout(Some(self.state.config.write_timeout));
                    let _ = Response::error(503, "server overloaded, connection shed")
                        .write_to(&mut stream, false);
                }
            }
            self.state
                .http_metrics
                .queue_depth
                .set(i64::try_from(self.pool.queued()).unwrap_or(i64::MAX));
        }
        self.pool.shutdown();
        Ok(())
    }
}

/// Spawns the `be2d-health` background thread: rotates the rolling
/// request windows once per [`WINDOW_EPOCH`], journals `slo_burn`
/// events on ok→burn transitions of the 1-minute SLO verdict, and —
/// when the advisor is in dry-run mode — evaluates the windowed
/// signals each `advisor_tick`, journaling the admin calls it *would*
/// issue. The thread holds only a [`Weak`] reference: it exits within
/// one poll interval of the server state being dropped or shutdown
/// being requested, and it never issues an admin call itself.
fn spawn_health_ticker(state: &Arc<AppState>) {
    let weak: Weak<AppState> = Arc::downgrade(state);
    let config = state.config.clone();
    // Hysteresis of 2: a condition must survive two consecutive
    // advisor ticks before it is worth a journal entry.
    let mut engine = AdvisorEngine::new(2, config.advisor_cooldown, config.advisor_tick);
    let poll = config
        .advisor_tick
        .min(Duration::from_millis(250))
        .max(Duration::from_millis(10));
    let _ = std::thread::Builder::new()
        .name("be2d-health".into())
        .spawn(move || {
            let mut last_window = Instant::now();
            let mut last_advisor = Instant::now();
            let mut slo_burning = false;
            loop {
                std::thread::sleep(poll);
                let Some(state) = weak.upgrade() else { return };
                if state.shutting_down() {
                    return;
                }
                if last_window.elapsed() >= WINDOW_EPOCH {
                    last_window = Instant::now();
                    state.windows.tick();
                    let summary = state.windows.summary(W1M);
                    let (verdict, detail) =
                        slo_verdict(&summary, config.slo_p99, config.slo_availability);
                    let burning = verdict >= Verdict::Degraded;
                    if burning && !slo_burning {
                        let budget = (1.0 - config.slo_availability.clamp(0.0, 1.0)).max(1e-9);
                        let signal = if summary.error_ratio > budget {
                            "availability"
                        } else {
                            "latency_p99"
                        };
                        state.db.events().record(EventKind::SloBurn {
                            signal: signal.into(),
                            detail,
                        });
                    }
                    slo_burning = burning;
                }
                if config.advisor == AdvisorMode::DryRun
                    && last_advisor.elapsed() >= config.advisor_tick
                {
                    last_advisor = Instant::now();
                    let (slo, _) = slo_verdict(
                        &state.windows.summary(W1M),
                        config.slo_p99,
                        config.slo_availability,
                    );
                    let signals = AdvisorSignals {
                        replica_health: state.db.replica_health(),
                        shard_records: state.db.stats().shard_records,
                        resharding: state.db.resharding(),
                        slo,
                    };
                    for rec in engine.observe(&signals) {
                        state.db.events().record(EventKind::AdvisorRecommendation {
                            action: rec.action,
                            target: rec.target,
                            reason: rec.reason,
                        });
                    }
                }
            }
        });
}

/// Serves one connection: keep-alive request loop with limits and
/// timeouts from the config.
fn serve_connection(state: &AppState, mut stream: TcpStream) {
    let config = &state.config;
    let limits = ParseLimits {
        max_head_bytes: config.max_head_bytes,
        max_body_bytes: config.max_body_bytes,
    };
    // Two timeout layers: the socket timeout bounds each syscall (and
    // the idle wait for the next keep-alive request); the request
    // budget inside read_request bounds the whole request, so a client
    // trickling bytes cannot pin this worker past it.
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_nodelay(true);

    let mut buf: Vec<u8> = Vec::with_capacity(4 * 1024);
    for served in 1..=config.keep_alive_requests {
        let request = match read_request(&mut stream, &mut buf, &limits, config.request_timeout) {
            Ok(Some(request)) => request,
            // Clean hangup between requests.
            Ok(None) => return,
            Err(Ok(http_error)) => {
                let response = Response::error(http_error.status(), &http_error.to_string());
                let _ = response.write_to(&mut stream, false);
                return;
            }
            // Timeout or socket error: nothing sensible to answer.
            Err(Err(_io)) => return,
        };
        let response = handle(state, &request);
        let keep_alive =
            !request.wants_close() && served < config.keep_alive_requests && !state.shutting_down();
        if response.write_to(&mut stream, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Duration;

    fn test_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            read_timeout: Duration::from_millis(1500),
            write_timeout: Duration::from_millis(1500),
            ..ServerConfig::default()
        }
    }

    /// Raw-socket request against a running server.
    fn raw_roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn boots_serves_and_shuts_down() {
        let server = Server::bind(test_config()).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let reply = raw_roundtrip(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("\"status\":\"ok\""));

        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let server = Server::bind(test_config()).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let reply = raw_roundtrip(addr, "BOGUS stuff\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn dry_run_advisor_journals_recommendations_without_acting() {
        let server = Server::bind(ServerConfig {
            shards: 2,
            replicas: 2,
            advisor: AdvisorMode::DryRun,
            advisor_tick: Duration::from_millis(20),
            advisor_cooldown: Duration::from_millis(500),
            ..test_config()
        })
        .unwrap();
        let db = server.database();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        db.fail_replica(0, 1).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (events, _) = db.events().since(0);
            if events.iter().any(|e| {
                matches!(
                    &e.kind,
                    EventKind::AdvisorRecommendation { action, target, .. }
                        if action == "rebuild_replica" && target == "shard=0,replica=1"
                )
            }) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "advisor never recommended a heal"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Dry run means dry: the journal has the recommendation but the
        // replica is still out of rotation — nothing acted on it.
        assert!(!db.replica_health()[0][1], "advisor must not heal");

        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn rankings_are_bit_identical_with_and_without_the_advisor() {
        use crate::client::Client;

        let scene = |i: usize| {
            format!(
                r#"{{"width":100,"height":100,"objects":[
                    {{"class":"A","mbr":[{0},{1},10,40]}},
                    {{"class":"B","mbr":[50,90,{0},{1}]}}]}}"#,
                5 + i * 7,
                40 + i * 5
            )
        };
        let mut bodies: Vec<Vec<u8>> = Vec::new();
        for mode in [AdvisorMode::Off, AdvisorMode::DryRun] {
            let server = Server::bind(ServerConfig {
                shards: 2,
                replicas: 2,
                advisor: mode,
                advisor_tick: Duration::from_millis(10),
                advisor_cooldown: Duration::from_millis(50),
                ..test_config()
            })
            .unwrap();
            let addr = server.local_addr();
            let handle = server.handle();
            let runner = std::thread::spawn(move || server.run());

            let mut client = Client::new(addr, Duration::from_secs(5));
            for i in 0..8 {
                let body = format!(r#"{{"name":"img-{i}","scene":{}}}"#, scene(i));
                assert_eq!(
                    client.request("POST", "/v1/images", &body).unwrap().status,
                    201
                );
            }
            // Give the dry-run advisor a few ticks to prove it leaves
            // the database alone.
            std::thread::sleep(Duration::from_millis(60));
            let query = format!(r#"{{"scene":{},"options":{{"top_k":null}}}}"#, scene(3));
            let resp = client.request("POST", "/v1/search", &query).unwrap();
            assert_eq!(resp.status, 200);
            bodies.push(resp.body);

            handle.shutdown();
            runner.join().unwrap().unwrap();
        }
        // Byte-for-byte equal responses: every score's f64 bits match.
        assert_eq!(bodies[0], bodies[1]);
    }

    #[test]
    fn http_shutdown_endpoint_stops_run() {
        let server = Server::bind(test_config()).unwrap();
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run());

        let reply = raw_roundtrip(
            addr,
            "POST /v1/admin/shutdown HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.contains("\"shutting_down\":true"), "{reply}");
        // No follow-up traffic: the endpoint alone must unblock accept.
        runner.join().unwrap().unwrap();
    }
}
