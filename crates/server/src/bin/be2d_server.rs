//! The `be2d-server` binary: boot the HTTP retrieval service.
//!
//! ```text
//! be2d-server [--addr 127.0.0.1:0] [--threads N] [--queue N]
//!             [--keep-alive N] [--db snapshot.json] [--snapshot path.json]
//! ```
//!
//! Prints `be2d-server listening on <addr>` once bound (scripts grep
//! this to learn the ephemeral port) and `be2d-server shutdown complete`
//! after a graceful shutdown.

use be2d_db::{ReplicatedImageDatabase, ReplicationMode};
use be2d_server::{AdvisorMode, Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> &'static str {
    "be2d-server — HTTP retrieval service over the BE-string image database\n\
     \n\
     options:\n\
       --addr HOST:PORT   bind address (default 127.0.0.1:0; port 0 = ephemeral)\n\
       --threads N        worker threads (default: host parallelism)\n\
       --shards N         database shards: searches scatter-gather, writes lock\n\
                          only the owning shard (default 1)\n\
       --replicas R       replicas per shard: reads round-robin across copies,\n\
                          writes fan out to all; POST /v1/admin/replicas/fail|heal\n\
                          injects and repairs replica faults (default 1)\n\
       --reshard-batch N  ids swept per online-reshard batch when a\n\
                          POST /v1/admin/reshard request names none (default 256)\n\
       --replication MODE write acknowledgement: sync (all healthy replicas,\n\
                          default), quorum (majority), or async[:LAG] (leader\n\
                          only; followers drain in the background, reads stay\n\
                          within LAG ops — default LAG 1024)\n\
       --oplog-window N   per-shard operation-log window; healed replicas\n\
                          whose gap fits replay just the missed ops instead\n\
                          of cloning (default 1024)\n\
       --wal DIR          write-ahead-log directory: append every mutation,\n\
                          recover snapshot+replay on boot (default: off)\n\
       --wal-fsync-every N fsync the WAL after N records; 1 = every\n\
                          acknowledged write is on disk (default 64)\n\
       --queue N          pending-connection queue before 503 shedding (default 64)\n\
       --slow-queries N   worst traced queries retained for\n\
                          GET /v1/debug/slow_queries; 0 disables (default 32)\n\
       --keep-alive N     requests served per connection (default 256)\n\
       --db PATH          load this snapshot into the database at boot\n\
       --snapshot-dir DIR directory POST /v1/snapshot and /v1/restore are confined to (default .)\n\
       --snapshot NAME    default file name inside the snapshot dir\n\
       --advisor MODE     autopilot advisor: off (default) or dry-run\n\
                          (evaluate windowed signals, journal the admin calls\n\
                          it would issue as advisor_recommendation events,\n\
                          never act)\n\
       --advisor-tick-ms N      interval between advisor evaluations (default 1000)\n\
       --advisor-cooldown-ms N  silence per fired advisor signal (default 30000)\n\
       --slo-p99-ms N     rolling 1-minute p99 latency target for the slo\n\
                          verdict in GET /v1/health (default 250)\n\
       --slo-availability F     availability target in [0,1]; the 5xx error\n\
                          budget is 1-F of windowed requests (default 0.99)\n\
       --help             this text\n\
     \n\
     shutdown: POST /v1/admin/shutdown\n"
}

/// Parses `--replication sync|quorum|async[:LAG]`.
fn parse_replication(value: &str) -> Result<ReplicationMode, String> {
    match value {
        "sync" => Ok(ReplicationMode::Sync),
        "quorum" => Ok(ReplicationMode::Quorum),
        "async" => Ok(ReplicationMode::Async { max_lag: 1024 }),
        other => match other.strip_prefix("async:") {
            Some(lag) => lag
                .parse()
                .map(|max_lag| ReplicationMode::Async { max_lag })
                .map_err(|_| format!("bad async lag {lag:?} (want async:NUMBER)")),
            None => Err(format!(
                "unknown replication mode {other:?} (want sync, quorum, or async[:LAG])"
            )),
        },
    }
}

fn parse_args(args: &[String]) -> Result<(ServerConfig, Option<PathBuf>), String> {
    let mut config = ServerConfig::default();
    let mut preload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--threads" => {
                config.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a number".to_owned())?;
            }
            "--shards" => {
                config.shards = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards must be a number".to_owned())?;
            }
            "--replicas" => {
                config.replicas = value("--replicas")?
                    .parse()
                    .map_err(|_| "--replicas must be a number".to_owned())?;
            }
            "--reshard-batch" => {
                config.reshard_batch = value("--reshard-batch")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--reshard-batch must be a positive number".to_owned())?;
            }
            "--replication" => config.replication = parse_replication(&value("--replication")?)?,
            "--oplog-window" => {
                config.oplog_window = value("--oplog-window")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--oplog-window must be a positive number".to_owned())?;
            }
            "--wal" => config.wal_dir = Some(PathBuf::from(value("--wal")?)),
            "--wal-fsync-every" => {
                config.wal_fsync_every = value("--wal-fsync-every")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--wal-fsync-every must be a positive number".to_owned())?;
            }
            "--queue" => {
                config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue must be a number".to_owned())?;
            }
            "--slow-queries" => {
                config.slow_query_capacity = value("--slow-queries")?
                    .parse()
                    .map_err(|_| "--slow-queries must be a number".to_owned())?;
            }
            "--keep-alive" => {
                config.keep_alive_requests = value("--keep-alive")?
                    .parse()
                    .map_err(|_| "--keep-alive must be a number".to_owned())?;
            }
            "--advisor" => config.advisor = AdvisorMode::parse(&value("--advisor")?)?,
            "--advisor-tick-ms" => {
                config.advisor_tick = value("--advisor-tick-ms")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .map(Duration::from_millis)
                    .ok_or_else(|| "--advisor-tick-ms must be a positive number".to_owned())?;
            }
            "--advisor-cooldown-ms" => {
                config.advisor_cooldown = value("--advisor-cooldown-ms")?
                    .parse::<u64>()
                    .ok()
                    .map(Duration::from_millis)
                    .ok_or_else(|| "--advisor-cooldown-ms must be a number".to_owned())?;
            }
            "--slo-p99-ms" => {
                config.slo_p99 = value("--slo-p99-ms")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .map(Duration::from_millis)
                    .ok_or_else(|| "--slo-p99-ms must be a positive number".to_owned())?;
            }
            "--slo-availability" => {
                config.slo_availability = value("--slo-availability")?
                    .parse::<f64>()
                    .ok()
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or_else(|| "--slo-availability must be in [0,1]".to_owned())?;
            }
            "--db" => preload = Some(PathBuf::from(value("--db")?)),
            "--snapshot-dir" => config.snapshot_dir = PathBuf::from(value("--snapshot-dir")?),
            "--snapshot" => config.snapshot_file = value("--snapshot")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((config, preload))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, preload) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) if message.is_empty() => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    // WAL recovery (anchor snapshot + log replay) happens inside
    // with_config, before any preload or request is served.
    let db = match ReplicatedImageDatabase::with_config(config.replica_config()) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error: cannot open database: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &preload {
        // A preload file may be a plain snapshot or a sharded
        // manifest; restore_from handles both and re-routes records
        // into the configured shard topology (every replica gets the
        // restored state).
        match db.restore_from(path) {
            Ok(records) => {
                eprintln!(
                    "loaded {records} records from {} into {} shard(s) x {} replica(s)",
                    path.display(),
                    db.shard_count(),
                    db.replica_count()
                );
            }
            Err(e) => {
                eprintln!("error: cannot load {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let server = match Server::with_database(config, db) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("be2d-server listening on {}", server.local_addr());
    // Line-buffer workaround: make sure the address line is visible to
    // scripts that poll the log before the first request arrives.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    match server.run() {
        Ok(()) => {
            println!("be2d-server shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: server failed: {e}");
            ExitCode::FAILURE
        }
    }
}
