//! The system under test from the outside: a `be2d-server` child
//! process, its HTTP set-up, and the timed closed- and open-loop
//! phases over `/v1`.

use crate::check::inserted_id;
use crate::spec::Spec;
use crate::stream::{Inputs, Op, OpGen};
use be2d_server::client::{Client, ClientResponse};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `be2d-server`. Dropping it kills the process and waits
/// for it, so no server outlives the benchmark on any exit path.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    stdout_drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Boots the server and waits until `/v1/healthz` answers 200.
    pub fn boot(
        bin: &Path,
        spec: &Spec,
        wal_dir: Option<&Path>,
        log: &Path,
    ) -> io::Result<ServerProc> {
        let mut cmd = Command::new(bin);
        cmd.args(spec.server_args());
        if let Some(dir) = wal_dir {
            cmd.arg("--wal").arg(dir).args(["--wal-fsync-every", "1"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?)
            .spawn()?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let addr = lines.by_ref().find_map(|line| {
            line.ok()?
                .strip_prefix("be2d-server listening on ")?
                .parse::<SocketAddr>()
                .ok()
        });
        // Keep reading so the server never blocks on a full pipe; the
        // thread ends when the process closes its stdout.
        let stdout_drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        let mut server = ServerProc {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            stdout_drain,
        };
        server.addr = addr.ok_or_else(|| {
            io::Error::other(format!(
                "server exited before listening; see {}",
                log.display()
            ))
        })?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let mut client = Client::new(server.addr, Duration::from_secs(2));
            if client
                .request("GET", "/v1/healthz", "")
                .is_ok_and(|r| r.status == 200)
            {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server never answered /v1/healthz"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// `GET` a `/v1` endpoint on a fresh connection that is closed
    /// before returning, so it never pins a server worker.
    pub fn get(&self, path: &str) -> io::Result<ClientResponse> {
        Client::new(self.addr, CLIENT_TIMEOUT).request("GET", path, "")
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

/// A fresh, empty working directory.
pub fn fresh_dir(path: &Path) -> io::Result<PathBuf> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)?;
    Ok(path.to_path_buf())
}

/// Inserts the corpus over HTTP with `clients` connections; returns the
/// server-assigned id of every corpus image, in corpus order.
pub fn prefill(addr: SocketAddr, inputs: &Inputs, clients: usize) -> io::Result<Vec<u64>> {
    let n = inputs.prefill_bodies.len();
    let parts: Vec<io::Result<Vec<(usize, u64)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, CLIENT_TIMEOUT);
                    let mut ids = Vec::new();
                    for i in (c..n).step_by(clients) {
                        let r = client.request("POST", "/v1/images", &inputs.prefill_bodies[i])?;
                        let id = (r.status == 201)
                            .then(|| inserted_id(&r.body))
                            .flatten()
                            .ok_or_else(|| {
                                io::Error::other(format!(
                                    "prefill insert {i} answered {}",
                                    r.status
                                ))
                            })?;
                        ids.push((i, id));
                    }
                    Ok(ids)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefill thread panicked"))
            .collect()
    });
    let mut ids = vec![0u64; n];
    for part in parts {
        for (i, id) in part? {
            ids[i] = id;
        }
    }
    Ok(ids)
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub search: bool,
    pub ok: bool,
    /// Open loop: from the request's due time to its response.
    /// Closed loop: from send to response.
    pub latency_ns: u64,
    /// Open loop only: how late the request was sent.
    pub lateness_ns: u64,
    /// Open loop only: when the request fell due, from the phase start.
    pub due_ns: u64,
}

pub struct Phase {
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
}

/// Sends one op and feeds its outcome back to the generator.
fn execute(client: &mut Client, gen: &mut OpGen, op: Op, inputs: &Inputs) -> bool {
    let (method, path, body) = op.request(inputs);
    let (ok, new_id) = match client.request(method, &path, &body) {
        Ok(r) => {
            let ok = (200..300).contains(&r.status)
                && (!op.is_search() || r.body.starts_with(b"{\"hits\":["));
            let id = matches!(op, Op::Insert { .. })
                .then(|| inserted_id(&r.body))
                .flatten();
            (ok, id)
        }
        Err(_) => (false, None),
    };
    gen.complete(op, ok, new_id);
    ok
}

/// Each generator drives one connection, sending its next request as
/// soon as the previous one completed, until `duration` has passed.
pub fn closed_loop(
    addr: SocketAddr,
    gens: &mut [OpGen],
    inputs: &Inputs,
    duration: Duration,
) -> Phase {
    let start = Instant::now();
    let deadline = start + duration;
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .map(|gen| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, CLIENT_TIMEOUT);
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let op = gen.next();
                        let search = op.is_search();
                        let sent = Instant::now();
                        let ok = execute(&mut client, gen, op, inputs);
                        samples.push(Sample {
                            search,
                            ok,
                            latency_ns: nanos(sent.elapsed()),
                            lateness_ns: 0,
                            due_ns: 0,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        samples: per_client.into_iter().flatten().collect(),
        elapsed: start.elapsed(),
    }
}

/// Requests fall due at a fixed `rate`; each generator's connection
/// takes the next due request as soon as it is free. Latency counts
/// from the due time, so a stall also charges the requests queued
/// behind it.
pub fn open_loop(
    addr: SocketAddr,
    gens: &mut [OpGen],
    inputs: &Inputs,
    rate: f64,
    duration: Duration,
) -> Phase {
    let total = (rate * duration.as_secs_f64()).round() as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .map(|gen| {
                let next = &next;
                scope.spawn(move || {
                    let mut client = Client::new(addr, CLIENT_TIMEOUT);
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let offset = interval * u32::try_from(i).expect("request count fits u32");
                        let due = start + offset;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let lateness = Instant::now().saturating_duration_since(due);
                        let op = gen.next();
                        let search = op.is_search();
                        let ok = execute(&mut client, gen, op, inputs);
                        samples.push(Sample {
                            search,
                            ok,
                            latency_ns: nanos(Instant::now().saturating_duration_since(due)),
                            lateness_ns: nanos(lateness),
                            due_ns: nanos(offset),
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        samples: per_client.into_iter().flatten().collect(),
        elapsed: start.elapsed(),
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
