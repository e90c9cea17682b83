//! `be2d-perfbench`: the repository benchmark.
//!
//! ```text
//! be2d-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                --server PATH --work DIR [--rev REV] [--rustc VERSION]
//! ```
//!
//! With `--trace 0` it runs several rounds; each boots a real
//! `be2d-server`, prefills it over `/v1` HTTP from a seeded corpus,
//! runs a closed-loop and an open-loop phase and checks the answers.
//! It then prints the end-to-end metrics over all rounds. With
//! `--trace 1` it runs one closed-loop phase over HTTP and replays the
//! same seeded stream in-process with a timer around each layer's
//! public calls, printing a per-layer budget that sums to the
//! end-to-end mean.
//! The last line of standard output is always the JSON result.
//! `perfbench/run.py` builds both binaries and passes the paths.

mod check;
mod report;
mod serve;
mod spec;
mod stream;
mod trace;

use report::{latency_ms, median, metric, result_line, table, Metric};
use serve::{closed_loop, fresh_dir, nanos, open_loop, prefill, Phase, ServerProc};
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stream::{Inputs, OpGen};

/// An untraced run is this many rounds. Each boots and prefills a fresh
/// server (timed: `setup_s` is the median over rounds), then spends its
/// share of `--seconds` in a closed-loop and an open-loop phase. The
/// host's speed drifts on a scale of seconds, and back-to-back set-ups
/// share the drift; spread over the run, their median does not.
const ROUNDS: usize = 6;

/// Share of a round's time in the closed-loop phase; the open-loop
/// phase takes the rest.
const CLOSED_SHARE: f64 = 0.4;

/// The open loop's arrival rate, as a share of the same round's
/// closed-loop throughput on one connection. That throughput is a floor
/// on the server's capacity on any host, so the open loop stays below
/// saturation on a slow or one-core host as well as on a fast one,
/// where a rate pinned in requests per second would not.
const OPEN_LOAD: f64 = 0.4;

/// The open loop fell behind its schedule when, over the last
/// `BEHIND_TAIL` of the phase, the median request left more than
/// `BEHIND_INTERVALS` request intervals late. Below capacity a request
/// waits at most for the few in flight ahead of it; a backlog still
/// standing at the end means the host stalled past capacity and the
/// latencies describe a queue, not the system. Such a round is flagged
/// and its open-loop samples are left out of the latencies; a run whose
/// every round fell behind has nothing to score and fails.
const BEHIND_TAIL: f64 = 0.25;
const BEHIND_INTERVALS: f64 = 4.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server: PathBuf,
    pub work: PathBuf,
    pub rev: String,
    pub rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1).cloned())
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    Ok(Args {
        workload: need("--workload")?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: need("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        server: need("--server")?.into(),
        work: need("--work")?.into(),
        rev: get("--rev").unwrap_or_else(|| "unknown".into()),
        rustc: get("--rustc").unwrap_or_else(|| "unknown".into()),
    })
}

/// Client connections for prefill and the open loop: one per core.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The outcome of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::find(&args.workload) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("error: cannot create {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    println!(
        "env: workload={} seed={} seconds={} trace={} nproc={} rev={} rustc={:?}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        connections(),
        args.rev,
        args.rustc
    );
    let outcome = if args.trace {
        trace::run(&args, &spec)
    } else {
        run(&args, &spec)
    };
    match outcome {
        Ok(o) => {
            println!(
                "{}",
                result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Boots and prefills a fresh server; returns it with the prefill ids
/// and the set-up time: from the server's spawn through `/v1/healthz`
/// 200 and the last prefill insert. Emptying the WAL directory comes
/// before the clock starts, as it is the benchmark's clean-up, not the
/// server's work.
pub fn setup(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
) -> std::io::Result<(ServerProc, Vec<u64>, Duration)> {
    let wal = if spec.wal {
        Some(fresh_dir(&args.work.join("wal"))?)
    } else {
        None
    };
    let log = args.work.join("server.log");
    let start = Instant::now();
    let server = ServerProc::boot(&args.server, spec, wal.as_deref(), &log)?;
    let ids = prefill(server.addr, inputs, connections())?;
    Ok((server, ids, start.elapsed()))
}

/// One op stream per client; round `round` of `rounds` starts its
/// searches that far into the query set, so the rounds between them
/// cover it.
pub fn generators(
    spec: &Spec,
    seed: u64,
    ids: &[u64],
    inputs: &Inputs,
    clients: usize,
    (round, rounds): (usize, usize),
) -> Vec<OpGen> {
    let n = inputs.queries.len();
    (0..clients)
        .map(|c| OpGen::new(spec, seed, c, clients, ids, n).starting_at_query(round * n / rounds))
        .collect()
}

/// Read workloads: sampled searches against a reference database.
/// Write workloads: the record count against the acknowledged writes.
/// Round `round` of `rounds` samples its own share of the query set.
/// Returns (checks attempted, checks failed).
pub fn check_answers(
    server: &ServerProc,
    spec: &Spec,
    inputs: &Inputs,
    ids: &[u64],
    gens: &[OpGen],
    (round, rounds): (usize, usize),
) -> std::io::Result<(u64, u64)> {
    if spec.search_share >= 1.0 {
        let reference = check::reference(inputs, ids);
        let n = inputs.queries.len();
        let per_round = check::SAMPLED_QUERIES.div_ceil(rounds);
        let sampled: Vec<usize> = (0..per_round)
            .map(|s| (s * rounds + round) * n / (per_round * rounds))
            .collect();
        return Ok(check::check_searches(
            server.addr,
            inputs,
            &reference,
            &sampled,
        ));
    }
    let inserts: u64 = gens.iter().map(|g| g.acked_inserts).sum();
    let removes: u64 = gens.iter().map(|g| g.acked_removes).sum();
    let expected = ids.len() as u64 + inserts - removes;
    let got = check::records_of(&server.get("/v1/stats")?.body);
    if got != Some(expected) {
        eprintln!("record count mismatch: expected {expected}, /v1/stats says {got:?}");
        return Ok((1, 1));
    }
    Ok((1, 0))
}

fn latencies(phase: &Phase, search: bool) -> Vec<u64> {
    phase
        .samples
        .iter()
        .filter(|s| s.search == search)
        .map(|s| s.latency_ns)
        .collect()
}

/// What a round's open loop reports about its own schedule.
struct Schedule {
    /// Median lateness over the last `BEHIND_TAIL` of the phase.
    tail_late_ns: u64,
    behind: bool,
}

fn schedule(open: &Phase, open_for: Duration, rate: f64) -> Schedule {
    let tail_from = nanos(open_for.mul_f64(1.0 - BEHIND_TAIL));
    let mut tail: Vec<u64> = open
        .samples
        .iter()
        .filter(|s| s.due_ns >= tail_from)
        .map(|s| s.lateness_ns)
        .collect();
    tail.sort_unstable();
    let tail_late_ns = report::percentile(&tail, 0.5);
    Schedule {
        tail_late_ns,
        behind: tail_late_ns as f64 > BEHIND_INTERVALS * 1e9 / rate,
    }
}

fn run(args: &Args, spec: &Spec) -> std::io::Result<Outcome> {
    let inputs = Inputs::generate(spec, args.seed);
    let steal = report::Steal::start();
    let closed_for = Duration::from_secs_f64(args.seconds * CLOSED_SHARE / ROUNDS as f64);
    let open_for = Duration::from_secs_f64(args.seconds * (1.0 - CLOSED_SHARE) / ROUNDS as f64);
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let (mut closed, mut open) = (Vec::new(), Vec::new());
    let mut closed_elapsed = Duration::ZERO;
    let (mut attempted, mut failed) = (0, 0);
    let (mut threads, mut tail_late, mut behind) = (0, 0, 0);
    let mut rates = Vec::new();
    for round in 0..ROUNDS {
        let (server, ids, took) = setup(args, spec, &inputs)?;
        setups.push(took.as_secs_f64());
        threads = check::threads_of(&server.get("/v1/stats")?.body).unwrap_or(0);
        let mut gens = generators(
            spec,
            args.seed,
            &ids,
            &inputs,
            connections(),
            (round, ROUNDS),
        );
        // One connection in the closed loop: a single waiting caller
        // keeps run-to-run throughput steady.
        let c = closed_loop(server.addr, &mut gens[..1], &inputs, closed_for);
        let served = c.samples.iter().filter(|s| s.ok).count();
        let rate = OPEN_LOAD * served.max(1) as f64 / c.elapsed.as_secs_f64();
        let o = open_loop(server.addr, &mut gens, &inputs, rate, open_for);
        let (a, f) = check_answers(&server, spec, &inputs, &ids, &gens, (round, ROUNDS))?;
        attempted += a;
        failed += f;
        rss.push(server.peak_rss_mb().unwrap_or(0.0));
        drop(server);
        let s = schedule(&o, open_for, rate);
        tail_late = tail_late.max(s.tail_late_ns);
        closed_elapsed += c.elapsed;
        closed.extend(c.samples);
        // Attempts and failures count every request; a round that fell
        // behind only leaves the latencies.
        attempted += o.samples.len() as u64;
        failed += o.samples.iter().filter(|s| !s.ok).count() as u64;
        if s.behind {
            eprintln!(
                "round {round}: the open loop fell behind; over the last {:.0}% of the phase the median request left {:.1} ms late (interval {:.1} ms), so its latencies are not scored",
                BEHIND_TAIL * 100.0,
                s.tail_late_ns as f64 / 1e6,
                1e3 / rate
            );
            behind += 1;
        } else {
            open.extend(o.samples);
        }
        rates.push(rate);
    }
    if behind == ROUNDS {
        eprintln!("every round's open loop fell behind its schedule; nothing to score");
    }
    let closed = Phase {
        samples: closed,
        elapsed: closed_elapsed,
    };
    let open = Phase {
        samples: open,
        elapsed: open_for * (ROUNDS - behind) as u32,
    };
    attempted += closed.samples.len() as u64;
    failed += closed.samples.iter().filter(|s| !s.ok).count() as u64;

    let ok_count = closed.samples.iter().filter(|s| s.ok).count();
    let throughput = ok_count as f64 / closed.elapsed.as_secs_f64();
    let search = latency_ms(latencies(&open, true));
    let write = latency_ms(latencies(&open, false));
    let mut lateness: Vec<u64> = open.samples.iter().map(|s| s.lateness_ns).collect();
    lateness.sort_unstable();
    let max_late = lateness.last().copied().unwrap_or(0);

    let setup_s = median(&setups);
    let error_ratio = failed as f64 / attempted.max(1) as f64;
    let shown = [
        metric("throughput_rps", throughput, "1/s"),
        metric("search_p50_ms", search.p50, "ms"),
        metric("search_p90_ms", search.p90, "ms"),
        metric("search_p99_ms", search.p99, "ms"),
        metric("write_p50_ms", write.p50, "ms"),
        metric("write_p90_ms", write.p90, "ms"),
        metric("write_p99_ms", write.p99, "ms"),
        metric("error_ratio", error_ratio, "ratio"),
        metric("setup_s", setup_s, "s"),
        metric("server_rss_mb", median(&rss), "MiB"),
        metric("open.search_samples", search.samples as f64, "count"),
        metric("open.write_samples", write.samples as f64, "count"),
        metric("open.rate", median(&rates), "1/s"),
        metric("open.behind_rounds", behind as f64, "count"),
        metric(
            "open.lateness_p99_ms",
            report::percentile(&lateness, 0.99) as f64 / 1e6,
            "ms",
        ),
        metric("open.lateness_max_ms", max_late as f64 / 1e6, "ms"),
        metric("open.lateness_tail_p50_ms", tail_late as f64 / 1e6, "ms"),
        metric("closed.requests", ok_count as f64, "count"),
        metric("server.threads", threads as f64, "count"),
        metric("host.steal_pct", steal.finish(), "%"),
    ];
    print!(
        "{}",
        table(
            &format!("{} (seed {}, end to end)", spec.name, args.seed),
            &shown
        )
    );
    println!("  setup per round (s): {setups:?}");
    let keep = [
        "throughput_rps",
        "search_p50_ms",
        "search_p90_ms",
        "setup_s",
        "server_rss_mb",
    ];
    let metrics = shown
        .into_iter()
        .filter(|m| keep.contains(&m.name.as_str()))
        .collect();
    Ok(Outcome {
        correct: failed == 0 && behind < ROUNDS,
        attempted,
        failed,
        metrics,
    })
}
