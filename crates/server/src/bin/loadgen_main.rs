//! The `loadgen` binary: drive a running `be2d-server` and report
//! throughput + latency percentiles.
//!
//! ```text
//! loadgen --addr 127.0.0.1:PORT [--requests N] [--connections N]
//!         [--rate R] [--mix insert=2,search=8] [--seed S]
//!         [--prefill N] [--out BENCH_server.json]
//! ```
//!
//! Exits non-zero when any request errored, so CI can assert a clean
//! run.

use be2d_server::LoadgenConfig;
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

fn usage() -> &'static str {
    "loadgen — drive a be2d-server with a mixed workload over real sockets\n\
     \n\
     options:\n\
       --addr HOST:PORT    server address (required)\n\
       --requests N        total requests (default 1000)\n\
       --connections N     concurrent connections (default 4)\n\
       --rate R            open-loop req/s across all connections (default 0 = closed loop)\n\
       --mix SPEC          op mix: a preset (serving | read-heavy | churn) or weights,\n\
                           e.g. insert=15,search=70,sketch=5 (default: serving)\n\
       --skew SPEC         hot/cold target skew: P (hot prob, 10% hot prefix),\n\
                           P/F (explicit hot fraction) or P/sN (hot = ids divisible\n\
                           by N; N = server shards aims edits at shard 0). default: uniform\n\
       --seed S            master seed (default 42)\n\
       --prefill N         images inserted before the timed run (default 64)\n\
       --reshard-to N      fire POST /v1/admin/reshard to N shards mid-run and\n\
                           require the migration to finish (default: off)\n\
       --reshard-after K   completed requests before the reshard fires\n\
                           (default 0 = immediately)\n\
       --reshard-batch B   batch-size override for the reshard request\n\
                           (default: the server's configured batch)\n\
       --trace-sample N    every Nth search asks the server for its per-stage\n\
                           timing breakdown, aggregated into the report\n\
                           (default 0 = off)\n\
       --scrape-metrics    scrape GET /v1/metrics before and after the timed\n\
                           run and fold the counter deltas (requests by status\n\
                           class, bound pruning, planner skips) into the report\n\
       --out PATH          write the JSON report here (default BENCH_server.json)\n\
       --help              this text\n"
}

fn parse_args(args: &[String]) -> Result<(LoadgenConfig, String), String> {
    let mut addr: Option<SocketAddr> = None;
    let mut out = "BENCH_server.json".to_owned();
    let mut overrides: Vec<(String, String)> = Vec::new();
    let mut scrape_metrics = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        // Boolean flag: no value follows.
        if flag == "--scrape-metrics" {
            scrape_metrics = true;
            continue;
        }
        let value = it
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => {
                addr = value
                    .to_socket_addrs()
                    .map_err(|e| format!("cannot resolve {value:?}: {e}"))?
                    .next();
            }
            "--out" => out = value,
            "--requests" | "--connections" | "--rate" | "--mix" | "--skew" | "--seed"
            | "--prefill" | "--reshard-to" | "--reshard-after" | "--reshard-batch"
            | "--trace-sample" => {
                overrides.push((flag.clone(), value));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let addr = addr.ok_or_else(|| "--addr is required".to_owned())?;
    let mut config = LoadgenConfig::new(addr);
    config.scrape_metrics = scrape_metrics;
    for (flag, value) in overrides {
        match flag.as_str() {
            "--requests" => {
                config.requests = value
                    .parse()
                    .map_err(|_| "--requests must be a number".to_owned())?;
            }
            "--connections" => {
                config.connections = value
                    .parse()
                    .map_err(|_| "--connections must be a number".to_owned())?;
            }
            "--rate" => {
                config.rate = value
                    .parse()
                    .map_err(|_| "--rate must be a number".to_owned())?;
            }
            "--mix" => config.mix = value.parse()?,
            "--skew" => config.skew = value.parse()?,
            "--seed" => {
                config.seed = value
                    .parse()
                    .map_err(|_| "--seed must be a number".to_owned())?;
            }
            "--prefill" => {
                config.prefill = value
                    .parse()
                    .map_err(|_| "--prefill must be a number".to_owned())?;
            }
            "--reshard-to" => {
                config.reshard_to = value
                    .parse()
                    .map_err(|_| "--reshard-to must be a number".to_owned())?;
            }
            "--reshard-after" => {
                config.reshard_after = value
                    .parse()
                    .map_err(|_| "--reshard-after must be a number".to_owned())?;
            }
            "--reshard-batch" => {
                config.reshard_batch = value
                    .parse()
                    .map_err(|_| "--reshard-batch must be a number".to_owned())?;
            }
            "--trace-sample" => {
                config.trace_sample = value
                    .parse()
                    .map_err(|_| "--trace-sample must be a number".to_owned())?;
            }
            _ => unreachable!("filtered above"),
        }
    }
    Ok((config, out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, out) = match parse_args(&args) {
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

    println!(
        "loadgen: {} requests, {} connections, mix {} → {}",
        config.requests, config.connections, config.mix, config.addr
    );
    let report = match be2d_server::loadgen::run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: loadgen failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.summary());
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("report written to {out}");
    if report.errors > 0 {
        eprintln!(
            "error: {} of {} requests failed",
            report.errors, report.requests
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
