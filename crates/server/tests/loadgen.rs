//! The acceptance run: loadgen sustains >= 1000 mixed requests against
//! a locally spawned server without a single error.

use be2d_server::{LoadgenConfig, Server, ServerConfig};
use std::time::Duration;

#[test]
fn loadgen_sustains_1000_mixed_requests_without_error() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let config = LoadgenConfig {
        requests: 1200,
        connections: 4,
        prefill: 48,
        seed: 7,
        ..LoadgenConfig::new(addr)
    };
    let report = be2d_server::loadgen::run(&config).expect("loadgen run");

    assert_eq!(report.requests, 1200);
    assert_eq!(
        report.errors,
        0,
        "no request may fail: {}",
        report.summary()
    );
    assert!(report.throughput_rps > 0.0);
    assert!(report.latency_ms.p50_ms > 0.0);
    assert!(report.latency_ms.p50_ms <= report.latency_ms.p95_ms);
    assert!(report.latency_ms.p95_ms <= report.latency_ms.p99_ms);
    assert!(report.latency_ms.p99_ms <= report.latency_ms.max_ms);
    let performed: u64 = report.by_kind.values().sum();
    assert_eq!(performed, 1200, "every request accounted for");
    assert!(
        report.by_kind.contains_key("search") && report.by_kind.contains_key("insert"),
        "mixed traffic: {:?}",
        report.by_kind
    );

    // the JSON report is parseable and BENCH-tagged
    let json = report.to_json();
    assert!(json.contains("\"benchmark\":\"server\""));
    let back: be2d_server::LoadgenReport = serde_json::from_str(&json).expect("roundtrip");
    assert_eq!(back, report);

    handle.shutdown();
    runner
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// The hot-shard-split scenario: skewed churn traffic hammers shard 0
/// while a live reshard doubles the shard count mid-run — zero errors
/// allowed, and the migration must be confirmed finished via `/v1/stats`.
#[test]
fn loadgen_skewed_churn_survives_a_live_reshard() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        shards: 4,
        replicas: 2,
        reshard_batch: 16,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let config = LoadgenConfig {
        requests: 1500,
        connections: 4,
        prefill: 64,
        seed: 11,
        mix: "churn".parse().expect("churn preset"),
        // Aim the hot edits at shard 0 of the pre-reshard topology —
        // the imbalance a shard split exists to fix.
        skew: be2d_workload::Skew::with_stride(0.8, 4).expect("stride skew"),
        reshard_to: 8,
        reshard_after: 300,
        reshard_batch: 16,
        ..LoadgenConfig::new(addr)
    };
    let report = be2d_server::loadgen::run(&config).expect("loadgen run");

    assert_eq!(
        report.errors,
        0,
        "no request (and the reshard) may fail: {}",
        report.summary()
    );
    assert_eq!(report.reshard_to, 8);
    assert!(
        report.reshard_duration_ms > 0.0,
        "the migration actually ran and finished: {}",
        report.summary()
    );
    assert!(report.summary().contains("live reshard to 8 shards"));
    let json = report.to_json();
    assert!(json.contains("\"reshard_to\":8"), "{json}");

    handle.shutdown();
    runner
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// Open-loop pacing: a modest fixed rate finishes in roughly the
/// expected wall-clock time (not instantly, not hung).
#[test]
fn loadgen_open_loop_paces_requests() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let config = LoadgenConfig {
        requests: 100,
        connections: 2,
        rate: 400.0,
        prefill: 8,
        ..LoadgenConfig::new(addr)
    };
    let report = be2d_server::loadgen::run(&config).expect("loadgen run");
    assert_eq!(report.errors, 0, "{}", report.summary());
    // 100 requests at 400 req/s = 0.25s minimum for the last send slot.
    assert!(
        report.elapsed_s >= 0.2,
        "open loop finished too fast: {:.3}s",
        report.elapsed_s
    );

    handle.shutdown();
    runner
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}
