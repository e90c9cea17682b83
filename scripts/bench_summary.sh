#!/usr/bin/env bash
# Renders the BENCH_*.json reports as a GitHub-flavoured markdown
# summary (CI appends the output to $GITHUB_STEP_SUMMARY so every PR
# shows its perf trajectory). Missing files are noted, not fatal.
#
#   scripts/bench_summary.sh [BENCH_server.json] [BENCH_shard_scaling.json] [BENCH_replica_scaling.json] [BENCH_reshard.json] [BENCH_oplog.json] [BENCH_twostage.json] [BENCH_planner.json]
set -euo pipefail

SERVER="${1:-BENCH_server.json}"
SCALING="${2:-BENCH_shard_scaling.json}"
REPLICAS="${3:-BENCH_replica_scaling.json}"
RESHARD="${4:-BENCH_reshard.json}"
OPLOG="${5:-BENCH_oplog.json}"
TWOSTAGE="${6:-BENCH_twostage.json}"
PLANNER="${7:-BENCH_planner.json}"

python3 - "$SERVER" "$SCALING" "$REPLICAS" "$RESHARD" "$OPLOG" "$TWOSTAGE" "$PLANNER" <<'PY'
import json
import os
import sys

(server_path, scaling_path, replica_path, reshard_path, oplog_path,
 twostage_path, planner_path) = sys.argv[1:8]

print("## Perf trajectory")
print()

if os.path.exists(server_path):
    with open(server_path) as f:
        report = json.load(f)
    lat = report["latency_ms"]
    print("### Server loadgen")
    print()
    print("| requests | errors | throughput | p50 | p95 | p99 | mix |")
    print("|---:|---:|---:|---:|---:|---:|:---|")
    print(f"| {report['requests']} | {report['errors']} "
          f"| {report['throughput_rps']:.0f} req/s "
          f"| {lat['p50_ms']:.2f} ms | {lat['p95_ms']:.2f} ms "
          f"| {lat['p99_ms']:.2f} ms | `{report['mix']}` |")
    print()
    delta = report.get("metrics_delta")
    if delta:
        print("Server counter movement over the run "
              "(`/v1/metrics` scraped at start and end):")
        print()
        print("| requests | 2xx | 4xx | 5xx | bound pruned | planner skips |")
        print("|---:|---:|---:|---:|---:|---:|")
        print(f"| {delta['requests']} | {delta['responses_2xx']} "
              f"| {delta['responses_4xx']} | {delta['responses_5xx']} "
              f"| {delta['bound_pruned']} | {delta['planner_skipped']} |")
        print()
    trace = report.get("trace")
    if trace:
        print(f"Server-side stage timings over {trace['sampled']} traced "
              "searches (means; scatter = parallel fan-out wall-clock):")
        print()
        print("| planner | scatter | gather | total mean | total max |")
        print("|---:|---:|---:|---:|---:|")
        print(f"| {trace['planner_mean_ms']:.3f} ms "
              f"| {trace['scatter_mean_ms']:.3f} ms "
              f"| {trace['gather_mean_ms']:.3f} ms "
              f"| {trace['total_mean_ms']:.3f} ms "
              f"| {trace['total_max_ms']:.3f} ms |")
        print()
else:
    print(f"_no {server_path} found_")
    print()

if os.path.exists(scaling_path):
    with open(scaling_path) as f:
        scaling = json.load(f)
    print(f"### Shard scaling "
          f"({scaling['images']} images, {scaling['readers']} readers + "
          f"{scaling['writers']} writers, {scaling['host_threads']} host threads)")
    print()
    print("| shards | searches | throughput | p50 | p95 | p99 |")
    print("|---:|---:|---:|---:|---:|---:|")
    for point in scaling["sweep"]:
        print(f"| {point['shards']} | {point['searches']} "
              f"| {point['throughput_qps']:.1f} q/s "
              f"| {point['p50_ms']:.2f} ms | {point['p95_ms']:.2f} ms "
              f"| {point['p99_ms']:.2f} ms |")
    print()
    print(f"**4-shard vs 1-shard query throughput: "
          f"{scaling['speedup_4_vs_1']:.2f}×**"
          + (" _(single-core host — scatter-gather cannot scale here)_"
             if scaling.get("host_threads", 0) == 1 else ""))
    print()
else:
    print(f"_no {scaling_path} found_")
    print()

if os.path.exists(replica_path):
    with open(replica_path) as f:
        replica = json.load(f)
    print(f"### Replica scaling "
          f"({replica['images']} images over {replica['shards']} shards, "
          f"{replica['readers']} readers + {replica['writers']} writers, "
          f"{replica['host_threads']} host threads)")
    print()
    print("| replicas | mode | searches | throughput | p50 | p95 | p99 | writes/s |")
    print("|---:|:---|---:|---:|---:|---:|---:|---:|")
    for point in replica["sweep"]:
        writes_per_s = point.get("writes_per_s")
        writes = (f"{writes_per_s:.0f}" if writes_per_s is not None
                  else str(point["writes"]))
        print(f"| {point['replicas']} | {point.get('mode', 'sync')} "
              f"| {point['searches']} "
              f"| {point['throughput_qps']:.1f} q/s "
              f"| {point['p50_ms']:.2f} ms | {point['p95_ms']:.2f} ms "
              f"| {point['p99_ms']:.2f} ms | {writes} |")
    print()
    print(f"**3-replica vs 1-replica query throughput (sync): "
          f"{replica['speedup_3_vs_1']:.2f}×**"
          + (" _(single-core host — replica fan-out cannot scale here)_"
             if replica.get("host_threads", 0) == 1 else ""))
    if "async_write_speedup_vs_sync" in replica:
        print()
        print(f"**R=3 write throughput vs sync: "
              f"quorum {replica['quorum_write_speedup_vs_sync']:.2f}×, "
              f"async {replica['async_write_speedup_vs_sync']:.2f}×**")
    print()
else:
    print(f"_no {replica_path} found_")
    print()

if os.path.exists(reshard_path):
    with open(reshard_path) as f:
        reshard = json.load(f)
    print(f"### Online reshard {reshard['from']} → {reshard['to']} shards "
          f"({reshard['images']} images × {reshard['replicas']} replicas, "
          f"{reshard['readers']} readers, {reshard['host_threads']} host threads)")
    print()
    print("| batch | migration | moved | batches "
          "| p95 before | p95 during | p95 after | p99 during |")
    print("|---:|---:|---:|---:|---:|---:|---:|---:|")
    for point in reshard["sweep"]:
        print(f"| {point['batch']} | {point['reshard_ms']:.1f} ms "
              f"| {point['moved']} | {point['batches']} "
              f"| {point['before']['p95_ms']:.2f} ms "
              f"| {point['during']['p95_ms']:.2f} ms "
              f"| {point['after']['p95_ms']:.2f} ms "
              f"| {point['during']['p99_ms']:.2f} ms |")
    print()
    print("Latency *during* spans the whole live migration window; "
          "bigger batches finish faster but pause longer per step.")
    print()
else:
    print(f"_no {reshard_path} found_")
    print()

if os.path.exists(oplog_path):
    with open(oplog_path) as f:
        oplog = json.load(f)
    catchup = oplog["catchup"]
    print(f"### Op log ({oplog['images']} images, "
          f"{oplog['gap']}-write catch-up gap, "
          f"{oplog['writes']} writes per measurement)")
    print()
    print(f"Replica catch-up: replay {catchup['replay_ms']:.2f} ms vs "
          f"clone {catchup['clone_ms']:.2f} ms "
          f"(**{catchup['replay_speedup']:.1f}× faster by replay**)")
    print()
    print("| WAL | inserts/s |")
    print("|:---|---:|")
    for point in oplog["wal"]:
        print(f"| {point['config']} | {point['inserts_per_s']:.0f} |")
    print()
    print("| ack mode (R=3) | p50 | p95 |")
    print("|:---|---:|---:|")
    for point in oplog["ack"]:
        print(f"| {point['mode']} | {point['p50_us']:.1f} µs "
              f"| {point['p95_us']:.1f} µs |")
    print()
else:
    print(f"_no {oplog_path} found_")
    print()

if os.path.exists(twostage_path):
    with open(twostage_path) as f:
        twostage = json.load(f)
    print(f"### Two-stage retrieval "
          f"(frontier {twostage['frontier']}, top-{twostage['top_k']}, "
          f"{twostage['queries']} queries per size; rankings asserted "
          "bit-identical to exhaustive)")
    print()
    print("| images | candidates | exactly scored | scored frac "
          "| exhaustive p50 | staged p50 | speedup |")
    print("|---:|---:|---:|---:|---:|---:|---:|")
    for point in twostage["sweep"]:
        print(f"| {point['images']} | {point['candidates']} "
              f"| {point['scored']} | {point['scored_fraction']:.2f} "
              f"| {point['exhaustive_p50_us'] / 1000:.2f} ms "
              f"| {point['staged_p50_us'] / 1000:.2f} ms "
              f"| {point['speedup_p50']:.2f}× |")
    print()
else:
    print(f"_no {twostage_path} found_")
    print()

if os.path.exists(planner_path):
    with open(planner_path) as f:
        planner = json.load(f)
    print(f"### Planner under hot-shard skew "
          f"({planner['images']} images over {planner['shards']} shards "
          f"× {planner['replicas']} replicas, top-{planner['top_k']}, "
          f"frontier {planner['frontier']}; rankings asserted "
          "bit-identical to a single ImageDatabase)")
    print()
    print("| p50 | p95 | concurrent p95 | exactly scored "
          "| ordered scatters | dense scans |")
    print("|---:|---:|---:|---:|---:|---:|")
    run = planner["v2"]
    print(f"| {run['p50_us'] / 1000:.2f} ms "
          f"| {run['p95_us'] / 1000:.2f} ms "
          f"| {run['concurrent_p95_us'] / 1000:.2f} ms "
          f"| {run['scored']} | {run['ordered_scatters']} "
          f"| {run['dense_scans']} |")
else:
    print(f"_no {planner_path} found_")
PY
