#!/usr/bin/env bash
# Appends one compact summary row per BENCH_*.json report to
# bench/history.jsonl — a durable perf trail CI uploads as an artifact
# so trends survive individual runs. Each line is a self-contained JSON
# object tagged with the report kind, the commit, and a UTC timestamp.
# Missing reports are skipped, never fatal.
#
#   scripts/bench_history.sh [--out bench/history.jsonl] [BENCH_*.json ...]
set -euo pipefail

OUT="bench/history.jsonl"
REPORTS=()
while [ $# -gt 0 ]; do
    case "$1" in
        --out)
            OUT="${2:?--out needs a value}"
            shift 2
            ;;
        *)
            REPORTS+=("$1")
            shift
            ;;
    esac
done
if [ ${#REPORTS[@]} -eq 0 ]; then
    REPORTS=(BENCH_server.json BENCH_shard_scaling.json \
             BENCH_replica_scaling.json BENCH_reshard.json \
             BENCH_oplog.json BENCH_twostage.json BENCH_planner.json)
fi

COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
mkdir -p "$(dirname "$OUT")"

python3 - "$OUT" "$COMMIT" "${REPORTS[@]}" <<'PY'
import datetime
import json
import os
import sys

out_path, commit = sys.argv[1:3]
reports = sys.argv[3:]
stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
    "%Y-%m-%dT%H:%M:%SZ")


def summarise(report):
    """One flat row of the headline numbers for each report shape."""
    if "throughput_rps" in report:  # loadgen (BENCH_server.json)
        row = {
            "kind": "server",
            "requests": report["requests"],
            "errors": report["errors"],
            "throughput_rps": round(report["throughput_rps"], 1),
            "p50_ms": round(report["latency_ms"]["p50_ms"], 3),
            "p99_ms": round(report["latency_ms"]["p99_ms"], 3),
            "mix": report["mix"],
        }
        delta = report.get("metrics_delta")
        if delta:
            row["server_5xx"] = delta["responses_5xx"]
            row["bound_pruned"] = delta["bound_pruned"]
            row["planner_skipped"] = delta["planner_skipped"]
        return row
    if "speedup_4_vs_1" in report:
        return {
            "kind": "shard_scaling",
            "speedup_4_vs_1": round(report["speedup_4_vs_1"], 3),
            "shards": [p["shards"] for p in report["sweep"]],
            "throughput_qps": [round(p["throughput_qps"], 1)
                               for p in report["sweep"]],
        }
    if "speedup_3_vs_1" in report:
        return {
            "kind": "replica_scaling",
            "speedup_3_vs_1": round(report["speedup_3_vs_1"], 3),
        }
    if report.get("benchmark") == "planner":
        return {
            "kind": "planner",
            "v2_p95_us": round(report["v2"]["p95_us"], 1),
            "v2_scored": report["v2"]["scored"],
        }
    if "catchup" in report:
        return {
            "kind": "oplog",
            "replay_speedup": round(report["catchup"]["replay_speedup"], 2),
        }
    if "frontier" in report:
        last = report["sweep"][-1]
        return {
            "kind": "twostage",
            "images": last["images"],
            "scored_fraction": round(last["scored_fraction"], 3),
            "speedup_p50": round(last["speedup_p50"], 3),
        }
    if "from" in report and "to" in report:
        best = min(report["sweep"], key=lambda p: p["reshard_ms"])
        return {
            "kind": "reshard",
            "to_shards": report["to"],
            "best_reshard_ms": round(best["reshard_ms"], 1),
            "p95_during_ms": round(best["during"]["p95_ms"], 3),
        }
    return {"kind": "unknown"}


rows = 0
with open(out_path, "a") as out:
    for path in reports:
        if not os.path.exists(path):
            continue
        with open(path) as f:
            report = json.load(f)
        row = {"ts": stamp, "commit": commit, "source": os.path.basename(path)}
        row.update(summarise(report))
        out.write(json.dumps(row, sort_keys=True) + "\n")
        rows += 1
print(f"bench_history: appended {rows} row(s) to {out_path}")
PY
