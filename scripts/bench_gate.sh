#!/usr/bin/env bash
# Perf regression gate: compares a fresh bench report against the
# committed baseline and fails when the measured build got meaningfully
# slower.
#
#   scripts/bench_gate.sh BENCH_server.json bench/baseline.json
#   scripts/bench_gate.sh BENCH_twostage.json bench/baseline_twostage.json
#   scripts/bench_gate.sh BENCH_oplog.json bench/baseline_oplog.json
#   scripts/bench_gate.sh BENCH_planner.json bench/baseline_planner.json
#
# The report schema is picked from the fresh file's "benchmark" field
# (absent = the server loadgen report). Each schema contributes
# higher-is-better ("floor") and lower-is-better ("ceiling") metrics;
# thresholds are deliberately generous to tolerate shared-runner noise:
#   - floor metrics may drop at most 25% below the baseline
#   - ceiling metrics may rise at most 50% above the baseline
#
# Re-baselining: each committed bench/baseline*.json is a conservative
# floor (seeded well below a dev-box run so a cold CI runner passes).
# After a deliberate perf change, download the matching BENCH artifact
# from a green `bench-report` CI run on main and commit it:
#
#   cp BENCH_server.json bench/baseline.json   # then commit the change
#
set -euo pipefail

FRESH="${1:?usage: bench_gate.sh FRESH.json BASELINE.json}"
BASELINE="${2:?usage: bench_gate.sh FRESH.json BASELINE.json}"
MAX_THROUGHPUT_DROP="${MAX_THROUGHPUT_DROP:-0.25}"
MAX_P95_RISE="${MAX_P95_RISE:-0.50}"

# Newly added bench files have no committed baseline yet: skip the gate
# with a notice instead of failing, so adding a benchmark never blocks
# the PR that introduces it. (Commit a baseline later to start gating.)
# A missing FRESH report stays a hard failure: a gated benchmark that
# produced no output must never pass silently.
if [ ! -f "$BASELINE" ]; then
    echo "::notice::bench gate: no baseline at $BASELINE for $FRESH — skipping (commit one to start gating)"
    exit 0
fi
if [ ! -f "$FRESH" ]; then
    echo "::error::bench gate: fresh report $FRESH is missing (baseline $BASELINE exists, so this benchmark is gated)"
    exit 1
fi

python3 - "$FRESH" "$BASELINE" "$MAX_THROUGHPUT_DROP" "$MAX_P95_RISE" <<'PY'
import json
import sys

fresh_path, base_path, max_drop, max_rise = sys.argv[1:5]
max_drop, max_rise = float(max_drop), float(max_rise)

with open(fresh_path) as f:
    fresh = json.load(f)
with open(base_path) as f:
    base = json.load(f)

schema = fresh.get("benchmark", "server")
if schema != base.get("benchmark", "server"):
    print(f"::error::bench gate: fresh report is {schema!r} but baseline "
          f"is {base.get('benchmark', 'server')!r}")
    sys.exit(1)


def metrics(report):
    """(name, kind, value) triples for the report's schema.

    kind "floor" = higher is better (gated at baseline * (1 - drop)),
    kind "ceiling" = lower is better (gated at baseline * (1 + rise)).
    """
    if schema == "server":
        return [
            ("throughput", "floor", report["throughput_rps"], "req/s"),
            ("p95 latency", "ceiling", report["latency_ms"]["p95_ms"], "ms"),
        ]
    if schema == "twostage":
        last = report["sweep"][-1]
        return [
            ("staged speedup (largest corpus)", "floor",
             last["speedup_p50"], "x"),
            ("staged p95 (largest corpus)", "ceiling",
             last["staged_p95_us"], "us"),
        ]
    if schema == "oplog":
        sync = next(p for p in report["ack"] if p["mode"] == "sync")
        return [
            ("catch-up replay speedup", "floor",
             report["catchup"]["replay_speedup"], "x"),
            ("sync ack p95", "ceiling", sync["p95_us"], "us"),
        ]
    if schema == "planner":
        return [
            ("planner p95 latency", "ceiling", report["v2"]["p95_us"], "us"),
        ]
    print(f"::error::bench gate: unknown benchmark schema {schema!r}")
    sys.exit(1)


failures = []
for (name, kind, fresh_value, unit), (_, _, base_value, _) in zip(
        metrics(fresh), metrics(base)):
    if kind == "floor":
        limit = base_value * (1.0 - max_drop)
        print(f"{name}: fresh {fresh_value:.2f} {unit} vs baseline "
              f"{base_value:.2f} (floor {limit:.2f}, max drop {max_drop:.0%})")
        if fresh_value < limit:
            failures.append(
                f"{name} regressed: {fresh_value:.2f} {unit} is more than "
                f"{max_drop:.0%} below the baseline {base_value:.2f} {unit}")
    else:
        limit = base_value * (1.0 + max_rise)
        print(f"{name}: fresh {fresh_value:.2f} {unit} vs baseline "
              f"{base_value:.2f} (ceiling {limit:.2f}, max rise {max_rise:.0%})")
        if fresh_value > limit:
            failures.append(
                f"{name} regressed: {fresh_value:.2f} {unit} is more than "
                f"{max_rise:.0%} above the baseline {base_value:.2f} {unit}")
if fresh.get("errors", 0) > 0:
    failures.append(f"loadgen reported {fresh['errors']} failed requests")

if failures:
    for failure in failures:
        print(f"::error::bench gate: {failure}")
    print("bench gate FAILED (see scripts/bench_gate.sh for how to "
          "re-baseline after a deliberate change)")
    sys.exit(1)
print("bench gate passed")
PY
