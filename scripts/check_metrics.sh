#!/usr/bin/env bash
# Verifies the metric table in docs/OPERATIONS.md matches what the
# server exposes: boots a release be2d-server on a free local port,
# scrapes /v1/metrics, folds histogram series (_bucket/_sum/_count) into
# their family, and requires the emitted family set to equal the set of
# be2d_* names the document mentions, in both directions. CI runs this
# in the docs step; a metric added, renamed or removed without its
# table row fails the build.
#
#   scripts/check_metrics.sh
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

cargo build --release --offline --quiet -p be2d-server --bin be2d-server

work=$(mktemp -d)
server_pid=""
cleanup() {
    if [ -n "$server_pid" ]; then
        kill "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

./target/release/be2d-server --addr 127.0.0.1:0 --threads 2 > "$work/server.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$work/server.log" && break
    sleep 0.1
done
addr=$(sed -n 's/^be2d-server listening on //p' "$work/server.log" | head -1)
if [ -z "$addr" ]; then
    cat "$work/server.log"
    echo "be2d-server never came up" >&2
    exit 1
fi

ADDR="$addr" python3 - <<'PY'
import os
import re
import sys
import urllib.request

addr = os.environ["ADDR"]
with urllib.request.urlopen(f"http://{addr}/v1/metrics", timeout=10) as response:
    text = response.read().decode("utf-8")

SUFFIX = re.compile(r"_(bucket|sum|count)$")
emitted = set()
for line in text.splitlines():
    if line.startswith("# TYPE "):
        emitted.add(line.split()[2])
    elif line and not line.startswith("#"):
        name = re.split(r"[{\s]", line, maxsplit=1)[0]
        emitted.add(SUFFIX.sub("", name))

with open("docs/OPERATIONS.md", encoding="utf-8") as f:
    documented = {SUFFIX.sub("", n) for n in re.findall(r"\bbe2d_[a-z0-9_]+", f.read())}

undocumented = sorted(emitted - documented)
stale = sorted(documented - emitted)
for name in undocumented:
    print(f"emitted but not in docs/OPERATIONS.md: {name}")
for name in stale:
    print(f"in docs/OPERATIONS.md but not emitted: {name}")
if undocumented or stale:
    sys.exit(1)
print(f"all {len(emitted)} emitted metric families are documented, and no others")
PY

python3 - "$addr" <<'PY'
import sys
import urllib.request

request = urllib.request.Request(f"http://{sys.argv[1]}/v1/admin/shutdown", method="POST", data=b"")
urllib.request.urlopen(request, timeout=10).read()
PY
wait "$server_pid"
server_pid=""
