#!/usr/bin/env bash
# Snapshot compatibility check against a real fairsqgd -mmap-graphs
# process: a current snapshot in the directory is restored memory-mapped
# and answers a real job, while a snapshot of another format version
# beside it is refused — skipped, counted as a fallback, not registered
# and left on disk for the next registration of its name to overwrite.
# Needs only bash, curl and go.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
pid=""
cleanup() {
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
        kill -9 "$pid" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

say() { echo "compat: $*"; }
fail() { say "FAIL: $*"; [[ -f "$work/server.log" ]] && sed 's/^/  server: /' "$work/server.log"; exit 1; }

say "building fairsqgd and graphgen"
(cd "$root" && go build -o "$work/fairsqgd" ./cmd/fairsqgd && go build -o "$work/graphgen" ./cmd/graphgen)

mkdir -p "$work/snaps"
say "writing a snapshot and a copy with a stale version field"
"$work/graphgen" -dataset lki -nodes 2000 -seed 7 -format snapshot \
    -out "$work/snaps/lki.fsnap"
cp "$work/snaps/lki.fsnap" "$work/snaps/legacy.fsnap"
printf '\001\000\000\000' | dd of="$work/snaps/legacy.fsnap" bs=1 seek=8 conv=notrunc 2>/dev/null

say "starting fairsqgd -mmap-graphs on the snapshot dir"
"$work/fairsqgd" -addr 127.0.0.1:0 -workers 2 -queue 8 \
    -snapshot-dir "$work/snaps" -mmap-graphs >"$work/server.log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/.*listening on //p' "$work/server.log" | head -n1)"
    [[ -n "$addr" ]] && break
    kill -0 "$pid" 2>/dev/null || fail "server died during startup"
    sleep 0.1
done
[[ -n "$addr" ]] || fail "server never reported its address"
base="http://$addr"
say "server is at $base"

grep -q "restored 1 graph" "$work/server.log" || fail "expected exactly the current-version snapshot restored"

graphs="$(curl -fsS "$base/v1/graphs")"
echo "$graphs" | grep -q '"name": *"lki"' || fail "current-version graph missing from registry"
echo "$graphs" | grep -q '"name": *"legacy"' && fail "stale-version snapshot was registered"
[[ -f "$work/snaps/legacy.fsnap" ]] || fail "restore deleted the refused snapshot"

metrics="$(curl -fsS "$base/metrics")"
metric() { echo "$metrics" | grep -o "\"$1\": *[0-9]*" | head -n1 | grep -o '[0-9]*$'; }
fb="$(metric fallbacks)"; mml="$(metric mmapLoads)"; mb="$(metric mappedBytes)"
[[ -n "$fb" && "$fb" -ge 1 ]] || fail "fallbacks = '$fb', want >= 1 (refused snapshot not counted)"
[[ -n "$mml" && "$mml" -ge 1 ]] || fail "mmapLoads = '$mml', want >= 1 (snapshot not mapped)"
[[ -n "$mb" && "$mb" -gt 0 ]] || fail "mappedBytes = '$mb', want > 0"
say "metrics: mmapLoads=$mml fallbacks=$fb mappedBytes=$mb"

say "running the example job against the mapped graph"
id="$(curl -fsS -X POST --data-binary @"$root/examples/server/job.json" "$base/v1/jobs" \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
[[ -n "$id" ]] || fail "no job id in submit response"
state=""
for _ in $(seq 1 300); do
    state="$(curl -fsS "$base/v1/jobs/$id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')"
    case "$state" in
        done) break ;;
        failed|cancelled) fail "job ended $state: $(curl -fsS "$base/v1/jobs/$id")" ;;
    esac
    sleep 0.2
done
[[ "$state" == "done" ]] || fail "job stuck in state '$state'"
queries="$(curl -fsS "$base/v1/jobs/$id/result" | grep -c '"text"')" || true
[[ "$queries" -gt 0 ]] || fail "mapped graph produced no queries"
say "mapped graph answered the job with $queries queries"

say "stopping with SIGTERM (mapped graphs must unmap cleanly)"
kill -TERM "$pid"
for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$pid" 2>/dev/null && fail "server did not exit after SIGTERM"
wait "$pid" && rc=0 || rc=$?
[[ "$rc" -eq 0 ]] || fail "server exited with status $rc"
grep -q "bye" "$work/server.log" || fail "clean-shutdown log line missing"
pid=""
say "PASS"
