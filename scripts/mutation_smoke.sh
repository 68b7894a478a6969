#!/usr/bin/env bash
# End-to-end smoke test for live graphs: register a graph, have a batch
# refused (503) while a directory blocks the delta log, mutate it over
# HTTP, run a job, kill the daemon uncleanly (plus a torn delta-log tail),
# restart on the same snapshot dir and assert the mutation survived the
# crash via WAL replay; then trigger a background checkpoint with
# -compact-after 1 and watch the snapshot epoch rotate on disk. Each batch
# and the checkpoint put the graph on a fresh match engine: /metrics
# cache.hits + cache.misses must not fall across them. Needs only bash, curl
# and go.
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

say() { echo "mutation-smoke: $*"; }
fail() { say "FAIL: $*"; ls -l "$work/snaps" 2>/dev/null || true; [[ -f "$work/server.log" ]] && sed 's/^/  server: /' "$work/server.log"; exit 1; }

start_server() { # args: logfile, extra flags...
    local logf="$1"; shift
    "$work/fairsqgd" -addr 127.0.0.1:0 -workers 2 -queue 8 -snapshot-dir "$work/snaps" "$@" >"$logf" 2>&1 &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/.*listening on //p' "$logf" | head -n1)"
        [[ -n "$addr" ]] && break
        kill -0 "$pid" 2>/dev/null || { cp "$logf" "$work/server.log"; fail "server died during startup"; }
        sleep 0.1
    done
    [[ -n "$addr" ]] || fail "server never reported its address"
    base="http://$addr"
}

run_job() { # expects $base; uses the example job spec
    local id state
    id="$(curl -fsS -X POST --data-binary @"$root/examples/server/job.json" "$base/v1/jobs" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
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
}

lookups() { # /metrics cache.hits + cache.misses (the top-level section)
    curl -fsS "$base/metrics" | sed -n '/^  "cache": {/,/^  }/s/.*"\(hits\|misses\)": *\([0-9]*\).*/\2/p' |
        { read -r h; read -r m; echo $((h + m)); }
}

say "building fairsqgd and graphgen"
(cd "$root" && go build -o "$work/fairsqgd" ./cmd/fairsqgd && go build -o "$work/graphgen" ./cmd/graphgen)

say "generating a small lki graph"
"$work/graphgen" -dataset lki -nodes 2000 -seed 7 -out "$work/lki.tsv"

say "starting fairsqgd"
start_server "$work/server.log"

curl -fsS -X PUT --data-binary @"$work/lki.tsv" "$base/v1/graphs/lki?format=tsv" >/dev/null || fail "graph upload"

say "refusing a batch the delta log cannot take"
mkdir "$work/snaps/lki.fdelta" # a directory where the log would be created
code="$(curl -sS -o "$work/refused.json" -w '%{http_code}' -X POST --data-binary '[{"op":"removeNode","node":5}]' "$base/v1/graphs/lki/mutate")"
[[ "$code" == 503 ]] || fail "mutate with an unopenable log answered $code, want 503: $(cat "$work/refused.json")"
grep -q 'lki.fdelta' "$work/refused.json" || fail "503 body does not name the log: $(cat "$work/refused.json")"
curl -fsS "$base/v1/graphs/lki" | grep -q '"version": *1' || fail "refused batch advanced the graph version"
curl -fsS "$base/metrics" | grep -q '"appendFails": *1' || fail "refused batch not counted in storage.wal.appendFails"
rmdir "$work/snaps/lki.fdelta"

say "running a job on the loaded graph"
run_job
before="$(lookups)"
[[ "$before" -gt 0 ]] || fail "a job left /metrics cache.hits + cache.misses at $before"

say "mutating over HTTP"
res="$(curl -fsS -X POST --data-binary '[{"op":"removeNode","node":0},{"op":"removeNode","node":1}]' "$base/v1/graphs/lki/mutate")"
echo "$res" | grep -q '"version": *2' || fail "mutate did not report version 2: $res"
echo "$res" | grep -q '"nodesRemoved": *2' || fail "mutate did not remove 2 nodes: $res"
[[ -f "$work/snaps/lki.fdelta" ]] || fail "delta log not created beside the snapshot"
curl -fsS -X POST --data-binary '[{"op":"removeNode","node":999999}]' "$base/v1/graphs/lki/mutate" >/dev/null 2>&1 && fail "invalid batch accepted"
after="$(lookups)"
[[ "$after" -ge "$before" ]] || fail "cache.hits + cache.misses fell across the batch: $before -> $after"

say "running a job on the mutated graph"
run_job

say "killing the daemon uncleanly and tearing the log tail"
kill -9 "$pid"; wait "$pid" 2>/dev/null || true; pid=""
printf 'GARBAGE!' >>"$work/snaps/lki.fdelta"

say "restarting on the same snapshot dir with -compact-after 1"
start_server "$work/server2.log" -compact-after 1
grep -q "restored 1 graph" "$work/server2.log" || { cp "$work/server2.log" "$work/server.log"; fail "restart did not restore from snapshots"; }
info="$(curl -fsS "$base/v1/graphs/lki")"
echo "$info" | grep -q '"version": *2' || fail "WAL replay lost the mutation: $info"
echo "$info" | grep -q '"replayedBatches": *1' || fail "replayedBatches missing: $info"
curl -fsS "$base/metrics" | grep -q '"truncations": *1' || fail "torn tail not counted in storage.wal.truncations"

say "running a job on the restored graph"
run_job
before="$(lookups)"

say "mutating past the compaction threshold"
curl -fsS -X POST --data-binary '[{"op":"removeNode","node":2}]' "$base/v1/graphs/lki/mutate" >/dev/null || fail "post-restore mutate"
rotated=""
for _ in $(seq 1 100); do
    if ls "$work/snaps"/lki@*.fsnap >/dev/null 2>&1 && [[ ! -f "$work/snaps/lki.fsnap" ]]; then
        rotated=yes; break
    fi
    sleep 0.1
done
[[ -n "$rotated" ]] || fail "background checkpoint never rotated the snapshot epoch"
after="$(lookups)"
[[ "$after" -ge "$before" ]] || fail "cache.hits + cache.misses fell across the batch and its compaction: $before -> $after"
say "snapshot epoch rotated: $(ls "$work/snaps")"

say "stopping with SIGTERM"
kill -TERM "$pid"
for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$pid" 2>/dev/null && fail "server did not exit after SIGTERM"
pid=""
say "PASS"
