#!/usr/bin/env bash
# bench_pairs.sh — the paired measurement a performance claim rests on:
# the working tree against a parent commit, on one workload of the
# repository benchmark (BENCHMARK.json), in BENCH.md's table format.
#
# Extracts <parent-ref> into a temporary directory (git archive: the
# repository and its worktree list are not touched, and the working tree may
# be dirty), builds both runners once, and runs them alternately, each from
# its own working directory, flipping which side goes first every pair.
# Prints, per end-to-end metric: both medians with quartiles [q1–q3]
# (linear interpolation), the ratio change/parent, and the pairs the change
# won (the direction comes from BENCHMARK.json; ties count for neither);
# then every run. A run that is not correct:true with 0 failed ops, or a
# digest that differs between the sides, fails the script. A change that
# moves the digest on purpose names the digest it must produce in
# EXPECT_DIGEST=<hex>: then each side's runs must agree among themselves,
# the change side must print exactly that digest, and the parent's is
# recorded beside it.
#
# With PR=<n> the same numbers also go into BENCH_<n>.json at the repository
# root, the machine-readable record of a PR's claim: commit, parent, Go
# version and nproc once, then one line per (workload, seed) measured — this
# run replaces its own line and keeps the others — holding per metric both
# medians with quartiles, the ratio, the pairs won and every run in pair
# order, plus the digest (and parentDigest, under EXPECT_DIGEST) and the
# command that reproduces the line.
# TestBenchFilesRederive (go test .) re-derives every median from the runs.
#
# Usage: scripts/bench_pairs.sh <parent-ref> [workload] [pairs]
#        (workload default live-mutate, pairs default 10; SEED=n for -seed n;
#        PR=n to record into BENCH_n.json; EXPECT_DIGEST=<hex> for a
#        sanctioned digest move;
#        BENCH_ARGS="-scale smoke -seconds 1" tries the script out in a minute
#        — a claim is measured with the runner's defaults)
# One run takes ~25 s, so ten pairs of one workload take ~9 minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

ref="${1:?usage: scripts/bench_pairs.sh <parent-ref> [workload] [pairs]}"
workload="${2:-live-mutate}"
pairs="${3:-10}"
seed="${SEED:-1}"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/run_parent" "$tmp/run_new"
git archive "$ref" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bench_parent" ./benchmark)
go build -o "$tmp/bench_new" ./benchmark

for i in $(seq 1 "$pairs"); do
  order="parent new"
  if ((i % 2 == 0)); then order="new parent"; fi
  for side in $order; do
    out="$tmp/${side}_$i.out"
    (cd "$tmp/run_$side" && "$tmp/bench_$side" -workload "$workload" -seed "$seed" ${BENCH_ARGS:-}) >"$out"
    if ! tail -1 "$out" | grep -q '"correct":true.*"failed":0'; then
      echo "bench_pairs: $side run $i is not correct with 0 failed ops:" >&2
      tail -1 "$out" >&2
      exit 1
    fi
    echo "pair $i/$pairs $side: $(awk '$2 == "fronts_per_s" {print $3, $4}' "$out")" >&2
  done
done

digest_of() { cat "$@" | sed -n 's/^# .* digest=\([0-9a-f]*\).*/\1/p' | sort -u; }
digests="$(digest_of "$tmp"/*.out)"
extra="" expect=""
if [ -n "${EXPECT_DIGEST:-}" ]; then
  parent_digest="$(digest_of "$tmp"/parent_*.out)"
  digests="$(digest_of "$tmp"/new_*.out)"
  if [ "$(echo "$parent_digest" | wc -l)" -ne 1 ] || [ "$(echo "$digests" | wc -l)" -ne 1 ]; then
    echo "bench_pairs: the runs of one side disagree: parent" $parent_digest "/ change" $digests >&2
    exit 1
  fi
  if [ "$digests" != "$EXPECT_DIGEST" ]; then
    echo "bench_pairs: the change prints digest $digests, not EXPECT_DIGEST=$EXPECT_DIGEST" >&2
    exit 1
  fi
  extra=", \"parentDigest\": \"$parent_digest\"" expect="EXPECT_DIGEST=$EXPECT_DIGEST "
  echo "$workload, seed $seed, parent $(git rev-parse --short "$ref"), $pairs pairs, digest $parent_digest → $digests (expected)"
elif [ "$(echo "$digests" | wc -l)" -ne 1 ]; then
  echo "bench_pairs: digests differ between runs:" $digests >&2
  exit 1
else
  echo "$workload, seed $seed, parent $(git rev-parse --short "$ref"), $pairs pairs, digest $digests on both sides"
fi
echo
echo "| workload | metric | parent | change | ratio | pairs won |"
echo "|---|---|---|---|---|---|"

# Metric order, unit and direction from BENCHMARK.json's end_to_end list.
awk '/"end_to_end"/ {on = 1} /"per_layer"/ {on = 0}
     on && /"name"/ {gsub(/[",]/, "", $2); name = $2}
     on && /"unit"/ {gsub(/[",]/, "", $2); unit = $2}
     on && /"better"/ {gsub(/[",]/, "", $2); print name, $2, unit}' BENCHMARK.json >"$tmp/metrics"

for side in parent new; do
  for i in $(seq 1 "$pairs"); do
    awk -v side="$side" -v i="$i" -v w="$workload" '$1 == w && NF == 4 {print side, i, $2, $3}' "$tmp/${side}_$i.out"
  done
done | awk -v w="$workload" -v pairs="$pairs" -v metrics="$tmp/metrics" -v json="$tmp/json" \
  -v head="\"workload\": \"$workload\", \"seed\": $seed, \"pairs\": $pairs, \"digest\": \"$digests\"$extra, \"reproduce\": \"${PR:+PR=$PR }SEED=$seed ${expect}scripts/bench_pairs.sh $(git rev-parse --short "$ref") $workload $pairs\"" '
  function quantile(side, m, q,    n, j, k, tmpv, pos, lo) {
    n = 0
    for (j = 1; j <= pairs; j++) sorted[++n] = val[side, m, j]
    for (j = 2; j <= n; j++) { # insertion sort
      tmpv = sorted[j]
      for (k = j - 1; k >= 1 && sorted[k] > tmpv; k--) sorted[k + 1] = sorted[k]
      sorted[k + 1] = tmpv
    }
    pos = 1 + (n - 1) * q; lo = int(pos)
    if (lo >= n) return sorted[n]
    return sorted[lo] + (pos - lo) * (sorted[lo + 1] - sorted[lo])
  }
  function cell(side, m) {
    return sprintf("%.4g [%.4g–%.4g]", quantile(side, m, 0.5), quantile(side, m, 0.25), quantile(side, m, 0.75))
  }
  function jsonSide(side, m,    j, runs) {
    for (j = 1; j <= pairs; j++) runs = runs (j > 1 ? ", " : "") val[side, m, j]
    return sprintf("{\"median\": %.10g, \"q1\": %.10g, \"q3\": %.10g, \"runs\": [%s]}",
      quantile(side, m, 0.5), quantile(side, m, 0.25), quantile(side, m, 0.75), runs)
  }
  {val[$1, $3, $2] = $4}
  END {
    first = w
    while ((getline line <metrics) > 0) {
      split(line, f, " "); m = f[1]; higher = (f[2] == "higher")
      won = 0
      for (j = 1; j <= pairs; j++) {
        d = val["new", m, j] - val["parent", m, j]
        if ((higher && d > 0) || (!higher && d < 0)) won++
      }
      printf "| %s | `%s` | %s | %s | %.3f× | %d/%d |\n", first, m, cell("parent", m), cell("new", m),
        quantile("new", m, 0.5) / quantile("parent", m, 0.5), won, pairs
      first = ""
      order[++nm] = m
      row = row (nm > 1 ? ", " : "") sprintf("{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \"parent\": %s, \"change\": %s, \"ratio\": %.10g, \"pairs_won\": %d}",
        m, f[3], f[2], jsonSide("parent", m), jsonSide("new", m), quantile("new", m, 0.5) / quantile("parent", m, 0.5), won)
    }
    printf "    {%s, \"metrics\": [%s]}", head, row >json
    print ""
    print "Every run, in pair order (parent / change):"
    for (k = 1; k <= nm; k++) {
      m = order[k]; p = ""; c = ""
      for (j = 1; j <= pairs; j++) { p = p " " sprintf("%.4g", val["parent", m, j]); c = c " " sprintf("%.4g", val["new", m, j]) }
      printf "- `%s`:%s /%s\n", m, p, c
    }
  }'

# BENCH_<pr>.json: the header, every result line of another (workload, seed),
# then this run's, one object per line so that this merge stays a grep.
if [ -n "${PR:-}" ]; then
  out="BENCH_$PR.json"
  commit="$(git rev-parse --short HEAD)"
  if [ -n "$(git status --porcelain -- . ':!BENCH_*.json' ':!*.md')" ]; then commit="$commit+worktree"; fi
  {
    echo "{"
    echo "  \"pr\": $PR, \"commit\": \"$commit\", \"parent\": \"$(git rev-parse --short "$ref")\", \"go\": \"$(go env GOVERSION)\", \"nproc\": $(nproc),"
    echo "  \"results\": ["
    if [ -f "$out" ]; then
      grep '^    {"workload"' "$out" | grep -v "^    {\"workload\": \"$workload\", \"seed\": $seed," | sed 's/,$//' | sed 's/$/,/' || true
    fi
    cat "$tmp/json"
    echo
    echo "  ]"
    echo "}"
  } >"$tmp/bench.json"
  mv "$tmp/bench.json" "$out"
  echo
  echo "recorded in $out"
fi
