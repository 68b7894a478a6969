#!/usr/bin/env bash
# bench_order_guard.sh — guard the dynamic-order matcher path against
# performance regressions relative to the static-order reference.
#
# Static order is a library field (match.Settings.Order = OrderStatic), not
# a CLI flag or server option: BENCH.md "Rebuilt search core" settled that
# dynamic stays within 5-10% of it on this uniform fixture, its worst case,
# and this guard keeps it there.
#
# Runs BenchmarkEngineWorkload/sequential under both orders in several
# paired invocations (dynamic and static share each invocation's noise
# window) and compares per-pair ns/op ratios. The MINIMUM ratio across pairs
# is the least-noise estimate: transient load inflates individual ratios,
# but a genuine regression of the dynamic path shows up in every pair, so
# min-ratio still catches it. Fails when even the best pair has dynamic
# more than MAX_RATIO slower than static.
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS="${PAIRS:-4}"
BENCHTIME="${BENCHTIME:-10x}"
MAX_RATIO="${MAX_RATIO:-1.10}"

ratios=()
for i in $(seq 1 "$PAIRS"); do
  out="$(go test -run '^$' -bench 'BenchmarkEngineWorkload/sequential' \
    -benchtime "$BENCHTIME" -count 1 ./internal/match/)"
  dyn="$(echo "$out" | awk '$1 ~ /^BenchmarkEngineWorkload\/sequential(-[0-9]+)?$/ {print $3}')"
  sta="$(echo "$out" | awk '$1 ~ /^BenchmarkEngineWorkload\/sequential\/order=static/ {print $3}')"
  if [ -z "$dyn" ] || [ -z "$sta" ]; then
    echo "bench_order_guard: benchmark output missing a variant:" >&2
    echo "$out" >&2
    exit 1
  fi
  ratio="$(awk -v d="$dyn" -v s="$sta" 'BEGIN {printf "%.4f", d / s}')"
  echo "pair $i: dynamic ${dyn} ns/op, static ${sta} ns/op, ratio ${ratio}"
  ratios+=("$ratio")
done

min="$(printf '%s\n' "${ratios[@]}" | sort -n | head -1)"
echo "min dynamic/static ratio over ${PAIRS} pairs: ${min} (limit ${MAX_RATIO})"
if awk -v m="$min" -v lim="$MAX_RATIO" 'BEGIN {exit !(m > lim)}'; then
  echo "bench_order_guard: dynamic order is >$(awk -v lim="$MAX_RATIO" 'BEGIN {printf "%.0f%%", (lim - 1) * 100}') slower than static in every pair — the default path regressed" >&2
  exit 1
fi
echo "bench_order_guard: OK"
