#!/usr/bin/env bash
# Prints the arithmetic every simplicity PR reports: lines of non-test Go
# (files not ending in _test.go) per internal/* package, under cmd/ and
# examples/, at the repository root, and in total — everything outside
# benchmark/, which is frozen and measured separately. Raw `wc -l` lines,
# comments and blanks included, so a before/after pair is comparable
# across PRs.
#
# Usage: scripts/loc.sh [repo-root]   (default: the script's repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # count <find args...>: total lines of the non-test Go files found
  find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 -r cat | wc -l
}

total=0
row() { printf '%-20s %7d\n' "$1" "$2"; total=$((total + $2)); }

for pkg in internal/*/; do
  row "${pkg%/}" "$(count "$pkg")"
done
row "cmd" "$(count cmd)"
row "examples" "$(count examples)"
row "(root)" "$(count . -maxdepth 1)"
printf '%-20s %7d\n' "total" "$total"
