#!/usr/bin/env bash
# Prints the arithmetic every simplicity PR reports: lines of non-test Go
# (files not ending in _test.go) and, beside them, of test Go (_test.go) per
# internal/* package, under cmd/ and examples/, at the repository root, and
# in total — everything outside benchmark/, which is frozen and measured
# separately. Raw `wc -l` lines, comments and blanks included, so a
# before/after pair is comparable across PRs; the second column shows that
# a drop in the first is not code moved into tests.
#
# Usage: scripts/loc.sh [repo-root]   (default: the script's repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # count <find args...>: total lines of the files found
  find "$@" -print0 | xargs -0 -r cat | wc -l
}

code_total=0 test_total=0
row() { # row <name> <find path and depth args...>
  local name="$1" code tests
  shift
  code="$(count "$@" -name '*.go' ! -name '*_test.go')"
  tests="$(count "$@" -name '*_test.go')"
  printf '%-20s %7d %7d\n' "$name" "$code" "$tests"
  code_total=$((code_total + code)) test_total=$((test_total + tests))
}

printf '%-20s %7s %7s\n' "" "code" "tests"
for pkg in internal/*/; do
  row "${pkg%/}" "$pkg"
done
row "cmd" cmd
row "examples" examples
row "(root)" . -maxdepth 1
printf '%-20s %7d %7d\n' "total" "$code_total" "$test_total"
