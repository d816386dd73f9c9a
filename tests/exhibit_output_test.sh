#!/usr/bin/env bash
#===- tests/exhibit_output_test.sh - Pin an exhibit's stdout -------------===#
#
# Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
# allocation / instruction scheduling framework.
#
# Runs one paper exhibit (bench/) or example binary in a scratch
# directory, with PIRA_BENCH_ITERS, PIRA_BENCH_SEED and PIRA_FAULT unset
# so that it runs its defaults, and compares its stdout byte for byte
# with a committed golden file. Files the binary writes in its working
# directory (BENCH_strategy_comparison.json carries wall times) are not
# compared.
#
# Usage: exhibit_output_test.sh /path/to/binary /path/to/golden.txt
#
#===----------------------------------------------------------------------===#

set -u

BIN=${1:?usage: exhibit_output_test.sh /path/to/binary /path/to/golden.txt}
GOLDEN=${2:?usage: exhibit_output_test.sh /path/to/binary /path/to/golden.txt}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

env -u PIRA_BENCH_ITERS -u PIRA_BENCH_SEED -u PIRA_FAULT "$BIN" > stdout.txt
got=$?
if [ "$got" -ne 0 ]; then
  echo "FAIL: $BIN exited $got" >&2
  exit 1
fi
if ! cmp -s stdout.txt "$GOLDEN"; then
  echo "FAIL: stdout of $BIN differs from $GOLDEN:" >&2
  diff "$GOLDEN" stdout.txt | head -40 >&2
  exit 1
fi
echo "ok: stdout of $(basename "$BIN") matches $(basename "$GOLDEN")"
