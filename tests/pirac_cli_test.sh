#!/usr/bin/env bash
#===- tests/pirac_cli_test.sh - pirac exit-code taxonomy -----------------===#
#
# Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
# allocation / instruction scheduling framework.
#
# Pins the documented exit-code contract from the outside, through a
# real shell spawn of the installed binary:
#
#   0  every input compiled and verified clean
#   1  at least one input failed to compile or verify
#   2  usage error (bad flag or flag value)
#   3  internal error (a report that could not be written)
#
# Usage: pirac_cli_test.sh /path/to/pirac
#
#===----------------------------------------------------------------------===#

set -u

PIRAC=${1:?usage: pirac_cli_test.sh /path/to/pirac}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

FAILURES=0

# expect <wanted-exit> <label> -- cmd args...
expect() {
  local want=$1 label=$2
  shift 3
  "$@" > /dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $label: expected exit $want, got $got: $*" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: $label (exit $got)"
  fi
}

cat > good.pir <<'EOF'
func @good regs 8 {
  array a 4
block entry:
  %s0 = li 1
  %s1 = li 2
  %s2 = add %s0, %s1
  store a[0], %s2
  ret %s2
}
EOF

cat > bad.pir <<'EOF'
func @bad regs 8 {
block entry:
  %s0 = frobnicate 1
  ret %s0
}
EOF

# --- exit 0: clean compiles -------------------------------------------------
expect 0 "clean single function"        -- "$PIRAC" good.pir
expect 0 "clean batch"                  -- "$PIRAC" good.pir good.pir --jobs 2
expect 0 "--version"                    -- "$PIRAC" --version
expect 0 "stats to stdout"              -- "$PIRAC" good.pir --stats-out -
# A budget past the clock's range saturates to "never expires"; it must
# not overflow into a deadline that has already passed.
expect 0 "deadline at UINT64_MAX"       -- "$PIRAC" good.pir \
                                             --deadline-ms 18446744073709551615
expect 0 "empty generated tournament"   -- "$PIRAC" --tournament --corpus-count 0 \
                                             --stats-out t0.json
expect 1 "tournament all inputs bad"    -- "$PIRAC" --tournament bad.pir \
                                             --stats-out t1.json

# A store and a load of one array slot through an index register that is
# rewritten between them (a[3 + 1], then a[-3 + 7]) stay ordered by a
# memory edge with the store's latency, so every strategy compiles it
# with no fallback rung.
cat > redef.pir <<'EOF'
func @redef regs 8 {
  array a 16
block entry:
  %s1 = li 3
  %s2 = li 7
  store a[%s1 + 1], %s2
  %s1 = neg %s1
  %s4 = load a[%s1 + 7]
  %s5 = add %s4, %s2
  ret %s5
}
EOF
printf 'machine wide\nwidth 4\nregs 3\nunits fixed=2 float=1 mem=2 branch=1 move=2\nlatency store=3\n' \
  > wide.mach
for strategy in alloc-first sched-first goodman-hsu-ips combined; do
  expect 0 "redefined index, $strategy" -- "$PIRAC" redef.pir \
    --machine-file wide.mach --strategy "$strategy" --no-degrade
done

# Both empty-corpus tournaments must still emit a valid zero-row
# pira.tournament report — never fall back to a generated corpus.
for f in t0.json t1.json; do
  if grep -q '"schema": *"pira.tournament"' "$f" \
     && grep -q '"functions": *\[\]' "$f"; then
    echo "ok: $f is a zero-row tournament report"
  else
    echo "FAIL: $f missing schema or non-empty functions" >&2
    FAILURES=$((FAILURES + 1))
  fi
done

# A stdout sink must leave stdout machine-clean: exactly one parsable
# JSON document, no human chatter mixed in.
"$PIRAC" good.pir good.pir --stats-out - > stdout.json 2> /dev/null
if grep -q '"pira.stats"' stdout.json && ! grep -q 'batch of' stdout.json; then
  echo "ok: stdout stats are machine-clean"
else
  echo "FAIL: stdout stats mixed with human output" >&2
  FAILURES=$((FAILURES + 1))
fi

# The batch line counts the threads that ran, the caller included:
# three functions take at most three, however many --jobs allows.
for row in "256 3" "2 3" "1 1"; do
  read -r jobs want <<< "$row"
  out=$("$PIRAC" good.pir good.pir good.pir --jobs "$jobs" 2> /dev/null)
  if grep -q "), $want worker(s)\$" <<< "$out"; then
    echo "ok: 3 functions at --jobs $jobs print $want worker(s)"
  else
    echo "FAIL: 3 functions at --jobs $jobs: $(grep 'batch of' <<< "$out")" >&2
    FAILURES=$((FAILURES + 1))
  fi
done

# --- exit 1: compile/verify failures ----------------------------------------
expect 1 "unparsable input"             -- "$PIRAC" bad.pir
expect 1 "unreadable input path"        -- "$PIRAC" no-such-file.pir
expect 1 "mixed batch still reports 1"  -- "$PIRAC" good.pir bad.pir --jobs 2
expect 1 "budget rejection"             -- "$PIRAC" good.pir --max-instructions 1

# A deadline that expires, end to end: a loop of 300,000 iterations
# compiles clean in tens of milliseconds, and its measurement run
# (simulation plus reference interpretation) overruns a 1 ms budget.
cat > count.pir <<'EOF'
func @count regs 8 {
block entry:
  %s0 = li 0
  %s1 = li 300000
  %s2 = li 1
  br loop
block loop:
  %s0 = add %s0, %s2
  %s3 = cmplt %s0, %s1
  cbr %s3, loop, exit
block exit:
  ret %s0
}
EOF
expect 0 "counting loop, no deadline"   -- "$PIRAC" count.pir
out=$("$PIRAC" count.pir --deadline-ms 1 2>&1)
got=$?
if [ "$got" -eq 1 ] && grep -q "deadline exceeded" <<< "$out"; then
  echo "ok: counting loop, --deadline-ms 1 (exit 1, deadline exceeded)"
else
  echo "FAIL: counting loop, --deadline-ms 1: exit $got, output:" >&2
  echo "$out" >&2
  FAILURES=$((FAILURES + 1))
fi

# An integer literal past its field's range is a parse error that names
# its line: no abort from the lexer, no silent wrap.
cat > huge.pir <<'EOF'
func @huge regs 4 {
block entry:
  %s0 = li 99999999999999999999
  ret %s0
}
EOF
err=$("$PIRAC" huge.pir 2>&1 > /dev/null)
got=$?
if [ "$got" -eq 1 ] && printf '%s' "$err" | grep -q 'line 3' \
   && printf '%s' "$err" | grep -q 'out of range'; then
  echo "ok: out-of-range immediate (exit 1, line named)"
else
  echo "FAIL: out-of-range immediate: exit $got: $err" >&2
  FAILURES=$((FAILURES + 1))
fi

# --- SIGPIPE: a vanished stdout reader is a structured failure --------------
# With SIGPIPE ignored process-wide, a --stats-out - pipe whose reader
# quits early must surface as a report-write failure (exit 3), never as
# a signal death (exit 141). Enough inputs to overflow the pipe buffer
# make the EPIPE deterministic.
SINK_INPUTS=$(for _ in $(seq 1 200); do printf 'good.pir '; done)
# shellcheck disable=SC2086
"$PIRAC" $SINK_INPUTS --stats-out - 2> /dev/null | head -c 1 > /dev/null
got=${PIPESTATUS[0]}
if [ "$got" -eq 3 ]; then
  echo "ok: EPIPE on stdout report is exit 3"
else
  echo "FAIL: EPIPE on stdout report: expected exit 3, got $got" >&2
  FAILURES=$((FAILURES + 1))
fi

# --- exit 2: usage errors ---------------------------------------------------
expect 2 "unknown flag"                 -- "$PIRAC" --definitely-not-a-flag
expect 2 "unknown strategy"             -- "$PIRAC" good.pir --strategy bogus
expect 2 "missing flag value"           -- "$PIRAC" good.pir --regs
expect 2 "non-numeric flag value"       -- "$PIRAC" good.pir --regs banana
expect 2 "bad fault spec"               -- "$PIRAC" good.pir --fault-inject nope
# A fault count past 2^64 - 1 is refused, never wrapped (2^64 + 1 would
# read as a count of 1).
err=$("$PIRAC" good.pir --fault-inject alloc.pinter:18446744073709551617 \
      2>&1 > /dev/null)
got=$?
if [ "$got" -eq 2 ] && printf '%s' "$err" | grep -q 'bad fault count'; then
  echo "ok: fault count 2^64+1 (exit 2, bad fault count)"
else
  echo "FAIL: fault count 2^64+1: exit $got: $err" >&2
  FAILURES=$((FAILURES + 1))
fi
# The process-killing fault sites went with process isolation.
expect 2 "no crash.segv fault site"     -- "$PIRAC" good.pir \
                                             --fault-inject crash.segv:1
# Only one report may claim stdout; two "-" sinks would interleave.
expect 2 "two stdout report sinks"      -- "$PIRAC" good.pir \
                                             --stats-out - --trace-out -
# There is no compile daemon: its flags are unknown options, and "serve"
# is an ordinary input name.
expect 2 "no --client flag"             -- "$PIRAC" --client good.pir
expect 2 "no --cache-remote flag"       -- "$PIRAC" --cache-remote 7400 good.pir
expect 2 "no --daemon-stats flag"       -- "$PIRAC" --daemon-stats
expect 2 "no serve subcommand"          -- "$PIRAC" serve --socket d.sock
# Nor is there a process sandbox, a batch journal, a compilation cache,
# a metrics exporter or a progress line: their flags, and the worker
# mode, are unknown options too.
expect 2 "no --worker mode"             -- "$PIRAC" --worker
expect 2 "no --isolate flag"            -- "$PIRAC" good.pir good.pir --isolate
expect 2 "no --retries flag"            -- "$PIRAC" good.pir --retries 1
expect 2 "no --retry-backoff-ms flag"   -- "$PIRAC" good.pir --retry-backoff-ms 1
expect 2 "no --child-timeout-ms flag"   -- "$PIRAC" good.pir --child-timeout-ms 1
expect 2 "no --child-mem-mb flag"       -- "$PIRAC" good.pir --child-mem-mb 1
expect 2 "no --journal flag"            -- "$PIRAC" good.pir --journal j.jsonl
expect 2 "no --resume flag"             -- "$PIRAC" good.pir --resume
expect 2 "no --cache flag"              -- "$PIRAC" good.pir --cache on
expect 2 "no --cache-dir flag"          -- "$PIRAC" good.pir --cache-dir cdir
expect 2 "no --cache-max-mb flag"       -- "$PIRAC" good.pir --cache-max-mb 1
expect 2 "no --metrics-out flag"        -- "$PIRAC" good.pir --metrics-out m.prom
expect 2 "no --progress flag"           -- "$PIRAC" good.pir good.pir --progress

# --jobs above MaxJobs (256) is refused before anything
# compiles (no stats report is written).
err=$("$PIRAC" good.pir --stats-out jobs.json --jobs 257 2>&1 > /dev/null)
got=$?
if [ "$got" -eq 2 ] && printf '%s' "$err" | grep -q 'max 256' \
   && [ ! -e jobs.json ]; then
  echo "ok: --jobs 257 (exit 2, nothing compiled)"
else
  echo "FAIL: --jobs 257: exit $got, stats file" \
       "$([ -e jobs.json ] && echo written || echo absent): $err" >&2
  FAILURES=$((FAILURES + 1))
fi

# A machine file with no registers is a usage error that names its line,
# raised before anything compiles (no stats report is written).
printf 'machine zero\nwidth 2\nregs 0\n' > zero.mach
err=$("$PIRAC" good.pir --machine-file zero.mach --stats-out zero.json 2>&1 \
      > /dev/null)
got=$?
if [ "$got" -eq 2 ] && printf '%s' "$err" | grep -q 'line 3' \
   && [ ! -e zero.json ]; then
  echo "ok: regs 0 machine file (exit 2, line named, nothing compiled)"
else
  echo "FAIL: regs 0 machine file: exit $got, stats file" \
       "$([ -e zero.json ] && echo written || echo absent): $err" >&2
  FAILURES=$((FAILURES + 1))
fi

# A count past 2^32 is refused the same way, never wrapped (this one
# would read as 2 registers).
printf 'machine big\nwidth 2\nregs 4294967298\n' > big.mach
err=$("$PIRAC" good.pir --machine-file big.mach --stats-out big.json 2>&1 \
      > /dev/null)
got=$?
if [ "$got" -eq 2 ] && printf '%s' "$err" | grep -q 'line 3' \
   && [ ! -e big.json ]; then
  echo "ok: regs 2^32+2 machine file (exit 2, line named, nothing compiled)"
else
  echo "FAIL: regs 2^32+2 machine file: exit $got, stats file" \
       "$([ -e big.json ] && echo written || echo absent): $err" >&2
  FAILURES=$((FAILURES + 1))
fi

# --- exit 3: internal errors ------------------------------------------------
# A stats path whose directory cannot exist fails the report write.
expect 3 "unwritable stats path"        -- "$PIRAC" good.pir \
                                             --stats-out /no/such/dir/s.json

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES taxonomy check(s) failed" >&2
  exit 1
fi
echo "all exit-code taxonomy checks passed"
