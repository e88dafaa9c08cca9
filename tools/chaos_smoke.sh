#!/usr/bin/env bash
# Process-level chaos harness for ecad's crash-safe plan cache
# (docs/robustness.md, "Crash safety & persistence"). Twenty cycles of
# crash-then-restart, each crash injected at a different global
# CrashInjector hit count (--crash-at N), so the _exit(137) lands at a
# different kCrashPoint step — query admission, post-execution, the
# write-behind append, the snapshot's pre-sync / pre-rename /
# post-rename windows — plus one real external `kill -9` mid-query.
# After every crash the restarted daemon must:
#
#   - come up (the loader NEVER fails the daemon: load-or-degrade),
#   - print its plan-cache load line,
#   - sweep every orphaned spill dir (one is planted per cycle),
#   - answer the probe query with the same sorted bytes as a cold
#     daemon that never had a cache,
#   - drain on SIGTERM with the tracker at zero.
#
# The surviving cache files then go through `ecafuzz --cache-file`: the
# every-offset truncation sweep and seeded single-bit flips must
# load-or-degrade without ever crashing the loader. Run by ctest as
# `chaos_smoke` (including the ASan lane):
#
#   chaos_smoke.sh <ecad> <ecaclient> <ecafuzz> [workdir]
set -u

ECAD=${1:?usage: chaos_smoke.sh <ecad> <ecaclient> <ecafuzz> [workdir]}
ECACLIENT=${2:?usage: chaos_smoke.sh <ecad> <ecaclient> <ecafuzz> [workdir]}
ECAFUZZ=${3:?usage: chaos_smoke.sh <ecad> <ecaclient> <ecafuzz> [workdir]}
WORK=${4:-$(mktemp -d /tmp/eca-chaos-XXXXXX)}
rm -rf "$WORK"
mkdir -p "$WORK"
SOCK="$WORK/ecad.sock"
SPILL="$WORK/spill"
CACHE="$WORK/plan.cache"
LOG="$WORK/ecad.log"
CYCLES=20

# Small fixed catalog: the same --rels/--rows seed the same random
# database in every daemon, so results are comparable across restarts.
DBFLAGS="--rels 3 --rows 64"
PLAN3='(R0 join[p01] (R1 join[p12] R2))'
PLAN2='(R0 join[p01] R1)'
P01='p01=R0.a = R1.a'
P12='p12=R1.b = R2.b'

ECAD_PID=
DRIVER_PID=
cleanup() {
  [ -n "$DRIVER_PID" ] && kill "$DRIVER_PID" 2>/dev/null
  if [ -n "$ECAD_PID" ] && kill -0 "$ECAD_PID" 2>/dev/null; then
    kill -9 "$ECAD_PID" 2>/dev/null
    wait "$ECAD_PID" 2>/dev/null
  fi
}
trap cleanup EXIT

fail() {
  echo "chaos_smoke: FAIL: $*" >&2
  echo "--- ecad log ---" >&2
  cat "$LOG" >&2 2>/dev/null
  exit 1
}

# Starts ecad with the given extra flags; waits for the listening line.
# FLUSH_MS is per-cycle: slow flushes put the crash hits on the query
# and append steps, fast flushes reach the every-8th-flush snapshot
# (and its pre-sync/pre-rename/post-rename crash windows) early enough
# for the armed hit to land there.
FLUSH_MS=50
start_ecad() {
  "$ECAD" --socket "$SOCK" --spill-dir "$SPILL" $DBFLAGS \
    --plan-cache-file "$CACHE" --cache-flush-ms "$FLUSH_MS" "$@" \
    > "$LOG" 2>&1 &
  ECAD_PID=$!
  local i
  for i in $(seq 1 400); do
    grep -q "listening" "$LOG" 2>/dev/null && return 0
    kill -0 "$ECAD_PID" 2>/dev/null || return 1
    sleep 0.05
  done
  return 1
}

# Background query driver: keeps the daemon busy (and the crash-hit
# counter moving) until the daemon dies. Alternates the two join shapes,
# each with an always-true filter whose constant no earlier query used
# (daemon pid + iteration), so every query publishes a fresh plan-cache
# entry and every write-behind flush has something to append. With
# fixed queries the append step only runs until their entries are
# persisted, and a crash hit landing on it becomes a race against the
# flush timer.
drive_queries() {
  local i=0
  while :; do
    i=$((i + 1))
    "$ECACLIENT" --socket "$SOCK" query "$PLAN2" \
      --pred "p01=R0.a = R1.a AND R1.b > -$1$i" \
      --retries 0 > /dev/null 2>&1 || true
    "$ECACLIENT" --socket "$SOCK" query "$PLAN3" --pred "$P01" \
      --pred "p12=R1.b = R2.b AND R2.a > -$1$i" \
      --retries 0 > /dev/null 2>&1 || true
    kill -0 "$1" 2>/dev/null || break
    sleep 0.02
  done
}

# --- reference: a cold daemon that never had a cache ------------------------

"$ECAD" --socket "$SOCK" --spill-dir "$SPILL" $DBFLAGS > "$LOG" 2>&1 &
ECAD_PID=$!
for i in $(seq 1 400); do
  grep -q "listening" "$LOG" 2>/dev/null && break
  sleep 0.05
done
grep -q "listening" "$LOG" || fail "reference ecad never started"
"$ECACLIENT" --socket "$SOCK" query "$PLAN2" --pred "$P01" --print-rows \
  > "$WORK/ref.raw" 2>&1 || fail "reference probe failed"
VOLATILE='^queue_wait_ms=\|^peak_bytes=\|^degraded=\|^trigger='
grep -v "$VOLATILE" "$WORK/ref.raw" | sort > "$WORK/ref.sorted"
kill -TERM "$ECAD_PID"
wait "$ECAD_PID" || fail "reference ecad did not drain cleanly"
ECAD_PID=

# --- crash/restart cycles ---------------------------------------------------

STEPS="$WORK/crash_steps.txt"
: > "$STEPS"
MAX_LOADED=0

run_recovery_checks() {
  local tag=$1
  # Plant an orphan spill dir from "the previous life"; the restart
  # sweep must reclaim it.
  mkdir -p "$SPILL/eca-q2000000$tag-0"
  echo "orphan rows" > "$SPILL/eca-q2000000$tag-0/partition-0.bin"

  start_ecad || fail "cycle $tag: recovery daemon failed to start" \
    " (the loader must never fail the daemon)"
  grep -q "ecad: plan cache" "$LOG" ||
    fail "cycle $tag: recovery daemon printed no plan-cache load line"
  local loaded
  loaded=$(sed -n 's/.*plan cache .*loaded \([0-9]*\) entries.*/\1/p' \
    "$LOG" | head -1)
  [ -n "$loaded" ] || loaded=0
  [ "$loaded" -gt "$MAX_LOADED" ] && MAX_LOADED=$loaded
  [ -d "$SPILL/eca-q2000000$tag-0" ] &&
    fail "cycle $tag: orphan spill dir survived the recovery sweep"

  # The recovered daemon must answer the probe with the same sorted
  # bytes as the cold reference (warm plans may reorder rows).
  "$ECACLIENT" --socket "$SOCK" query "$PLAN2" --pred "$P01" --print-rows \
    > "$WORK/probe.raw" 2>&1 || fail "cycle $tag: recovery probe failed"
  grep -v "$VOLATILE" "$WORK/probe.raw" | sort > "$WORK/probe.sorted"
  cmp -s "$WORK/probe.sorted" "$WORK/ref.sorted" ||
    fail "cycle $tag: recovered answer differs from the cold reference"

  kill -TERM "$ECAD_PID"
  wait "$ECAD_PID" || fail "cycle $tag: recovery daemon did not drain cleanly"
  ECAD_PID=
  grep -q "drained, tracker=0 bytes" "$LOG" ||
    fail "cycle $tag: recovery tracker not at zero after drain"
}

# Cycles 1-14: query traffic drives the hit counter, so crashes land on
# query-admitted / query-executed / cache-append-pre-sync in workload
# order. Cycles 15-20: NO traffic — the only MaybeCrash sites an idle
# daemon reaches are the periodic snapshot's, so crash-at 1/2/3 (twice)
# deterministically hits cache-snapshot-pre-sync, -pre-rename and
# -post-rename.
for N in $(seq 1 "$CYCLES"); do
  if [ "$N" -le 14 ]; then
    FLUSH_MS=50 CRASH_AT=$N DRIVE=1
  else
    FLUSH_MS=10 CRASH_AT=$(( (N - 15) % 3 + 1 )) DRIVE=0
  fi
  start_ecad --crash-at "$CRASH_AT" ||
    fail "cycle $N: crash daemon failed to start"

  DRIVER_PID=
  if [ "$DRIVE" -eq 1 ]; then
    drive_queries "$ECAD_PID" &
    DRIVER_PID=$!
  fi
  # The CRASH_AT-th CrashInjector hit fires _exit(137); the driver (if
  # any) stops once the daemon is gone.
  for i in $(seq 1 600); do
    kill -0 "$ECAD_PID" 2>/dev/null || break
    sleep 0.05
  done
  kill -0 "$ECAD_PID" 2>/dev/null &&
    fail "cycle $N: crash at hit $CRASH_AT never fired"
  wait "$ECAD_PID" 2>/dev/null
  RC=$?
  ECAD_PID=
  if [ -n "$DRIVER_PID" ]; then
    wait "$DRIVER_PID" 2>/dev/null
    DRIVER_PID=
  fi
  [ "$RC" -eq 137 ] || fail "cycle $N: crashed daemon exited $RC (want 137)"
  sed -n 's/.*CRASH INJECTED at step [0-9]* (\(.*\)).*/\1/p' "$LOG" \
    >> "$STEPS"

  FLUSH_MS=50
  run_recovery_checks "$N"
done

# The 20 hit counts must have landed on several distinct kCrashPoint
# steps — query admission/execution, the write-behind append AND the
# snapshot windows — or the harness is only testing one ordering.
DISTINCT=$(sort -u "$STEPS" | grep -c .)
[ "$DISTINCT" -ge 4 ] ||
  fail "only $DISTINCT distinct crash steps hit: $(sort -u "$STEPS" | tr '\n' ' ')"
grep -q "cache-append" "$STEPS" ||
  fail "no crash landed in the append step: $(sort -u "$STEPS" | tr '\n' ' ')"
grep -q "cache-snapshot" "$STEPS" ||
  fail "no crash landed in a snapshot step: $(sort -u "$STEPS" | tr '\n' ' ')"

# --- external kill -9 mid-query ---------------------------------------------

start_ecad || fail "kill-9 cycle: daemon failed to start"
"$ECACLIENT" --socket "$SOCK" query "$PLAN3" --pred "$P01" --pred "$P12" \
  --retries 0 > /dev/null 2>&1 &
HOLDER_PID=$!
sleep 0.3
kill -9 "$ECAD_PID"
wait "$ECAD_PID" 2>/dev/null
ECAD_PID=
wait "$HOLDER_PID" 2>/dev/null || true
run_recovery_checks 99

# The cycles must actually have persisted something, or every recovery
# above was a trivial cold start.
[ "$MAX_LOADED" -gt 0 ] ||
  fail "no recovery ever loaded a cache entry; persistence never engaged"

# --- corruption fuzz on the crash-survivor cache files ----------------------

[ -s "$CACHE" ] || fail "no cache snapshot survived the chaos run"
"$ECAFUZZ" --cache-file "$CACHE" --queries 120 --seed 20260809 ||
  fail "ecafuzz --cache-file rejected the surviving snapshot"
if [ -s "$CACHE.log" ]; then
  "$ECAFUZZ" --cache-file "$CACHE.log" --queries 120 --seed 20260810 ||
    fail "ecafuzz --cache-file rejected the surviving append log"
fi

echo "chaos_smoke: $CYCLES injected crashes + 1 kill -9," \
  "$DISTINCT distinct crash steps, max $MAX_LOADED entries reloaded," \
  "all recovery invariants held"
