#!/usr/bin/env bash
# Product-path coverage report. Builds the tree with gcov instrumentation,
# runs only what a user of the product reaches, and lists every src/
# function those runs never executed:
#
#   - the ctest lanes ecatool_cli, service_smoke, chaos_smoke and
#     examples_smoke (the ecatool CLI contract, the ecad daemon and client,
#     the crash/restart lane, the five examples);
#   - the ten paper benches (Tables 1-5, Figures 5-6, Appendix F,
#     reorderability), at one iteration each.
#
# A function listed here is reached only by unit tests, fuzzers or not at
# all: a candidate for deletion or for a move into src/testing/. This is a
# report for simplicity work, not a gate; it exits 0 whatever it finds.
#
# Usage: tools/product_coverage.sh [build-dir]
#   build-dir defaults to build-coverage/ at the repository root. JOBS sets
#   the build parallelism (default 4). The report is printed and also
#   written to <build-dir>/product_coverage.txt.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-$ROOT/build-coverage}
JOBS=${JOBS:-4}

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage" -DCMAKE_EXE_LINKER_FLAGS="--coverage" \
  >/dev/null
cmake --build "$BUILD" -j"$JOBS" >/dev/null
find "$BUILD" -name '*.gcda' -delete

ctest --test-dir "$BUILD" --output-on-failure \
  -R '^(ecatool_cli|service_smoke|chaos_smoke|examples_smoke)$'

for bench in bench_table1_matrix bench_table2_rules bench_table3_rules \
             bench_table45_rules bench_reorderability bench_fig5_plans \
             bench_fig6_q1 bench_fig6_q2 bench_fig6_q3 bench_appendix_f; do
  case "$bench" in
    bench_fig6_*|bench_appendix_f) args=(1) ;;  # one timing iteration
    *) args=() ;;
  esac
  echo "running $bench"
  "$BUILD/bench/$bench" "${args[@]}" >/dev/null
done

# gcov's JSON output per library object; objects no product binary linked
# have notes (.gcno) but no counts and report every function unexecuted.
REPORT="$BUILD/product_coverage.txt"
find "$BUILD/src" -name '*.gcno' | while read -r gcno; do
  (cd "$(dirname "$gcno")" && gcov --json-format --stdout "$gcno" 2>/dev/null)
done | python3 -c '
import json, sys
root = sys.argv[1] + "/src/"
calls = {}  # (file, line, name) -> max execution count over objects
for line in sys.stdin:
    line = line.strip()
    if not line.startswith("{"):
        continue
    for f in json.loads(line).get("files", []):
        path = f["file"]
        if not path.startswith(root):
            continue
        for fn in f.get("functions", []):
            key = (path[len(root):], fn["start_line"], fn["demangled_name"])
            calls[key] = max(calls.get(key, 0), fn["execution_count"])
never = sorted(k for k, n in calls.items() if n == 0)
print("src/ functions never reached by the product lanes: %d of %d"
      % (len(never), len(calls)))
for path, line, name in never:
    print("  src/%s:%d  %s" % (path, line, name))
' "$ROOT" | tee "$REPORT"
