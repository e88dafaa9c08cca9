#!/usr/bin/env python3
"""Self-test for the bench_check.py policy and enumerator gates.

Runs bench_check.py against the committed BENCH_policy.json (and, when
given, BENCH_enum.json) twice over: once with the baseline as its own
candidate (a fresh passing run must exit 0), then once per doctored
candidate simulating a regression each gate exists to catch (must exit
1). Registered as the bench_check_selftest ctest so a refactor of the
checker that silently stops failing bad input is itself a test failure.

Usage: bench_check_selftest.py <bench_check.py> <BENCH_policy.json>
                               [<BENCH_enum.json>]
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def run_check(check_py, baseline, candidate_obj):
    """Returns bench_check.py's exit status for the given candidate dict."""
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".json", delete=False
    ) as f:
        json.dump(candidate_obj, f)
        path = f.name
    try:
        proc = subprocess.run(
            [
                sys.executable,
                check_py,
                "--baseline",
                baseline,
                "--candidate",
                path,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        return proc.returncode, proc.stdout
    finally:
        os.unlink(path)


def load(path, bench):
    with open(path) as f:
        fresh = json.load(f)
    if fresh.get("bench") != bench:
        print(f"selftest: {path} is not a {bench} JSON", file=sys.stderr)
        return None
    return fresh


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    check_py, policy_json = argv[0], argv[1]
    enum_json = argv[2] if len(argv) == 3 else None
    fresh = load(policy_json, "bench_policy")
    enum_fresh = load(enum_json, "bench_enumerator_perf") if enum_json else None
    if fresh is None or (enum_json and enum_fresh is None):
        return 2

    failures = 0

    def expect(label, candidate, want_rc, baseline=policy_json):
        nonlocal failures
        rc, out = run_check(check_py, baseline, candidate)
        ok = rc == want_rc
        if not ok:
            failures += 1
            print(out)
        print(f"  [{'ok' if ok else 'FAIL'}] {label}: exit {rc} (want {want_rc})")

    expect("fresh run passes", fresh, 0)

    # Each doctored candidate flips exactly one contract the gate guards.
    d = copy.deepcopy(fresh)
    d["contract_pass"] = False
    expect("contract_pass=false fails", d, 1)

    d = copy.deepcopy(fresh)
    d["rows"][0]["sizes_only_degraded"] = 1
    expect("degraded sizes-only fails", d, 1)

    d = copy.deepcopy(fresh)
    small = next(r for r in d["rows"] if r["rels"] <= 10)
    small["dp_degraded"] = small["queries"]
    expect("dp tripping at <=10 rels fails", d, 1)

    d = copy.deepcopy(fresh)
    star = next(r for r in d["rows"] if r["topology"] == "star" and r["rels"] >= 12)
    star["dp_degraded"] = 0
    expect("dp completing every 12+-rel star fails", d, 1)

    d = copy.deepcopy(fresh)
    chain = next(r for r in d["rows"] if r["topology"] == "chain")
    chain["semijoin_applied"] = 0
    expect("semijoin skipping an acyclic workload fails", d, 1)

    d = copy.deepcopy(fresh)
    cyc = next(r for r in d["rows"] if r["topology"] == "clique")
    cyc["semijoin_applied"] = cyc["queries"]
    expect("semijoin firing on a cyclic workload fails", d, 1)

    d = copy.deepcopy(fresh)
    for r in d["rows"]:
        # A sizes-only that silently fell through to DP enumeration costs
        # DP time; the within-run ratio gate must catch it.
        r["sizes_only_ms"] = r["dp_ms"]
    expect("sizes-only costing dp time fails", d, 1)

    d = copy.deepcopy(fresh)
    d["rows"] = d["rows"][1:]
    expect("missing baseline row fails", d, 1)

    if enum_fresh is not None:
        def expect_enum(label, candidate, want_rc):
            expect(label, candidate, want_rc, baseline=enum_json)

        expect_enum("fresh enum run passes", enum_fresh, 0)

        d = copy.deepcopy(enum_fresh)
        d["identity_pass"] = False
        expect_enum("enum identity_pass=false fails", d, 1)

        d = copy.deepcopy(enum_fresh)
        for r in d["rows"]:
            # Extra machinery that costs more wall time than the simple
            # reference: the within-run fast/ref gate must catch it.
            if r["rels"] >= 7 and r.get("ref_ms"):
                r["fast_ms_t1"] = r["ref_ms"] * 1.2
        expect_enum("enumerator slower than the reference fails", d, 1)

        d = copy.deepcopy(enum_fresh)
        for r in d["rows"]:
            # Below 7 relations the ratio is timer noise and not gated.
            if r["rels"] < 7 and r.get("ref_ms"):
                r["fast_ms_t1"] = r["ref_ms"] * 3.0
        expect_enum("slow small queries alone pass", d, 0)

        d = copy.deepcopy(enum_fresh)
        d["rows"] = d["rows"][1:]
        expect_enum("missing enum baseline row fails", d, 1)

    print(f"bench_check_selftest: {failures} failure(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
