#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload tpch-antijoin --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (and the library it links) under .bench_build/; later calls
rebuild only what changed. Build output goes to stderr; the benchmark's
stdout passes through, its last line being the JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(".bench_build", "perfbench-runs")
RUN_TIMEOUT_S = 170

# Compiler and runtime temp files stay inside the build tree too.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found next to perfbench/\n")
        return False
    os.makedirs(TMP, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV).returncode == 0


def main():
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + ["--out-dir", RUNS]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=ENV, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
