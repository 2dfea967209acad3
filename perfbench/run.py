#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold-scale --seed 1 --seconds 35 --trace 0

Builds perfbench/ (which compiles the analyzer from src/) into .bench_build
on first use, runs one workload, and prints its notes followed by one JSON
result line. The result is checked against BENCHMARK.json: every metric it
names must be present, with its unit, and no other. Exits non-zero, without
a result line, when the sources are missing, the build fails, the workload
fails, or the metric set does not match.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "ipcp_perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no analyzer sources under src/; run from the repository root", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 2)


def check_metrics(result, trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}", 5)


def main():
    args = sys.argv[1:]
    if "--trace" not in args or "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1",
             2)
    trace = args[args.index("--trace") + 1] not in ("0", "")
    build()
    try:
        run = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 6)
    if run.returncode != 0:
        fail(f"workload exited with code {run.returncode}", run.returncode)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("workload printed no result line", 5)
    check_metrics(result, trace)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
