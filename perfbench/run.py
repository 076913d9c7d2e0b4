#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload ring512|soak64|pingpong2 \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (and the simulator libraries in src/) into .bench_build/; later
calls only rebuild what changed. The workload runs in a process of its
own, so peak RSS and set-up time never leak between workloads.

Output: the workload's notes and metric table, one line with the build
environment, and as the last line one JSON object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
whose metrics are BENCHMARK.json's end_to_end set (--trace 0) or its
per_layer set (--trace 1). A traced run also writes its spans to
.bench_build/spans/<workload>-seed<N>.json.

Exit status 0 only when the run's outputs checked out correct.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "spans"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, what):
    """Run a build step with its output on stderr; die if it fails."""
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        die(f"{what} failed ({res.returncode})", 1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no simulator sources (src/) next to perfbench/; run from a "
            "full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    jobs = str(len(os.sched_getaffinity(0)))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
               "perfbench", "perfbench_stats_test"], "build")
    run_quiet([str(BUILD_DIR / "perfbench_stats_test")],
              "statistics self-test")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    # ring512 runs on request but is not in BENCHMARK.json (see README.md).
    if args.workload not in {w["name"] for w in spec["workloads"]} | {"ring512"}:
        die(f"unknown workload {args.workload!r}")
    if args.seconds <= 0 or args.seed < 0:
        die("--seconds must be positive and --seed non-negative")

    build()

    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(SPANS_DIR / f"{args.workload}-seed{args.seed}.json")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} ran past {RUN_TIMEOUT_S} s", 1)
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        die(f"{args.workload} exited {res.returncode} without a result", 1)
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    absent = []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                die(f"{args.workload} did not report {m['name']}", 1)
            absent.append(m["name"])  # layer not exercised by this workload
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            die(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says "
                f"{m['unit']!r}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if absent:
        print(f"not exercised by {args.workload} (reported as 0): "
              + ", ".join(absent))
    env = dict(raw.get("build", {}), nproc=len(os.sched_getaffinity(0)),
               workload=args.workload, seed=args.seed, trace=args.trace)
    print("environment: " + json.dumps(env, sort_keys=True))
    correct = bool(raw["correct"]) and res.returncode == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
