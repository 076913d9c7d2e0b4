#!/usr/bin/env python3
"""Paired wall-time gate: perfbench at HEAD against a base commit.

    python3 tools/paired_gate.py [--base REV]

Run from a git checkout; needs only the Python standard library, git,
cmake and a C++ compiler. The HEAD side is this checkout as it stands on
disk. The base side is REV, checked out with `git worktree` into a
temporary directory that is removed afterwards. Without --base, REV is
the merge base with the target branch on a GitHub `pull_request` event
(GITHUB_BASE_REF) and HEAD^ otherwise.

For soak64 and ring512, each of 10 pairs runs

    python3 perfbench/run.py --workload W --seed 2026 --seconds 2 --trace 0

once in each tree, alternating which side goes first, and compares
`virtual_per_wall` (virtual seconds simulated per wall second; higher is
better). A workload fails only when a run fails, or when HEAD loses at
least 9 of 10 pairs and HEAD's median is below 0.67x the base median.
Run-to-run spread on a shared machine is tens of percent (single soak64
runs read 74-154 s/s on one 4-core VM), so a large loss in nearly every
pair is the only signal this gate acts on. Deterministic counts (events per
delivery, allocations per route, peak RSS) are gated by the tests.

Writes every pair and verdict to paired_gate.json in the current
directory. Exit status: 0 pass, 1 fail or setup error.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("soak64", "ring512")
PAIRS = 10
SEED = 2026
SECONDS = 2
METRIC = "virtual_per_wall"
LOSS_SHARE = 0.9    # HEAD must lose at least this share of pairs...
MEDIAN_RATIO = 0.67  # ...and its median fall below this times the base's
RUN_TIMEOUT_S = 1200  # the first run in a tree also builds it


def decide(pairs):
    """Verdict for one workload from (head, base) metric pairs.

    A value of None is a failed run. Higher values are better.
    """
    n = len(pairs)
    failed = sum(1 for h, b in pairs if h is None or b is None)
    if failed:
        return {"pass": False, "reason": f"{failed} pair(s) with a failed run"}
    losses = sum(1 for h, b in pairs if h < b)
    head_median = statistics.median(h for h, _ in pairs)
    base_median = statistics.median(b for _, b in pairs)
    ratio = head_median / base_median
    slower = losses >= math.ceil(LOSS_SHARE * n) and ratio < MEDIAN_RATIO
    reason = (f"HEAD lost {losses}/{n} pairs, median ratio {ratio:.3f}"
              f" (fails at >= {math.ceil(LOSS_SHARE * n)}/{n} and"
              f" < {MEDIAN_RATIO})")
    return {"pass": not slower, "reason": reason, "losses": losses,
            "head_median": head_median, "base_median": base_median,
            "ratio": ratio}


def git(*args):
    res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                         text=True)
    if res.returncode != 0:
        sys.exit(f"paired_gate: git {' '.join(args)} failed: "
                 f"{res.stderr.strip()}")
    return res.stdout.strip()


def default_base():
    target = os.environ.get("GITHUB_BASE_REF")
    if os.environ.get("GITHUB_EVENT_NAME") == "pull_request" and target:
        return git("merge-base", "HEAD", f"origin/{target}")
    return git("rev-parse", "HEAD^")


def run_once(tree, workload):
    """One perfbench run in `tree`; the metric value, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    try:
        res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  {workload} in {tree}: timed out", file=sys.stderr)
        return None
    # run.py exits non-zero unless the run's outputs checked out correct.
    value = None
    if res.returncode == 0:
        try:
            out = json.loads(res.stdout.strip().splitlines()[-1])
            value = float(out["metrics"][METRIC]["value"])
        except (IndexError, KeyError, TypeError, ValueError):
            pass
    if value is None:
        print(f"  {workload} in {tree}: exit {res.returncode}\n"
              + res.stderr[-2000:], file=sys.stderr)
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="commit to compare against")
    args = ap.parse_args()

    base = git("rev-parse", args.base or default_base())
    report = {"base": base, "head": git("rev-parse", "HEAD"), "seed": SEED,
              "seconds": SECONDS, "metric": METRIC, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="paired_gate_") as tmp:
        base_tree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base_tree), base)
        try:
            for w in WORKLOADS:
                pairs = []
                for i in range(PAIRS):
                    sides = [("head", ROOT), ("base", base_tree)]
                    if i % 2:
                        sides.reverse()
                    got = {side: run_once(tree, w) for side, tree in sides}
                    pairs.append((got["head"], got["base"]))
                    print(f"{w} pair {i + 1}/{PAIRS}: head {got['head']}"
                          f" base {got['base']}", file=sys.stderr)
                verdict = decide(pairs)
                report["workloads"][w] = dict(verdict, pairs=pairs)
                print(f"{w}: {'pass' if verdict['pass'] else 'FAIL'}: "
                      f"{verdict['reason']}")
        finally:
            git("worktree", "remove", "--force", str(base_tree))
    report["pass"] = all(v["pass"] for v in report["workloads"].values())
    Path("paired_gate.json").write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(0 if report["pass"] else 1)


if __name__ == "__main__":
    main()
