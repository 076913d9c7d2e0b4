#!/usr/bin/env python3
"""Run the benchmark over many seeds and check that it is steady.

    python3 perfbench/sweep.py [--workloads ring512,soak64] [--seeds 1-10]
                               [--trace 0|1] [--sets 2] [--seconds S]

For each workload and set, runs perfbench/run.py once per seed and
reports, per metric, the median and the quartiles as Python's
statistics.quantiles(values, n=4) gives them. Then it checks:

  * spread: (q3 - q1) / median of every end-to-end metric except setup_s
    stays within its BENCHMARK.json bound;
  * drift: with --sets 2, no metric's second median is worse than the
    first by more than its bound;
  * determinism: every virtual-time or count metric, and each run's
    delivery digest, is identical for a seed across sets.

Exit status 0 when every check passes. Each run takes run_seconds plus
set-up, so ten seeds of all three workloads take several minutes.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"digest (0x[0-9a-f]{16})")


def deterministic(metric):
    """Figures of the modelled program, not of the host: these must not
    change between runs of one seed."""
    return metric["unit"] in ("count", "1/s", "MB/s") or \
        metric["unit"].startswith("virtual_")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{workload} seed {seed}: no result (exit {res.returncode})"
                 f"\n{res.stderr[-2000:]}")
    digests = DIGEST.findall(res.stdout)
    return result, (digests[0] if digests else None), wall, res.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        sets = []  # per set: {seed: (result, digest)}
        for s in range(args.sets):
            runs = {}
            for seed in seeds:
                result, digest, wall, code = run_once(workload, seed,
                                                      args.seconds, args.trace)
                print(f"{workload} set {s} seed {seed}: {wall:.1f} s wall, "
                      f"exit {code}, correct {result['correct']}, "
                      f"digest {digest}", flush=True)
                if not result["correct"] or code != 0:
                    ok = False
                runs[seed] = (result, digest)
            sets.append(runs)

        print(f"\n{workload}: {len(seeds)} seeds x {args.sets} set(s)")
        print(f"  {'metric':<40} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8}  bound")
        medians = []
        for s, runs in enumerate(sets):
            med = {}
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for r, _ in runs.values()]
                q1, q2, q3 = statistics.quantiles(vals, n=4) \
                    if len(vals) > 1 else (vals[0],) * 3
                med[m["name"]] = q2
                spread = (q3 - q1) / q2 if q2 else 0.0
                bound = m.get("bound")
                verdict = ""
                if bound is not None and m["name"] != "setup_s":
                    verdict = "ok" if spread <= bound else "TOO WIDE"
                    if spread > bound:
                        ok = False
                    if spread > bound / 3:
                        verdict += " (over a third)"
                print(f"  {m['name']:<40} {s:>3} {q2:>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {spread:>8.4f}  "
                      f"{'' if bound is None else bound} {verdict}")
            medians.append(med)
        if args.sets >= 2:
            for m in metrics:
                a, b = medians[0][m["name"]], medians[-1][m["name"]]
                bound = m.get("bound")
                if bound is None or a == 0:
                    continue
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                if worse > bound:
                    ok = False
                    print(f"  DRIFT {m['name']}: {a:.6g} -> {b:.6g} "
                          f"({worse:+.1%} worse, bound {bound})")
            for seed in seeds:
                first, d0 = sets[0][seed]
                for runs in sets[1:]:
                    other, d1 = runs[seed]
                    if d0 != d1:
                        ok = False
                        print(f"  NONDETERMINISTIC digest, seed {seed}: "
                              f"{d0} vs {d1}")
                    for m in metrics:
                        if not deterministic(m):
                            continue
                        x = first["metrics"][m["name"]]["value"]
                        y = other["metrics"][m["name"]]["value"]
                        if x != y:
                            ok = False
                            print(f"  NONDETERMINISTIC {m['name']}, seed "
                                  f"{seed}: {x} vs {y}")
        print()
    print("ALL CHECKS PASSED" if ok else "SOME CHECKS FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
