#!/usr/bin/env python3
"""Resolve a sampler.cpp profile into a flat or per-instruction profile.

    python3 tools/sampler/resolve.py PROFILE [--top N]
        [--match LABEL=REGEX ...] [--annotate NAME]

PROFILE is the file the CMake-built build/libmyri_sampler.so wrote
($SAMPLER_OUT.<pid>). Each sampled address is mapped to its object and,
through `nm -n -S` of that object (`nm -D` when it has no static symbol
table), to the enclosing function.

    --top N            print the N functions with the most samples (30)
    --match L=REGEX    print the share of samples whose function name
                       matches REGEX, labelled L (repeatable)
    --annotate NAME    per-instruction counts for the hottest function whose
                       name contains NAME, over `objdump -d` of its range
"""
import argparse
import bisect
import collections
import re
import subprocess
import sys

TEXT_TYPES = set("tTwWi")


def load_symbols(path):
    """Sorted [(start, end, name)] of the object's text symbols."""
    for extra in ([], ["-D"]):
        out = subprocess.run(["nm", "-C", "-n", "-S", "--defined-only"] + extra
                             + [path], capture_output=True, text=True).stdout
        syms = []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in TEXT_TYPES:
                start, size = int(parts[0], 16), int(parts[1], 16)
                syms.append((start, start + max(size, 1), parts[3]))
            elif len(parts) == 3 and parts[1] in TEXT_TYPES:
                start = int(parts[0], 16)
                syms.append((start, None, parts[2]))
        if syms:
            syms.sort()
            # A symbol without a size ends where the next one starts.
            return [(s, e if e is not None else
                     (syms[i + 1][0] if i + 1 < len(syms) else s + 1), n)
                    for i, (s, e, n) in enumerate(syms)]
    return []


def read_profile(path):
    objs, pcs = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("obj "):
                _, lo, hi, bias, name = line.rstrip("\n").split(" ", 4)
                objs.append((int(lo, 16), int(hi, 16), int(bias, 16), name))
            elif line.strip():
                pcs.append(int(line, 16))
    return objs, pcs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--match", action="append", default=[])
    ap.add_argument("--annotate")
    args = ap.parse_args()

    objs, pcs = read_profile(args.profile)
    if not pcs:
        sys.exit("no samples")
    symtabs = {}
    funcs = collections.Counter()  # (object, symbol start, name) -> samples
    insns = collections.Counter()  # (object, address) -> samples
    for pc in pcs:
        obj = next((o for o in objs if o[0] <= pc < o[1]), None)
        if obj is None:
            funcs[("?", 0, "[unmapped]")] += 1
            continue
        path, addr = obj[3], pc - obj[2]
        if path not in symtabs:
            symtabs[path] = load_symbols(path)
        syms = symtabs[path]
        i = bisect.bisect_right(syms, (addr, float("inf"), "")) - 1
        if i >= 0 and syms[i][0] <= addr < syms[i][1]:
            funcs[(path, syms[i][0], syms[i][2])] += 1
        else:
            funcs[(path, 0, "[" + path.rsplit("/", 1)[-1] + "]")] += 1
        insns[(path, addr)] += 1

    total = len(pcs)
    print(f"{total} samples")
    for label_re in args.match:
        label, regex = label_re.split("=", 1)
        hit = sum(n for (_, _, name), n in funcs.items()
                  if re.search(regex, name))
        print(f"{label}: {100.0 * hit / total:.1f}% ({hit} samples)")
    for (path, _, name), n in funcs.most_common(args.top):
        print(f"{100.0 * n / total:6.2f}% {n:7d}  {name}")

    if args.annotate:
        hits = [k for k, _ in funcs.most_common() if args.annotate in k[2]]
        if not hits:
            sys.exit(f"no sampled function contains {args.annotate!r}")
        path, start, name = hits[0]
        end = next(e for s, e, n in symtabs[path] if s == start and n == name)
        print(f"\n{name} ({funcs[hits[0]]} samples)")
        dis = subprocess.run(
            ["objdump", "-d", "-C", "--no-show-raw-insn",
             f"--start-address={start:#x}", f"--stop-address={end:#x}", path],
            capture_output=True, text=True).stdout
        for line in dis.splitlines():
            m = re.match(r"\s*([0-9a-f]+):", line)
            if m:
                n = insns.get((path, int(m.group(1), 16)), 0)
                print(f"{n:7d}  {line.strip()}" if n else f"         {line.strip()}")


if __name__ == "__main__":
    main()
