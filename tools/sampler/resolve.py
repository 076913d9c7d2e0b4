#!/usr/bin/env python3
"""Resolve a sampler.cpp profile into a flat or per-instruction profile.

    python3 tools/sampler/resolve.py PROFILE [--top N]
        [--match LABEL=REGEX ...] [--annotate NAME]
        [--inclusive] [--callers NAME]

PROFILE is the file the CMake-built build/libmyri_sampler.so wrote
($SAMPLER_OUT.<pid>). Each line is one sample: the sampled address, then
the return addresses of its callers, innermost first. Each address is
mapped to its object and, through `nm -n -S` of that object (`nm -D` when
it has no static symbol table), to the enclosing function; a return
address is looked up one byte back, inside its call instruction.

    --top N            print the N functions with the most samples (30)
    --match L=REGEX    print the share of samples whose function name
                       matches REGEX, labelled L (repeatable)
    --annotate NAME    per-instruction counts for the hottest function whose
                       name contains NAME, over `objdump -d` of its range
    --inclusive        also print inclusive shares: a sample counts for
                       every function on its recorded chain, once each
                       (for --match labels too, then the top N)
    --callers NAME     for the samples whose chain passes through a
                       function whose name contains NAME, the share of
                       each immediate caller of its innermost such frame

Without --inclusive or --callers the output is the flat (self) profile,
which reads the sampled address only. Chains are as deep as the sampler
recorded (eight callers), so an inclusive share counts a function only
where it is within that depth of the sample.
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
    """([(lo, hi, bias, path)], [[pc, caller, ...]]) of a profile file."""
    objs, samples = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("obj "):
                _, lo, hi, bias, name = line.rstrip("\n").split(" ", 4)
                objs.append((int(lo, 16), int(hi, 16), int(bias, 16), name))
            elif line.strip():
                samples.append([int(a, 16) for a in line.split()])
    return objs, samples


class Resolver:
    """Maps addresses to (object, symbol start, name), caching symbols."""

    def __init__(self, objs):
        self.objs = objs
        self.symtabs = {}
        self.cache = {}

    def locate(self, pc):
        """(object path, object-relative address) or None."""
        obj = next((o for o in self.objs if o[0] <= pc < o[1]), None)
        return None if obj is None else (obj[3], pc - obj[2])

    def function(self, pc):
        if pc in self.cache:
            return self.cache[pc]
        where = self.locate(pc)
        if where is None:
            fn = ("?", 0, "[unmapped]")
        else:
            path, addr = where
            if path not in self.symtabs:
                self.symtabs[path] = load_symbols(path)
            syms = self.symtabs[path]
            i = bisect.bisect_right(syms, (addr, float("inf"), "")) - 1
            if i >= 0 and syms[i][0] <= addr < syms[i][1]:
                fn = (path, syms[i][0], syms[i][2])
            else:
                fn = (path, 0, "[" + path.rsplit("/", 1)[-1] + "]")
        self.cache[pc] = fn
        return fn

    def chain(self, sample):
        """Functions of a sample, innermost first (callers one byte back)."""
        return [self.function(sample[0])] + [self.function(a - 1)
                                             for a in sample[1:]]


def share(n, total):
    return f"{100.0 * n / total:6.2f}% {n:7d}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--match", action="append", default=[])
    ap.add_argument("--annotate")
    ap.add_argument("--inclusive", action="store_true")
    ap.add_argument("--callers")
    args = ap.parse_args()

    objs, samples = read_profile(args.profile)
    if not samples:
        sys.exit("no samples")
    res = Resolver(objs)
    funcs = collections.Counter()  # (object, symbol start, name) -> samples
    insns = collections.Counter()  # (object, address) -> samples
    for sample in samples:
        funcs[res.function(sample[0])] += 1
        where = res.locate(sample[0])
        if where is not None:
            insns[where] += 1

    total = len(samples)
    print(f"{total} samples")
    for label_re in args.match:
        label, regex = label_re.split("=", 1)
        hit = sum(n for (_, _, name), n in funcs.items()
                  if re.search(regex, name))
        print(f"{label}: {100.0 * hit / total:.1f}% ({hit} samples)")
    for (path, _, name), n in funcs.most_common(args.top):
        print(f"{share(n, total)}  {name}")

    chains = None
    if args.inclusive or args.callers:
        chains = [res.chain(s) for s in samples]

    if args.inclusive:
        incl = collections.Counter()
        for chain in chains:
            incl.update(set(chain))
        print("\ninclusive")
        for label_re in args.match:
            label, regex = label_re.split("=", 1)
            hit = sum(1 for chain in chains
                      if any(re.search(regex, name) for _, _, name in chain))
            print(f"{label}: {100.0 * hit / total:.1f}% ({hit} samples)")
        for (path, _, name), n in incl.most_common(args.top):
            print(f"{share(n, total)}  {name}")

    if args.callers:
        callers = collections.Counter()
        through = 0
        for chain in chains:
            at = next((i for i, (_, _, name) in enumerate(chain)
                       if args.callers in name), None)
            if at is None:
                continue
            through += 1
            caller = (chain[at + 1][2] if at + 1 < len(chain)
                      else "[chain ends]")
            callers[caller] += 1
        print(f"\ncallers of {args.callers!r}: "
              f"{100.0 * through / total:.1f}% ({through} samples)")
        for name, n in callers.most_common(args.top):
            print(f"{share(n, total)}  {name}")

    if args.annotate:
        hits = [k for k, _ in funcs.most_common() if args.annotate in k[2]]
        if not hits:
            sys.exit(f"no sampled function contains {args.annotate!r}")
        path, start, name = hits[0]
        end = next(e for s, e, n in res.symtabs[path]
                   if s == start and n == name)
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
