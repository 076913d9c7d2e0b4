#!/usr/bin/env python3
"""Smoke test of the sampler: profile a small program, then resolve it.

    python3 tools/sampler/smoke_test.py LIBMYRI_SAMPLER_SO SAMPLER_SMOKE

Runs SAMPLER_SMOKE (tools/sampler/sampler_smoke.cpp) with the sampler
preloaded, then checks with resolve.py that samples resolve to its leaf
function and that the recorded call chains name the leaf's caller.
Exit status 0 on success.
"""
import glob
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    lib, prog = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, LD_PRELOAD=lib,
                   SAMPLER_OUT=os.path.join(tmp, "prof"))
        # In a sanitizer build the preloaded sampler loads before the
        # sanitizer runtime, which AddressSanitizer refuses by default.
        env["ASAN_OPTIONS"] = ":".join(
            o for o in (os.environ.get("ASAN_OPTIONS"),
                        "verify_asan_link_order=0") if o)
        subprocess.run([prog], env=env, check=True, stdout=subprocess.DEVNULL)
        profiles = glob.glob(os.path.join(tmp, "prof.*"))
        if len(profiles) != 1:
            sys.exit(f"expected one profile, found {profiles}")
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "resolve.py"), profiles[0],
             "--top", "5", "--match", "leaf=sampler_smoke_leaf",
             "--callers", "sampler_smoke_leaf"],
            capture_output=True, text=True, check=True).stdout
    print(out)
    lines = out.splitlines()
    leaf = next((l for l in lines if l.startswith("leaf: ")), "")
    if not leaf or leaf.startswith("leaf: 0.0%"):
        sys.exit("no sample resolved to sampler_smoke_leaf")
    callers = lines[next(i for i, l in enumerate(lines)
                         if l.startswith("callers of")) + 1:]
    if not any("sampler_smoke_caller" in l for l in callers):
        sys.exit("no call chain named sampler_smoke_caller")
    print("sampler smoke test: ok")


if __name__ == "__main__":
    main()
