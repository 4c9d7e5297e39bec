#!/usr/bin/env python3
"""Builds the host-cost benchmark from source and runs one workload.

Run from the repository root:

    python3 hostbench/run.py --workload pingpong --seed 1 --seconds 20 --trace 0

The build (CMake, the repository's RelWithDebInfo type) goes to
.bench_build/hostbench and is incremental after the first run. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero, without a result, when the monitor's sources are absent or
the build fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("pingpong", "fanin_predicates", "job_churn")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: no monitor sources (src/) next to hostbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("hostbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "hostbench")


def source_digest():
    """Digest of the sources the binary is built from. Fingerprints of
    earlier runs are only compared within one source version."""
    h = hashlib.sha256()
    for top in ("src", "hostbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    sys.stdout.flush()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", os.path.join(BUILD, "fingerprints", source_digest())]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
