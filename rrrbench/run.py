#!/usr/bin/env python3
"""Build rrr_serverd and the rrrbench program from this checkout, then run.

Run from anywhere; paths resolve against the checkout that holds this file.

  python3 rrrbench/run.py --workload warm_audit --seed 1 --seconds 15 --trace 0
  python3 rrrbench/run.py --workload plane_2d --seed 1 --seconds 15 --trace 1
  python3 rrrbench/run.py --test      # the benchmark's own self-test

The build goes to .bench_build/ (CMake, Release); each run writes its
result.json, serverd.log and, when traced, spans.jsonl to
.bench_out/<workload>-seed<seed>-trace<0|1>/. The last stdout line is the
run's JSON result. The exit status is non-zero on any failed reply check.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["warm_audit", "cold_explore", "stream_churn", "plane_2d"]


def fail(message):
    print("rrrbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    """Configures once, then builds `targets`; output goes to build.log."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no RRR sources beside rrrbench/ (need CMakeLists.txt and src/)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                fail("build failed: " + " ".join(step) + "; see " + log_path)


def source_id():
    """The git commit when there is one, and always a digest of the sources
    (benchmark checkouts need not be git repositories)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(HERE, "src")]
    files = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(HERE, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            ident = "git:" + head.stdout.strip()[:12] + " " + ident
    return ident


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's self-test")
    args = parser.parse_args()

    if args.test:
        build(["rrrbench_test"])
        workdir = os.path.join(OUT, "selftest")
        os.makedirs(workdir, exist_ok=True)
        return subprocess.run(
            [os.path.join(BUILD, "rrrbench_test"), workdir]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build(["rrrbench", "rrr_serverd"])
    out = os.path.join(
        OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    command = [
        os.path.join(BUILD, "rrrbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--serverd", os.path.join(BUILD, "rrr", "src", "service",
                                  "rrr_serverd"),
        "--out", out,
        "--source", source_id(),
    ]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
