#!/usr/bin/env python3
"""End-to-end WRSN benchmark entry point.

Run from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--short]

Builds e2ebench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), runs the
wrsn_e2e program for one workload and prints two JSON lines on stdout:

  1. the record: machine fingerprint (git sha and dirty flag when run inside
     a git checkout, a digest of the measured sources, compiler, build type,
     nproc, CPU model), replica counts, failures, metrics and run detail;
  2. the result: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when every replica passed its correctness checks, 1 when
some failed (the result line is still printed), 2 on usage, environment or
build errors (nothing is printed on stdout). wrsn_e2e refuses to run while
WRSN_REFERENCE_WORLD, WRSN_REFERENCE_PLANNERS, WRSN_EVENT_QUEUE or
WRSN_THREADS is set, since each changes what is measured.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# Inputs whose content determines what is measured.
DIGEST_DIRS = ("src", "configs", BENCH_DIR.name)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2ebench"
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "wrsn_e2e"


def source_digest(root):
    h = hashlib.sha256()
    for top in DIGEST_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_info(root):
    # Only a repository rooted here: git would otherwise search parent
    # directories outside the checkout.
    if not (root / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return {"git_sha": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": None, "git_dirty": None}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--short", action="store_true",
                    help="one shortened unit plus the reference-engine cross-check")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "sim" / "world.hpp").is_file():
        fail("run from the repository root (src/sim/world.hpp not found)")

    binary = build(root)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"wrsn_e2e did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode not in (0, 1):
        fail(f"wrsn_e2e exited with status {proc.returncode}")
    record = json.loads(proc.stdout)
    record["fingerprint"].update(git_info(root))
    record["fingerprint"]["source_sha256"] = source_digest(root)
    correct = proc.returncode == 0 and record["failed"] == 0
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
