#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark. Run from the repository root:

    python3 e2ebench/test_e2e.py

For every workload it runs run.py in short mode (one unit of a shortened
horizon), untraced and traced, and checks that

  * every replica passed wrsn_e2e's correctness gate; for workloads with
    n <= 2000 that includes the byte-for-byte cross-check of report JSON and
    final battery vector against the reference engine on the heap queue;
  * the printed metric names and units are exactly BENCHMARK.json's
    end_to_end list (--trace 0) or per_layer list (--trace 1);
  * in the traced run, the per-kind self times plus the horizon settle add
    up to the traced run_until time.

It also checks the refusals: a pinned environment variable, and a directory
holding only BENCHMARK.json and the benchmark's own files, must both make
run.py exit non-zero without printing a result. Exits 0 when all pass.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = ["python3", "e2ebench/run.py"]
REFERENCE_CHECKED = {"paper_table2": 1, "dispatch_stress": 3, "waypoint_100k": 0}


def run(workload, trace, cwd=ROOT, env=None):
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--short"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)
            print(f"FAIL {what}", flush=True)

    check([w["name"] for w in spec["workloads"]] == list(REFERENCE_CHECKED),
          "BENCHMARK.json workloads differ from the ones this test covers")
    for workload, ref_units in REFERENCE_CHECKED.items():
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            proc = run(workload, trace)
            lines = proc.stdout.strip().splitlines()
            check(proc.returncode == 0 and len(lines) == 2,
                  f"{tag}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
            if len(lines) != 2:
                continue
            record, result = (json.loads(line) for line in lines)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{tag}: not correct: {record['failures']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected[trace],
                  f"{tag}: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(expected[trace]) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected[trace]))}, "
                  f"units {[(n, u) for n, u in got.items() if expected[trace].get(n, u) != u]}")
            check(record["detail"]["reference_checked"] == ref_units,
                  f"{tag}: {record['detail']['reference_checked']} replicas "
                  f"cross-checked against the reference engine, want {ref_units}")
            if trace == 1:
                detail = record["detail"]
                check(detail["self_plus_untraced_s"] == detail["traced_run_until_s"],
                      f"{tag}: self times do not add up to the traced run_until time")
            print(f"ok   {tag}", flush=True)

    env = dict(os.environ, WRSN_THREADS="1")
    proc = run("paper_table2", 0, env=env)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "runs although WRSN_THREADS is set")

    bare = ROOT / ".bench_build" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("paper_table2", 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "runs in a directory holding only the benchmark")
    shutil.rmtree(bare)

    print("FAILED" if problems else "all e2ebench checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
