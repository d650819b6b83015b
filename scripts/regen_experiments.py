#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md's measured tables from the paper-figure benches.

Run from the repository root after building the benches into build/:

    python3 scripts/regen_experiments.py          # rewrite the tables
    python3 scripts/regen_experiments.py --check  # verify, change nothing

Runs bench_fig4_activity_mgmt, bench_fig5_tradeoff, bench_fig6_schemes,
bench_fig7_profit and bench_baselines from build/bench at the paper's
horizon (WRSN_BENCH_DAYS=120, WRSN_BENCH_SEEDS=3), rebuilds the four tables
under "Measured headline tables" and checks the paper's shape claims:

  * ERC-RR travels less than NoERC-Full under every scheduler (Fig. 4);
  * Partition has the lowest travel and recharging cost (Fig. 6a, 6d);
  * the largest missing-rate jump lands at ERP 0.6 (Fig. 5);
  * Combined has the fewest nonfunctional sensors (Fig. 6c).

Exits 1 when a shape claim fails, and under --check also when the file
would change. The rest of EXPERIMENTS.md (verdicts, deviations) is prose
and is left alone.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "EXPERIMENTS.md"
BENCH_DIR = ROOT / "build" / "bench"
SCHEDULERS = ("greedy", "partition", "combined")
FIG4_CASES = ("No ERC - Full time", "No ERC - With RR",
              "With ERC - Full time", "With ERC - With RR")
# bench_baselines row label -> EXPERIMENTS.md row label.
BASELINE_LABELS = {
    "greedy (Alg. 2)": "greedy (Alg. 2)",
    "partition (IV-D-1)": "partition",
    "combined (IV-D-2)": "combined",
    "combined + 2-opt": "combined + 2-opt",
    "nearest-first (ext)": "nearest-first",
    "fcfs (ext)": "fcfs",
    "edf (ext)": "edf",
}


def run_bench(name):
    env = dict(os.environ, WRSN_BENCH_DAYS="120", WRSN_BENCH_SEEDS="3")
    exe = BENCH_DIR / name
    if not exe.exists():
        sys.exit(f"regen_experiments: {exe} not found; build the benches first")
    return subprocess.run([str(exe)], env=env, check=True, capture_output=True,
                          text=True).stdout


def table_rows(text):
    """Cells of every markdown table body row (header and rule skipped)."""
    rows = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("|") or line.startswith("|-"):
            continue
        if i + 1 < len(lines) and lines[i + 1].startswith("|-"):
            continue  # header row
        rows.append([c.strip() for c in line.strip("|").split("|")])
    return rows


def averaged(text):
    """`scheme: name value unit, ...` lines -> {scheme: {name: value}}."""
    out = {}
    for scheme, body in re.findall(r"^\s*(greedy|partition|combined): (.*)$",
                                   text, re.MULTILINE):
        fields = {}
        for part in body.split(", "):
            *name, value, _unit = part.split()
            fields[" ".join(name)] = float(value)
        out[scheme] = fields
    return out


def measure():
    fig4 = run_bench("bench_fig4_activity_mgmt")
    fig5 = run_bench("bench_fig5_tradeoff")
    fig6 = run_bench("bench_fig6_schemes")
    fig7 = run_bench("bench_fig7_profit")
    base = run_bench("bench_baselines")

    travel = {(r[0], r[1]): float(r[2]) for r in table_rows(fig4)}
    saving = {s: float(re.search(rf"^{s}: activity management saves ([0-9.]+)%",
                                 fig4, re.MULTILINE).group(1))
              for s in SCHEDULERS}
    tradeoff = [tuple(float(c) for c in r) for r in table_rows(fig5)]
    avg6 = averaged(fig6.split("ERP-averaged")[1])
    avg7 = averaged(fig7.split("ERP-averaged")[1])
    baselines = [(BASELINE_LABELS[r[0]], float(r[1]), float(r[3]), float(r[5]))
                 for r in table_rows(base)]
    return travel, saving, tradeoff, avg6, avg7, baselines


def render(travel, saving, tradeoff, avg6, avg7, baselines):
    fig4 = ["| scheduler | NoERC-Full | NoERC-RR | ERC-Full | ERC-RR | saving |",
            "|---|---|---|---|---|---|"]
    for s in SCHEDULERS:
        cells = " | ".join(f"{travel[(s, c)]:.3f}" for c in FIG4_CASES)
        fig4.append(f"| {s} | {cells} | {saving[s]:.1f} % |")
    fig5 = ["| ERP | travel (MJ) | missing (%) | nonfunctional (%) |",
            "|---|---|---|---|"]
    for erp, trav, missing, _coverage, nonfunc in tradeoff:
        fig5.append(f"| {erp:.1f} | {trav:.3f} | {missing:.3f} | {nonfunc:.2f} |")
    fig67 = ["| scheme | travel (MJ) | nonfunc (%) | cost (m/sensor) | "
             "recharged (MJ) | objective (MJ) |",
             "|---|---|---|---|---|---|"]
    for s in SCHEDULERS:
        a, b = avg6[s], avg7[s]
        fig67.append(f"| {s} | {a['travel']:.3f} | {a['nonfunctional']:.3f} | "
                     f"{a['recharging cost']:.0f} | {b['recharged']:.3f} | "
                     f"{b['objective']:.3f} |")
    base = ["| scheduler | travel (MJ) | nonfunc (%) | objective (MJ) |",
            "|---|---|---|---|"]
    for label, trav, nonfunc, objective in baselines:
        base.append(f"| {label} | {trav:.3f} | {nonfunc:.3f} | {objective:.3f} |")
    return {"### Fig. 4": fig4, "### Fig. 5": fig5, "### Fig. 6 / Fig. 7": fig67,
            "### Extension baselines": base}


def shape_failures(travel, tradeoff, avg6):
    failures = []
    for s in SCHEDULERS:
        if not travel[(s, FIG4_CASES[3])] < travel[(s, FIG4_CASES[0])]:
            failures.append(f"Fig. 4: {s} ERC-RR does not travel less than NoERC-Full")
    for metric in ("travel", "recharging cost"):
        lowest = min(SCHEDULERS, key=lambda s: avg6[s][metric])
        if lowest != "partition":
            failures.append(f"Fig. 6: {lowest}, not partition, has the lowest {metric}")
    jumps = [(tradeoff[i][2] - tradeoff[i - 1][2], tradeoff[i][0])
             for i in range(1, len(tradeoff))]
    jump_erp = max(jumps)[1]
    if abs(jump_erp - 0.6) > 1e-9:
        failures.append(f"Fig. 5: the missing-rate jump lands at ERP {jump_erp}, not 0.6")
    fewest = min(SCHEDULERS, key=lambda s: avg6[s]["nonfunctional"])
    if fewest != "combined":
        failures.append(f"Fig. 6c: {fewest}, not combined, has the fewest nonfunctional")
    return failures


def replace_tables(doc, tables):
    """Swaps the first table after each heading prefix for its new rows."""
    lines = doc.splitlines()
    for heading, rows in tables.items():
        start = next((i for i, l in enumerate(lines) if l.startswith(heading)), None)
        if start is None:
            sys.exit(f"regen_experiments: EXPERIMENTS.md has no '{heading}' heading")
        first = next(i for i in range(start + 1, len(lines))
                     if lines[i].startswith("|"))
        end = first
        while end < len(lines) and lines[end].startswith("|"):
            end += 1
        lines[first:end] = rows
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if EXPERIMENTS.md would change; write nothing")
    args = ap.parse_args()

    travel, saving, tradeoff, avg6, avg7, baselines = measure()
    failures = shape_failures(travel, tradeoff, avg6)
    for f in failures:
        print(f"shape claim failed: {f}", file=sys.stderr)

    old = DOC.read_text()
    new = replace_tables(old, render(travel, saving, tradeoff, avg6, avg7, baselines))
    if args.check:
        if new != old:
            print("EXPERIMENTS.md tables are stale; run "
                  "scripts/regen_experiments.py", file=sys.stderr)
            return 1
    elif new != old:
        DOC.write_text(new)
        print("rewrote EXPERIMENTS.md")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
