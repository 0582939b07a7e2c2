#!/usr/bin/env python3
"""Steadiness check: does the benchmark agree with itself on one commit?

    python3 perfbench/steady.py [--out FILE.json]

Runs the BENCHMARK.json command (--trace 0) once per seed on every workload
it names, ten seeds, as one set; the second set repeats that with fresh
seeds. Per workload and end-to-end metric it reports each set's median and
spread (quartile distance as a share of the median, from
statistics.quantiles(n=4)) and checks:

- spread within the metric's bound in both sets;
- the two sets' medians differ by no more than the bound, either way.

Exits 0 when every check holds and every run verified its outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10
SETS = 2
SEED_STRIDE = 1000     # set k uses seeds k*SEED_STRIDE + 1 ..


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    result["host"] = next((ln for ln in lines if ln.startswith("host:")), "")
    result["seed"] = seed
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def summarize(bench: dict, runs: dict) -> tuple:
    """runs[workload][set] = list of results; returns (rows, all_ok)."""
    rows, ok = [], True
    for workload, sets in runs.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in results]
                       for results in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            drift = worse_by(medians[0], medians[1], metric["better"])
            row = {"workload": workload, "metric": name,
                   "unit": metric["unit"], "bound": bound,
                   "medians": medians, "spreads": spreads,
                   "second_worse_by": drift,
                   "agree": (all(s <= bound for s in spreads)
                             and abs(drift) <= bound)}
            ok &= row["agree"]
            rows.append(row)
    return rows, ok


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", help="write every run and the summary as JSON")
    args = p.parse_args(argv)

    runs, verified = {}, True
    for k in range(SETS):
        for workload in (w["name"] for w in bench["workloads"]):
            results = []
            for i in range(SEEDS):
                result = run_once(bench, workload, k * SEED_STRIDE + i + 1)
                verified &= result["correct"] and result["failed"] == 0
                print(f"set {k + 1} {workload} seed {result['seed']}: "
                      + " ".join(f"{n}={m['value']:.4g}"
                                 for n, m in result["metrics"].items())
                      + f"  [{result['host']}]", flush=True)
                results.append(result)
            runs.setdefault(workload, []).append(results)

    rows, ok = summarize(bench, runs)
    print(f"\n{'workload':14s} {'metric':13s} {'bound':>6s} "
          f"{'median(s)':>22s} {'spread(s)':>15s} {'2nd worse':>9s}  agree")
    for r in rows:
        print(f"{r['workload']:14s} {r['metric']:13s} {r['bound']:6.2f} "
              f"{' / '.join(f'{m:.4g}' for m in r['medians']):>22s} "
              f"{' / '.join(f'{s:.3f}' for s in r['spreads']):>15s} "
              f"{r['second_worse_by']:9.3f}  {'yes' if r['agree'] else 'NO'}")
    print(f"outputs verified in every run: {'yes' if verified else 'NO'}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"nproc": os.cpu_count(), "summary": rows, "runs": runs},
            indent=1) + "\n")
    return 0 if ok and verified else 1


if __name__ == "__main__":
    sys.exit(main())
