"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--save perfbench/out/spread-a.json]

Runs the command in BENCHMARK.json once per workload and seed, for
BENCHMARK.json's run_seconds, one process at a time, and prints per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median beside the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--save", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            out = subprocess.run(bench["command"] + ["--workload", workload, "--seed", str(seed),
                                                     "--seconds", str(bench["run_seconds"]),
                                                     "--trace", "0"],
                                 cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            cal = re.search(r"numpy_matmul_ms ([\d.]+) python_loop_ms ([\d.]+)", out)
            result["calibration"] = [float(cal.group(1)), float(cal.group(2))]
            runs[workload].append(result)
            print(f"{workload} seed {seed} ({time.perf_counter() - t0:.1f} s): "
                  f"correct {result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed "
                  + " ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1) + "\n")

    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, results in runs.items():
        series = {name: [r["metrics"][name]["value"] for r in results] for name in bounds}
        series["calibration numpy ms"] = [r["calibration"][0] for r in results]
        series["calibration python ms"] = [r["calibration"][1] for r in results]
        for name, values in series.items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {workload} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {bounds.get(name, '')} |")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"| {workload} | failed share | {shares} | | | | |")
        if not all(r["correct"] for r in results):
            print(f"| {workload} | correct | False | | | | |")


if __name__ == "__main__":
    sys.exit(main())
