"""minimt benchmark: one run of one workload, in its own process.

    python3 perfbench/run.py --workload train-mtl --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; minimt is imported from its ``src``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
# a desk step's CPU time equals its wall time: BLAS threads gain nothing on
# these shapes and only add scheduler noise
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def calibrate():
    """A fixed numpy and pure-Python loop, printed beside each run's metrics
    so that drift of the machine can be told apart from drift of the program."""
    import numpy as np

    a = np.random.default_rng(0).random((64, 64))
    t0 = perf_counter()
    for _ in range(6000):
        a @ a
    t1 = perf_counter()
    total = 0
    for i in range(1_200_000):
        total += i * i
    t2 = perf_counter()
    return 1e3 * (t1 - t0), 1e3 * (t2 - t1)


def timed_rounds(workload, ops, tracer, seconds):
    """Run whole rounds of the workload until ``seconds`` have passed and,
    with a tracer, at least one traced round has been attempted. With a
    tracer, rounds alternate untraced and traced so that the overhead is
    measured on the same run.

    Returns the wall time and, for untraced (False) and traced (True) rounds,
    the mean time of each round's operations that succeeded: within a
    train_loop round, steps that page-fault freshly allocated memory take
    about 40% longer than steps that reuse it, and the median of single steps
    jumps between the two."""
    round_means = {False: [], True: []}
    traced_turn = False
    traced_rounds = 0
    start = perf_counter()
    while True:
        if traced_turn:
            tracer.install()
            ops.tracer = tracer
        durations = ops.traced if traced_turn else ops.untraced
        done = len(durations)
        failed = ops.failed
        try:
            workload.round()
        except Exception:
            traceback.print_exc()
            if ops.failed == failed:
                ops.attempted += 1
                ops.failed += 1
        finally:
            if traced_turn:
                ops.tracer = None
                tracer.uninstall()
                traced_rounds += 1
        if len(durations) > done:
            round_means[traced_turn].append(statistics.fmean(durations[done:]))
        traced_turn = tracer is not None and not traced_turn
        if perf_counter() - start >= seconds and (tracer is None or traced_rounds):
            return round_means, perf_counter() - start


def _median_ms(seconds):
    """Median in ms; None when no round had an operation that succeeded."""
    return 1e3 * statistics.median(seconds) if seconds else None


def measure(args, workdir):
    # imported here, not at the top: numpy must load after the thread
    # variables are set, and the import time is part of setup_s
    t0 = perf_counter()
    import workloads
    from tracing import Tracer
    import_s = perf_counter() - t0

    ops = workloads.Ops()
    workload = workloads.WORKLOADS[args.workload](args.seed, ops, workdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
    ops.reset()
    workload.reset()
    workload.before_timing()
    numpy_ms, python_ms = calibrate()

    tracer = Tracer() if args.trace else None
    round_means, wall = timed_rounds(workload, ops, tracer, args.seconds)

    try:
        failures = workload.check()
    except Exception:
        traceback.print_exc()
        failures = ["the checks raised"]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)

    times = sorted(ops.untraced)
    print(f"calibration: numpy_matmul_ms {numpy_ms:.2f} python_loop_ms {python_ms:.2f} "
          f"(reference figures, not metrics)")
    summary = (f"{args.workload} seed {args.seed}: {len(times)} untraced ops in {wall:.2f} s, "
               f"setups {', '.join(f'{s:.3f}' for s in setups)} s")
    if len(times) >= 100:
        summary += f", op_ms.p90 {1e3 * statistics.quantiles(times, n=10)[-1]:.3f}"
    print(summary)

    if tracer is None:
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "op_ms.p50": (_median_ms(round_means[False]), "ms"),
            "tok_s": (workload.tokens / wall, "tokens/s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        traced, untraced = _median_ms(round_means[True]), _median_ms(round_means[False])
        overhead = 100 * (traced / untraced - 1) if traced and untraced else None
        metrics = tracer.per_layer(overhead)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}")
    return {"correct": not failures, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-mtl", "train-long", "decode-beam", "experiment-smoke"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "minimt" / "__init__.py").is_file():
        print(f"perfbench: no minimt sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
