"""A run whose every operation fails still ends and reports its counts.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_run.py
"""

import sys
from argparse import Namespace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


class AlwaysFails:
    """Each round is two operations that raise."""

    def __init__(self, seed, ops, workdir):
        self.ops = ops
        self.reset()

    def reset(self):
        self.tokens = 0

    def setup(self):
        pass

    before_timing = setup

    def _op(self):
        raise RuntimeError("the operation fails")

    def round(self):
        for _ in range(2):
            try:
                self.ops.run(self._op)
            except RuntimeError:
                pass

    def check(self):
        return []


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_whose_operations_all_fail_reports_them(monkeypatch, tmp_path, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "always-fails", AlwaysFails)
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = Namespace(workload="always-fails", seed=1, seconds=0.05, trace=trace)
    result = run.measure(args, str(tmp_path))
    assert result["attempted"] >= 2 and result["failed"] == result["attempted"]
    assert result["correct"]
    name = "trace.overhead_pct" if trace else "op_ms.p50"
    assert result["metrics"][name]["value"] is None


def test_a_round_that_raises_counts_as_one_failed_operation(monkeypatch, tmp_path):
    def raising_round(self):
        raise RuntimeError("the round fails before any operation")

    monkeypatch.setattr(AlwaysFails, "round", raising_round)
    ops = workloads.Ops()
    round_means, _ = run.timed_rounds(AlwaysFails(1, ops, tmp_path), ops, None, 0.01)
    assert ops.attempted >= 1 and ops.failed == ops.attempted
    assert round_means == {False: [], True: []}
