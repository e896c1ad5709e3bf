"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_counters.py

The traced counters are exact: two traced runs on one seed must agree on
every counter in tracing.EXACT.  Timings are never asserted.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_on_one_seed(workload):
    first, second = traced(workload, 5), traced(workload, 5)
    assert first["correct"] and second["correct"]
    for name in tracing.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["solver.outer_iters"]["value"] > 0


def test_self_time_subtracts_the_union_of_children():
    root = tracing.Span("cli.main", 0, None, 0.0, 10.0)
    kids = [tracing.Span("solver.solve", 0, root, a, b) for a, b in ((1, 3), (2, 5), (7, 8))]
    own = tracing.self_times([root, *kids])
    assert own[id(root)] == pytest.approx(5.0)
    assert own[id(kids[1])] == pytest.approx(3.0)


def test_uninstall_restores_every_binding():
    from phibvp import cli, solver

    before = (cli.main, solver.partial_inverse_array, solver.BetaEquation.value)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    assert cli.main is not before[0]
    recorder.uninstall()
    after = (cli.main, solver.partial_inverse_array, solver.BetaEquation.value)
    assert all(a is b for a, b in zip(before, after))
