"""Tests of the scripts: each demo runs to completion and its printed
results agree with the closed forms it quotes; compare_outputs.py finds a
tree identical to itself and reports differences.  Also the hooks the
benchmark in perfbench/ relies on: its tracer reaches every layer, and a
command samples 1/k and psi once per problem."""

import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_heteroclinic_demo():
    out = run_script("heteroclinic_demo.py")
    assert "status converged" in out
    worst = re.search(r"worst deviation from \S+: (\S+)", out)
    assert worst is not None, out
    assert float(worst.group(1)) < 1e-5


def test_threshold_sweep():
    out = run_script("threshold_sweep.py")
    flips = re.findall(
        r"flip between (\S+) and (\S+) \(midpoint (\S+), closed form (\S+)\)", out
    )
    # one flip per swept family
    assert len(flips) == 2, out
    for a, b, mid, closed in (tuple(map(float, f)) for f in flips):
        assert abs(mid - closed) <= b - a


def _compare_outputs_module():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_finds_the_tree_identical_to_itself(tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), src, src,
         "--variants", "0"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "0 difference(s)"
    for name in ("solve-bisect 0 out_difference/solution.txt", "sweep 0 out_sweep/sweep.txt",
                 "halfline 0 out_halfline/interval_160.txt", "halfline 0 out_halfline/record.txt",
                 "extra perona-sqrt-t out/solution.txt", "extra perona-sqrt-t out/record.txt",
                 "extra perona-sqrt-t stdout of verify solution.txt",
                 "extra sine-decreasing out/solution.txt", "extra sine-decreasing out/record.txt",
                 "extra sine-decreasing stdout of verify solution.txt",
                 "extra difference-decreasing out/solution.txt",
                 "extra difference-decreasing out/record.txt",
                 "extra difference-decreasing stdout of verify solution.txt",
                 # a config with a [sweep] section is swept, not solved
                 "extra perona-sqrt-t-sweep out/sweep.txt",
                 "extra perona-sqrt-t-sweep out/record.txt",
                 "extra r3-through-zero-sweep out/sweep.txt",
                 "extra r3-through-zero-sweep out/record.txt"):
        assert f"{name}: identical" in done.stdout, done.stdout


def test_compare_outputs_reports_differences():
    cmp = _compare_outputs_module()
    assert cmp.text_difference("t,x\n0,1.5\n", "t,x\n0,1.5\n") is None
    assert cmp.text_difference("t,x\n0,1.5\n", "t,x\n0,1.25\n") == (
        "max abs difference 2.500e-01, scaled 1.000e-01"
    )
    # a large value: the scaled difference is |old - new| / (1 + |old|)
    assert cmp.text_difference("dx\n24999\n", "dx\n24999.5\n") == (
        "max abs difference 5.000e-01, scaled 2.000e-05"
    )
    assert cmp.text_difference("status converged", "status aborted") == "differs in text"
    old = "[run]\ntimestamp = 2026-01-01T00:00:00\nexit_code = 0\n\n[solve]\nbeta = 1\n"
    new = "[run]\ntimestamp = 2026-02-02T00:00:00\nexit_code = 0\n\n[solve]\nbeta = 1\n"
    assert cmp.record_difference(old, new) is None
    newer = new.replace("beta = 1", "beta = 2") + "\n[solve.verification]\nrefine_factor = 4\n"
    assert cmp.record_difference(old, newer) == (
        "[solve] beta: max abs difference 1.000e+00, scaled 5.000e-01; "
        "[solve.verification] added"
    )


def _tracing_module(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls_in_process(monkeypatch):
    # perfbench/tracing.py patches names the phibvp modules import; a
    # refactor that drops one of them makes install raise
    tracing = _tracing_module(monkeypatch)
    recorder = tracing.Recorder()
    try:
        tracing.install(recorder)
        patched = list(recorder._undo)
    finally:
        recorder.uninstall()
    assert patched
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_traced_solve_feeds_every_layer(tmp_path, monkeypatch):
    # a refactor can keep a binding the tracer patches and stop calling
    # it; its layer would then read zero
    tracing = _tracing_module(monkeypatch)
    (text,) = _workloads_module(monkeypatch)._solve_bisect_configs(0).values()
    cfg = tmp_path / "difference.cfg"
    cfg.write_text(text)
    from phibvp import cli

    recorder = tracing.Recorder()
    try:
        tracing.install(recorder)
        assert cli.main(["solve", str(cfg), "-o", str(tmp_path / "run")]) == 0
    finally:
        recorder.uninstall()
    layers = {
        "cli.main", "cli.record", "cli.table_write", "config.load", "config.build",
        "expressions.eval", "grid.mesh", "grid.cumulative", "hypotheses.check",
        "operators.find_branch", "operators.inverse", "problem.scalars",
        "solver.solve", "solver.kernel", "solver.gmap", "solver.truncated_rhs",
        "solver.beta", "solver.map_eval", "solver.verify",
    }
    assert layers <= {span.name for span in recorder.spans}


def _workloads_module(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_each_command_samples_weight_and_psi_once(tmp_path, monkeypatch):
    # 1/k and psi are sampled on the full mesh once per problem, into its
    # Discretization.  A sweep samples 1/k and self-tests the weight once
    # per command, and psi once per lambda whose problem builds.
    workloads = _workloads_module(monkeypatch)
    from phibvp import cli, problem
    from phibvp.config import load_problem_config, parse_config

    n_nodes = 0
    calls = {}

    def counted(fn, key):
        def wrapper(self, t):
            calls[key] += np.size(t) == n_nodes
            return fn(self, t)

        return wrapper

    real_post_init = problem.Weight.__post_init__

    def post_init(self):
        calls["self_test"] += self.recip_antiderivative is not None
        real_post_init(self)

    monkeypatch.setattr(problem.Weight, "recip", counted(problem.Weight.recip, "recip"))
    monkeypatch.setattr(problem.Rhs, "psi_at", counted(problem.Rhs.psi_at, "psi"))
    monkeypatch.setattr(problem.Weight, "__post_init__", post_init)

    def run(name: str, text: str, command: str):
        nonlocal n_nodes
        n_nodes = load_problem_config(parse_config(text)).mesh_n + 1
        calls.update(recip=0, psi=0, self_test=0)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        assert cli.main([command, str(cfg), "-o", str(out)]) == 0
        return out

    (text,) = workloads._solve_bisect_configs(0).values()
    run("difference", text, "solve")
    assert calls == {"recip": 1, "psi": 1, "self_test": 1}

    out = run("sweep", workloads._sweep_configs(0)["sweep"], "sweep")
    rows = workloads.read_sweep(str(out / "sweep.txt"))
    built = sum(not row[1].startswith("error:") for row in rows)
    assert len(rows) == 40 and built > 0
    assert calls == {"recip": 1, "psi": built, "self_test": 1}

    # a decreasing branch is solved as it is, on the same discretization
    text = _compare_outputs_module().EXTRA_CASES["sine-decreasing"]
    run("sine", text, "solve")
    assert calls == {"recip": 1, "psi": 1, "self_test": 1}
    assert not load_problem_config(parse_config(text)).build_finite().branch.increasing


def test_every_benchmark_solve_records_what_verify_prints(
    tmp_path, monkeypatch, printed_verification
):
    # every solve that compare_outputs.py runs and then verifies: the
    # solve-bisect solves and the re-solved sweep row of each variant, and
    # the extra solve cases; the record's [solve.verification] is what
    # `phibvp verify` prints on the table, digit for digit
    workloads = _workloads_module(monkeypatch)
    from phibvp import cli
    from phibvp.config import parse_config

    checked = []

    def main(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        if argv[0] == "verify":
            record = Path(argv[1]).parent / "record.txt"
            section = parse_config(record.read_text()).section("solve.verification")
            assert section == printed_verification(buffer.getvalue()), argv
            assert section["ok"] == "true", argv
            checked.append(argv[1])
        return code

    for name in ("solve-bisect", "sweep"):
        for variant in range(workloads.VARIANTS):
            workdir = str(tmp_path / f"{name}_{variant}")
            ctx = workloads.Context(workloads.WORKLOADS[name], variant, workdir, 2)
            ctx.write_configs()
            for argv in ctx.workload.run(ctx):
                assert main(argv) == 0, argv
            for argv in ctx.workload.verify(ctx, main):
                assert main(argv) == 0, argv
    cases = {
        case: text
        for case, text in _compare_outputs_module().EXTRA_CASES.items()
        if "[sweep]" not in text
    }
    for case, text in cases.items():
        cfg = tmp_path / f"{case}.cfg"
        cfg.write_text(text)
        out = tmp_path / case
        assert main(["solve", str(cfg), "-o", str(out)]) == 0
        assert main(["verify", str(out / "solution.txt"), str(cfg)]) == 0
    assert len(checked) == 2 * workloads.VARIANTS + len(cases) == 35
