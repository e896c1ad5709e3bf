"""Tests of the scripts: each demo runs to completion and its printed
results agree with the closed forms it quotes; compare_outputs.py finds a
tree identical to itself and reports differences."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

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
                 "halfline 0 out_halfline/interval_160.txt", "halfline 0 out_halfline/record.txt"):
        assert f"{name}: identical" in done.stdout, done.stdout


def test_compare_outputs_reports_differences():
    cmp = _compare_outputs_module()
    assert cmp.text_difference("t,x\n0,1.5\n", "t,x\n0,1.5\n") is None
    assert cmp.text_difference("t,x\n0,1.5\n", "t,x\n0,1.25\n") == "max abs difference 2.500e-01"
    assert cmp.text_difference("status converged", "status aborted") == "differs in text"
    old = "[run]\ntimestamp = 2026-01-01T00:00:00\nexit_code = 0\n\n[solve]\nbeta = 1\n"
    new = "[run]\ntimestamp = 2026-02-02T00:00:00\nexit_code = 0\n\n[solve]\nbeta = 1\n"
    assert cmp.record_difference(old, new) is None
    newer = new.replace("beta = 1", "beta = 2") + "\n[solve.verification]\nrefine_factor = 4\n"
    assert cmp.record_difference(old, newer) == (
        "[solve] beta: max abs difference 1.000e+00; [solve.verification] added"
    )


def test_tracer_installs_and_uninstalls_in_process(monkeypatch):
    # perfbench/tracing.py patches names the phibvp modules import; a
    # refactor that drops one of them makes install raise
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    recorder = tracing.Recorder()
    try:
        tracing.install(recorder)
        patched = list(recorder._undo)
    finally:
        recorder.uninstall()
    assert patched
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_one_solve_samples_weight_and_psi_at_most_four_times(tmp_path, monkeypatch):
    # one `phibvp solve` of the solve-bisect workload samples 1/k for the
    # build, the check's scalars, the solve's scalars and the solver kernel,
    # and psi for the two scalar derivations, the kernel and the verification
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    (text,) = workloads._solve_bisect_configs(0).values()
    cfg = tmp_path / "difference.cfg"
    cfg.write_text(text)

    from phibvp import cli, config, halfline, hypotheses, problem, solver

    calls = {"recip_weight_grid": 0, "psi_at": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    grid = counted(problem.recip_weight_grid, "recip_weight_grid")
    for module in (config, halfline, hypotheses, problem, solver):
        if hasattr(module, "recip_weight_grid"):
            monkeypatch.setattr(module, "recip_weight_grid", grid)
    monkeypatch.setattr(problem.Rhs, "psi_at", counted(problem.Rhs.psi_at, "psi_at"))
    assert cli.main(["solve", str(cfg), "-o", str(tmp_path / "run")]) == 0
    assert calls["recip_weight_grid"] <= 4, calls
    assert calls["psi_at"] <= 4, calls
