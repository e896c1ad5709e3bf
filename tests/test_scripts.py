"""Tests of the scripts and the committed configs: each demo runs to
completion and its printed results agree with the closed forms it
quotes, and so do the threshold sweeps; compare_outputs.py finds a
tree identical to itself and reports differences.  Also the hooks the
benchmark in perfbench/ relies on: its tracer reaches every layer, and a
command samples 1/k and psi once per problem."""

import contextlib
import dataclasses
import importlib.util
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


# the demo's printout with the residual column, rounding-level values, cut;
# the sweeps column pins the warm start of each interval
HETEROCLINIC_DEMO = """\
half-line hypothesis check: pass
  recip-integrable: pass
  psi-integrable: pass
  slope-in-branch: pass
  lipschitz: sampled-pass
  tail-limit: pass
  image-margin: pass
  psi-domination: sampled-pass
closed-form admissible |lambda| bound: 0.258569 > 0.2

== cubic forcing
  interval      status  sweeps     residual          gap
[0,     5]   converged       4            -
[0,    10]   converged       4   1.3311e-02
[0,    20]   converged       4   6.5486e-03
[0,    40]   converged       3   3.2352e-03
[0,    80]   converged       3   1.6063e-03
[0,   160]   converged       3   8.0016e-04
status converged; tail value 0.200000 (target 0.2); k_infinity 1.570796

== zero forcing (closed form known)
  interval      status  sweeps     residual          gap
[0,     5]   converged       1            -
[0,    10]   converged       1   1.3286e-02
[0,    20]   converged       1   6.5372e-03
[0,    40]   converged       1   3.2299e-03
[0,    80]   converged       1   1.6037e-03
[0,   160]   converged       1   7.9888e-04
status converged; tail value 0.200000 (target 0.2); k_infinity 1.570796
worst deviation from lam*arctan(t)/arctan(n): 1.953e-07
"""


def test_heteroclinic_demo():
    out = run_script("heteroclinic_demo.py")
    assert re.sub(r"  +\d\.\d{3}e[-+]\d\d(?=  )", "", out) == HETEROCLINIC_DEMO


def test_threshold_sweep(tmp_path, capsys):
    # each committed sweep config flips its check within one grid step of
    # its family's closed-form threshold, as the README states: 5 - 2
    # sqrt(6) for perona at alpha = 4, and 0.375 for plaplacian at p = 2,
    # beta = 4; example_condition computes the same two bounds
    from phibvp import cli, example_condition

    closed_forms = {"perona": 5.0 - 2.0 * math.sqrt(6.0), "plaplacian": 0.375}
    assert example_condition("perona", 0.0, alpha=4.0).bound == pytest.approx(
        closed_forms["perona"], rel=1e-14
    )
    assert example_condition("plaplacian", 0.0, p=2.0, beta=4.0).bound == 0.375
    for tag, closed in closed_forms.items():
        cfg = ROOT / "configs" / f"{tag}_threshold_sweep.cfg"
        assert cli.main(["sweep", str(cfg), "-o", str(tmp_path / tag)]) == 0
        out = capsys.readouterr().out
        flips = re.findall(r"check verdict flips between lambda = (\S+) and (\S+)", out)
        assert len(flips) == 1, out
        a, b = map(float, flips[0])
        assert abs(0.5 * (a + b) - closed) <= b - a


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
                 "extra r3-through-zero-sweep out/record.txt",
                 # a config with halfline = true runs the half-line schedule
                 "extra halfline-expr-weight stdout of halfline problem.cfg",
                 "extra halfline-expr-weight out/interval_160.txt",
                 "extra halfline-expr-weight out/record.txt",
                 "extra halfline-expr-psi stdout of halfline problem.cfg",
                 "extra halfline-expr-psi out/record.txt",
                 # every worked-example tag is built by some case
                 *(f"extra {tag}-example-sweep out/{name}"
                   for tag in ("sine", "plaplacian", "relativistic")
                   for name in ("sweep.txt", "record.txt")),
                 # and so is each committed threshold sweep
                 *(f"extra {tag}-threshold-sweep out/{name}"
                   for tag in ("perona", "plaplacian")
                   for name in ("sweep.txt", "record.txt")),
                 "extra halfline2-example out/interval_20.txt",
                 "extra halfline2-example out/record.txt"):
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
    # a key that one tree alone writes is named as such, not as a changed value
    assert cmp.record_difference(old, new.replace("beta = 1", "omega = 1")) == (
        "[solve] beta: only in OLD; [solve] omega: only in NEW"
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


def test_traced_halfline_feeds_its_layers(tmp_path, monkeypatch):
    # the half-line masses are resolved through the names the tracer patches
    tracing = _tracing_module(monkeypatch)
    (text,) = _workloads_module(monkeypatch)._halfline_configs(0).values()
    cfg = tmp_path / "halfline.cfg"
    cfg.write_text(text)
    from phibvp import cli

    recorder = tracing.Recorder()
    try:
        tracing.install(recorder)
        assert cli.main(["halfline", str(cfg), "-o", str(tmp_path / "run")]) == 0
    finally:
        recorder.uninstall()
    layers = {"halfline.total", "halfline.mass", "halfline.gap", "solver.solve"}
    assert layers <= {span.name for span in recorder.spans}


def _workloads_module(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


class _SampleCounts(dict):
    """recip, psi and self_test counts; a sample counts when it holds
    n_nodes points."""

    n_nodes = 0


def _count_samples(monkeypatch) -> _SampleCounts:
    """Counts of the node samples of 1/k and psi, and of the weight
    self-tests, from here on."""
    from phibvp import problem

    calls = _SampleCounts(recip=0, psi=0, self_test=0)

    def counted(fn, key):
        def wrapper(self, t):
            calls[key] += np.size(t) == calls.n_nodes
            return fn(self, t)

        return wrapper

    real_post_init = problem.Weight.__post_init__

    def post_init(self):
        calls["self_test"] += self.recip_antiderivative is not None
        real_post_init(self)

    monkeypatch.setattr(problem.Weight, "recip", counted(problem.Weight.recip, "recip"))
    monkeypatch.setattr(problem.Rhs, "psi_at", counted(problem.Rhs.psi_at, "psi"))
    monkeypatch.setattr(problem.Weight, "__post_init__", post_init)
    return calls


def test_each_command_samples_weight_and_psi_once(tmp_path, monkeypatch):
    # 1/k and psi are sampled on the full mesh once per problem, into its
    # Discretization.  A sweep samples 1/k and self-tests the weight once
    # per command, and psi once too, unless its right-hand side reads s*
    # (the plaplacian example): then once per lambda whose problem builds.
    workloads = _workloads_module(monkeypatch)
    from phibvp import cli
    from phibvp.config import load_problem_config, parse_config

    calls = _count_samples(monkeypatch)

    def run(name: str, text: str, command: str):
        calls.n_nodes = load_problem_config(parse_config(text)).mesh_n + 1
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
    assert len(rows) == 40 and all(not row[1].startswith("error:") for row in rows)
    assert calls == {"recip": 1, "psi": 1, "self_test": 1}

    text = _compare_outputs_module().EXTRA_CASES["plaplacian-example-sweep"]
    out = run("plaplacian", text, "sweep")
    rows = workloads.read_sweep(str(out / "sweep.txt"))
    built = sum(not row[1].startswith("error:") for row in rows)
    assert built > 1
    assert calls == {"recip": 1, "psi": built, "self_test": 1}

    # a decreasing branch is solved as it is, on the same discretization
    text = _compare_outputs_module().EXTRA_CASES["sine-decreasing"]
    run("sine", text, "solve")
    assert calls == {"recip": 1, "psi": 1, "self_test": 1}
    assert not load_problem_config(parse_config(text)).build_finite().branch.increasing


def test_a_sweep_writes_what_a_fresh_config_per_row_writes(tmp_path, monkeypatch):
    # the psi, L, min psi and kp that a sweep keeps across its rows are
    # those of a config loaded afresh for each row, for a right-hand side
    # that reads s* (plaplacian) and one that does not (perona)
    workloads = _workloads_module(monkeypatch)
    from phibvp import cli
    from phibvp.config import load_problem_config, parse_config

    real_row = cli._sweep_row

    def fresh_row(cfg, *args):
        return real_row(load_problem_config(cfg.doc), *args)

    cases = {
        "perona": workloads._sweep_configs(0)["sweep"],
        "plaplacian": _compare_outputs_module().EXTRA_CASES["plaplacian-example-sweep"],
    }
    for name, text in cases.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        written = []
        for row in (real_row, fresh_row):
            monkeypatch.setattr(cli, "_sweep_row", row)
            out = tmp_path / f"{name}-{len(written)}"
            assert cli.main(["sweep", str(cfg), "-o", str(out)]) == 0
            record = parse_config((out / "record.txt").read_text())
            written.append(((out / "sweep.txt").read_text(), record.section("sweep")))
        assert written[0] == written[1]
        assert int(written[0][1]["solved_rows"]) > 0


def test_a_psi_that_fails_to_sample_fails_every_sweep_row(tmp_path, monkeypatch):
    # a failed psi sampling is not kept: every row samples psi again and
    # reads error:ConfigError
    from phibvp import cli

    cfg = tmp_path / "bad_psi.cfg"
    cfg.write_text(
        "[operator]\nname = perona_malik\n\n"
        "[rhs]\nf = 0.1*cos(x)\npsi = 0.1/t\n\n"
        "[problem]\nnu1 = 0.0\nnu2 = 0.1\nT = 1.0\n\n"
        "[mesh]\nn = 50\n\n"
        "[sweep]\nlambda_min = 0.05\nlambda_max = 0.15\ncount = 3\n"
    )
    calls = _count_samples(monkeypatch)
    calls.n_nodes = 51
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "-o", str(out)]) == 1
    rows = (out / "sweep.txt").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert all(row.split(",")[1:3] == ["error:ConfigError", "skipped"] for row in rows)
    assert calls["psi"] == 3


def test_only_the_solve_command_verifies_its_solve(tmp_path, monkeypatch):
    # the solve command verifies the table it writes, through
    # solver.verify; a sweep row and a half-line interval are never verified
    workloads = _workloads_module(monkeypatch)
    from phibvp import cli, solver

    calls = []
    real = solver.verify
    monkeypatch.setattr(solver, "verify", lambda *args: calls.append(1) or real(*args))

    def run(name: str, text: str, command: str) -> int:
        calls.clear()
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        assert cli.main([command, str(cfg), "-o", str(tmp_path / name)]) == 0
        return len(calls)

    (text,) = workloads._solve_bisect_configs(0).values()
    assert run("difference", text, "solve") == 1
    assert run("sweep", workloads._sweep_configs(0)["sweep"], "sweep") == 0
    (text,) = workloads._halfline_configs(0).values()
    assert run("halfline", text, "halfline") == 0


def _readme_config() -> str:
    readme = (ROOT / "README.md").read_text()
    quick = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```ini\n(.*?)```", quick, re.S).group(1)


def test_solve_record_holds_verify_of_its_written_table(tmp_path):
    # the README config, a singular sqrt_t weight, and a decreasing branch:
    # the record's [solve.verification] is `verify` on the table the solve
    # wrote, read back from the file
    from phibvp import cli, verify
    from phibvp.config import load_problem_config, parse_config

    compare = _compare_outputs_module()
    texts = (
        _readme_config(),
        compare.EXTRA_CASES["perona-sqrt-t"],
        compare.EXTRA_CASES["sine-decreasing"],
    )
    problems = []
    for i, text in enumerate(texts):
        cfg = tmp_path / f"case{i}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"run{i}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", str(cfg), "-o", str(out)]) == 0
        problem = load_problem_config(parse_config(text)).build_finite()
        problems.append(problem)
        _, x, dx, u = cli.read_solution_table(str(out / "solution.txt"))
        expected = verify(problem, x, dx, u)
        record = parse_config((out / "record.txt").read_text())
        assert record.section("solve.verification") == {
            field.name: (
                str(value).lower() if isinstance(value, bool) else format(value, ".17g")
            )
            for field in dataclasses.fields(expected)
            for value in [getattr(expected, field.name)]
        }
        assert expected.ok
    assert problems[1].mesh.singular_indices
    assert not problems[2].branch.increasing


def test_each_problem_inverts_its_slope_box_once(tmp_path, monkeypatch):
    # the check and the solve read one BvpProblem.scalars: Phi(s*) +- 2L is
    # inverted once per problem, so a sweep does it once per passing row
    workloads = _workloads_module(monkeypatch)
    from phibvp import cli, problem, solve
    from phibvp.config import load_problem_config, parse_config

    # reference_slopes inverts Phi(s*) - 2L and Phi(s*) + 2L in one call
    calls = []
    real = problem.partial_inverse_array
    monkeypatch.setattr(
        problem, "partial_inverse_array",
        lambda phi, branch, y: calls.append(np.size(y)) or real(phi, branch, y),
    )

    text = workloads._sweep_configs(0)["sweep"]
    cfg = load_problem_config(parse_config(text))
    built = cfg.build_finite()
    assert cfg.run_check(built).overall == "pass"
    assert solve(built, cfg.iteration).status == "converged"
    assert calls == [2]

    calls.clear()
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    assert cli.main(["sweep", str(path), "-o", str(tmp_path / "sweep")]) == 0
    rows = workloads.read_sweep(str(tmp_path / "sweep" / "sweep.txt"))
    assert sum(row[1] == "pass" for row in rows) == len(calls) == 21
    assert set(calls) == {2}


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
        if "[sweep]" not in text and "halfline = true" not in text
    }
    for case, text in cases.items():
        cfg = tmp_path / f"{case}.cfg"
        cfg.write_text(text)
        out = tmp_path / case
        assert main(["solve", str(cfg), "-o", str(out)]) == 0
        assert main(["verify", str(out / "solution.txt"), str(cfg)]) == 0
    assert len(checked) == 2 * workloads.VARIANTS + len(cases) == 35
