"""End-to-end tests of the command line layer.

Each test drives main() with argv and a config written to tmp_path, then
asserts on the exit code contract and the emitted tables.  Exit codes:
0 ok/converged, 1 usage, 2 hypothesis fail, 3 inconclusive, 4 numeric.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import phibvp
from phibvp import BetaBracketError, ConfigError, cli, derive_scalars, g17, parse_config
from phibvp import config as config_mod
from phibvp.config import ProblemConfig
from phibvp.cli import TABLE_BLOCK_ROWS, main, read_solution_table, write_solution_table
from phibvp.grid import Mesh

PERONA = """
[operator]
name = perona_malik

[weight]
name = constant
value = 1.0

[rhs]
example = perona
alpha = 4.0
M = 1.0
N = 1.0

[problem]
nu1 = 0.0
nu2 = {nu2}
T = 1.0
"""

QUADRATIC = """
[operator]
name = r_laplacian
r = 2.0

[weight]
name = constant
value = 1.0

[rhs]
f = 2.0 + 0.0*t
psi = 2.0 + 0.0*t

[problem]
nu1 = 0.0
nu2 = 0.0
T = 1.0

[mesh]
n = {n}
"""

ARCTAN = """
[operator]
name = r_laplacian
r = 2.0

[weight]
name = one_plus_t_squared

[problem]
nu1 = 0.0
nu2 = 0.2
halfline = true

[check]
kind = halfline-odd

[halfline]
schedule = 5, 10, 20, 40
tol_h = 1.0e-2
cells_per_unit = 50
"""


def write(tmp_path, text, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _echoed_config(record) -> str:
    """The config text that a record's config.* sections echo."""
    return "".join(
        f"[{name[len('config.'):]}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs)
        for name, pairs in record.sections
        if name.startswith("config.")
    )


class TestCheck:
    def test_pass_exits_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, PERONA.format(nu2=0.05))
        assert main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out

    def test_fail_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path, PERONA.format(nu2=0.15))
        assert main(["check", cfg]) == 2
        assert "overall: fail" in capsys.readouterr().out

    def test_negative_psi_leaves_the_margin_inconclusive(self, tmp_path, capsys):
        # M = -1 makes psi = M N t^alpha negative and L = -0.25: the margin
        # Phi(s*) +- 2L is no certificate then, whatever its numbers say
        text = PERONA.format(nu2=0.4).replace("perona_malik", "sine")
        text = text.replace("example = perona\nalpha = 4.0\nM = 1.0", "example = sine\nalpha = 3\nM = -1")
        out = tmp_path / "run"
        assert main(["check", write(tmp_path, text), "-o", str(out)]) == 2
        captured = capsys.readouterr().out
        assert "image-margin: inconclusive  (phi_s_star=" in captured
        assert "psi-domination: fail  (psi_min=-1)" in captured
        assert "overall: fail" in captured
        item = parse_config((out / "record.txt").read_text()).section("check.image-margin")
        assert item["verdict"] == "inconclusive"
        assert item["detail"].startswith("psi is negative at sampled nodes")

    def test_check_writes_record(self, tmp_path):
        cfg = write(tmp_path, PERONA.format(nu2=0.05))
        out = tmp_path / "run"
        assert main(["check", cfg, "-o", str(out), "--seed", "7"]) == 0
        record = parse_config((out / "record.txt").read_text())
        run = record.section("run")
        assert run["command"] == "check"
        assert run["exit_code"] == "0"
        assert run["seed"] == "7"
        assert record.section("check")["overall"] == "pass"
        # config echo preserves the input sections
        assert record.section("config.problem")["nu2"] == "0.05"

    def test_missing_file_exits_one(self, capsys):
        assert main(["check", "/nonexistent.cfg"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_vanishing_weight_error_prints_a_plain_float(self, tmp_path, capsys):
        text = QUADRATIC.format(n=10).replace(
            "name = constant\nvalue = 1.0", "expr = t - 0.5"
        )
        assert "expr = t - 0.5" in text
        cfg = write(tmp_path, text)
        assert main(["solve", cfg, "-o", str(tmp_path / "run")]) != 0
        err = capsys.readouterr().err
        assert "t=0.5" in err
        assert "np.float64" not in err

    @pytest.mark.parametrize("expr", ["t - 0.5", "abs(t - 0.5)"])
    def test_vanishing_weight_is_a_config_error(self, tmp_path, capsys, expr):
        text = QUADRATIC.format(n=10).replace(
            "name = constant\nvalue = 1.0", f"expr = {expr}"
        )
        cfg = write(tmp_path, text)
        assert main(["solve", cfg, "-o", str(tmp_path / "run")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_iteration_value_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, PERONA.format(nu2=0.05) + "\n[iteration]\nomega = 2\n")
        assert main(["check", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error: [iteration] omega" in err

    @pytest.mark.parametrize(
        "flag,value",
        [("--damping", "0"), ("--damping", "0.05"), ("--tol-fp", "-1"), ("--max-iters", "0")],
    )
    def test_invalid_iteration_flag_is_a_config_error(self, tmp_path, capsys, flag, value):
        cfg = write(tmp_path, QUADRATIC.format(n=10))
        assert main(["solve", cfg, "-o", str(tmp_path / "run"), flag, value]) == 1
        err = capsys.readouterr().err
        assert f"config error: {flag}" in err

    @pytest.mark.parametrize(
        "kind", ["halfline", "halfline-odd", "thm1", "cor-surjective", "cor-singular"]
    )
    def test_check_kind_must_fit_the_problem(self, tmp_path, capsys, kind):
        if kind.startswith("halfline"):
            text = PERONA.format(nu2=0.05) + f"\n[check]\nkind = {kind}\n"
            needs = "needs halfline = true"
        else:
            # relativistic: a bounded branch with image all of R, so cor-singular
            # gets past its own scope checks
            text = ARCTAN.replace("kind = halfline-odd", f"kind = {kind}")
            if kind == "cor-singular":
                text = text.replace("name = r_laplacian\nr = 2.0", "name = relativistic")
            needs = "needs a finite T"
        assert main(["check", write(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and f"[check] kind: {kind} {needs}" in err

    @pytest.mark.parametrize("n", [10, 100])
    def test_smooth_weight_on_a_coarse_mesh(self, tmp_path, capsys, n):
        # the trapezoid k1 of 1/(1 + t^2) is off by 5e-6 at n = 100: only
        # the weight's own antiderivative self-test may judge its K
        text = (
            QUADRATIC.format(n=n)
            .replace("name = constant\nvalue = 1.0", "name = one_plus_t_squared")
            .replace("f = 2.0 + 0.0*t\npsi = 2.0 + 0.0*t", "f = 0.0*t\npsi = 0.0*t")
        )
        cfg = write(tmp_path, text)
        assert main(["check", cfg]) == 0
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        assert main(["verify", str(out / "solution.txt"), cfg]) == 0
        assert "verification: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["auto", "cor-singular"])
    @pytest.mark.parametrize("nu2", ["1.0", "1.5"])
    def test_slope_in_no_branch_is_a_failed_hypothesis(
        self, tmp_path, capsys, kind, nu2
    ):
        # relativistic Phi lives on (-1, 1): s* = nu2 >= 1 lies in no branch
        text = RELATIVISTIC_SWEEP.replace("nu2 = 0.1", f"nu2 = {nu2}")
        cfg = write(tmp_path, text + f"\n[check]\nkind = {kind}\n")
        out = tmp_path / "run"
        assert main(["check", cfg, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"slope-in-branch: fail  (s_star={float(nu2):.17g} " in captured.out
        assert "error" not in captured.err
        record = parse_config((out / "record.txt").read_text())
        assert record.section("run")["exit_code"] == "2"
        item = record.section("check.slope-in-branch")
        assert item["verdict"] == "fail" and float(item["s_star"]) == float(nu2)
        assert item["detail"] == "no monotone branch of Phi contains s*"

    @pytest.mark.parametrize("command", ["check", "halfline"])
    @pytest.mark.parametrize(
        "check", ["auto", "halfline-odd", "halfline\nl_lip = 2.0\ndelta = 0.05"]
    )
    def test_halfline_slope_in_no_branch_is_a_failed_hypothesis(
        self, tmp_path, capsys, command, check
    ):
        # s*_inf = 40 / (pi / 2) = 25.46... lies outside (-1, 1)
        text = (
            "[operator]\nname = relativistic\n"
            "[weight]\nname = one_plus_t_squared\n"
            "[problem]\nnu1 = 0.0\nnu2 = 40.0\nhalfline = true\n"
            f"[check]\nkind = {check}\n"
        )
        out = tmp_path / "run"
        assert main([command, write(tmp_path, text), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert "slope-in-branch: fail  (s_star_infinity=25.46479089470" in captured.out
        assert "error" not in captured.err
        record = parse_config((out / "record.txt").read_text())
        assert record.section("run")["exit_code"] == "2"
        item = record.section("check.slope-in-branch")
        assert item["verdict"] == "fail" and item["branch_lo"] == "nan"
        assert item["detail"] == "no monotone branch of Phi contains s*_inf"

    def test_slope_outside_the_hint_is_a_failed_hypothesis(self, tmp_path, capsys):
        text = RELATIVISTIC_SWEEP.replace(
            "name = relativistic", "name = relativistic\nbranch_hint = 0.2, 0.9"
        )
        assert main(["check", write(tmp_path, text)]) == 2
        out = capsys.readouterr().out
        assert "slope-in-branch: fail  (s_star=0.10000000000000001" in out
        assert "branch_lo=0.20000000000000001 branch_hi=0.90000000000000002" in out

    @pytest.mark.parametrize(
        "hint,message",
        [
            ("-2.0, 2.0", "branch hint leaves the operator domain"),
            ("0.5, 0.5", "branch hint must be a nonempty interval"),
        ],
    )
    def test_bad_hint_is_a_config_error(self, tmp_path, capsys, hint, message):
        text = RELATIVISTIC_SWEEP.replace(
            "name = relativistic", f"name = relativistic\nbranch_hint = {hint}"
        )
        cfg = write(tmp_path, text.replace("nu2 = 0.1", "nu2 = 1.5"))
        assert main(["check", cfg]) == 1
        assert f"config error: [problem] {message}" in capsys.readouterr().err

    def test_a_branch_hint_is_certified_once_per_config(self, tmp_path, monkeypatch):
        # the hint's branch does not depend on nu2: one certification serves
        # a check whose s* lies outside the hint and every row of a sweep
        from phibvp import operators

        calls = []
        real = operators.hint_branch

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        for module in (operators, config_mod):
            monkeypatch.setattr(module, "hint_branch", counted)
        text = RELATIVISTIC_SWEEP.replace(
            "name = relativistic", "name = relativistic\nbranch_hint = 0.2, 0.9"
        )
        assert main(["check", write(tmp_path, text)]) == 2
        assert calls == [(0.2, 0.9)]
        calls.clear()
        text = text.replace("count = 3", "count = 10")
        assert main(["sweep", write(tmp_path, text), "-o", str(tmp_path / "run")]) == 0
        assert calls == [(0.2, 0.9)]

    def test_open_branch_end_in_the_lipschitz_samples_warns_nothing(
        self, tmp_path, capsys
    ):
        # delta reaches past the branch end s = 1 of relativistic Phi, so
        # the Lipschitz samples include the pole
        text = ARCTAN.replace("name = r_laplacian\nr = 2.0", "name = relativistic")
        text = text.replace("nu2 = 0.2", "nu2 = 1.5").replace(
            "kind = halfline-odd", "kind = halfline\nl_lip = 2\ndelta = 0.05"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", write(tmp_path, text)]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "nonsense\n")
        assert main(["check", cfg]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_usage_error_exits_one(self):
        assert main(["check"]) == 1
        assert main(["frobnicate", "x.cfg"]) == 1
        assert main([]) == 1


class TestSolve:
    def test_quadratic_solution_table(self, tmp_path, capsys):
        cfg = write(tmp_path, QUADRATIC.format(n=500))
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        t, x, dx, u = read_solution_table(str(out / "solution.txt"))
        assert t.size == 501
        np.testing.assert_allclose(x, t * (t - 1.0), atol=5e-8)
        np.testing.assert_allclose(dx, 2.0 * t - 1.0, atol=5e-7)
        # u = Phi(k x') = x' for the identity operator and unit weight
        np.testing.assert_allclose(u, dx, atol=1e-12)
        record = parse_config((out / "record.txt").read_text())
        assert record.section("solve")["status"] == "converged"

    def test_check_gate_blocks_solve(self, tmp_path):
        cfg = write(tmp_path, PERONA.format(nu2=0.15))
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 2
        assert not (out / "solution.txt").exists()
        record = parse_config((out / "record.txt").read_text())
        assert record.section("check")["overall"] == "fail"
        assert record.section("solve") is None

    def test_slope_in_no_branch_blocks_solve(self, tmp_path, capsys):
        cfg = write(tmp_path, RELATIVISTIC_SWEEP.replace("nu2 = 0.1", "nu2 = 1.5"))
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 2
        assert "slope-in-branch: fail" in capsys.readouterr().out
        assert not (out / "solution.txt").exists()
        record = parse_config((out / "record.txt").read_text())
        assert record.section("run")["exit_code"] == "2"
        assert record.section("check")["overall"] == "fail"

    def test_sup_norm_solve_converges_and_verifies(self, tmp_path, capsys):
        cfg = write(tmp_path, PERONA.format(nu2=0.05) + "p = inf\n")
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        assert main(["verify", str(out / "solution.txt"), cfg]) == 0
        assert "verification: ok" in capsys.readouterr().out

    def test_mesh_override_flag(self, tmp_path):
        cfg = write(tmp_path, QUADRATIC.format(n=500))
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out), "--mesh-n", "40"]) == 0
        t, *_ = read_solution_table(str(out / "solution.txt"))
        assert t.size == 41

    def test_record_replays_flag_overrides(self, tmp_path):
        cfg = write(tmp_path, QUADRATIC.format(n=500))
        out = tmp_path / "run"
        flags = ["--mesh-n", "40", "--tol-beta", "1e-11", "--damping", "0.75"]
        assert main(["solve", cfg, "-o", str(out), *flags]) == 0
        record = parse_config((out / "record.txt").read_text())
        assert record.section("run.overrides") == {
            "mesh-n": "40",
            "tol-beta": format(1e-11, ".17g"),
            "damping": "0.75",
        }
        assert record.section("config.mesh") == {"n": "40"}
        # every effective iteration value, the overridden ones as given
        assert record.section("config.iteration") == {
            "tol_beta": format(1e-11, ".17g"),
            "omega": "0.75",
            "max_outer": "200",
            "tol_fp": "1e-10",
            "stagnation": "10",
        }
        # the echoed config alone reproduces the table
        replay_cfg = tmp_path / "replay.cfg"
        replay_cfg.write_text(_echoed_config(record))
        replay = tmp_path / "replay"
        assert main(["solve", str(replay_cfg), "-o", str(replay)]) == 0
        assert (replay / "solution.txt").read_bytes() == (out / "solution.txt").read_bytes()
        assert parse_config((replay / "record.txt").read_text()).section("run.overrides") is None

    def test_record_with_the_fixed_iteration_keys_replays(self, tmp_path):
        # records written while acceleration, window and min_omega were
        # settable echo them, at the values the solver now fixes
        cfg = write(tmp_path, PERONA.format(nu2=0.05))
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        record = parse_config((out / "record.txt").read_text())
        for key, value in (("acceleration", "secant"), ("window", "3"), ("min_omega", "0.0625")):
            assert key not in record.section("config.iteration")
            record = record.with_value("config.iteration", key, value)
        replay_cfg = tmp_path / "replay.cfg"
        replay_cfg.write_text(_echoed_config(record))
        replay = tmp_path / "replay"
        assert main(["solve", str(replay_cfg), "-o", str(replay)]) == 0
        assert (replay / "solution.txt").read_bytes() == (out / "solution.txt").read_bytes()

    def test_record_replays_across_a_default_change(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, PERONA.format(nu2=0.05))
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        record = parse_config((out / "record.txt").read_text())
        replay_cfg = tmp_path / "replay.cfg"
        replay_cfg.write_text(_echoed_config(record))

        @dataclasses.dataclass(frozen=True)
        class Damped(config_mod.IterationConfig):
            omega: float = 0.5

        monkeypatch.setattr(config_mod, "IterationConfig", Damped)
        rerun, replay = tmp_path / "rerun", tmp_path / "replay"
        assert main(["solve", cfg, "-o", str(rerun)]) == 0
        assert main(["solve", str(replay_cfg), "-o", str(replay)]) == 0
        table = (out / "solution.txt").read_bytes()
        # the config without [iteration] now runs damped; its record does not
        assert (rerun / "solution.txt").read_bytes() != table
        assert (replay / "solution.txt").read_bytes() == table

    def test_record_shows_how_the_mixing_went(self, tmp_path):
        text = PERONA.format(nu2=0.05)
        cfg = write(tmp_path, text)
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        section = parse_config((out / "record.txt").read_text()).section("solve")
        config = cli.load_problem_config(parse_config(text))
        report = cli.solve(config.build_finite(), config.iteration)
        assert section["omega_halvings"] == str(report.omega_halvings)
        assert section["secant_rejections"] == str(report.secant_rejections)
        trace = [float(step) for step in section["trace"].split(",")]
        assert trace == list(report.trace)
        assert len(trace) == int(section["iterations"])

    def test_record_holds_the_verification(self, tmp_path):
        text = QUADRATIC.format(n=200)
        cfg = write(tmp_path, text)
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        record = parse_config((out / "record.txt").read_text())
        config = cli.load_problem_config(parse_config(text))
        expected = cli.solve(config.build_finite(), config.iteration).verification
        section = record.section("solve.verification")
        assert list(section) == [
            "boundary_defect", "operator_defect", "integral_defect",
            "slope_defect", "residual_defect", "ok",
        ]
        assert section.pop("ok") == "true" and expected.ok
        for name, value in section.items():
            assert value == format(float(getattr(expected, name)), ".17g"), name

    def test_record_holds_the_scalars(self, tmp_path):
        text = PERONA.format(nu2=0.05)
        cfg = write(tmp_path, text)
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        record = parse_config((out / "record.txt").read_text())
        expected = derive_scalars(cli.load_problem_config(parse_config(text)).build_finite())
        assert record.section("solve.scalars") == {
            field.name: format(getattr(expected, field.name), ".17g")
            for field in dataclasses.fields(expected)
        }

    def test_deterministic_tables(self, tmp_path):
        cfg = write(tmp_path, QUADRATIC.format(n=200))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", cfg, "-o", str(out1)]) == 0
        assert main(["solve", cfg, "-o", str(out2)]) == 0
        assert (out1 / "solution.txt").read_bytes() == (
            out2 / "solution.txt"
        ).read_bytes()


SWEEP = PERONA.format(nu2=0.05) + (
    "\n[sweep]\nlambda_min = 0.09\nlambda_max = 0.11\ncount = 5\n"
)

RELATIVISTIC_SWEEP = """
[operator]
name = relativistic

[weight]
name = constant
value = 1.0

[problem]
nu1 = 0.0
nu2 = 0.1
T = 1.0

[mesh]
n = 100

[sweep]
lambda_min = 0.5
lambda_max = 1.5
count = 3
"""


R3_THROUGH_ZERO = """
[operator]
name = r_laplacian
r = 3.0

[weight]
name = constant
value = 1.0

[rhs]
f = 0.1*cos(x)*sin(y) + 0*t
psi = 0.1

[problem]
nu1 = 0.0
nu2 = 0.0
T = 1.0

[mesh]
n = 64

[sweep]
lambda_min = -0.6
lambda_max = 0.6
count = 13
"""

WEAVE_SQRT_T = """
[operator]
name = r_laplacian
r = 2.0

[weight]
name = sqrt_t

[rhs]
f = 0.2*sin(3*t + x) - 0.1*cos(y)
psi = 0.3

[problem]
nu1 = 0.0
nu2 = 0.05
T = 1.0

[mesh]
n = 400
"""

PERONA_FLIP_SWEEP = PERONA.format(nu2=0.05) + (
    "\n[sweep]\nlambda_min = 0.09\nlambda_max = 0.11\ncount = 9\n"
)


def _sweep(tmp_path, text):
    """Run a sweep; return its table rows and its record's [sweep] counts."""
    out = tmp_path / "run"
    assert main(["sweep", write(tmp_path, text), "-o", str(out)]) == 0
    lines = (out / "sweep.txt").read_text().splitlines()[1:]
    record = parse_config((out / "record.txt").read_text())
    counts = {key: int(value) for key, value in record.section("sweep").items()}
    return [line.split(",") for line in lines], counts


class TestSweep:
    def test_perona_threshold_flip(self, tmp_path, capsys):
        cfg = write(tmp_path, PERONA_FLIP_SWEEP)
        out = tmp_path / "run"
        assert main(["sweep", cfg, "-o", str(out), "--threads", "3"]) == 0
        lines = (out / "sweep.txt").read_text().splitlines()
        assert lines[0] == "lambda,check,solve,residual"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9
        lams = [float(r[0]) for r in rows]
        assert lams == sorted(lams)
        verdicts = [r[1] for r in rows]
        # threshold = 5 - 2 sqrt(6) = 0.1010...: flip between 0.100 and 0.1025
        flip = 5.0 - 2.0 * math.sqrt(6.0)
        for lam, verdict in zip(lams, verdicts):
            assert verdict == ("pass" if lam < flip else "fail")
        for row in rows:
            if row[1] == "pass":
                assert row[2] == "converged"
                assert float(row[3]) < 1e-8
            else:
                assert row[2] == "skipped"
                assert math.isnan(float(row[3]))
        assert "flips between" in capsys.readouterr().out

    def test_continuation_sweeps_at_most_40_times(self, tmp_path):
        # the sweep workload's shape: 21 passing rows, each started cold
        # they take 126 sweeps, from the cubic predictor 36
        text = PERONA.format(nu2=0.05) + (
            "\n[mesh]\nn = 2000\n"
            "\n[sweep]\nlambda_min = 0.059\nlambda_max = 0.139\ncount = 40\n"
        )
        rows, counts = _sweep(tmp_path, text)
        assert [r[2] for r in rows].count("converged") == 21
        assert counts["cold_restarts"] == 0
        assert counts["iterations"] <= 40

    def test_predicted_rows_agree_with_cold_solves(self, tmp_path, monkeypatch):
        calls = []

        def recording(problem, config=None, initial=None):
            report = solver_solve(problem, config, initial=initial)
            calls.append((problem, config, initial, report))
            return report

        solver_solve = cli.solve
        monkeypatch.setattr(cli, "solve", recording)
        rows, counts = _sweep(tmp_path, PERONA_FLIP_SWEEP)
        predicted = [call for call in calls if call[2] is not None]
        assert len(predicted) == counts["predicted_starts"] == 4
        for problem, config, _, report in predicted:
            assert report.status == "converged"
            cold = solver_solve(problem)
            assert cold.status == "converged"
            assert np.max(np.abs(report.x.values - cold.x.values)) <= 1e-10
            assert abs(report.beta - cold.beta) <= 1e-10
            scale = 1.0 + np.abs(cold.x_prime.values)
            assert np.max(np.abs(report.x_prime.values - cold.x_prime.values) / scale) <= 1e-9

    def test_stalled_prediction_restarts_cold(self, tmp_path):
        # at lambda = 0 the predicted start stalls (Phi^{-1} of r = 3 has an
        # infinite slope at 0); with the stagnation budget it is abandoned
        # after 10 sweeps, and unbudgeted it ran to max-iters: 259 sweeps
        rows, counts = _sweep(tmp_path, R3_THROUGH_ZERO)
        assert [r[2] for r in rows] == ["converged"] * 13
        assert counts["cold_restarts"] == 1
        assert counts["iterations"] <= 75

    def test_residual_is_a_per_cell_defect_in_u_units(self, tmp_path):
        # graded toward t = 0, the first cells are about 4e-11 wide; a
        # residual divided by the width read 1.9e-9 to 8.7e-7 on these rows
        text = WEAVE_SQRT_T + "\n[sweep]\nlambda_min = 0.01\nlambda_max = 0.05\ncount = 9\n"
        rows, _ = _sweep(tmp_path, text)
        assert [r[2] for r in rows] == ["converged"] * 9
        assert max(float(r[3]) for r in rows) <= 1e-12

    def test_prediction_that_raises_restarts_cold(self, tmp_path, monkeypatch):
        solver_solve = cli.solve

        def failing(problem, config=None, initial=None):
            if initial is not None:
                raise BetaBracketError("injected failure")
            return solver_solve(problem, config)

        monkeypatch.setattr(cli, "solve", failing)
        rows, counts = _sweep(tmp_path, PERONA_FLIP_SWEEP)
        assert [r[2] for r in rows] == ["converged"] * 5 + ["skipped"] * 4
        assert counts["predicted_starts"] == counts["cold_restarts"] == 4

    def test_repeated_lambda_starts_from_its_own_solution(self, tmp_path):
        # lambda_min = lambda_max: the predictor keeps one row per lambda
        text = PERONA.format(nu2=0.05) + (
            "\n[sweep]\nlambda_min = 0.09\nlambda_max = 0.09\ncount = 3\n"
        )
        rows, counts = _sweep(tmp_path, text)
        assert [r[2] for r in rows] == ["converged"] * 3
        assert counts["predicted_starts"] == 2 and counts["cold_restarts"] == 0

    def test_record_counts_match_the_table(self, tmp_path, monkeypatch):
        reports = []

        def recording(problem, config=None, initial=None):
            reports.append(solver_solve(problem, config, initial=initial))
            return reports[-1]

        solver_solve = cli.solve
        monkeypatch.setattr(cli, "solve", recording)
        rows, counts = _sweep(tmp_path, PERONA_FLIP_SWEEP)
        solved = [r for r in rows if r[2] != "skipped"]
        assert len(rows) == 9 and len(solved) == len(reports) == 5
        assert counts == {
            "rows": 9,
            "solved_rows": 5,
            "predicted_starts": 4,
            "cold_restarts": 0,
            "iterations": sum(report.iterations for report in reports),
        }

    def test_predictor_is_exact_on_cubics(self):
        def row(lam):
            return lam, np.full(3, lam**3 - lam), np.full(3, 2.0 * lam**2)

        history = [row(lam) for lam in (0.0, 0.1, 0.3, 0.4)]
        x, xp = cli._predict(history, 0.7, (3,))
        assert np.allclose(x, 0.7**3 - 0.7, rtol=0, atol=1e-14)
        assert np.allclose(xp, 2.0 * 0.49, rtol=0, atol=1e-14)
        # one point: the previous row; no row on this mesh: a cold start
        assert cli._predict(history[-1:], 0.7, (3,))[0][0] == 0.4**3 - 0.4
        assert cli._predict(history, 0.7, (4,)) is None

    def test_sweep_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError("sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = write(tmp_path, SWEEP)
        assert main(["sweep", cfg, "-o", str(tmp_path / "run"), "--threads", "3"]) == 0

    def test_threads_flag_is_ignored(self, tmp_path):
        cfg = write(tmp_path, SWEEP)
        one, three = tmp_path / "one", tmp_path / "three"
        assert main(["sweep", cfg, "-o", str(one), "--threads", "1"]) == 0
        assert main(["sweep", cfg, "-o", str(three), "--threads", "3"]) == 0
        assert (one / "sweep.txt").read_bytes() == (three / "sweep.txt").read_bytes()

    def test_slope_in_no_branch_is_a_fail_row(self, tmp_path, capsys):
        # relativistic Phi lives on (-1, 1): s* = lambda >= 1 lies in no
        # branch, a failed hypothesis and so a verdict flip
        cfg = write(tmp_path, RELATIVISTIC_SWEEP)
        out = tmp_path / "run"
        assert main(["sweep", cfg, "-o", str(out)]) == 0
        lines = (out / "sweep.txt").read_text().splitlines()[1:]
        rows = [line.split(",")[1:3] for line in lines]
        assert rows == [["pass", "converged"], ["fail", "skipped"], ["fail", "skipped"]]
        out = capsys.readouterr().out
        assert "check verdict flips between lambda = 0.5 and 1" in out

    @staticmethod
    def _build_fails_above_one(monkeypatch):
        # no catalog config fails to build for some lambdas only: inject it
        build = ProblemConfig.build_finite

        def flaky(self, nu2_override=None):
            if nu2_override is not None and nu2_override >= 1.0:
                raise ConfigError("[problem] injected build failure")
            return build(self, nu2_override)

        monkeypatch.setattr(ProblemConfig, "build_finite", flaky)

    def test_failed_build_names_its_error(self, tmp_path, monkeypatch):
        self._build_fails_above_one(monkeypatch)
        cfg = write(tmp_path, RELATIVISTIC_SWEEP)
        out = tmp_path / "run"
        assert main(["sweep", cfg, "-o", str(out)]) == 0
        lines = (out / "sweep.txt").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        assert [r[1] for r in rows] == ["pass", "error:ConfigError", "error:ConfigError"]
        assert [r[2] for r in rows] == ["converged", "skipped", "skipped"]

    def test_error_rows_are_not_flips(self, tmp_path, capsys, monkeypatch):
        # rows pass, error:ConfigError, error:ConfigError: no verdict flips
        self._build_fails_above_one(monkeypatch)
        cfg = write(tmp_path, RELATIVISTIC_SWEEP)
        assert main(["sweep", cfg, "-o", str(tmp_path / "run")]) == 0
        assert "verdict flips" not in capsys.readouterr().out

    def test_sweep_without_a_verdict_exits_one(self, tmp_path, capsys):
        # a hint outside the operator domain fails every row's build
        text = RELATIVISTIC_SWEEP.replace(
            "name = relativistic", "name = relativistic\nbranch_hint = -2.0, 2.0"
        )
        cfg = write(tmp_path, text)
        out = tmp_path / "run"
        assert main(["sweep", cfg, "-o", str(out)]) == 1
        rows = [line.split(",") for line in (out / "sweep.txt").read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["error:ConfigError"] * 3
        record = parse_config((out / "record.txt").read_text())
        assert record.section("run")["exit_code"] == "1"
        captured = capsys.readouterr()
        assert "verdict flips" not in captured.out
        assert "no sweep row produced a check verdict" in captured.err

    def test_empty_range(self, tmp_path):
        cfg = write(
            tmp_path,
            PERONA.format(nu2=0.05)
            + "\n[sweep]\nlambda_min = 0.0\nlambda_max = 1.0\ncount = 0\n",
        )
        out = tmp_path / "run"
        assert main(["sweep", cfg, "-o", str(out)]) == 0
        assert (out / "sweep.txt").read_text() == "lambda,check,solve,residual\n"

    def test_sweep_without_section_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path, PERONA.format(nu2=0.05))
        assert main(["sweep", cfg, "-o", str(tmp_path / "r")]) == 1
        assert "no [sweep] section" in capsys.readouterr().err


class TestHalfline:
    def test_arctan_family(self, tmp_path, capsys):
        cfg = write(tmp_path, ARCTAN)
        out = tmp_path / "run"
        code = main(["halfline", cfg, "-o", str(out)])
        assert code == 0
        lines = (out / "gaps.txt").read_text().splitlines()
        assert lines[0] == "n,gap"
        gaps = [tuple(map(float, line.split(","))) for line in lines[1:]]
        labels = [g[0] for g in gaps]
        values = [g[1] for g in gaps]
        # gap(10 -> 20) = 0.0065 meets tol_h = 1e-2, so the run stops at 20
        assert labels == [5.0, 10.0]
        assert values == sorted(values, reverse=True)
        assert values[-1] <= 1e-2
        # interval tables exist for every n that actually ran
        assert not (out / "interval_40.txt").exists()
        for n in (5, 10, 20):
            t, x, dx, u = read_solution_table(str(out / f"interval_{n}.txt"))
            assert t[0] == 0.0 and t[-1] == float(n)
            # monotone climb toward nu2 = 0.2
            assert abs(x[-1] - 0.2) < 1e-12
        record = parse_config((out / "record.txt").read_text())
        assert record.section("halfline")["status"] == "converged"
        assert record.section("halfline.gaps") is not None

    def test_check_gate(self, tmp_path):
        # halfline1 cubic family fails its tail condition at lam = 0.28
        text = (
            "[operator]\nname = r_laplacian\nr = 2.0\nbranch_hint = 0.05, 1.0\n"
            "[weight]\nname = one_plus_t_squared\n"
            "[rhs]\nexample = halfline1\n"
            "[problem]\nnu1 = 0.0\nnu2 = 0.28\nhalfline = true\n"
            "[check]\nkind = halfline\nl_lip = 2.0\ndelta = 0.05\n"
        )
        cfg = write(tmp_path, text)
        out = tmp_path / "run"
        assert main(["halfline", cfg, "-o", str(out)]) == 2
        assert not (out / "gaps.txt").exists()

    def test_solver_error_writes_record(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise BetaBracketError("bisection bracket does not straddle")

        monkeypatch.setattr(cli, "solve_halfline", fail)
        cfg = write(tmp_path, ARCTAN)
        out = tmp_path / "run"
        assert main(["halfline", cfg, "-o", str(out), "--seed", "3"]) == 4
        assert "solver error: bisection bracket" in capsys.readouterr().err
        record = parse_config((out / "record.txt").read_text())
        assert record.section("run")["command"] == "halfline"
        assert record.section("run")["exit_code"] == "4"
        assert record.section("run")["seed"] == "3"
        assert record.section("check")["overall"] == "pass"
        assert record.section("halfline") is None
        assert not (out / "gaps.txt").exists()

    def test_schedule_exhausted_exits_four(self, tmp_path):
        cfg = write(tmp_path, ARCTAN.replace("tol_h = 1.0e-2", "tol_h = 1.0e-9"))
        out = tmp_path / "run"
        assert main(["halfline", cfg, "-o", str(out)]) == 4
        record = parse_config((out / "record.txt").read_text())
        assert record.section("halfline")["status"] == "schedule-exhausted"

    @staticmethod
    def _check_both_weights(tmp_path, capsys, text, pattern):
        """The check's printout for the catalog and the expression form of
        k = 1 + t^2, and the float that pattern captures in each."""
        found = []
        for weight in ("name = one_plus_t_squared", "expr = 1 + t^2"):
            code = main(["check", write(tmp_path, text.format(weight=weight))])
            out = capsys.readouterr().out
            match = re.search(pattern, out)
            assert match is not None, out
            found.append((code, float(match.group(1))))
        return found

    def test_expression_weight_takes_the_branch_at_its_own_limit_slope(
        self, tmp_path, capsys
    ):
        # the build finds the branch at the s*_inf the check reports; for an
        # expression weight that is the numeric 1/k mass, not slope 0
        text = (
            "[operator]\nname = perona_malik\n[weight]\n{weight}\n"
            "[rhs]\nf = 0.001*exp(-t)*cos(x)*sin(y)\npsi = 0.001*exp(-t)\n"
            "[problem]\nnu1 = 0\nnu2 = 2\nhalfline = true\n[halfline]\npsi_l1 = 0.001\n"
            "[check]\nkind = halfline\nl_lip = 1\ndelta = 0.1\n"
        )
        (code, s_catalog), (code_expr, s_expr) = self._check_both_weights(
            tmp_path, capsys, text,
            r"slope-in-branch: pass  \(s_star_infinity=(\S+) branch_lo=1 branch_hi=inf\)",
        )
        assert code_expr == code
        assert s_expr == pytest.approx(s_catalog, rel=1e-6)

    def test_expression_weight_certifies_psi_at_its_own_limit_slope(
        self, tmp_path, capsys
    ):
        # the plaplacian psi is the certificate at s*_inf: built at slope 0
        # for the expression weight, its max ratio read twice the catalog's
        text = (
            "[operator]\nname = r_laplacian\nr = 2\n[weight]\n{weight}\n"
            "[rhs]\nexample = plaplacian\np = 2\nbeta = 0.5\nN = 1\n"
            "[problem]\nnu1 = 0\nnu2 = 0.2\nhalfline = true\n[halfline]\npsi_l1 = 1\n"
            "[check]\nkind = halfline-odd\n"
        )
        (code, catalog), (code_expr, expr) = self._check_both_weights(
            tmp_path, capsys, text, r"psi-domination: sampled-pass  \(max_ratio=(\S+) "
        )
        assert code == code_expr == 0
        assert expr == pytest.approx(catalog, rel=1e-6)

    def test_the_psi_mass_is_resolved_once(self, tmp_path, monkeypatch):
        # the check and the schedule read one HalflineProblem.scalars
        from phibvp import halfline, hypotheses

        calls = []
        real = halfline.psi_mass

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (halfline, hypotheses):
            if hasattr(module, "psi_mass"):
                monkeypatch.setattr(module, "psi_mass", counted)
        assert main(["halfline", write(tmp_path, ARCTAN), "-o", str(tmp_path / "run")]) == 0
        assert len(calls) == 1

    def test_the_recip_mass_is_integrated_once(self, tmp_path, monkeypatch):
        # an expression weight has no closed-form 1/k mass: the build's
        # branch choice and HalflineProblem.scalars share one integral
        from phibvp import grid, halfline, problem

        calls = []
        real = halfline.halfline_integral

        def counted(fn, *args, **kwargs):
            calls.append(getattr(fn, "__func__", None) is problem.Weight.recip)
            return real(fn, *args, **kwargs)

        for module in (grid, problem, halfline):
            if hasattr(module, "halfline_integral"):
                monkeypatch.setattr(module, "halfline_integral", counted)
        text = ARCTAN.replace("name = one_plus_t_squared", "expr = 1 + t*t")
        assert main(["halfline", write(tmp_path, text), "-o", str(tmp_path / "run")]) == 0
        assert calls == [True]

    def test_vanishing_weight_fails_recip_integrable(self, tmp_path, capsys):
        # 1/k = inf everywhere leaves a zero numeric mass: a failed
        # hypothesis, not a division by zero
        text = (
            "[operator]\nname = r_laplacian\nr = 2\n[weight]\nexpr = 0*t\n"
            "[problem]\nnu1 = 0\nnu2 = 0.2\nhalfline = true\n"
            "[check]\nkind = halfline\nl_lip = 1\ndelta = 0.5\n"
        )
        assert main(["check", write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert "recip-integrable: fail  (mass=0 " in captured.out
        assert "Traceback" not in captured.err


RELATIVISTIC_SQRT_T = """
[operator]
name = relativistic

[weight]
name = sqrt_t

[rhs]
example = halfline2

[problem]
nu1 = 0.0
nu2 = 1.0
T = 1.0

[mesh]
n = 10
"""

# f oscillates in x', and the solved slope on the first graded cell lies
# below the slope envelope there
R_LAPLACIAN_SQRT_T = """
[operator]
name = r_laplacian
r = 3

[weight]
name = sqrt_t

[rhs]
f = 0.1*cos(x)*sin(y) + 0*t
psi = 0.1

[problem]
nu1 = 0.0
nu2 = 1.5
T = 1.0

[mesh]
n = 10
"""


class TestVerify:
    def test_round_trip_on_own_output(self, tmp_path, capsys):
        cfg = write(tmp_path, QUADRATIC.format(n=300))
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        table = str(out / "solution.txt")
        assert main(["verify", table, cfg]) == 0
        assert "verification: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_singular_weight_solution_verifies(self, tmp_path, capsys, n):
        # k = sqrt(t) vanishes at t = 0: the graded mesh must carry the
        # solution to the accuracy that verify's slope check asks for
        text = (
            PERONA.format(nu2=0.05)
            .replace("name = constant\nvalue = 1.0", "name = sqrt_t")
            .replace("M = 1.0\nN = 1.0", "M = 0.5\nN = 0.1")
        )
        cfg = write(tmp_path, text + f"\n[mesh]\nn = {n}\n")
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        assert main(["verify", str(out / "solution.txt"), cfg]) == 0
        assert "verification: ok" in capsys.readouterr().out

    def test_coarse_singular_mesh_verifies(self, tmp_path, capsys):
        # f = exp(-t) arctan(x x') is of order one next to the singular
        # node t = 0: verify must integrate it there by the solver's rule,
        # or the first graded cell shows as a defect
        cfg = write(tmp_path, RELATIVISTIC_SQRT_T)
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        assert main(["verify", str(out / "solution.txt"), cfg]) == 0
        assert "verification: ok" in capsys.readouterr().out

    def test_unclipped_midpoint_slopes_verify(self, tmp_path, capsys):
        # the solver's f on the first graded cell, whose singular end has
        # no slope, must be the one verify integrates from the table, or
        # that cell shows as an integral defect
        cfg = write(tmp_path, R_LAPLACIAN_SQRT_T)
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        assert main(["verify", str(out / "solution.txt"), cfg]) == 0
        assert "verification: ok" in capsys.readouterr().out

    def test_corrupted_table_fails(self, tmp_path, capsys):
        cfg = write(tmp_path, QUADRATIC.format(n=300))
        out = tmp_path / "run"
        main(["solve", cfg, "-o", str(out)])
        table = out / "solution.txt"
        lines = table.read_text().splitlines()
        # poison one interior x value
        parts = lines[150].split(",")
        parts[1] = format(float(parts[1]) + 0.1, ".17g")
        lines[150] = ",".join(parts)
        table.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(table), cfg]) == 4
        assert "FAILED" in capsys.readouterr().out

    DIFFERENCE = """
[operator]
name = difference
alpha = 2
beta = 0

[weight]
name = constant
value = 1.0

[rhs]
f = 0.05 * cos(x) + 0*t
psi = 0.05

[problem]
nu1 = 0.0
nu2 = 1.5
T = 1.0

[mesh]
n = 200
"""

    @pytest.mark.parametrize("column", [1, 2, 3])
    def test_nan_at_a_regular_node_fails(self, tmp_path, capsys, column, printed_verification):
        # a NaN x, dx or u on the row t = 0.5 prints every defect and
        # fails; only a singular node may leave dx out
        cfg = write(tmp_path, self.DIFFERENCE)
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        table = out / "solution.txt"
        lines = table.read_text().splitlines()
        parts = lines[101].split(",")
        assert float(parts[0]) == 0.5
        parts[column] = "nan"
        lines[101] = ",".join(parts)
        table.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(table), cfg]) == 4
        captured = capsys.readouterr()
        assert captured.err == ""
        printed = printed_verification(captured.out)
        assert printed["ok"] == "false"
        assert "nan" in [printed[key] for key in printed if key != "ok"]

    def test_grid_mismatch_exits_one(self, tmp_path, capsys):
        cfg300 = write(tmp_path, QUADRATIC.format(n=300), "a.cfg")
        cfg200 = write(tmp_path, QUADRATIC.format(n=200), "b.cfg")
        out = tmp_path / "run"
        main(["solve", cfg300, "-o", str(out)])
        assert main(["verify", str(out / "solution.txt"), cfg200]) == 1
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["nan", "1e9"])
    def test_table_grid_off_the_mesh_exits_one(self, tmp_path, capsys, t):
        # |nan - node| > tol is False: the check must not pass a NaN t
        cfg = write(tmp_path, QUADRATIC.format(n=200))
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        table = out / "solution.txt"
        lines = table.read_text().splitlines()
        parts = lines[101].split(",")
        parts[0] = t
        lines[101] = ",".join(parts)
        table.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(table), cfg]) == 1
        captured = capsys.readouterr()
        assert "table grid does not match" in captured.err
        assert "verification" not in captured.out

    def test_vanishing_weight_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, QUADRATIC.format(n=10), "good.cfg")
        out = tmp_path / "run"
        assert main(["solve", cfg, "-o", str(out)]) == 0
        text = QUADRATIC.format(n=10).replace(
            "name = constant\nvalue = 1.0", "expr = t - 0.5"
        )
        bad = write(tmp_path, text, "bad.cfg")
        assert main(["verify", str(out / "solution.txt"), bad]) == 1
        assert "error:" in capsys.readouterr().err

    def test_rejects_garbage_table(self, tmp_path, capsys):
        cfg = write(tmp_path, QUADRATIC.format(n=100))
        bad = tmp_path / "bad.txt"
        bad.write_text("not,a,table\n")
        assert main(["verify", str(bad), cfg]) == 1
        assert "must start with" in capsys.readouterr().err

    def test_header_only_table_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, QUADRATIC.format(n=100))
        empty = tmp_path / "empty.txt"
        empty.write_text("t,x,dx,u\n")
        assert main(["verify", str(empty), cfg]) == 1
        assert "has no rows" in capsys.readouterr().err


# configs shaped like the benchmark's tables: the difference operator at
# n = 1e4, perona at n = 2000, the last half-line interval [0, 160] at 200
# cells per unit, and a sqrt_t weight whose slope is nan at t = 0
TABLE_DIFFERENCE = """
[operator]
name = difference
alpha = 2
beta = 0

[weight]
name = constant
value = 1.0

[rhs]
f = 0.05 * cos(x) * sin(y)
psi = 0.05

[problem]
nu1 = 0.0
nu2 = 1.5
T = 1.0

[mesh]
n = 10000
"""

TABLE_PERONA = PERONA.format(nu2=0.05) + "\n[mesh]\nn = 2000\n"

TABLE_HALFLINE_INTERVAL = """
[operator]
name = r_laplacian
r = 2

[weight]
name = one_plus_t_squared

[rhs]
example = halfline1

[problem]
nu1 = 0.0
nu2 = 0.2
T = 160.0

[mesh]
n = 32000
"""

TABLE_SQRT_T = (
    TABLE_PERONA.replace("name = constant\nvalue = 1.0", "name = sqrt_t")
    .replace("M = 1.0\nN = 1.0", "M = 0.5\nN = 0.1")
)


class TestSolutionTable:
    def test_block_writer_matches_per_value_format(self, tmp_path):
        n = 2 * TABLE_BLOCK_ROWS + 2
        rng = np.random.default_rng(3)
        nodes = np.cumsum(rng.uniform(0.5, 1.5, n + 1))
        nodes[0] = 0.0
        mesh = Mesh(nodes, singular_indices=(0, TABLE_BLOCK_ROWS))
        x, dx, u = (
            rng.standard_normal(n + 1) * 10.0 ** rng.integers(-300, 300, n + 1)
            for _ in range(3)
        )
        special = [math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e-300, 0.1]
        for col in (x, dx, u):
            col[1 : 1 + len(special)] = special
            col[TABLE_BLOCK_ROWS - 1 : TABLE_BLOCK_ROWS + len(special) - 1] = special
        report = SimpleNamespace(
            x=SimpleNamespace(values=x),
            x_prime=SimpleNamespace(values=dx),
            u=SimpleNamespace(values=u),
        )
        path = tmp_path / "table.txt"
        write_solution_table(str(path), mesh, report)

        expected = ["t,x,dx,u\n"]
        for i in range(n + 1):
            d = math.nan if i in mesh.singular_indices else dx[i]
            row = (nodes[i], x[i], d, u[i])
            expected.append(",".join(format(float(v), ".17g") for v in row) + "\n")
        text = path.read_text()
        assert text == "".join(expected)
        for piece in ("nan", "-inf", "4.9406564584124654e-324", "1.0000000000000001e+300", ",-0,"):
            assert piece in text

    @pytest.mark.parametrize(
        "text",
        [TABLE_DIFFERENCE, TABLE_PERONA, TABLE_HALFLINE_INTERVAL, TABLE_SQRT_T],
        ids=["difference-1e4", "perona-2000", "halfline-0-160", "sqrt_t-nan-dx"],
    )
    def test_only_zeros_and_nans_take_the_percent_fallback(self, tmp_path, monkeypatch, text):
        cfg = config_mod.load_problem_config(parse_config(text))
        problem = cfg.build_finite()
        report = phibvp.solve(problem, cfg.iteration)
        fallback = []
        exact = g17._exact
        monkeypatch.setattr(g17, "_exact", lambda v: fallback.append(v) or exact(v))
        path = tmp_path / "table.txt"
        write_solution_table(str(path), problem.mesh, report)
        table = np.array(read_solution_table(str(path)))
        special = (table == 0.0) | np.isnan(table)
        assert len(fallback) == special.sum() <= 4
        assert np.isnan(table[2]).sum() == len(problem.mesh.singular_indices)

    def test_peak_memory_does_not_grow_with_the_table(self, tmp_path):
        """Blocks of TABLE_BLOCK_ROWS rows bound the writer's work arrays.
        The bound is below the 1.58 MiB that formatting the 64k-row table
        with % a block of 4096 rows at a time peaks at."""
        peaks = []
        for n in (1 << 14, 1 << 16):
            nodes = np.linspace(0.0, 160.0, n)
            mesh = Mesh(nodes, singular_indices=(0,))
            report = SimpleNamespace(
                x=SimpleNamespace(values=np.tanh(nodes)),
                x_prime=SimpleNamespace(values=1.0 / np.cosh(nodes) ** 2),
                u=SimpleNamespace(values=np.sin(nodes)),
            )
            path = str(tmp_path / f"table_{n}.txt")
            write_solution_table(path, mesh, report)  # builds the encoder's tables
            tracemalloc.start()
            try:
                write_solution_table(path, mesh, report)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * 2**20
        assert peaks[1] <= peaks[0] + 64 * 2**10


PLAPLACIAN_DEGENERATE = """
[operator]
name = r_laplacian
r = 2.0

[rhs]
example = plaplacian
p = 2.0
beta = 1.0

[problem]
nu1 = 0.0
nu2 = 0.1
T = 1.0
"""

HALFLINE_NEGATIVE_LIPSCHITZ = ARCTAN.replace(
    "kind = halfline-odd", "kind = halfline\nl_lip = -2\ndelta = 0.05"
)

# build and check failures that once printed "error:", with the start of
# their message; {cfg} is the config, {table} a table on a 10-cell mesh
CONFIG_FAILURES = {
    "mesh-n-1-check": (
        PERONA.format(nu2=0.05), ["check", "{cfg}", "--mesh-n", "1"], "[mesh] "
    ),
    "mesh-n-1-solve": (
        PERONA.format(nu2=0.05),
        ["solve", "{cfg}", "--mesh-n", "1", "-o", "{out}"],
        "[mesh] ",
    ),
    "plaplacian-beta-p-1": (PLAPLACIAN_DEGENERATE, ["check", "{cfg}"], "[rhs] "),
    "perona-alpha-not-above-minus-one": (
        PERONA.format(nu2=0.05).replace("alpha = 4.0", "alpha = -1.5"),
        ["check", "{cfg}"],
        "[rhs] alpha must exceed -1 for an integrable psi",
    ),
    "cor-surjective-perona": (
        PERONA.format(nu2=0.05) + "\n[check]\nkind = cor-surjective\n",
        ["check", "{cfg}"],
        "[check] ",
    ),
    "negative-l-lip-check": (
        HALFLINE_NEGATIVE_LIPSCHITZ, ["check", "{cfg}"], "[check] "
    ),
    "negative-l-lip-halfline": (
        HALFLINE_NEGATIVE_LIPSCHITZ, ["halfline", "{cfg}", "-o", "{out}"], "[check] "
    ),
    "halfline-odd-asymmetric-hint": (
        ARCTAN.replace("r = 2.0", "r = 2.0\nbranch_hint = 0.05, 1.0"),
        ["check", "{cfg}"],
        "[check] ",
    ),
    "sweep-without-section": (
        PERONA.format(nu2=0.05),
        ["sweep", "{cfg}", "-o", "{out}"],
        "config has no [sweep] section",
    ),
    "verify-other-mesh": (
        QUADRATIC.format(n=20),
        ["verify", "{table}", "{cfg}"],
        "table grid does not match",
    ),
}


class TestExitCodeContract:
    @pytest.mark.parametrize("case", list(CONFIG_FAILURES))
    def test_build_and_check_failures_are_config_errors(self, tmp_path, capsys, case):
        text, argv, message = CONFIG_FAILURES[case]
        solved = tmp_path / "solved"
        if "{table}" in argv:
            ten = write(tmp_path, QUADRATIC.format(n=10), "ten.cfg")
            assert main(["solve", ten, "-o", str(solved)]) == 0
            capsys.readouterr()
        paths = {
            "cfg": write(tmp_path, text),
            "out": str(tmp_path / "run"),
            "table": str(solved / "solution.txt"),
        }
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_module_entry_point_prints_no_traceback(self, tmp_path):
        text = PERONA.format(nu2=0.05) + "\n[check]\nlattice = nan, 2, 2\n"
        cfg = write(tmp_path, text)
        # the package the in-process tests import, wherever it lives
        src = str(Path(phibvp.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-m", "phibvp.cli", "check", cfg],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("config error: ")


def test_readme_quick_start_prints_what_readme_shows(tmp_path, monkeypatch, capsys):
    # the ```ini config of the README's quick start, and each command the
    # quick start names with the output block that follows it; a shown
    # line that ends in " ...)" is a prefix of the printed one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    config = re.search(r"```ini\n(.*?)```", quick, re.S).group(1)
    shown = re.findall(r"`phibvp ([a-z][^`]*)`.*?\n```\n(.*?)```", quick, re.S)
    assert [command.split()[0] for command, _ in shown] == ["check", "solve", "verify"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pendulum.cfg").write_text(config)
    for command, block in shown:
        assert main(command.split()) == 0, command
        printed = capsys.readouterr().out.splitlines()
        for line in block.splitlines():
            if line.endswith(" ...)"):
                assert any(p.startswith(line[: -len("...)")]) for p in printed), line
            else:
                assert line in printed, line


def test_readme_calls_name_package_attributes():
    # each `name(` and `Class.method(` the README writes in code is
    # something a phibvp module defines; builtins, the expression
    # language's functions and capitalised or one-letter maths (Phi(s*),
    # u(t)) are not package names
    import builtins
    import importlib
    import pkgutil

    from phibvp.expressions import BINARY_FUNCTIONS, UNARY_FUNCTIONS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = [phibvp] + [
        importlib.import_module(f"phibvp.{info.name}")
        for info in pkgutil.iter_modules(phibvp.__path__)
    ]
    not_ours = set(dir(builtins)) | set(UNARY_FUNCTIONS) | set(BINARY_FUNCTIONS)

    def defined(name):
        for module in modules:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if obj is not None:
                return True
        return False

    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)\(", readme))
    checked = sorted(
        n for n in names if "." in n or (n[0].islower() and len(n) > 1 and n not in not_ours)
    )
    assert "verify" in checked
    assert [n for n in checked if not defined(n)] == []
