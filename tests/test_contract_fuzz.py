"""Contract fuzz of `phibvp check`, `phibvp solve`, `phibvp sweep` and
`phibvp halfline`.

Configs are drawn from the catalogs (operator, weight, worked-example or
expression right-hand side), boundary values on both sides of the branch
edges, every check kind, meshes too coarse to build, finite and half-line
problems, and valid and invalid sampling lattices.  Whatever is drawn,
`main` must return a documented exit code without raising, and exit 1
exactly when it prints a `config error: ` line first on stderr.  A table
that `solve` writes holds no NaN outside the slopes at singular nodes,
the config that its record echoes replays it bit for bit, and `verify`
passes every table of a converged solve and prints the defects that the
solve's record holds.  `sweep` writes one row per lambda, whose verdict
and status name their cause, and the config its record echoes replays
the table byte for byte.  `halfline` runs a short schedule; each
interval table it writes parses, holds no NaN outside the slopes at
singular nodes, and verifies against its interval's finite config when
that interval converged.
"""

import contextlib
import io
import math
import re

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from phibvp.cli import main, read_solution_table
from phibvp.config import CHECK_KINDS, load_problem_config, parse_config

OPERATORS = (
    "name = r_laplacian\nr = 3.0",
    "name = mean_curvature",
    "name = relativistic",
    "name = p_relativistic\np = 3.0",
    "name = perona_malik",
    "name = sine",
    "name = difference\nalpha = 2.0\nbeta = 1.0",
)
WEIGHTS = ("name = constant\nvalue = 1.0", "name = one_plus_t_squared", "name = sqrt_t")
RHS = (
    None,
    "example = perona\nalpha = 4.0\nM = 0.5\nN = 0.1",
    "f = 0.1*cos(x)*sin(y) + 0*t\npsi = 0.1 + 0*t",
    "example = relativistic",
    "example = halfline2",
    "example = plaplacian\np = 2.0\nbeta = 2.0",
    # beta = p - 1: the degenerate growth exponent
    "example = plaplacian\np = 2.0\nbeta = 1.0",
)
LATTICES = (
    None,
    "4, 3, 3",
    "8, 8",
    "1.5, 2, 2",
    "nan, 2, 2",
    "inf, 2, 2",
    "2, 2, 1e30",
)
LIPSCHITZ = (None, "l_lip = 2.0\ndelta = 0.05", "l_lip = -2.0\ndelta = 0.05")


@st.composite
def configs(draw) -> str:
    sections = [
        f"[operator]\n{draw(st.sampled_from(OPERATORS))}",
        f"[weight]\n{draw(st.sampled_from(WEIGHTS))}",
    ]
    rhs = draw(st.sampled_from(RHS))
    if rhs is not None:
        sections.append(f"[rhs]\n{rhs}")
    nu2 = draw(st.sampled_from((0.0, 0.05, 0.5, 1.0, 1.5, 40.0)))
    halfline = draw(st.booleans())
    extent = "halfline = true" if halfline else "T = 1.0"
    sections.append(f"[problem]\nnu1 = 0.0\nnu2 = {nu2!r}\n{extent}")
    sections.append(f"[mesh]\nn = {draw(st.sampled_from((1, 2, 10)))}")
    check = f"[check]\nkind = {draw(st.sampled_from(CHECK_KINDS))}"
    lattice = draw(st.sampled_from(LATTICES))
    if lattice is not None:
        check += f"\nlattice = {lattice}"
    lipschitz = draw(st.sampled_from(LIPSCHITZ))
    if lipschitz is not None:
        check += f"\n{lipschitz}"
    sections.append(check)
    return "\n\n".join(sections) + "\n"


@given(text=configs())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_check_exit_code_follows_the_error_class(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "problem.cfg"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1, 2, 3), text
    assert (code == 1) == err.getvalue().startswith("config error: "), (
        text + err.getvalue()
    )


@st.composite
def solve_configs(draw) -> str:
    sections = [
        f"[operator]\n{draw(st.sampled_from(OPERATORS))}",
        f"[weight]\n{draw(st.sampled_from(WEIGHTS))}",
    ]
    rhs = draw(st.sampled_from(RHS))
    if rhs is not None:
        sections.append(f"[rhs]\n{rhs}")
    nu2 = draw(st.sampled_from((0.0, 0.05, 0.5, 1.0, 1.5, 40.0, -0.5)))
    sections.append(f"[problem]\nnu1 = 0.0\nnu2 = {nu2!r}\nT = 1.0")
    sections.append(f"[mesh]\nn = {draw(st.sampled_from((2, 10, 64)))}")
    return "\n\n".join(sections) + "\n"


def _main(argv) -> tuple[int, str, str]:
    """Exit code, stderr and stdout of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), out.getvalue()


@given(text=solve_configs())
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
def test_solve_writes_tables_that_verify(
    tmp_path_factory, printed_verification, echoed_config, text
):
    work = tmp_path_factory.mktemp("solve")
    path = work / "problem.cfg"
    path.write_text(text)
    code, err, _ = _main(["solve", str(path), "-o", str(work / "out")])
    assert code in (0, 1, 2, 3, 4), text
    assert (code == 1) == err.startswith("config error: "), text + err
    table = work / "out" / "solution.txt"
    if table.exists():
        t, x, _, u = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2).T
        assert not np.isnan(np.concatenate((t, x, u))).any(), text
        # the record's config.* sections alone replay the run
        record = parse_config((work / "out" / "record.txt").read_text())
        replay = work / "replay.cfg"
        replay.write_text(echoed_config(record))
        again, _, _ = _main(["solve", str(replay), "-o", str(work / "replay")])
        assert again == code, text
        assert (work / "replay" / "solution.txt").read_bytes() == table.read_bytes(), text
    if code == 0:
        code, _, out = _main(["verify", str(table), str(path)])
        assert code == 0, text
        # the record's verification is what verify prints on its table
        record = parse_config((work / "out" / "record.txt").read_text())
        assert record.section("solve.verification") == printed_verification(out), text


SWEEP_RANGES = (
    "lambda_min = 0.0\nlambda_max = 0.5\ncount = 3",
    "lambda_min = -0.5\nlambda_max = 1.5\ncount = 4",
    "lambda_min = 1.0\nlambda_max = 40.0\ncount = 2",
    "lambda_min = 0.05\nlambda_max = 0.15\ncount = 5",
    # one lambda twice
    "lambda_min = 0.05\nlambda_max = 0.05\ncount = 2",
    # config errors: an empty range, and no [sweep] section
    "lambda_min = 1.0\nlambda_max = 0.0\ncount = 2",
    None,
)
NO_VERDICT = "error: no sweep row produced a check verdict\n"


@st.composite
def sweep_configs(draw) -> str:
    sections = [
        f"[operator]\n{draw(st.sampled_from(OPERATORS))}",
        f"[weight]\n{draw(st.sampled_from(WEIGHTS))}",
    ]
    rhs = draw(st.sampled_from(RHS))
    if rhs is not None:
        sections.append(f"[rhs]\n{rhs}")
    # a half-line problem or a one-cell mesh fails every row's build
    extent = draw(st.sampled_from(("T = 1.0",) * 4 + ("halfline = true",)))
    sections.append(f"[problem]\nnu1 = 0.0\nnu2 = 0.1\n{extent}")
    sections.append(f"[mesh]\nn = {draw(st.sampled_from((10, 32, 10, 32, 1)))}")
    sections.append("[check]\nlattice = 4, 3, 3")
    sweep = draw(st.sampled_from(SWEEP_RANGES))
    if sweep is not None:
        sections.append(f"[sweep]\n{sweep}")
    return "\n\n".join(sections) + "\n"


@given(text=sweep_configs())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_sweep_rows_name_their_cause_and_replay(tmp_path_factory, echoed_config, text):
    work = tmp_path_factory.mktemp("sweep")
    path = work / "problem.cfg"
    path.write_text(text)
    code, err, _ = _main(["sweep", str(path), "-o", str(work / "out")])
    assert code in (0, 1, 4), text
    table = work / "out" / "sweep.txt"
    if err.startswith("config error: "):
        assert code == 1 and not table.exists(), text + err
        return
    if code == 4:
        # a package error that no row absorbed
        assert err.startswith("error: ") and err != NO_VERDICT, text + err
        return

    lo, hi, count = load_problem_config(parse_config(text)).sweep_range
    rows = [line.split(",") for line in table.read_text().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == list(np.linspace(lo, hi, count)), text
    for _, verdict, status, residual in rows:
        assert verdict in ("pass", "fail", "inconclusive") or verdict.startswith("error:"), text
        # only a passing row is solved, and only a solve has a residual
        assert (status == "skipped") == (verdict != "pass"), text
        unsolved = status == "skipped" or status.startswith("error:")
        assert math.isnan(float(residual)) == unsolved, text
    # a sweep whose rows all end in error:* exits 1, any other exits 0
    judged = any(not row[1].startswith("error:") for row in rows)
    assert (code, err) == ((0, "") if judged else (1, NO_VERDICT)), text + err

    # the record's config.* sections alone replay the sweep
    record = parse_config((work / "out" / "record.txt").read_text())
    replay = work / "replay.cfg"
    replay.write_text(echoed_config(record))
    again, _, _ = _main(["sweep", str(replay), "-o", str(work / "replay")])
    assert again == code, text
    assert (work / "replay" / "sweep.txt").read_bytes() == table.read_bytes(), text


HALFLINE_RHS = (
    None,
    "example = halfline1",
    "example = halfline2",
    "f = 0.1*sin(y)/(1 + t*t)\npsi = 0.1/(1 + t*t)",
)
HALFLINE_CHECKS = ("auto", "halfline-odd", "halfline\nl_lip = 1.0\ndelta = 0.5")
# 1/k must be integrable on the half line for a check to pass
HALFLINE_WEIGHTS = ("name = one_plus_t_squared", "expr = 1 + t*t*t") + WEIGHTS


@st.composite
def halfline_configs(draw) -> str:
    sections = [
        f"[operator]\n{draw(st.sampled_from(OPERATORS))}",
        f"[weight]\n{draw(st.sampled_from(HALFLINE_WEIGHTS))}",
    ]
    rhs = draw(st.sampled_from(HALFLINE_RHS))
    if rhs is not None:
        sections.append(f"[rhs]\n{rhs}")
    nu2 = draw(st.sampled_from((0.0, 0.05, 0.2, 0.5, -0.2)))
    sections.append(f"[problem]\nnu1 = 0.0\nnu2 = {nu2!r}\nhalfline = true")
    sections.append(f"[check]\nkind = {draw(st.sampled_from(HALFLINE_CHECKS))}")
    schedule = draw(st.sampled_from(("2, 4", "2, 4, 8")))
    tol_h = draw(st.sampled_from((1e-3, 5e-2)))
    cells = draw(st.sampled_from((5, 20)))
    sections.append(
        f"[halfline]\nschedule = {schedule}\ntol_h = {tol_h!r}\ncells_per_unit = {cells}"
    )
    return "\n\n".join(sections) + "\n"


def interval_config(text: str, T: float) -> str:
    """The finite problem that one interval [0, T] of `text` solves."""
    doc = parse_config(text)
    cells = max(2, round(float(doc.section("halfline")["cells_per_unit"]) * T))
    body = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs) + "\n"
        for name, pairs in doc.sections
        if name not in ("problem", "check", "halfline")
    )
    nu2 = doc.section("problem")["nu2"]
    return body + f"[problem]\nnu1 = 0.0\nnu2 = {nu2}\nT = {T!r}\n\n[mesh]\nn = {cells}\n"


INTERVAL_LINE = re.compile(r"^interval \[0, (\S+)\]: (\S+), gap ", re.M)


@given(text=halfline_configs())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_halfline_writes_interval_tables_that_verify(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("halfline")
    path = work / "problem.cfg"
    path.write_text(text)
    code, err, out = _main(["halfline", str(path), "-o", str(work / "out")])
    assert code in (0, 1, 2, 3, 4), text
    assert (code == 1) == err.startswith("config error: "), text + err
    assert (code == 2) == ("overall: fail" in out), text + out
    assert (code == 3) == ("overall: inconclusive" in out), text + out
    if code in (0, 4) and not err:
        converged = "halfline: converged," in out
        assert (code == 0) == converged, text + out
    if code == 4 and err:
        assert err.startswith(("solver error: ", "error: ")), text + err

    statuses = dict(INTERVAL_LINE.findall(out))
    tables = sorted((work / "out").glob("interval_*.txt"))
    assert len(tables) == len(statuses), text + out
    for table in tables:
        label = table.stem.split("_", 1)[1]
        cfg = work / f"interval_{label}.cfg"
        cfg.write_text(interval_config(text, float(label)))
        t, x, dx, u = read_solution_table(str(table))
        assert not np.isnan(np.concatenate((t, x, u))).any(), text
        mesh = load_problem_config(parse_config(cfg.read_text())).build_finite().mesh
        assert not np.isnan(dx[~mesh.singular_mask()]).any(), text
        if statuses[label] == "converged":
            vcode, _, vout = _main(["verify", str(table), str(cfg)])
            assert vcode == 0 and "verification: ok" in vout, text + vout
