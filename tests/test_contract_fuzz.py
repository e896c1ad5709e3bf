"""Contract fuzz of `phibvp check` and `phibvp solve`.

Configs are drawn from the catalogs (operator, weight, worked-example or
expression right-hand side), boundary values on both sides of the branch
edges, every check kind, meshes too coarse to build, finite and half-line
problems, and valid and invalid sampling lattices.  Whatever is drawn,
`main` must return a documented exit code without raising, and exit 1
exactly when it prints a `config error: ` line first on stderr.  A table
that `solve` writes holds no NaN outside the slopes at singular nodes, and
`verify` passes every table of a converged solve and prints the defects
that the solve's record holds.
"""

import contextlib
import io

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from phibvp.cli import main
from phibvp.config import CHECK_KINDS, parse_config

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
def test_solve_writes_tables_that_verify(tmp_path_factory, printed_verification, text):
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
    if code == 0:
        code, _, out = _main(["verify", str(table), str(path)])
        assert code == 0, text
        # the record's verification is what verify prints on its table
        record = parse_config((work / "out" / "record.txt").read_text())
        assert record.section("solve.verification") == printed_verification(out), text
