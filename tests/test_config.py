"""Tests for the config text format and problem assembly.

The parse/emit pair must round-trip exactly: run records reuse the same
format, so any asymmetry would corrupt archived runs.  Assembly tests
pin the derived quantities (k1, s*, psi) against hand values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phibvp import (
    ConfigDoc,
    ConfigError,
    ProblemConfig,
    emit_config,
    load_problem_config,
    parse_config,
    with_overrides,
)

MINIMAL = """
[operator]
name = relativistic

[weight]
name = constant
value = 1.0

[problem]
nu1 = 0.0
nu2 = 0.5
T = 1.0
"""


def load(text) -> ProblemConfig:
    return load_problem_config(parse_config(text))


def splice(extra: str, base: str = MINIMAL, replace: tuple[str, str] | None = None) -> str:
    text = base
    if replace is not None:
        old, new = replace
        assert old in text
        text = text.replace(old, new)
    return text + "\n" + extra


class TestParseEmit:
    def test_basic_document(self):
        doc = parse_config(
            "# leading comment\n"
            "[alpha]\n"
            "a = 1  # trailing comment\n"
            "b = two words ; semicolon comment\n"
            "\n"
            "[beta]\n"
            "c=3\n"
        )
        assert doc.sections == (
            ("alpha", (("a", "1"), ("b", "two words"))),
            ("beta", (("c", "3"),)),
        )
        assert doc.section("alpha") == {"a": "1", "b": "two words"}
        assert doc.section("missing") is None

    def test_positions_point_at_values(self):
        doc = parse_config("[s]\nkey = value\n")
        assert doc.position("s", "key") == (2, 7)

    def test_emit_layout(self):
        doc = ConfigDoc(sections=(("a", (("x", "1"),)), ("b", (("y", "2"),))))
        assert emit_config(doc) == "[a]\nx = 1\n\n[b]\ny = 2\n"

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("key = 1\n", 1, "outside any"),
            ("[a]\n[a]\n", 2, "duplicate section"),
            ("[a]\nk = 1\nk = 2\n", 3, "duplicate key"),
            ("[a\n", 1, "header"),
            ("[]\n", 1, "malformed section header"),
            ("[  ]\n", 1, "empty section name"),
            ("[a]\n= 3\n", 2, "empty key"),
            ("[a]\nnonsense\n", 2, "key = value"),
        ],
    )
    def test_parse_errors_carry_line(self, text, line, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == line
        assert fragment in str(err.value)

    section_names = st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_.", min_size=1, max_size=10
    )
    keys = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10)
    values = st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789+-._", min_size=1, max_size=14
    )

    @given(
        sections=st.lists(
            st.tuples(
                section_names,
                st.lists(st.tuples(keys, values), min_size=1, max_size=4, unique_by=lambda kv: kv[0]),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda sec: sec[0],
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, sections):
        doc = ConfigDoc(
            sections=tuple((name, tuple(pairs)) for name, pairs in sections)
        )
        assert parse_config(emit_config(doc)) == doc


class TestValidation:
    def test_minimal_loads_with_defaults(self):
        cfg = load(MINIMAL)
        assert cfg.mesh_n == 1000
        assert cfg.p == 1.0
        assert cfg.check_kind == "auto"
        assert cfg.lattice == (50, 20, 20)
        assert cfg.sweep_range is None

    def test_mesh_ratio_and_graded_cells_are_accepted_and_ignored(self):
        # keys of the old geometric grading; the power-law grading has neither
        base = MINIMAL.replace("name = constant\nvalue = 1.0", "name = sqrt_t")
        plain = load(base).build_finite().mesh
        knobs = load(splice("[mesh]\nratio = 0.5\ngraded_cells = 8", base)).build_finite().mesh
        np.testing.assert_array_equal(knobs.nodes, plain.nodes)
        assert knobs.singular_indices == plain.singular_indices == (0,)

    def test_verify_refine_is_accepted_and_ignored(self):
        # the knob of the old refined-mesh verification: older records
        # that echo it still load, to the same iteration config
        cfg = load(splice("[iteration]\nverify_refine = 4", MINIMAL))
        assert cfg.iteration == load(MINIMAL).iteration

    @pytest.mark.parametrize(
        "mutation,fragment",
        [
            (("[junk]\nz = 1", None), "unknown section"),
            (("[problem]\nnu1 = 0", None), "duplicate section"),
            (("", ("T = 1.0", "T = 1.0\nwhat = 3")), "unknown keys"),
            (("", ("T = 1.0", "")), "exactly one of"),
            (("", ("T = 1.0", "T = 1.0\nhalfline = true")), "exactly one of"),
            (("", ("nu2 = 0.5\n", "")), "nu1 and nu2 are required"),
            (("[halfline]\nschedule = 5, 10", None), "problem is finite"),
            (("[sweep]\nlambda_min = 2\nlambda_max = 1\ncount = 3", None), "lambda_max"),
            (("[sweep]\nlambda_min = 0\nlambda_max = 1\ncount = -1", None), "count"),
            (("[check]\nkind = nonsense", None), "kind"),
            (("[check]\nlattice = 8, 8", None), "lattice"),
            (("[rhs]\nexample = perona\nf = t\npsi = 1.0", None), "not both"),
            (("[rhs]\nf = t", None), "needs a matching psi"),
            (("[rhs]\npsi = 1.0", None), "without f"),
            (("[rhs]\nexample = nonsense", None), "unknown example tag"),
            (("[check]\nlattice = nan, 2, 2", None), "lattice"),
            (("[check]\nlattice = inf, 2, 2", None), "lattice"),
            (("[check]\nlattice = 2, 2, 1e30", None), "lattice"),
        ],
    )
    def test_rejections(self, mutation, fragment):
        extra, repl = mutation
        text = splice(extra, replace=repl)
        with pytest.raises(ConfigError, match=fragment):
            load(text)

    def test_bad_bool(self):
        text = MINIMAL.replace("T = 1.0", "halfline = maybe")
        with pytest.raises(ConfigError, match="true/false"):
            load(text)

    def test_expression_error_locates_line_and_col(self):
        text = splice("[rhs]\nf = t + $\npsi = 1.0 + 0*t")
        with pytest.raises(ConfigError) as err:
            load(text)
        assert "unexpected character" in str(err.value)
        # line of the f key inside the spliced document
        lines = text.splitlines()
        f_line = next(i for i, s in enumerate(lines, start=1) if s.startswith("f ="))
        assert err.value.line == f_line
        # col points at the '$' inside the whole line
        assert err.value.col == lines[f_line - 1].index("$") + 1

    def test_operator_params_and_branch_hint(self):
        cfg = load(
            "[operator]\nname = r_laplacian\nr = 3.0\nbranch_hint = -0.5, 0.5\n"
            "[weight]\nname = constant\nvalue = 1.0\n"
            "[problem]\nnu1 = 0\nnu2 = 0.1\nT = 1\n"
        )
        assert dict(cfg.operator_params) == {"r": 3.0}
        assert cfg.branch_hint == (-0.5, 0.5)
        phi = cfg.build_operator()
        assert phi.name == "r_laplacian"
        assert float(phi.fn(2.0)) == pytest.approx(4.0)

    def test_weight_name_xor_expr(self):
        with pytest.raises(ConfigError, match="exactly one of"):
            load(MINIMAL.replace("name = constant\nvalue = 1.0", "name = constant\nexpr = 1 + t"))

    def test_weight_expression(self):
        cfg = load(
            MINIMAL.replace("name = constant\nvalue = 1.0", "expr = 1 + t^2")
        )
        w = cfg.build_weight()
        assert float(w.fn(2.0)) == pytest.approx(5.0)


class TestAssembly:
    def test_finite_problem_scalars(self):
        problem = load(MINIMAL).build_finite()
        assert problem.T == 1.0
        assert problem.nu1 == 0.0 and problem.nu2 == 0.5
        assert problem.mesh.nodes.size == 1001

    def test_sqrt_weight_k1(self):
        text = MINIMAL.replace("name = constant\nvalue = 1.0", "name = sqrt_t")
        problem = load(text).build_finite()
        # integral of 1/sqrt(t) over [0,1] is 2
        from phibvp import derive_scalars

        scalars = derive_scalars(problem)
        assert scalars.k1 == pytest.approx(2.0, rel=1e-3)

    def test_nu2_override_changes_boundary_only(self):
        cfg = load(MINIMAL)
        base = cfg.build_finite()
        moved = cfg.build_finite(nu2_override=0.25)
        assert moved.nu2 == 0.25
        assert base.nu2 == 0.5
        assert moved.nu1 == base.nu1

    def test_slope_in_no_branch_builds_a_problem_without_one(self):
        # s* = 1.5 leaves the relativistic domain (-1, 1): the check
        # reports it and solve raises it, with the slope in the message
        from phibvp import BranchError, check_theorem1, solve

        problem = load(MINIMAL).build_finite(nu2_override=1.5)
        assert problem.branch is None
        rep = check_theorem1(problem, lattice=(6, 4, 4))
        assert rep.overall == "fail"
        assert rep.item("slope-in-branch").quantity("s_star") == 1.5
        with pytest.raises(BranchError, match="slope 1.5 outside every branch"):
            solve(problem)

    def test_perona_example_rhs(self):
        cfg = load(
            "[operator]\nname = perona_malik\n"
            "[weight]\nname = constant\nvalue = 1.0\n"
            "[rhs]\nexample = perona\nalpha = 4.0\nM = 1.0\nN = 1.0\n"
            "[problem]\nnu1 = 0\nnu2 = 0.05\nT = 1\n"
        )
        problem = cfg.build_finite()
        t = np.array([0.5])
        # f = t^4 cos(x) sin(y), psi = t^4
        f_val = problem.rhs(t, np.array([0.0]), np.array([np.pi / 2]))
        assert float(np.asarray(f_val)[0]) == pytest.approx(0.5**4)
        assert float(np.asarray(problem.rhs.psi_at(t))[0]) == pytest.approx(0.5**4)

    def test_halfline_assembly(self):
        cfg = load(
            "[operator]\nname = r_laplacian\nr = 2.0\n"
            "[weight]\nname = one_plus_t_squared\n"
            "[problem]\nnu1 = 0\nnu2 = 0.2\nhalfline = true\n"
            "[check]\nkind = halfline-odd\n"
        )
        hp = cfg.build_halfline()
        # no explicit override: the analytic weight mass is used downstream
        assert hp.k_infinity is None
        from phibvp import recip_mass

        mass, defect = recip_mass(hp)
        assert mass == pytest.approx(math.pi / 2, rel=1e-9)
        assert defect == 0.0
        assert hp.psi_l1 == 0.0
        assert math.isinf(hp.branch.lo) and math.isinf(hp.branch.hi)

    def test_auto_kind_finite(self):
        cfg = load(MINIMAL)
        problem = cfg.build_finite()
        assert cfg.resolved_check_kind(problem.phi, problem.branch) == "thm1"

    def test_auto_kind_halfline_odd_whole_line_branch(self):
        cfg = load(
            "[operator]\nname = r_laplacian\nr = 2.0\n"
            "[weight]\nname = one_plus_t_squared\n"
            "[problem]\nnu1 = 0\nnu2 = 0.2\nhalfline = true\n"
        )
        hp = cfg.build_halfline()
        assert cfg.resolved_check_kind(hp.phi, hp.branch) == "halfline-odd"

    def test_auto_kind_halfline_with_lipschitz_data(self):
        cfg = load(
            "[operator]\nname = r_laplacian\nr = 2.0\n"
            "[weight]\nname = one_plus_t_squared\n"
            "[problem]\nnu1 = 0\nnu2 = 0.2\nhalfline = true\n"
            "[check]\nl_lip = 1.0\ndelta = 0.5\n"
        )
        hp = cfg.build_halfline()
        assert cfg.resolved_check_kind(hp.phi, hp.branch) == "halfline"

    def test_run_check_dispatch(self):
        cfg = load(
            "[operator]\nname = perona_malik\n"
            "[weight]\nname = constant\nvalue = 1.0\n"
            "[rhs]\nexample = perona\nalpha = 4.0\nM = 1.0\nN = 1.0\n"
            "[problem]\nnu1 = 0\nnu2 = 0.05\nT = 1\n"
        )
        problem = cfg.build_finite()
        report = cfg.run_check(problem)
        assert report.theorem == "thm1"
        assert report.overall == "pass"

    def test_overrides(self):
        cfg = load(MINIMAL)
        out = with_overrides(cfg, mesh_n=64, tol_fp=1e-5, max_iters=7)
        assert out.mesh_n == 64
        assert out.iteration.tol_fp == 1e-5
        assert out.iteration.max_outer == 7
        # untouched values survive
        assert out.iteration.tol_beta == cfg.iteration.tol_beta
        # the config text follows, so a record that echoes it replays
        assert out.doc.section("mesh")["n"] == "64"
        assert out.doc.section("iteration")["tol_fp"] == format(1e-5, ".17g")
        assert out.doc.section("iteration")["max_outer"] == "7"
        assert "tol_beta" not in out.doc.section("iteration")
        assert load_problem_config(out.doc) == out
        untouched = with_overrides(cfg)
        assert untouched == cfg
