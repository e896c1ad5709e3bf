"""Config documents: parse/emit plus assembly into runnable problems.

The format is flat INI-style text: `[section]` headers, `key = value`
lines, `#` or `;` comments.  parse and emit are exact inverses on the
structural content (section order, key order, raw value strings), which
is what makes run records round-trippable.

A ProblemConfig ties the sections together: operator and weight come
from the catalogs or from expressions, the right-hand side from a
worked-example tag or from f/psi expressions, and the boundary data
from [problem].  The same document drives check, solve, sweep and
halfline commands.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, ExpressionError, PhibvpError
from .expressions import CompiledExpression, compile_expression
from .halfline import DEFAULT_SCHEDULE, HalflineProblem
from .hypotheses import (
    HypothesisReport,
    check_corollary_singular,
    check_corollary_surjective,
    check_halfline,
    check_halfline_odd,
    check_theorem1,
    plaplacian_bound,
    plaplacian_maximizer,
    symmetric_increasing,
)
from .operators import (
    MonotoneBranch,
    PhiOperator,
    find_branch,
    hint_branch,
    make_operator,
)
from .problem import (
    BvpProblem,
    Discretization,
    Rhs,
    Weight,
    default_mesh,
    make_weight,
    sample_weight,
    zero_rhs,
)
from .solver import IterationConfig

CHECK_KINDS = (
    "auto",
    "thm1",
    "cor-surjective",
    "cor-singular",
    "halfline",
    "halfline-odd",
)

# the domination scan holds several floats per point: 50x the default lattice
MAX_LATTICE_POINTS = 10**6


@contextmanager
def _config_errors(prefix: str, also: tuple[type[Exception], ...] = ()):
    """Raise a PhibvpError (or an `also` error) of the block as a
    ConfigError that starts with `prefix`; a ConfigError passes as is."""
    try:
        yield
    except ConfigError:
        raise
    except (PhibvpError, *also) as exc:
        raise ConfigError(f"{prefix} {exc}") from exc


@dataclass(frozen=True)
class ConfigDoc:
    """Ordered sections of ordered raw key/value pairs.

    positions maps (section, key) to the 1-based (line, col-of-value) in
    the source text; it is carried for diagnostics only and never takes
    part in equality, so parse(emit(doc)) == doc holds structurally.
    """

    sections: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    positions: dict = field(default_factory=dict, compare=False, repr=False)

    def section(self, name: str) -> dict[str, str] | None:
        for sec, pairs in self.sections:
            if sec == name:
                return dict(pairs)
        return None

    def position(self, section: str, key: str) -> tuple[int | None, int | None]:
        return self.positions.get((section, key), (None, None))

    def with_value(self, section: str, key: str, value: str) -> "ConfigDoc":
        """A copy with [section] key = value, appending the key or section."""
        sections = list(self.sections)
        for i, (sec, pairs) in enumerate(sections):
            if sec == section:
                if any(k == key for k, _ in pairs):
                    pairs = tuple((k, value if k == key else v) for k, v in pairs)
                else:
                    pairs = pairs + ((key, value),)
                sections[i] = (sec, pairs)
                break
        else:
            sections.append((section, ((key, value),)))
        return ConfigDoc(sections=tuple(sections), positions=self.positions)


def parse_config(text: str) -> ConfigDoc:
    sections: list[tuple[str, list[tuple[str, str]]]] = []
    positions: dict[tuple[str, str], tuple[int, int]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                raise ConfigError("malformed section header", line=lineno, col=1)
            name = stripped[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", line=lineno, col=2)
            if any(sec == name for sec, _ in sections):
                raise ConfigError(f"duplicate section [{name}]", line=lineno, col=1)
            sections.append((name, []))
            current = name
            continue
        if "=" not in line:
            raise ConfigError(
                "expected 'key = value' or a [section] header",
                line=lineno,
                col=len(raw) - len(raw.lstrip()) + 1,
            )
        if current is None:
            raise ConfigError("key outside any [section]", line=lineno, col=1)
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        if not key:
            raise ConfigError("empty key", line=lineno, col=1)
        pairs = sections[-1][1]
        if any(k == key for k, _ in pairs):
            raise ConfigError(
                f"duplicate key {key!r} in [{current}]", line=lineno, col=1
            )
        value = value_part.strip()
        value_col = raw.index("=") + 2 + (len(value_part) - len(value_part.lstrip()))
        pairs.append((key, value))
        positions[(current, key)] = (lineno, value_col)
    return ConfigDoc(
        sections=tuple((sec, tuple(pairs)) for sec, pairs in sections),
        positions=positions,
    )


def emit_config(doc: ConfigDoc) -> str:
    lines: list[str] = []
    for sec, pairs in doc.sections:
        if lines:
            lines.append("")
        lines.append(f"[{sec}]")
        for key, value in pairs:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def read_config(path) -> ConfigDoc:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


# -- typed access --------------------------------------------------------


class _Section:
    """One section with typed getters that raise located ConfigErrors."""

    def __init__(self, doc: ConfigDoc, name: str):
        self.doc = doc
        self.name = name
        self.pairs = doc.section(name) or {}
        self.seen: set[str] = set()

    def error(self, key: str, message: str) -> ConfigError:
        line, col = self.doc.position(self.name, key)
        return ConfigError(f"[{self.name}] {key}: {message}", line=line, col=col)

    def raw(self, key: str, default: str | None = None) -> str | None:
        self.seen.add(key)
        return self.pairs.get(key, default)

    def require(self, key: str) -> str:
        value = self.raw(key)
        if value is None:
            raise ConfigError(f"[{self.name}] missing required key {key!r}")
        return value

    def get_float(self, key: str, default: float | None = None) -> float | None:
        value = self.raw(key)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise self.error(key, f"expected a number, got {value!r}") from None

    def get_int(self, key: str, default: int | None = None) -> int | None:
        value = self.raw(key)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise self.error(key, f"expected an integer, got {value!r}") from None

    def get_bool(self, key: str, default: bool = False) -> bool:
        value = self.raw(key)
        if value is None:
            return default
        low = value.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise self.error(key, f"expected true/false, got {value!r}")

    def get_floats(self, key: str, default=None):
        value = self.raw(key)
        if value is None:
            return default
        parts = [p.strip() for p in value.split(",") if p.strip()]
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise self.error(key, f"expected comma-separated numbers, got {value!r}") from None

    def get_expression(self, key: str, variables: tuple[str, ...]) -> CompiledExpression | None:
        value = self.raw(key)
        if value is None:
            return None
        line, col = self.doc.position(self.name, key)
        try:
            return compile_expression(value, variables)
        except ExpressionError as exc:
            inner_col = exc.col
            where = (col or 1) + (inner_col - 1 if inner_col else 0)
            raise ExpressionError(
                f"[{self.name}] {key}: {exc.args[0]}", line=line, col=where
            ) from None

    def extra_keys(self) -> list[str]:
        return [k for k in self.pairs if k not in self.seen]


def doc_has_section(doc: ConfigDoc, name: str) -> bool:
    return any(sec == name for sec, _ in doc.sections)


# -- worked-example right-hand sides --------------------------------------

EXAMPLE_TAGS = (
    "perona",
    "sine",
    "plaplacian",
    "relativistic",
    "halfline1",
    "halfline2",
)


def _example_rhs(tag: str, sec: _Section, s_star: float) -> Rhs:
    """Concrete f and psi for a worked-example family.

    The plaplacian family carries no fixed psi: the certificate is the
    constant z_bar solving the growth inequality at the problem's own
    slope s*, or the maximizer argument when no certificate exists (so
    the sampled domination check fails honestly rather than trivially).
    """
    if tag == "perona" or tag == "sine":
        alpha = sec.get_float("alpha")
        if alpha is None:
            raise sec.error("example", f"{tag} needs alpha")
        M = sec.get_float("M", 1.0)
        N = sec.get_float("N", 1.0)
        return Rhs(
            fn=lambda t, x, y: M * N * t**alpha * np.cos(x) * np.sin(y),
            psi=lambda t: M * N * np.asarray(t, dtype=float) ** alpha,
            name=f"{tag}(alpha={alpha:g})",
        )
    if tag == "plaplacian":
        p = sec.get_float("p", 2.0)
        beta = sec.get_float("beta")
        if beta is None:
            raise sec.error("example", "plaplacian needs beta")
        N = sec.get_float("N", 1.0)
        _, z_solver = plaplacian_bound(p, beta, N)
        z_bar = z_solver(abs(s_star))
        if z_bar is None:
            z_bar, _ = plaplacian_maximizer(p, beta, N)
        level = float(z_bar)
        return Rhs(
            fn=lambda t, x, y: N * np.cos(x) * np.abs(y) ** beta + 0.0 * t,
            psi=lambda t: np.full_like(np.asarray(t, dtype=float), level),
            name=f"plaplacian(beta={beta:g})",
        )
    if tag == "relativistic":
        return Rhs(
            fn=lambda t, x, y: np.exp(-t) * np.cos(x) * y**3,
            psi=lambda t: np.exp(-np.asarray(t, dtype=float)),
            name="relativistic-decay",
        )
    if tag == "halfline1":
        r = sec.get_float("r", (math.pi + 4.0) ** -1.5)
        return Rhs(
            fn=lambda t, x, y: t**2 * np.cos(x) * y**3,
            psi=lambda t: r
            * np.minimum(1.0, 1.0 / np.asarray(t, dtype=float) ** 2),
            name=f"halfline1(r={r:g})",
        )
    if tag == "halfline2":
        return Rhs(
            fn=lambda t, x, y: np.exp(-t) * np.arctan(x * y),
            psi=lambda t: (math.pi / 2.0) * np.exp(-np.asarray(t, dtype=float)),
            name="halfline2",
        )
    raise sec.error("example", f"unknown example tag {tag!r}")


def _example_psi_l1(tag: str, sec: _Section) -> float | None:
    """Exact half-line mass of the example psi, when known in closed form."""
    if tag == "halfline1":
        r = sec.get_float("r", (math.pi + 4.0) ** -1.5)
        return 2.0 * r
    if tag == "halfline2":
        return math.pi / 2.0
    return None


# -- the assembled configuration -------------------------------------------


@dataclass(frozen=True)
class ProblemConfig:
    """Typed view of a config document, ready to build problems."""

    doc: ConfigDoc
    operator_name: str
    operator_params: tuple[tuple[str, float], ...]
    branch_hint: tuple[float, float] | None
    weight_name: str | None
    weight_params: tuple[tuple[str, float], ...]
    weight_expr: CompiledExpression | None
    rhs_example: str | None
    f_expr: CompiledExpression | None
    psi_expr: CompiledExpression | None
    nu1: float
    nu2: float
    T: float | None
    halfline: bool
    p: float
    mesh_n: int
    iteration: IterationConfig
    check_kind: str
    lattice: tuple[int, int, int]
    l_lip: float | None
    l_delta: float | None
    tail_m: float | None
    schedule: tuple[float, ...]
    tol_h: float
    cells_per_unit: int
    k_infinity: float | None
    psi_l1: float | None
    sweep_range: tuple[float, float, int] | None

    # -- builders ----------------------------------------------------------

    def build_operator(self) -> PhiOperator:
        # TypeError: a catalog parameter the operator does not take
        with _config_errors("[operator]", also=(TypeError,)):
            return make_operator(self.operator_name, **dict(self.operator_params))

    def build_weight(self) -> Weight:
        if self.weight_expr is not None:
            expr = self.weight_expr
            return Weight(fn=lambda t: expr(t), name=f"expr({expr.source})")
        with _config_errors("[weight]", also=(TypeError,)):
            return make_weight(self.weight_name, **dict(self.weight_params))

    def _build_rhs(self, s_star: float) -> Rhs:
        if self.rhs_example is not None:
            with _config_errors("[rhs]"):
                return _example_rhs(self.rhs_example, _Section(self.doc, "rhs"), s_star)
        if self.f_expr is None:
            return zero_rhs()
        f = self.f_expr
        psi = self.psi_expr
        if psi is None:
            raise ConfigError("[rhs] an expression f needs a matching psi expression")
        return Rhs(
            fn=lambda t, x, y: f(t, x, y),
            psi=lambda t: psi(t),
            name=f"expr({f.source})",
        )

    @cached_property
    def _finite_parts(self) -> tuple[PhiOperator, Weight, Discretization]:
        """The operator, the weight (self-tested once) and 1/k on the mesh:
        what a finite problem does not take from nu2.  A sweep builds them
        once; a failure is not cached, so every build raises it again."""
        phi = self.build_operator()
        weight = self.build_weight()
        with _config_errors("[mesh]"):
            mesh = default_mesh(weight, self.T, n=self.mesh_n)
        with _config_errors("[weight]"):
            return phi, weight, sample_weight(weight, mesh)

    def build_finite(self, nu2_override: float | None = None) -> BvpProblem:
        if self.halfline or self.T is None:
            raise ConfigError("[problem] this command needs a finite T")
        nu2 = self.nu2 if nu2_override is None else float(nu2_override)
        phi, weight, recip = self._finite_parts
        s_star = (nu2 - self.nu1) / recip.k1
        rhs = self._build_rhs(s_star)
        with _config_errors("[rhs]"):
            disc = recip.with_psi(rhs)
        with _config_errors("[problem]"):
            branch = self._branch_around(phi, s_star)
            return BvpProblem(
                phi, branch, weight, rhs, self.nu1, nu2, self.T, p=self.p, disc=disc
            )

    def _branch_around(self, phi: PhiOperator, s_star: float) -> MonotoneBranch | None:
        """The branch that holds s*, else the hint's branch, else None.

        s* outside every branch is a failed hypothesis for the check to
        report.  Without a hint every find_branch failure is about s*;
        with one, hint_branch raises again if the hint is no branch."""
        try:
            return find_branch(phi, s_star, hint=self.branch_hint)
        except PhibvpError:
            if self.branch_hint is None:
                return None
            return hint_branch(phi, self.branch_hint)

    def build_halfline(self) -> HalflineProblem:
        if not self.halfline:
            raise ConfigError("[problem] this command needs halfline = true")
        phi = self.build_operator()
        weight = self.build_weight()
        k_inf = self.k_infinity
        if k_inf is None and weight.recip_total is not None:
            k_inf = weight.recip_total if math.isfinite(weight.recip_total) else None
        s_inf = (self.nu2 - self.nu1) / k_inf if k_inf else 0.0
        rhs = self._build_rhs(s_inf)
        psi_l1 = self.psi_l1
        if psi_l1 is None and self.rhs_example is not None:
            psi_l1 = _example_psi_l1(self.rhs_example, _Section(self.doc, "rhs"))
        if psi_l1 is None and self.f_expr is None and self.rhs_example is None:
            psi_l1 = 0.0
        with _config_errors("[problem]"):
            branch = self._branch_around(phi, s_inf)
            return HalflineProblem(
                phi,
                branch,
                weight,
                rhs,
                self.nu1,
                self.nu2,
                schedule=self.schedule,
                tol_h=self.tol_h,
                cells_per_unit=self.cells_per_unit,
                p=self.p,
                k_infinity=self.k_infinity,
                psi_l1=psi_l1,
            )

    # -- checks -------------------------------------------------------------

    def resolved_check_kind(self, phi: PhiOperator, branch: MonotoneBranch) -> str:
        kind = self.check_kind
        if kind != "auto":
            return kind
        if not self.halfline:
            return "thm1"
        if self.l_lip is not None and self.l_delta is not None:
            return "halfline"
        # without a branch at s*_inf either check reports slope-in-branch
        if phi.odd and (branch is None or symmetric_increasing(branch)):
            return "halfline-odd"
        return "halfline"

    def run_check(self, built) -> HypothesisReport:
        with _config_errors("[check]"):
            kind = self.resolved_check_kind(built.phi, built.branch)
            if kind == "thm1":
                return check_theorem1(built, lattice=self.lattice)
            if kind == "cor-surjective":
                return check_corollary_surjective(built, lattice=self.lattice)
            if kind == "cor-singular":
                return check_corollary_singular(built, lattice=self.lattice)
            if kind == "halfline":
                if self.l_lip is None or self.l_delta is None:
                    raise ConfigError(
                        "[check] kind halfline needs l_lip and delta values"
                    )
                return check_halfline(
                    built,
                    L_lip=self.l_lip,
                    delta=self.l_delta,
                    M=self.tail_m,
                    lattice=self.lattice,
                )
            return check_halfline_odd(built, lattice=self.lattice)


def load_problem_config(doc: ConfigDoc) -> ProblemConfig:
    """Validate and type a parsed document.

    Unknown keys anywhere are errors: a misspelled key must not silently
    fall back to a default.
    """
    known_sections = {
        "operator",
        "weight",
        "rhs",
        "problem",
        "mesh",
        "iteration",
        "check",
        "halfline",
        "sweep",
    }
    for sec, _ in doc.sections:
        if sec not in known_sections:
            raise ConfigError(f"unknown section [{sec}]")

    op = _Section(doc, "operator")
    if not doc_has_section(doc, "operator"):
        raise ConfigError("missing [operator] section")
    operator_name = op.require("name")
    hint = op.get_floats("branch_hint")
    if hint is not None and len(hint) != 2:
        raise op.error("branch_hint", "expected two comma-separated numbers")
    op_params = []
    for key in op.extra_keys():
        value = op.get_float(key)
        op_params.append((key, float(value)))

    wt = _Section(doc, "weight")
    weight_name = None
    weight_params: list[tuple[str, float]] = []
    weight_expr = None
    if doc_has_section(doc, "weight"):
        weight_name = wt.raw("name")
        weight_expr = wt.get_expression("expr", ("t",))
        if (weight_name is None) == (weight_expr is None):
            raise ConfigError("[weight] give exactly one of name or expr")
        for key in wt.extra_keys():
            weight_params.append((key, float(wt.get_float(key))))
    else:
        weight_name = "constant"

    rhs = _Section(doc, "rhs")
    rhs_example = None
    f_expr = None
    psi_expr = None
    if doc_has_section(doc, "rhs"):
        rhs_example = rhs.raw("example")
        f_expr = rhs.get_expression("f", ("t", "x", "y"))
        psi_expr = rhs.get_expression("psi", ("t",))
        if rhs_example is not None and f_expr is not None:
            raise ConfigError("[rhs] give either example or f, not both")
        if f_expr is not None and psi_expr is None:
            raise ConfigError("[rhs] an expression f needs a matching psi expression")
        if psi_expr is not None and f_expr is None:
            raise ConfigError("[rhs] psi without f has no effect; give f too")
        if rhs_example is not None:
            if rhs_example not in EXAMPLE_TAGS:
                raise rhs.error(
                    "example",
                    f"unknown example tag {rhs_example!r}; "
                    f"known: {', '.join(EXAMPLE_TAGS)}",
                )
            # example parameter keys are read again at build time
            for key in ("alpha", "M", "N", "p", "beta", "r"):
                rhs.raw(key)
        leftover = rhs.extra_keys()
        if leftover:
            raise ConfigError(f"[rhs] unknown keys: {', '.join(sorted(leftover))}")

    prob = _Section(doc, "problem")
    if not doc_has_section(doc, "problem"):
        raise ConfigError("missing [problem] section")
    nu1 = prob.get_float("nu1")
    nu2 = prob.get_float("nu2")
    if nu1 is None or nu2 is None:
        raise ConfigError("[problem] nu1 and nu2 are required")
    halfline = prob.get_bool("halfline", False)
    T = prob.get_float("T")
    if halfline == (T is not None):
        raise ConfigError("[problem] give exactly one of T or halfline = true")
    p = prob.get_float("p", 1.0)

    mesh = _Section(doc, "mesh")
    mesh_n = mesh.get_int("n", 1000)
    # accepted and ignored: the power-law grading has no ratio or block size
    mesh.get_float("ratio")
    mesh.get_int("graded_cells")

    it = _Section(doc, "iteration")
    base = IterationConfig()
    acceleration = it.raw("acceleration", base.acceleration)
    if acceleration not in ("secant", "none"):
        raise it.error("acceleration", f"expected secant or none, got {acceleration!r}")
    with _config_errors("[iteration]"):
        iteration = IterationConfig(
            omega=it.get_float("omega", base.omega),
            max_outer=it.get_int("max_outer", base.max_outer),
            tol_fp=it.get_float("tol_fp", base.tol_fp),
            tol_beta=it.get_float("tol_beta", base.tol_beta),
            acceleration=acceleration,
            window=it.get_int("window", base.window),
            stagnation=it.get_int("stagnation", base.stagnation),
            min_omega=it.get_float("min_omega", base.min_omega),
        )
    # accepted and ignored: verify runs on the table's own nodes
    it.get_int("verify_refine")

    chk = _Section(doc, "check")
    check_kind = chk.raw("kind", "auto")
    if check_kind not in CHECK_KINDS:
        raise chk.error("kind", f"expected one of {', '.join(CHECK_KINDS)}")
    if check_kind != "auto" and check_kind.startswith("halfline") != halfline:
        needs = "halfline = true" if check_kind.startswith("halfline") else "a finite T"
        raise chk.error("kind", f"{check_kind} needs {needs}")
    lattice_raw = chk.get_floats("lattice", (50.0, 20.0, 20.0))
    if len(lattice_raw) != 3 or not all(
        math.isfinite(v) and v == int(v) and v >= 2 for v in lattice_raw
    ):
        raise chk.error("lattice", "expected three integers, each at least 2")
    lattice = tuple(int(v) for v in lattice_raw)
    if math.prod(lattice) > MAX_LATTICE_POINTS:
        raise chk.error("lattice", f"nt * nx * ny must be at most {MAX_LATTICE_POINTS}")
    l_lip = chk.get_float("l_lip")
    l_delta = chk.get_float("delta")
    tail_m = chk.get_float("m")

    hl = _Section(doc, "halfline")
    schedule = hl.get_floats("schedule", DEFAULT_SCHEDULE)
    tol_h = hl.get_float("tol_h", 1e-3)
    cells_per_unit = hl.get_int("cells_per_unit", 200)
    k_infinity = hl.get_float("k_infinity")
    psi_l1 = hl.get_float("psi_l1")
    if doc_has_section(doc, "halfline") and not halfline:
        raise ConfigError("[halfline] section present but problem is finite")

    sw = _Section(doc, "sweep")
    sweep_range = None
    if doc_has_section(doc, "sweep"):
        lo = sw.get_float("lambda_min")
        hi = sw.get_float("lambda_max")
        count = sw.get_int("count")
        if lo is None or hi is None or count is None:
            raise ConfigError("[sweep] needs lambda_min, lambda_max and count")
        if count < 0:
            raise sw.error("count", "must be nonnegative")
        if count > 0 and hi < lo:
            raise sw.error("lambda_max", "must not be below lambda_min")
        sweep_range = (lo, hi, count)

    for sec_obj in (op, wt, prob, mesh, it, chk, hl, sw):
        leftover = sec_obj.extra_keys()
        if leftover and sec_obj.name not in ("operator", "weight"):
            raise ConfigError(
                f"[{sec_obj.name}] unknown keys: {', '.join(sorted(leftover))}"
            )

    return ProblemConfig(
        doc=doc,
        operator_name=operator_name,
        operator_params=tuple(op_params),
        branch_hint=tuple(hint) if hint is not None else None,
        weight_name=weight_name,
        weight_params=tuple(weight_params),
        weight_expr=weight_expr,
        rhs_example=rhs_example,
        f_expr=f_expr,
        psi_expr=psi_expr,
        nu1=float(nu1),
        nu2=float(nu2),
        T=float(T) if T is not None else None,
        halfline=halfline,
        p=float(p),
        mesh_n=int(mesh_n),
        iteration=iteration,
        check_kind=check_kind,
        lattice=lattice,
        l_lip=l_lip,
        l_delta=l_delta,
        tail_m=tail_m,
        schedule=tuple(schedule),
        tol_h=float(tol_h),
        cells_per_unit=int(cells_per_unit),
        k_infinity=k_infinity,
        psi_l1=psi_l1,
        sweep_range=sweep_range,
    )


def with_overrides(
    cfg: ProblemConfig,
    mesh_n: int | None = None,
    tol_fp: float | None = None,
    tol_beta: float | None = None,
    damping: float | None = None,
    max_iters: int | None = None,
) -> ProblemConfig:
    """Apply command-line flag overrides on top of the config values.

    The config text `cfg.doc` is rewritten to match (numbers as %.17g), so
    a run record that echoes it replays the run.
    """
    it = cfg.iteration
    doc = cfg.doc
    for flag, section, key, value in (
        ("--mesh-n", "mesh", "n", mesh_n),
        ("--tol-fp", "iteration", "tol_fp", tol_fp),
        ("--tol-beta", "iteration", "tol_beta", tol_beta),
        ("--damping", "iteration", "omega", damping),
        ("--max-iters", "iteration", "max_outer", max_iters),
    ):
        if value is None:
            continue
        if section == "iteration":
            # one flag at a time on a valid config: a failure is this flag's
            with _config_errors(f"{flag} {value!r}:"):
                it = replace(it, **{key: value})
        doc = doc.with_value(section, key, format(value, ".17g"))
    return replace(
        cfg,
        mesh_n=mesh_n if mesh_n is not None else cfg.mesh_n,
        iteration=it,
        doc=doc,
    )
