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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .errors import ConfigError, ExpressionError, PhibvpError
from .expressions import CompiledExpression, compile_expression
from .halfline import DEFAULT_SCHEDULE, HalflineProblem, limit_slope, recip_mass
from .hypotheses import (
    EXAMPLES,
    HypothesisReport,
    check_corollary_singular,
    check_corollary_surjective,
    check_halfline,
    check_halfline_odd,
    check_theorem1,
    example_params,
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


# -- typed access --------------------------------------------------------

_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


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

    def _typed(self, key: str, default, parse: Callable[[str], object], expected: str):
        """The key's value by parse, or default when the key is absent; a
        value that parse rejects is a located error naming what was expected."""
        value = self.raw(key)
        if value is None:
            return default
        try:
            return parse(value)
        except (ValueError, KeyError):
            raise self.error(key, f"expected {expected}, got {value!r}") from None

    def get_float(self, key: str, default: float | None = None) -> float | None:
        return self._typed(key, default, float, "a number")

    def get_int(self, key: str, default: int | None = None) -> int | None:
        return self._typed(key, default, int, "an integer")

    def get_bool(self, key: str, default: bool = False) -> bool:
        return self._typed(key, default, lambda v: _BOOLS[v.lower()], "true/false")

    def get_floats(self, key: str, default=None):
        return self._typed(
            key, default,
            lambda v: tuple(float(p) for p in v.split(",") if p.strip()),
            "comma-separated numbers",
        )

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
    rhs_params: tuple[tuple[str, float], ...]
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

    @cached_property
    def _operator(self) -> PhiOperator:
        return self.build_operator()

    def build_weight(self) -> Weight:
        if self.weight_expr is not None:
            return Weight(fn=self.weight_expr, name=f"expr({self.weight_expr.source})")
        with _config_errors("[weight]", also=(TypeError,)):
            return make_weight(self.weight_name, **dict(self.weight_params))

    def _build_rhs(self, s_star: float) -> Rhs:
        if self.rhs_example is not None:
            with _config_errors("[rhs]"):
                return EXAMPLES[self.rhs_example].rhs(s_star, **dict(self.rhs_params))
        if self.f_expr is None:
            return zero_rhs()
        # load_problem_config gives an expression f its psi expression
        return Rhs(fn=self.f_expr, psi=self.psi_expr, name=f"expr({self.f_expr.source})")

    @cached_property
    def _finite_parts(self) -> tuple[PhiOperator, Weight, Discretization]:
        """The operator, the weight (self-tested once) and 1/k on the mesh:
        what a finite problem does not take from nu2.  A sweep builds them
        once; a failure is not cached, so every build raises it again."""
        phi = self._operator
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
            branch = self._branch_around(s_star)
            return BvpProblem(
                phi, branch, weight, rhs, self.nu1, nu2, self.T, p=self.p, disc=disc
            )

    def _branch_around(self, s_star: float) -> MonotoneBranch | None:
        """The hint's branch, else the branch that holds s*, else None: s*
        outside it is a failed hypothesis for the check to report."""
        if self.branch_hint is not None:
            return self._hint_branch
        try:
            return find_branch(self._operator, s_star)
        except PhibvpError:
            return None

    @cached_property
    def _hint_branch(self) -> MonotoneBranch:
        """The branch_hint certified once per config, as it does not depend
        on nu2; a failure is not cached, so every build raises it again."""
        return hint_branch(self._operator, self.branch_hint)

    def build_halfline(self) -> HalflineProblem:
        if not self.halfline:
            raise ConfigError("[problem] this command needs halfline = true")
        phi = self._operator
        weight = self.build_weight()
        # the s*_inf of HalflineProblem.scalars, or 0 where that is NaN
        s_inf = limit_slope(self.nu1, self.nu2, recip_mass(weight, self.k_infinity)[0])
        s_inf = 0.0 if math.isnan(s_inf) else s_inf
        rhs = self._build_rhs(s_inf)
        psi_l1 = self.psi_l1
        if psi_l1 is None and self.rhs_example is not None:
            psi_l1 = EXAMPLES[self.rhs_example].psi_l1(**dict(self.rhs_params))
        elif psi_l1 is None and self.f_expr is None:
            psi_l1 = 0.0  # the zero right-hand side
        with _config_errors("[problem]"):
            branch = self._branch_around(s_inf)
        # [problem] was checked on load: what is left to reject is a [halfline] key
        with _config_errors("[halfline]"):
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
    if doc.section("operator") is None:
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
    if doc.section("weight") is not None:
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
    rhs_params: dict[str, float] = {}
    f_expr = None
    psi_expr = None
    if doc.section("rhs") is not None:
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
            if rhs_example not in EXAMPLES:
                raise rhs.error(
                    "example",
                    f"unknown example tag {rhs_example!r}; "
                    f"known: {', '.join(EXAMPLES)}",
                )
            given = {key: rhs.get_float(key) for key, _ in EXAMPLES[rhs_example].keys}
            with _config_errors("[rhs]"):
                rhs_params = example_params(rhs_example, given)

    prob = _Section(doc, "problem")
    if doc.section("problem") is None:
        raise ConfigError("missing [problem] section")
    nu1 = prob.get_float("nu1")
    nu2 = prob.get_float("nu2")
    if nu1 is None or nu2 is None:
        raise ConfigError("[problem] nu1 and nu2 are required")
    for key, value in (("nu1", nu1), ("nu2", nu2)):
        if not math.isfinite(value):
            raise prob.error(key, "must be finite")
    halfline = prob.get_bool("halfline", False)
    T = prob.get_float("T")
    if halfline == (T is not None):
        raise ConfigError("[problem] give exactly one of T or halfline = true")
    if T is not None and not 0.0 < T < math.inf:
        raise prob.error("T", "must be positive and finite")
    p = prob.get_float("p", 1.0)
    if not p >= 1.0:
        raise prob.error("p", "must be at least 1")

    mesh = _Section(doc, "mesh")
    mesh_n = mesh.get_int("n", 1000)

    it = _Section(doc, "iteration")
    base = IterationConfig()
    with _config_errors("[iteration]"):
        iteration = IterationConfig(
            omega=it.get_float("omega", base.omega),
            max_outer=it.get_int("max_outer", base.max_outer),
            tol_fp=it.get_float("tol_fp", base.tol_fp),
            tol_beta=it.get_float("tol_beta", base.tol_beta),
            stagnation=it.get_int("stagnation", base.stagnation),
        )

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
    if doc.section("halfline") is not None and not halfline:
        raise ConfigError("[halfline] section present but problem is finite")

    sw = _Section(doc, "sweep")
    sweep_range = None
    if doc.section("sweep") is not None:
        lo = sw.get_float("lambda_min")
        hi = sw.get_float("lambda_max")
        count = sw.get_int("count")
        if lo is None or hi is None or count is None:
            raise ConfigError("[sweep] needs lambda_min, lambda_max and count")
        for key, value in (("lambda_min", lo), ("lambda_max", hi)):
            if not math.isfinite(value):
                raise sw.error(key, "must be finite")
        if count < 0:
            raise sw.error("count", "must be nonnegative")
        if count > 0 and hi < lo:
            raise sw.error("lambda_max", "must not be below lambda_min")
        sweep_range = (lo, hi, count)

    # [operator] and [weight] take their free keys as parameters
    for sec_obj in (rhs, prob, mesh, it, chk, hl, sw):
        leftover = sec_obj.extra_keys()
        if leftover:
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
        rhs_params=tuple(rhs_params.items()),
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
    """Apply command-line flag overrides as edits of the config text.

    Each given flag writes its key into `cfg.doc` (numbers as %.17g), and
    load_problem_config types the edited text as it types the file: a flag
    is checked as its key is, and a run record that echoes the doc
    replays the run.
    """
    for flag, section, key, value in (
        ("--mesh-n", "mesh", "n", mesh_n),
        ("--tol-fp", "iteration", "tol_fp", tol_fp),
        ("--tol-beta", "iteration", "tol_beta", tol_beta),
        ("--damping", "iteration", "omega", damping),
        ("--max-iters", "iteration", "max_outer", max_iters),
    ):
        if value is None:
            continue
        # one flag at a time on a valid config: a failure is this flag's
        try:
            cfg = load_problem_config(
                cfg.doc.with_value(section, key, format(value, ".17g"))
            )
        except ConfigError as exc:
            raise ConfigError(f"{flag} {value!r}: {exc}") from exc
    return cfg
