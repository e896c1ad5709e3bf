"""The benchmark workloads: seeded configs, CLI operations, correctness gate.

A workload turns a seed into config files, runs one operation through
``phibvp.cli.main`` (the ``run`` phase, timed as ``run_s``), verifies the
tables it wrote with ``phibvp verify`` (the ``verify`` phase) and then
checks the outputs without the program's help.

Seeds map onto ``VARIANTS`` jittered variants (``seed % VARIANTS``) so that
every input the benchmark can generate has a stored reference, produced by
``make_reference.py`` at the commit named in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

VARIANTS = 16

# Sub-sampled points per table compared against the reference.
REF_POINTS = 17

# A solver change that keeps the discretisation lands on the same discrete
# fixed point within a small multiple of its stopping tolerances; 1e3 leaves
# room for slow contraction and still catches a wrong branch or mesh.
REF_FACTOR = 1.0e3

# The admissibility flip of the sweep family (perona, alpha = 4, M = N = 1):
# lambda* = 5 - 2 sqrt(6).  Every jittered lambda range must straddle it.
PERONA_FLIP = 5.0 - 2.0 * math.sqrt(6.0)


def jitter(rng: random.Random, value: float, rel: float = 0.02) -> float:
    return value * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _num(value: float) -> str:
    return format(float(value), ".17g")


# -- config templates ---------------------------------------------------------


def perona_config(nu2: float, n: int, sweep: tuple) -> str:
    text = f"""[problem]
nu1 = 0.0
nu2 = {_num(nu2)}
T = 1.0

[operator]
name = perona_malik

[weight]
name = constant
value = 1.0

[rhs]
example = perona
alpha = 4
M = 1
N = 1

[mesh]
n = {n}
"""
    if sweep:
        lo, hi, count = sweep
        text += (
            f"\n[sweep]\nlambda_min = {_num(lo)}\nlambda_max = {_num(hi)}\n"
            f"count = {count}\n"
        )
    return text


def difference_config(nu2: float, amp: float, n: int) -> str:
    return f"""[problem]
nu1 = 0.0
nu2 = {_num(nu2)}
T = 1.0

[operator]
name = difference
alpha = 2
beta = 0

[weight]
name = constant
value = 1.0

[rhs]
f = {_num(amp)} * cos(x) * sin(y)
psi = {_num(amp)}

[mesh]
n = {n}
"""


HALFLINE_BODY = """[operator]
name = r_laplacian
r = 2

[weight]
name = one_plus_t_squared

[rhs]
example = halfline1
"""

CELLS_PER_UNIT = 200
SCHEDULE = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)


def halfline_config(nu2: float) -> str:
    return (
        f"[problem]\nnu1 = 0.0\nnu2 = {_num(nu2)}\nhalfline = true\n\n"
        + HALFLINE_BODY
        + "\n[check]\nkind = halfline\nl_lip = 1\ndelta = 0.5\n"
    )


def halfline_interval_config(nu2: float, T: float) -> str:
    """The finite problem one schedule interval solves, for ``phibvp verify``."""
    cells = max(2, int(round(CELLS_PER_UNIT * T)))
    return (
        f"[problem]\nnu1 = 0.0\nnu2 = {_num(nu2)}\nT = {_num(T)}\n\n"
        + HALFLINE_BODY
        + f"\n[mesh]\nn = {cells}\n"
    )


# -- workload definitions ------------------------------------------------------


@dataclass
class Outcome:
    """What one operation produced, gathered for the gate and the trace."""

    codes: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    reasons: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: Callable[[int], dict]
    run: Callable[["Context"], list]
    verify: Callable[["Context", Callable], list]


@dataclass
class Context:
    """Paths of one workload instance inside the work directory."""

    workload: Workload
    variant: int
    workdir: str
    threads: int
    config_paths: dict = field(default_factory=dict)

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def write_configs(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        for name, text in self.workload.configs(self.variant).items():
            path = self.path(f"{name}.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.config_paths[name] = path


def _rng(name: str, variant: int) -> random.Random:
    return random.Random(f"{name}:{variant}")


def _solve_bisect_configs(variant: int) -> dict:
    rng = _rng("solve-bisect", variant)
    return {"difference": difference_config(jitter(rng, 1.5), jitter(rng, 0.05), 10_000)}


def _sweep_configs(variant: int) -> dict:
    rng = _rng("sweep", variant)
    # the flip sits midway between rows 20 and 21 of the base range, so a
    # shift below 0.0008 keeps 21 passing rows and the same solve count
    shift = 0.0008 * (2.0 * rng.random() - 1.0)
    lo, hi = 0.059 + shift, 0.139 + shift
    if not lo < PERONA_FLIP < hi:
        raise ValueError("the sweep range must cross the admissibility flip")
    return {"sweep": perona_config(0.05, 2000, (lo, hi, 40))}


def _halfline_configs(variant: int) -> dict:
    rng = _rng("halfline", variant)
    return {"halfline": halfline_config(jitter(rng, 0.2))}


def _solve_commands(ctx: Context) -> list:
    return [
        ["solve", path, "-o", ctx.path(f"out_{name}")]
        for name, path in ctx.config_paths.items()
    ]


def _solve_verify(ctx: Context, main) -> list:
    return [
        ["verify", ctx.path(f"out_{name}", "solution.txt"), path]
        for name, path in ctx.config_paths.items()
    ]


def _sweep_commands(ctx: Context) -> list:
    return [
        ["sweep", "--threads", str(ctx.threads), ctx.config_paths["sweep"],
         "-o", ctx.path("out_sweep")]
    ]


def read_sweep(path: str) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()[1:]
    return [line.split(",") for line in lines]


def _sweep_verify(ctx: Context, main) -> list:
    """The sweep writes no solution table, so re-solve its last passing row
    (the one nearest the admissibility flip) and verify that table."""
    rows = read_sweep(ctx.path("out_sweep", "sweep.txt"))
    passing = [row for row in rows if row[1] == "pass"]
    if not passing:
        return []
    lam = float(passing[-1][0])
    cfg = ctx.path("resolve.cfg")
    with open(cfg, "w", encoding="utf-8") as handle:
        handle.write(perona_config(lam, 2000, ()))
    out = ctx.path("out_resolve")
    code = main(["solve", cfg, "-o", out])
    if code != 0:
        return []
    return [["verify", os.path.join(out, "solution.txt"), cfg]]


def _halfline_commands(ctx: Context) -> list:
    return [["halfline", ctx.config_paths["halfline"], "-o", ctx.path("out_halfline")]]


def _halfline_verify(ctx: Context, main) -> list:
    nu2 = _config_value(ctx.config_paths["halfline"], "nu2")
    commands = []
    for T in SCHEDULE:
        table = ctx.path("out_halfline", f"interval_{T:g}.txt")
        if not os.path.exists(table):
            break
        cfg = ctx.path(f"interval_{T:g}.cfg")
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.write(halfline_interval_config(nu2, T))
        commands.append(["verify", table, cfg])
    return commands


def _config_value(path: str, key: str) -> float:
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            name, _, value = line.partition("=")
            if name.strip() == key:
                return float(value)
    raise KeyError(key)


# -- independent reading of outputs ----------------------------------------------


def read_table(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def record_value(path: str, section: str, key: str) -> str | None:
    current = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("["):
                current = line[1:-1]
            elif current == section:
                name, _, value = line.partition("=")
                if name.strip() == key:
                    return value.strip()
    return None


def subsample(table: np.ndarray) -> dict:
    idx = np.unique(np.linspace(0, table.shape[0] - 1, REF_POINTS).round().astype(int))
    return {"x": table[idx, 1].tolist(), "u": table[idx, 3].tolist()}


def solution_summary(table_path: str, record_path: str | None) -> dict:
    table = read_table(table_path)
    out = subsample(table)
    out["rows"] = int(table.shape[0])
    out["beta"] = (
        float(record_value(record_path, "solve", "beta"))
        if record_path is not None
        else float(table[0, 3])
    )
    return out


def summarize(ctx: Context) -> dict:
    """Everything the gate compares, read from the files the operation wrote."""
    name = ctx.workload.name
    summary: dict = {"digests": {}, "tables": {}}

    def table(key: str, path: str) -> None:
        summary["digests"][key] = digest(path)
        summary["tables"][key] = path

    if name == "solve-bisect":
        for cfg in ctx.config_paths:
            out = ctx.path(f"out_{cfg}")
            table(cfg, os.path.join(out, "solution.txt"))
            summary[cfg] = solution_summary(
                os.path.join(out, "solution.txt"), os.path.join(out, "record.txt")
            )
    elif name == "sweep":
        path = ctx.path("out_sweep", "sweep.txt")
        table("sweep", path)
        rows = read_sweep(path)
        summary["rows"] = [[row[1], row[2]] for row in rows]
        resolved = ctx.path("out_resolve")
        summary["resolved"] = solution_summary(
            os.path.join(resolved, "solution.txt"), os.path.join(resolved, "record.txt")
        )
    else:
        out = ctx.path("out_halfline")
        intervals = [T for T in SCHEDULE if os.path.exists(os.path.join(out, f"interval_{T:g}.txt"))]
        for T in intervals:
            table(f"interval_{T:g}", os.path.join(out, f"interval_{T:g}.txt"))
        record = os.path.join(out, "record.txt")
        summary["status"] = record_value(record, "halfline", "status")
        summary["intervals"] = len(intervals)
        summary["tail_value"] = float(record_value(record, "halfline", "tail_value"))
        gaps = read_table(os.path.join(out, "gaps.txt"))
        summary["last_gap"] = float(gaps[-1, 1])
        summary["last"] = solution_summary(
            os.path.join(out, f"interval_{intervals[-1]:g}.txt"), None
        )
    return summary


# -- the correctness gate ----------------------------------------------------------


def _tolerance(values) -> float:
    tol_fp, tol_beta = 1e-10, 1e-12  # the [iteration] defaults every config uses
    return REF_FACTOR * (tol_fp + tol_beta) * (1.0 + float(np.max(np.abs(values))))


def compare_solution(label: str, got: dict, ref: dict, outcome: Outcome) -> None:
    if got["rows"] != ref["rows"]:
        outcome.reasons.append(f"{label}: {got['rows']} rows, reference {ref['rows']}")
        return
    for key in ("x", "u"):
        diff = float(np.max(np.abs(np.subtract(got[key], ref[key]))))
        if not diff <= _tolerance(ref[key]):
            outcome.reasons.append(f"{label}: {key} differs from reference by {diff:.3e}")
    diff = abs(got["beta"] - ref["beta"])
    if not diff <= _tolerance([ref["beta"]]):
        outcome.reasons.append(f"{label}: beta differs from reference by {diff:.3e}")


def gate(ctx: Context, outcome: Outcome, reference: dict) -> dict:
    """Fill outcome.reasons; return the summary (for digests and counters)."""
    for argv, code in outcome.codes:
        if code != 0:
            outcome.reasons.append(f"{argv[0]} exited {code}")
    for argv, text in outcome.outputs:
        if argv[0] == "verify" and "FAILED" in text:
            outcome.reasons.append(f"verify FAILED on {os.path.basename(argv[1])}")
    if outcome.failed:
        return {}
    try:
        summary = summarize(ctx)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        outcome.reasons.append(f"unreadable output: {exc!r}")
        return {}
    name = ctx.workload.name
    ref = reference.get(name, {}).get(str(ctx.variant))
    if ref is None:
        outcome.reasons.append(f"no reference for variant {ctx.variant}")
    if name == "sweep":
        _check_sweep(outcome, summary)
    elif name == "halfline":
        _check_halfline(ctx, outcome, summary)
    if ref is None:
        return summary
    if name == "solve-bisect":
        for cfg in ctx.config_paths:
            compare_solution(cfg, summary[cfg], ref[cfg], outcome)
    elif name == "sweep":
        if summary["rows"] != ref["rows"]:
            outcome.reasons.append("sweep verdicts differ from reference")
        compare_solution("resolved row", summary["resolved"], ref["resolved"], outcome)
    else:
        if summary["intervals"] != ref["intervals"]:
            outcome.reasons.append(
                f"{summary['intervals']} intervals, reference {ref['intervals']}"
            )
        else:
            compare_solution("last interval", summary["last"], ref["last"], outcome)
            diff = abs(summary["last_gap"] - ref["last_gap"])
            if not diff <= 2.0 * _tolerance([0.0]):
                outcome.reasons.append(f"last gap differs from reference by {diff:.3e}")
    return summary


def identical_tables(summary: dict, reference: dict, ctx: Context) -> tuple[int, int]:
    """(tables bit-identical to the reference digest, tables written)."""
    ref = reference.get(ctx.workload.name, {}).get(str(ctx.variant), {})
    digests = summary.get("digests", {})
    same = sum(1 for key, value in digests.items() if ref.get("digests", {}).get(key) == value)
    return same, len(digests)


def _check_sweep(outcome: Outcome, summary: dict) -> None:
    verdicts = [verdict for verdict, _ in summary["rows"]]
    for verdict, status in summary["rows"]:
        if verdict == "pass" and status != "converged":
            outcome.reasons.append(f"a passing sweep row ended {status!r}")
    if "pass" not in verdicts or "fail" not in verdicts:
        outcome.reasons.append("the lambda range no longer crosses the flip")


def _check_halfline(ctx: Context, outcome: Outcome, summary: dict) -> None:
    nu2 = _config_value(ctx.config_paths["halfline"], "nu2")
    if summary["status"] != "converged":
        outcome.reasons.append(f"halfline status {summary['status']!r}")
    if not summary["last_gap"] <= 1e-3:  # tol_h, the [halfline] default
        outcome.reasons.append(f"last gap {summary['last_gap']!r} above tol_h")
    if not abs(summary["tail_value"] - nu2) <= 1e-9:
        outcome.reasons.append(f"tail value {summary['tail_value']!r} is not nu2")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-bisect",
            "difference operator has no closed-form inverse, so the 120-step vector "
            "bisection in partial_inverse_array dominates",
            _solve_bisect_configs,
            _solve_commands,
            _solve_verify,
        ),
        Workload(
            "sweep",
            "40 small solves across the admissibility flip on 2 threads: config "
            "builds, checks, kernel set-up and the thread pool dominate",
            _sweep_configs,
            _sweep_commands,
            _sweep_verify,
        ),
        Workload(
            "halfline",
            "the only user of the nested-interval schedule: warm starts, gaps, "
            "half-line masses and per-interval table writes",
            _halfline_configs,
            _halfline_commands,
            _halfline_verify,
        ),
    )
}
