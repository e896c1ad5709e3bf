"""Command-line front door.

Subcommands: check, solve, sweep, halfline, verify.  Exit codes are a
contract: 0 ok/converged, 1 usage or config problem, 2 hypothesis fail,
3 inconclusive hypotheses, 4 non-convergence or verification failure.

An error's class alone decides its exit code, and main alone maps it:
ConfigError (config, flags, building or checking the problem) exits 1
with "config error: ...", any other PhibvpError exits 4 with "error: ...",
and an OSError, which only a write can raise, exits 1 with "config error:
cannot write output: ...".
Only a solver failure after a passed check is mapped by its command
("solver error: ...", record written, exit 4); a sweep row names its class.

All numeric output is decimal with 17 significant digits so tables
round-trip doubles exactly.  Solution tables are written a block of rows
at a time by g17.encode_rows, a vectorised encoder whose bytes are those
of %.17g; the values it cannot certify (zeros, NaN, infinities,
magnitudes outside [1e-280, 1e280], near-ties) it formats with % itself.
Run records reuse the config text format and therefore round-trip
through parse_config.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import __version__, solver
from .config import (
    ConfigDoc,
    ProblemConfig,
    emit_config,
    load_problem_config,
    read_config,
    with_overrides,
)
from .errors import ConfigError, PhibvpError
from .g17 import encode_rows
# cumulative_integral is unused here; perfbench/tracing.py still patches cli's binding
from .grid import Mesh, cumulative_integral  # noqa: F401
from .halfline import HeteroclinicReport, solve_halfline
from .hypotheses import FAIL, INCONCLUSIVE, PASS, HypothesisReport
from .solver import SolveReport, VerificationRecord, solve, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERIC = 4

TABLE_HEADER = "t,x,dx,u"
# rows are encoded a block at a time, so the writer's work arrays do not
# grow with the table
TABLE_BLOCK_ROWS = 2048


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _sanitize(text: str) -> str:
    """Make arbitrary detail text safe for one config-format value."""
    return " ".join(str(text).replace("#", "").replace(";", "").split())


# -- solution tables --------------------------------------------------------


def write_solution_table(path: str, mesh: Mesh, report: SolveReport) -> None:
    """Write t, x, dx, u on `mesh`, each value as %.17g; dx is nan at
    singular nodes."""
    columns = (mesh.nodes, report.x.values, report.x_prime.values, report.u.values)
    with open(path, "wb") as handle:
        handle.write(TABLE_HEADER.encode() + b"\n")
        for start in range(0, mesh.nodes.size, TABLE_BLOCK_ROWS):
            block = np.column_stack(
                [col[start : start + TABLE_BLOCK_ROWS] for col in columns]
            )
            for i in mesh.singular_indices:
                if start <= i < start + len(block):
                    block[i - start, 2] = np.nan
            handle.write(encode_rows(block))


def read_solution_table(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().strip()
            if header != TABLE_HEADER:
                raise ConfigError(
                    f"solution table must start with {TABLE_HEADER!r}, got {header!r}"
                )
            # np.loadtxt only warns on a table without rows
            rows = handle.tell()
            while not (line := handle.readline()).strip():
                if not line:
                    raise ConfigError(f"solution table {path!r} has no rows")
            handle.seek(rows)
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read table {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed table {path!r}: {exc}") from exc
    if data.shape[1] != 4:
        raise ConfigError(f"expected 4 columns in {path!r}, got {data.shape[1]}")
    return data[:, 0], data[:, 1], data[:, 2], data[:, 3]


# -- run records -------------------------------------------------------------


def _config_echo_sections(doc: ConfigDoc):
    return tuple((f"config.{sec}", pairs) for sec, pairs in doc.sections)


def _field_pairs(record) -> tuple[tuple[str, str], ...]:
    """(name, text) for every field of a dataclass: floats in %.17g,
    booleans as true or false, anything else as str."""
    pairs = []
    for field in fields(record):
        value = getattr(record, field.name)
        if isinstance(value, bool):
            text = str(value).lower()
        else:
            text = _fmt(value) if isinstance(value, float) else str(value)
        pairs.append((field.name, text))
    return tuple(pairs)


def _effective_doc(cfg: ProblemConfig) -> ConfigDoc:
    """cfg.doc with every [iteration] value the run used, so that a
    record replays its run even after an iteration default changes."""
    doc = cfg.doc
    for key, text in _field_pairs(cfg.iteration):
        doc = doc.with_value("iteration", key, text)
    return doc


def _check_sections(report: HypothesisReport):
    sections = [
        (
            "check",
            (
                ("theorem", report.theorem),
                ("overall", report.overall),
            ),
        )
    ]
    for item in report.items:
        pairs = [("verdict", item.verdict)]
        pairs += [(key, _fmt(val)) for key, val in item.quantities]
        if item.detail:
            pairs.append(("detail", _sanitize(item.detail)))
        sections.append((f"check.{item.name}", tuple(pairs)))
    return tuple(sections)


def _solve_sections(report: SolveReport, verification: VerificationRecord):
    pairs = (
        ("status", report.status),
        ("iterations", str(report.iterations)),
        ("omega_halvings", str(report.omega_halvings)),
        ("secant_rejections", str(report.secant_rejections)),
        ("beta", _fmt(report.beta)),
        ("residual", _fmt(report.residual)),
        ("boundary_defect", _fmt(report.boundary_defect)),
        ("truncation_count", str(report.truncation_count)),
        ("psi_clip_count", str(report.psi_clip_count)),
        ("max_envelope_excess", _fmt(report.max_envelope_excess)),
        ("trace", ",".join(_fmt(step) for step in report.trace)),
    )
    return (
        ("solve", pairs),
        ("solve.scalars", _field_pairs(report.scalars)),
        ("solve.verification", _field_pairs(verification)),
    )


def _halfline_sections(report: HeteroclinicReport):
    pairs = [
        ("status", report.status),
        ("intervals", str(len(report.runs))),
        ("tail_value", _fmt(report.tail_value)),
        ("tail_defect", _fmt(report.tail_defect)),
        ("k_infinity", _fmt(report.scalars.k_inf)),
        ("s_star_infinity", _fmt(report.scalars.s_inf)),
        ("ell_infinity", _fmt(report.scalars.ell_inf)),
        ("uniform_envelope_ok", str(report.uniform_envelope_ok).lower()),
        ("uniform_offset_ok", str(report.uniform_offset_ok).lower()),
    ]
    if report.detail:
        pairs.append(("detail", _sanitize(report.detail)))
    sections = [("halfline", tuple(pairs))]
    gap_pairs = tuple((f"after_{label:g}", _fmt(gap)) for label, gap in report.gaps)
    run_pairs = tuple(
        (f"{key}_{run.n:g}", text)
        for run in report.runs
        for key, text in (
            ("status", run.report.status),
            ("iterations", str(run.report.iterations)),
            ("residual", _fmt(run.report.residual)),
        )
    )
    for name, section in (("halfline.gaps", gap_pairs), ("halfline.intervals", run_pairs)):
        if section:
            sections.append((name, section))
    return tuple(sections)


# Flags that override a config value.  A record echoes the config after
# them, and its [run.overrides] section names the ones given.
OVERRIDE_FLAGS = ("mesh_n", "tol_fp", "tol_beta", "damping", "max_iters")


def _overrides(args) -> tuple[tuple[str, str], ...]:
    return tuple(
        (flag.replace("_", "-"), _fmt(getattr(args, flag)))
        for flag in OVERRIDE_FLAGS
        if getattr(args, flag) is not None
    )


def build_run_record(
    command: str,
    doc: ConfigDoc,
    exit_code: int,
    seed: int | None = None,
    overrides: tuple[tuple[str, str], ...] = (),
    check: HypothesisReport | None = None,
    solve_report: SolveReport | None = None,
    verification: VerificationRecord | None = None,
    halfline_report: HeteroclinicReport | None = None,
    sweep_counts: dict | None = None,
) -> ConfigDoc:
    run_pairs = [
        ("command", command),
        ("version", __version__),
        ("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())),
        ("exit_code", str(exit_code)),
    ]
    if seed is not None:
        run_pairs.append(("seed", str(seed)))
    sections = [("run", tuple(run_pairs))]
    if overrides:
        sections.append(("run.overrides", overrides))
    sections.extend(_config_echo_sections(doc))
    if check is not None:
        sections.extend(_check_sections(check))
    if solve_report is not None:
        sections.extend(_solve_sections(solve_report, verification))
    if halfline_report is not None:
        sections.extend(_halfline_sections(halfline_report))
    if sweep_counts is not None:
        sections.append(
            ("sweep", tuple((key, str(value)) for key, value in sweep_counts.items()))
        )
    return ConfigDoc(sections=tuple(sections))


def _write_record(
    command: str, cfg: ProblemConfig, args, exit_code: int, **reports
) -> None:
    """Write args.output/record.txt, if given: the config and the reports."""
    if args.output is None:
        return
    record = build_run_record(
        command, _effective_doc(cfg), exit_code,
        seed=args.seed, overrides=_overrides(args), **reports,
    )
    with open(os.path.join(args.output, "record.txt"), "w", encoding="utf-8") as handle:
        handle.write(emit_config(record))


# -- command implementations --------------------------------------------------


def _print_check(report: HypothesisReport) -> None:
    print(f"hypothesis set: {report.theorem}")
    for item in report.items:
        extras = " ".join(f"{k}={_fmt(v)}" for k, v in item.quantities)
        line = f"  {item.name}: {item.verdict}"
        if extras:
            line += f"  ({extras})"
        print(line)
    print(f"overall: {report.overall}")


def _check_exit_code(report: HypothesisReport) -> int:
    if report.overall == "pass":
        return EXIT_OK
    if report.overall == "fail":
        return EXIT_HYPOTHESIS
    return EXIT_INCONCLUSIVE


def _check_gate(command: str, cfg: ProblemConfig, args, build):
    """Build the problem, check it and print the report.

    Returns the problem, the report and the check's exit code.  A check
    that does not pass has its record written here."""
    built = build()
    report = cfg.run_check(built)
    _print_check(report)
    if args.output is not None:
        os.makedirs(args.output, exist_ok=True)
    code = _check_exit_code(report)
    if code != EXIT_OK:
        _write_record(command, cfg, args, code, check=report)
    return built, report, code


def cmd_check(cfg: ProblemConfig, args) -> int:
    build = cfg.build_halfline if cfg.halfline else cfg.build_finite
    _, report, code = _check_gate("check", cfg, args, build)
    if code == EXIT_OK:
        _write_record("check", cfg, args, code, check=report)
    return code


def cmd_solve(cfg: ProblemConfig, args) -> int:
    problem, report_check, code = _check_gate("solve", cfg, args, cfg.build_finite)
    if code != EXIT_OK:
        return code

    try:
        report = solve(problem, cfg.iteration)
    except PhibvpError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        _write_record("solve", cfg, args, EXIT_NUMERIC, check=report_check)
        return EXIT_NUMERIC

    table_path = os.path.join(args.output, "solution.txt")
    write_solution_table(table_path, problem.mesh, report)
    # the columns just written, through the binding perfbench/tracing.py patches
    verification = solver.verify(problem, report.x.values, report.x_prime.values, report.u.values)
    # a table that `phibvp verify` would fail exits as that command does
    code = EXIT_OK if report.status == "converged" and verification.ok else EXIT_NUMERIC
    _write_record(
        "solve", cfg, args, code,
        check=report_check, solve_report=report, verification=verification,
    )
    print(
        f"solve: {report.status} in {report.iterations} iterations, "
        f"residual {_fmt(report.residual)}"
    )
    if not verification.ok:
        print("verification: FAILED")
    print(f"wrote {table_path}")
    return code


# A sweep row starts from the Lagrange extrapolation in lambda through
# this many of the last converged rows: a cubic predictor.
PREDICTOR_POINTS = 4

# The counts of a sweep's [sweep] record section.  iterations counts every
# Picard sweep of every solve that returned, abandoned predicted starts
# included.
SWEEP_COUNTS = ("rows", "solved_rows", "predicted_starts", "cold_restarts", "iterations")


def _predict(history: list, lam: float, shape: tuple) -> tuple | None:
    """(x, x') extrapolated to `lam` through the (lambda, x, x') rows of
    `history`, whose lambdas differ, or None when no row has `shape`."""
    points = [row for row in history if row[1].shape == shape]
    if not points:
        return None
    weights = [
        math.prod(
            (lam - other[0]) / (row[0] - other[0]) for other in points if other is not row
        )
        for row in points
    ]
    return tuple(
        sum(w * row[k] for w, row in zip(weights, points)) for k in (1, 2)
    )


def _sweep_row(
    cfg: ProblemConfig, lam: float, history: list, counts: dict
) -> tuple[float, str, str, float]:
    """Check and solve one row; a converged row joins `history`."""
    counts["rows"] += 1
    try:
        problem = cfg.build_finite(nu2_override=lam)
        report = cfg.run_check(problem)
    except PhibvpError as exc:
        return lam, f"error:{type(exc).__name__}", "skipped", math.nan
    verdict = report.overall
    if verdict != "pass":
        return lam, verdict, "skipped", math.nan
    counts["solved_rows"] += 1
    rep = None
    initial = _predict(history, lam, problem.mesh.nodes.shape)
    if initial is not None:
        counts["predicted_starts"] += 1
        # `stagnation` sweeps without progress call for another strategy
        it = cfg.iteration
        budget = replace(it, max_outer=min(it.max_outer, it.stagnation))
        try:
            rep = solve(problem, budget, initial=initial)
        except PhibvpError:
            rep = None
        else:
            counts["iterations"] += rep.iterations
        if rep is None or rep.status != "converged":
            counts["cold_restarts"] += 1
            rep = None
    if rep is None:
        try:
            rep = solve(problem, cfg.iteration)
        except PhibvpError as exc:
            return lam, verdict, f"error:{type(exc).__name__}", math.nan
        counts["iterations"] += rep.iterations
    if rep.status == "converged":
        history[:] = [row for row in history if row[0] != lam]
        history.append((lam, rep.x.values, rep.x_prime.values))
        del history[:-PREDICTOR_POINTS]
    return lam, verdict, rep.status, rep.residual


def cmd_sweep(cfg: ProblemConfig, args) -> int:
    if cfg.sweep_range is None:
        raise ConfigError("config has no [sweep] section")
    os.makedirs(args.output, exist_ok=True)
    lo, hi, count = cfg.sweep_range
    # Natural-parameter continuation: neighbouring rows solve nearby
    # problems, so a passing row starts from the cubic extrapolation of
    # the last PREDICTOR_POINTS converged rows (fewer while there are
    # fewer; the first starts cold).  That attempt runs at most
    # `stagnation` sweeps; if it raises or ends other than converged, the
    # row is solved again cold with the full config, and that solve is
    # the one reported.  A predicted row stops on the tol_fp rule, often
    # after one sweep, so its residual column (the forward difference
    # residual of the reported iterate) reflects the predicted start.
    # serial: each row is a chain of small GIL-bound numpy calls, so
    # worker threads measured slower than this loop (--threads is ignored)
    counts = dict.fromkeys(SWEEP_COUNTS, 0)
    history: list = []
    rows = [
        _sweep_row(cfg, float(lam), history, counts)
        for lam in np.linspace(lo, hi, count)
    ]

    table_path = os.path.join(args.output, "sweep.txt")
    with open(table_path, "w", encoding="utf-8") as handle:
        handle.write("lambda,check,solve,residual\n")
        for lam, verdict, status, residual in rows:
            handle.write(f"{_fmt(lam)},{verdict},{status},{_fmt(residual)}\n")
    # an error:* row has no verdict: it neither flips nor counts as a result
    judged = [row[1] in (PASS, FAIL, INCONCLUSIVE) for row in rows]
    code = EXIT_USAGE if rows and not any(judged) else EXIT_OK
    _write_record("sweep", cfg, args, code, sweep_counts=counts)
    print(f"wrote {table_path} ({len(rows)} rows)")
    flips = [
        (rows[i][0], rows[i + 1][0])
        for i in range(len(rows) - 1)
        if judged[i]
        and judged[i + 1]
        and (rows[i][1] == PASS) != (rows[i + 1][1] == PASS)
    ]
    for a, b in flips:
        print(f"check verdict flips between lambda = {_fmt(a)} and {_fmt(b)}")
    if code != EXIT_OK:
        print("error: no sweep row produced a check verdict", file=sys.stderr)
    return code


def cmd_halfline(cfg: ProblemConfig, args) -> int:
    hp, report_check, code = _check_gate("halfline", cfg, args, cfg.build_halfline)
    if code != EXIT_OK:
        return code

    try:
        hetero = solve_halfline(hp, cfg.iteration)
    except PhibvpError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        _write_record("halfline", cfg, args, EXIT_NUMERIC, check=report_check)
        return EXIT_NUMERIC

    for run in hetero.runs:
        path = os.path.join(args.output, f"interval_{run.n:g}.txt")
        write_solution_table(path, run.report.x.mesh, run.report)
        gap_text = "-" if run.gap is None else _fmt(run.gap)
        print(
            f"interval [0, {run.n:g}]: {run.report.status}, gap {gap_text}, "
            f"sweeps {run.report.iterations}"
        )

    gaps_path = os.path.join(args.output, "gaps.txt")
    with open(gaps_path, "w", encoding="utf-8") as handle:
        handle.write("n,gap\n")
        for label, gap in hetero.gaps:
            handle.write(f"{_fmt(label)},{_fmt(gap)}\n")

    code = EXIT_OK if hetero.status == "converged" else EXIT_NUMERIC
    _write_record(
        "halfline", cfg, args, code, check=report_check, halfline_report=hetero
    )
    print(f"halfline: {hetero.status}, tail value {_fmt(hetero.tail_value)}")
    if hetero.detail:
        print(f"detail: {hetero.detail}")
    return code


def cmd_verify(cfg: ProblemConfig, args) -> int:
    t, x, dx, u = read_solution_table(args.table)
    problem = cfg.build_finite()
    nodes = problem.mesh.nodes
    # written so that a NaN in t fails the comparison and is rejected
    if t.size != nodes.size or not np.all(np.abs(t - nodes) <= 1e-9 * (1.0 + problem.T)):
        raise ConfigError(
            "table grid does not match the config mesh "
            f"({t.size} rows vs {nodes.size} nodes)"
        )
    record = verify(problem, x, dx, u)
    print(f"boundary defect:    {_fmt(record.boundary_defect)}")
    print(f"operator defect:    {_fmt(record.operator_defect)}  (u vs Phi(k dx))")
    print(f"integral defect:    {_fmt(record.integral_defect)}  (u vs u(0) + cumulative f)")
    print(f"slope defect:       {_fmt(record.slope_defect)}  (x vs nu1 + cumulative dx)")
    print(f"residual (fwd diff): {_fmt(record.residual_defect)}")
    print("verification: " + ("ok" if record.ok else "FAILED"))
    return EXIT_OK if record.ok else EXIT_NUMERIC


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it as
    it is."""
    shared = _Parser(add_help=False)
    shared.add_argument("--mesh-n", type=int, default=None, help="override mesh cells")
    shared.add_argument("--tol-fp", type=float, default=None, help="fixed-point tolerance")
    shared.add_argument("--tol-beta", type=float, default=None, help="beta-equation tolerance")
    shared.add_argument(
        "--damping", type=float, default=None,
        help="Picard damping factor omega (default 1: undamped)",
    )
    shared.add_argument("--max-iters", type=int, default=None, help="outer iteration cap")
    shared.add_argument(
        "--threads", type=int, default=4, help="accepted and ignored: sweep runs serially"
    )
    shared.add_argument("--seed", type=int, default=None, help="recorded in run records")

    parser = _Parser(prog="phibvp", description="phi-Laplacian boundary value problems")
    parser.add_argument("--version", action="version", version=f"phibvp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[shared], help="run hypothesis checks")
    p_check.add_argument("config")
    p_check.add_argument("-o", "--output", default=None, help="directory for the run record")

    p_solve = sub.add_parser("solve", parents=[shared], help="check then solve")
    p_solve.add_argument("config")
    p_solve.add_argument("-o", "--output", required=True)

    p_sweep = sub.add_parser("sweep", parents=[shared], help="feasibility sweep over lambda")
    p_sweep.add_argument("config")
    p_sweep.add_argument("-o", "--output", required=True)

    p_half = sub.add_parser("halfline", parents=[shared], help="heteroclinic limit process")
    p_half.add_argument("config")
    p_half.add_argument("-o", "--output", required=True)

    p_verify = sub.add_parser("verify", parents=[shared], help="re-verify a solution table")
    p_verify.add_argument("table")
    p_verify.add_argument("config")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse --help and --version exit 0; usage errors exit 1
        return int(exc.code or 0)

    command = {
        "check": cmd_check,
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "halfline": cmd_halfline,
        "verify": cmd_verify,
    }[args.command]
    # the one error-to-exit-code table (see the module docstring)
    try:
        doc = read_config(args.config)
        cfg = load_problem_config(doc)
        cfg = with_overrides(
            cfg, **{flag: getattr(args, flag) for flag in OVERRIDE_FLAGS}
        )
        return command(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PhibvpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
