"""Span recorder for the traced run, and the per-layer table built from it.

``install`` wraps the public functions of every ``phibvp`` module at the
binding the caller resolves (modules import names directly, so patching
only the defining module would miss calls).  Plain runs never call it.
Spans stay in memory; ``write`` dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class Span:
    name: str
    op: int
    parent: "Span | None"
    start: float
    end: float = 0.0
    elems: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.outer: Span | None = None  # outermost open span of the main thread
        self._local = threading.local()
        self._main = threading.get_ident()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, after=None):
        """Return fn recorded as span `name`; `after(span, args, result)`
        may attach counts.  A call nested directly inside a span of the same
        name is not recorded again."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            # pool threads start with an empty stack: attribute their spans
            # to the command that started the pool
            parent = stack[-1] if stack else recorder.outer
            span = Span(name, recorder.op, parent, time.perf_counter())
            stack.append(span)
            outermost = not stack[:-1] and threading.get_ident() == recorder._main
            if outermost:
                recorder.outer = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if outermost:
                    recorder.outer = None
                recorder.spans.append(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "op": span.op,
                            "parent": ids.get(id(span.parent)),
                            "start": span.start,
                            "end": span.end,
                            "elems": span.elems,
                            **span.info,
                        }
                    )
                    + "\n"
                )


def _elems(span, args, result) -> None:
    span.elems = int(np.size(result))


def _inverse_elems(span, args, result) -> None:
    span.elems = int(np.size(args[2]))


def _lattice(span, args, result) -> None:
    nt, nx, ny = args[0].lattice
    span.elems = nt * nx * ny


def _command(span, args, result) -> None:
    span.info["command"] = args[0][0]


def _halfline(span, args, result) -> None:
    span.info["intervals"] = len(result.runs)
    span.info["cells"] = sum(run.report.x.mesh.nodes.size - 1 for run in result.runs)
    span.info["last_gap"] = result.gaps[-1][1] if result.gaps else float("nan")


def install(recorder: Recorder) -> None:
    """Wrap every traced boundary; undo with recorder.uninstall()."""
    from phibvp import cli, config, expressions, grid, halfline, hypotheses, problem, solver

    p = recorder.patch
    p(cli, "main", "cli.main", _command)
    p(cli, "read_config", "config.load")
    p(cli, "load_problem_config", "config.load")
    p(config.ProblemConfig, "build_finite", "config.build")
    p(config.ProblemConfig, "build_halfline", "config.build")
    p(config.ProblemConfig, "run_check", "hypotheses.check", _lattice)
    p(expressions.CompiledExpression, "__call__", "expressions.eval", _elems)
    for module in (config, problem):
        p(module, "find_branch", "operators.find_branch")
    p(solver, "partial_inverse_array", "operators.inverse", _inverse_elems)
    for module in (solver, cli, grid):
        p(module, "cumulative_integral", "grid.cumulative")
    for module in (config, problem, halfline):
        p(module, "default_mesh", "grid.mesh")
    p(grid.Mesh, "refine", "grid.mesh")
    for module in (solver, problem):
        p(module, "envelopes", "problem.scalars")
    for module in (solver, hypotheses):
        p(module, "derive_scalars", "problem.scalars")
    p(cli, "solve", "solver.solve")
    p(halfline, "solve", "solver.solve")
    p(solver.BetaEquation, "value", "solver.map_eval")
    p(solver.BetaEquation, "solve", "solver.beta")
    p(solver, "g_map", "solver.gmap")
    p(solver, "truncated_rhs", "solver.truncated_rhs")
    p(solver.SolverKernel, "__init__", "solver.kernel")
    p(solver, "verify", "solver.verify")
    p(cli, "solve_halfline", "halfline.total", _halfline)
    for attr in ("recip_mass", "psi_mass", "k_mass_upto"):
        p(halfline, attr, "halfline.mass")
    p(halfline, "extend_by_nu2", "halfline.gap")
    p(cli, "write_solution_table", "cli.table_write")
    p(cli, "read_solution_table", "cli.table_read")
    p(cli, "build_run_record", "cli.record")
    p(cli, "emit_config", "cli.record")


# -- the per-layer table ------------------------------------------------------------

# (metric, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = [
    ("config.load_s", "s", "lower"),
    ("config.build_s", "s", "lower"),
    ("expressions.eval_s", "s", "lower"),
    ("expressions.eval_calls", "count", "lower"),
    ("expressions.eval_elems", "count", "lower"),
    ("operators.find_branch_s", "s", "lower"),
    ("operators.inverse_s", "s", "lower"),
    ("operators.inverse_calls", "count", "lower"),
    ("operators.inverse_elems", "count", "lower"),
    ("operators.inverse_bytes_computed", "bytes", "lower"),
    ("grid.cumulative_s", "s", "lower"),
    ("grid.cumulative_calls", "count", "lower"),
    ("grid.mesh_s", "s", "lower"),
    ("problem.scalars_s", "s", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.outer_iters", "count", "lower"),
    ("solver.map_evals", "count", "lower"),
    ("solver.map_evals_per_iter", "count", "lower"),
    ("solver.beta_s", "s", "lower"),
    ("solver.gmap_s", "s", "lower"),
    ("solver.truncated_rhs_s", "s", "lower"),
    ("solver.kernel_s", "s", "lower"),
    ("solver.mix_s", "s", "lower"),
    ("solver.verify_s", "s", "lower"),
    ("hypotheses.check_s", "s", "lower"),
    ("hypotheses.checks", "count", "lower"),
    ("hypotheses.lattice_points", "count", "lower"),
    ("halfline.total_s", "s", "lower"),
    ("halfline.intervals", "count", "lower"),
    ("halfline.cells", "count", "lower"),
    ("halfline.interval_solve_s", "s", "lower"),
    ("halfline.mass_s", "s", "lower"),
    ("halfline.gap_s", "s", "lower"),
    ("halfline.last_gap", "abs", "lower"),
    ("cli.table_write_s", "s", "lower"),
    ("cli.table_read_s", "s", "lower"),
    ("cli.table_bytes", "bytes", "lower"),
    ("cli.record_write_s", "s", "lower"),
    ("cli.verify_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.sweep_rows", "count", "higher"),
    ("cli.tables_identical", "count", "higher"),
    ("cli.tables_written", "count", "higher"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Counters that must repeat exactly across traced runs on one seed.
EXACT = (
    "solver.outer_iters",
    "solver.map_evals",
    "operators.inverse_calls",
    "hypotheses.lattice_points",
    "halfline.intervals",
    "halfline.cells",
    "cli.sweep_rows",
    "halfline.last_gap",
)


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list) -> dict:
    """Span -> its duration minus the part its children cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    return {id(s): s.duration - _covered(children.get(id(s), [])) for s in spans}


def _has_ancestor(span: Span, name: str) -> bool:
    node = span.parent
    while node is not None:
        if node.name == name:
            return True
        node = node.parent
    return False


def layer_table(spans: list) -> dict:
    """Per-layer totals for the spans of one operation."""
    own = self_times(spans)
    total: dict = {}
    calls: dict = {}
    elems: dict = {}
    self_total: dict = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        elems[span.name] = elems.get(span.name, 0) + span.elems
        self_total[span.name] = self_total.get(span.name, 0.0) + own[id(span)]
    halfline = [s for s in spans if s.name == "halfline.total"]
    iters = calls.get("solver.gmap", 0)
    return {
        "config.load_s": total.get("config.load", 0.0),
        "config.build_s": self_total.get("config.build", 0.0),
        "expressions.eval_s": total.get("expressions.eval", 0.0),
        "expressions.eval_calls": calls.get("expressions.eval", 0),
        "expressions.eval_elems": elems.get("expressions.eval", 0),
        "operators.find_branch_s": total.get("operators.find_branch", 0.0),
        "operators.inverse_s": total.get("operators.inverse", 0.0),
        "operators.inverse_calls": calls.get("operators.inverse", 0),
        "operators.inverse_elems": elems.get("operators.inverse", 0),
        # computed, not measured: one float64 read and one written per element
        "operators.inverse_bytes_computed": 16 * elems.get("operators.inverse", 0),
        "grid.cumulative_s": total.get("grid.cumulative", 0.0),
        "grid.cumulative_calls": calls.get("grid.cumulative", 0),
        "grid.mesh_s": total.get("grid.mesh", 0.0),
        "problem.scalars_s": total.get("problem.scalars", 0.0),
        "solver.solve_s": total.get("solver.solve", 0.0),
        "solver.outer_iters": iters,
        "solver.map_evals": calls.get("solver.map_eval", 0),
        "solver.map_evals_per_iter": calls.get("solver.map_eval", 0) / iters if iters else 0.0,
        "solver.beta_s": total.get("solver.beta", 0.0),
        "solver.gmap_s": total.get("solver.gmap", 0.0),
        "solver.truncated_rhs_s": total.get("solver.truncated_rhs", 0.0),
        "solver.kernel_s": total.get("solver.kernel", 0.0),
        "solver.mix_s": self_total.get("solver.solve", 0.0),
        "solver.verify_s": total.get("solver.verify", 0.0),
        "hypotheses.check_s": total.get("hypotheses.check", 0.0),
        "hypotheses.checks": calls.get("hypotheses.check", 0),
        "hypotheses.lattice_points": elems.get("hypotheses.check", 0),
        "halfline.total_s": total.get("halfline.total", 0.0),
        "halfline.intervals": sum(s.info["intervals"] for s in halfline),
        "halfline.cells": sum(s.info["cells"] for s in halfline),
        "halfline.interval_solve_s": sum(
            s.duration for s in spans
            if s.name == "solver.solve" and _has_ancestor(s, "halfline.total")
        ),
        "halfline.mass_s": total.get("halfline.mass", 0.0),
        "halfline.gap_s": total.get("halfline.gap", 0.0),
        "halfline.last_gap": halfline[-1].info["last_gap"] if halfline else 0.0,
        "cli.table_write_s": total.get("cli.table_write", 0.0),
        "cli.table_read_s": total.get("cli.table_read", 0.0),
        "cli.record_write_s": total.get("cli.record", 0.0),
        "cli.verify_s": sum(
            s.duration for s in spans
            if s.name == "cli.main" and s.info["command"] == "verify"
        ),
        "cli.self_s": self_total.get("cli.main", 0.0),
    }
