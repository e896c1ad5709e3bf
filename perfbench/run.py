"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-bisect --seed 0 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src and
driven in process, one operation at a time (closed loop, one client).
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of the traced run.  Scratch files
go to ./.perfbench_work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing
from workloads import VARIANTS, WORKLOADS, Context, Outcome, gate, identical_tables

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Fresh interpreters per run for setup_s, spread between the timed
# operations so that the median sees the whole run; the median is reported.
SETUP_SAMPLES = 11

SETUP_CHILD = """
import time
t0 = time.perf_counter()
from phibvp.config import load_problem_config, read_config
for path in {paths!r}:
    cfg = load_problem_config(read_config(path))
    cfg.build_halfline() if cfg.halfline else cfg.build_finite()
print(time.perf_counter() - t0)
"""

RSS_CHILD = """
import resource, sys
sys.path[:0] = [{bench!r}]
import run
run.child_operation({workload!r}, {variant!r}, {workdir!r}, {threads!r})
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _child(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child process failed:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def call(argv: list, outcome) -> None:
    """One CLI invocation through phibvp.cli.main, output captured."""
    from phibvp import cli  # after main() has put ./src on the path

    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            code = cli.main(argv)
    except Exception:  # the operation fails; the run goes on
        code = "exception"
        outcome.reasons.append(traceback.format_exc(limit=3))
    outcome.codes.append((argv, code))
    outcome.outputs.append((argv, buffer.getvalue()))


def operation(ctx, reference: dict):
    """Run, verify and gate one operation; return (run_s, outcome, summary)."""
    for entry in os.listdir(ctx.workdir):
        if entry.startswith("out_"):
            shutil.rmtree(os.path.join(ctx.workdir, entry))
    outcome = Outcome()
    t0 = time.perf_counter()
    for argv in ctx.workload.run(ctx):
        call(argv, outcome)
    run_s = time.perf_counter() - t0

    def quiet_main(argv):
        call(argv, outcome)
        return outcome.codes[-1][1]

    if all(code == 0 for _, code in outcome.codes):
        for argv in ctx.workload.verify(ctx, quiet_main):
            call(argv, outcome)
    return run_s, outcome, gate(ctx, outcome, reference)


def child_operation(workload: str, variant: int, workdir: str, threads: int) -> None:
    """Run phase of one operation in a fresh process, for peak_rss_mb.

    Its outputs are not gated here; the in-process operations are."""
    ctx = Context(WORKLOADS[workload], variant, workdir, threads)
    ctx.write_configs()
    outcome = Outcome()
    for argv in ctx.workload.run(ctx):
        call(argv, outcome)


def measure_setup(ctx) -> float:
    return float(_child(SETUP_CHILD.format(paths=list(ctx.config_paths.values()))))


def measure_rss(ctx) -> float:
    code = RSS_CHILD.format(
        bench=BENCH_DIR,
        workload=ctx.workload.name,
        variant=ctx.variant,
        workdir=os.path.join(ctx.workdir, "rss"),
        threads=ctx.threads,
    )
    return float(_child(code)) / 1024.0  # ru_maxrss is in KiB on Linux


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.identical = 0
        self.tables = 0

    def add(self, ctx, outcome, summary, reference) -> None:
        self.attempted += 1
        if outcome.failed:
            self.failed += 1
            print(f"operation failed: {'; '.join(outcome.reasons)}", file=sys.stderr)
        same, written = identical_tables(summary, reference, ctx)
        self.identical += same
        self.tables += written


def loop(ctx, reference, seconds: float, tally: Tally, after=None) -> list:
    """Closed loop of operations for `seconds`; returns the run_s samples."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        run_s, outcome, summary = operation(ctx, reference)
        tally.add(ctx, outcome, summary, reference)
        samples.append(run_s)
        if after is not None:
            after(summary)
    return samples


def plain_run(ctx, reference, seconds: float, tally: Tally) -> dict:
    rss = measure_rss(ctx)
    tally.add(ctx, *operation(ctx, reference)[1:], reference)  # warm-up
    setup: list = []

    def after(summary) -> None:
        if len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(ctx))

    runs = loop(ctx, reference, seconds, tally, after)
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(ctx))
    print(f"samples: run_s {len(runs)}, setup_s {len(setup)}, peak_rss_mb 1")
    return {
        "run_s": (statistics.median(runs), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }


def traced_run(ctx, reference, seconds: float, tally: Tally) -> dict:
    tally.add(ctx, *operation(ctx, reference)[1:], reference)  # warm-up
    plain = loop(ctx, reference, seconds / 2.0, tally)

    recorder = tracing.Recorder()
    tables: list = []

    def after(summary) -> None:
        paths = summary.get("tables", {}).values()
        rows = len(summary.get("rows", []))
        tables.append((sum(os.path.getsize(p) for p in paths), rows, summary))
        recorder.op += 1

    tracing.install(recorder)
    try:
        traced = loop(ctx, reference, seconds / 2.0, tally, after)
    finally:
        recorder.uninstall()
    recorder.write(os.path.join(ctx.workdir, "spans.jsonl"))

    per_op = []
    for op, (table_bytes, rows, summary) in enumerate(tables):
        layers = tracing.layer_table([s for s in recorder.spans if s.op == op])
        layers["cli.table_bytes"] = table_bytes
        layers["cli.sweep_rows"] = rows
        same, written = identical_tables(summary, reference, ctx)
        layers["cli.tables_identical"] = same
        layers["cli.tables_written"] = written
        per_op.append(layers)
    trace_run = statistics.median(traced)
    per_op[0]["trace.run_s"] = trace_run
    per_op[0]["trace.overhead_s"] = trace_run - statistics.median(plain)
    print(f"samples: traced operations {len(traced)}, untraced {len(plain)}")

    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        values = [layers[name] for layers in per_op if name in layers]
        exact = name in tracing.EXACT or unit in ("count", "bytes")
        value = values[0] if exact else statistics.median(values)
        metrics[name] = (value, unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "phibvp", "__init__.py")):
        print(f"error: no phibvp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import phibvp

    if not os.path.abspath(phibvp.__file__).startswith(SRC + os.sep):
        print(f"error: imported phibvp from {phibvp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)

    # the sweep pins --threads to at most nproc (2 on the reference machine)
    threads = min(2, os.cpu_count() or 1)
    ctx = Context(
        WORKLOADS[args.workload],
        args.seed % VARIANTS,
        os.path.join(WORK, args.workload),
        threads,
    )
    ctx.write_configs()
    print(
        f"environment: python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, sweep threads {threads}"
    )
    print(f"workload {ctx.workload.name}, seed {args.seed}, variant {ctx.variant}")

    tally = Tally()
    run = traced_run if args.trace else plain_run
    metrics = run(ctx, reference, args.seconds, tally)
    print(
        f"failed_frac {tally.failed / tally.attempted} "
        f"({tally.failed} of {tally.attempted} operations); "
        f"tables bit-identical to reference {tally.identical} of {tally.tables}"
    )
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
