"""Compare what two source trees write for the benchmark's CLI operations.

Run:  python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [--variants 0,3]
      [--workloads halfline,sweep]

OLD_SRC and NEW_SRC are directories that hold the `phibvp` package (a
checkout's `src`).  For every variant of every workload in
perfbench/workloads.py (all 16 by default), each tree runs the workload's
operations - the timed run commands and then the verify commands - in a
fresh interpreter, in a directory of its own.  The configs come from
perfbench/workloads.py, which is only read.  Then each tree runs the
EXTRA_CASES configs, whichever workloads and variants are chosen: a
config with a [sweep] section is swept, one with `halfline = true` runs
the half-line schedule, any other is solved and verified.

Each output file and the output of each command is reported as identical
or with its largest difference between numbers in the same place, both
absolute and scaled, |old - new| / (1 + |old|): a table whose values
reach 1e4 differs by more in absolute terms at the same relative
precision.  Records (record.txt) are compared without their timestamp line,
section by section.  The script exits 1 on any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")

CHILD = """
import contextlib, io, json, os, sys
from phibvp import cli

log = []

def main(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = cli.main(argv)
    log.append([argv, code, buffer.getvalue()])
    return code

{commands}
with open({log_path!r}, "w", encoding="utf-8") as handle:
    json.dump({{"package": cli.__file__, "commands": log}}, handle)
"""

WORKLOAD_COMMANDS = """
sys.path.insert(0, {bench!r})
from workloads import WORKLOADS, Context

ctx = Context(WORKLOADS[{workload!r}], {variant!r}, {workdir!r}, 2)
ctx.write_configs()
for argv in ctx.workload.run(ctx):
    main(argv)
if all(entry[1] == 0 for entry in log):
    for argv in ctx.workload.verify(ctx, main):
        main(argv)
"""

CASE_COMMANDS = """
cfg = os.path.join({workdir!r}, "problem.cfg")
with open(cfg, "w", encoding="utf-8") as handle:
    handle.write({text!r})
out = os.path.join({workdir!r}, "out")
if {sweep!r}:
    main(["sweep", cfg, "-o", out])
elif {halfline!r}:
    main(["halfline", cfg, "-o", out])
elif main(["solve", cfg, "-o", out]) == 0:
    main(["verify", os.path.join(out, "solution.txt"), cfg])
"""

PERONA_SQRT_T = """[operator]
name = perona_malik

[weight]
name = sqrt_t

[rhs]
example = perona
alpha = 4
M = 0.5
N = 0.1

[problem]
nu1 = 0.0
nu2 = 0.05
T = 1.0

[mesh]
n = 1000
"""

EXAMPLE_SWEEP = """[operator]
name = {operator}

[weight]
name = constant
value = 1.0

[rhs]
example = {rhs}

[problem]
nu1 = 0.0
nu2 = {nu2}
T = 1.0

[mesh]
n = 200

[sweep]
lambda_min = {lo}
lambda_max = {hi}
count = 4
"""

# No workload runs a singular weight, a decreasing branch or a half-line
# weight or psi without a closed-form mass: the midpoint samples of 1/k
# and psi, decreasing branches with a closed-form inverse (sine) and with
# the generic one (difference), and the numeric half-line masses of 1/k
# and psi are checked by these configs.  A config with a [sweep] section runs
# `sweep`, one with `halfline = true` runs `halfline`, the others `solve`
# and then `verify`: the sweeps walk a singular weight across its flip,
# and an r = 3 operator through lambda = 0, where a predicted start
# stalls and the row is solved again cold.  halfline-expr-weight is the
# halfline workload's config with k = 1 + t^2 given as an expression, and
# halfline-expr-psi the same with f and psi given as expressions, so that
# the numeric half-line mass of psi is checked too.
# The *-example cases build the worked-example tags no other config
# builds, so that every tag's f and psi are compared: sine, plaplacian
# and relativistic are swept across their closed-form thresholds, and
# halfline2 runs the half-line schedule.
EXTRA_CASES = {
    "perona-sqrt-t": PERONA_SQRT_T,
    "sine-decreasing": """[operator]
name = sine
branch_hint = 1.5707963267948966, 4.7123889803846897

[weight]
name = one_plus_t_squared

[rhs]
f = 0.05*cos(pi*t)
psi = 0.05

[problem]
nu1 = 0.0
nu2 = 3.0
T = 1.0

[mesh]
n = 2000
""",
    "difference-decreasing": """[operator]
name = difference
alpha = 2
beta = 0

[weight]
name = one_plus_t_squared

[rhs]
f = 0.01*cos(x)*sin(y) + 0.005*cos(3*t)
psi = 0.015

[problem]
nu1 = 0.0
nu2 = 0.3
T = 1.0

[mesh]
n = 2000
""",
    "perona-sqrt-t-sweep": PERONA_SQRT_T
    + "\n[sweep]\nlambda_min = 0.01\nlambda_max = 0.2\ncount = 20\n",
    "r3-through-zero-sweep": """[operator]
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
""",
    "halfline-expr-weight": """[problem]
nu1 = 0.0
nu2 = 0.2
halfline = true

[operator]
name = r_laplacian
r = 2

[weight]
expr = 1 + t*t

[rhs]
example = halfline1

[check]
kind = halfline
l_lip = 1
delta = 0.5
""",
    "halfline-expr-psi": """[problem]
nu1 = 0.0
nu2 = 0.2
halfline = true

[operator]
name = r_laplacian
r = 2

[weight]
name = one_plus_t_squared

[rhs]
f = t^2 * cos(x) * y^3
psi = (pi + 4)^(-1.5) * min(1, 1/(t*t))

[check]
kind = halfline
l_lip = 1
delta = 0.5
""",
    "sine-example-sweep": EXAMPLE_SWEEP.format(
        operator="sine", rhs="sine\nalpha = 3", nu2=0.4, lo=0.3, hi=0.6
    ),
    "plaplacian-example-sweep": EXAMPLE_SWEEP.format(
        operator="r_laplacian\nr = 2", rhs="plaplacian\nbeta = 4", nu2=0.3, lo=0.3, hi=0.45
    ),
    "relativistic-example-sweep": EXAMPLE_SWEEP.format(
        operator="relativistic", rhs="relativistic", nu2=0.5, lo=-0.9, hi=1.2
    ),
    "halfline2-example": """[operator]
name = relativistic

[weight]
name = one_plus_t_squared

[rhs]
example = halfline2

[problem]
nu1 = 0.0
nu2 = 0.2
halfline = true

[halfline]
schedule = 5, 10, 20, 40
tol_h = 1.0e-2
cells_per_unit = 50
""",
}

LOG = "commands.json"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def workload_names() -> tuple:
    sys.path.insert(0, BENCH)
    try:
        from workloads import VARIANTS, WORKLOADS
    finally:
        sys.path.remove(BENCH)
    return sorted(WORKLOADS), VARIANTS


def run_tree(src: str, workdir: str, workload: str, variant: int | None = None) -> list:
    """Run one workload variant, or the EXTRA_CASES config named by
    `workload` when `variant` is None, through the package in `src`;
    return its command log."""
    os.makedirs(workdir)
    log_path = os.path.join(workdir, LOG)
    if variant is None:
        text = EXTRA_CASES[workload]
        commands = CASE_COMMANDS.format(
            workdir=workdir, text=text, sweep="[sweep]" in text,
            halfline="halfline = true" in text,
        )
    else:
        commands = WORKLOAD_COMMANDS.format(
            bench=BENCH, workload=workload, variant=variant, workdir=workdir
        )
    code = CHILD.format(commands=commands, log_path=log_path)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=workdir, env=env,
        capture_output=True, text=True, timeout=600, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{src}: {workload} {variant} failed:\n{done.stderr}")
    with open(log_path, "r", encoding="utf-8") as handle:
        log = json.load(handle)
    if not log["package"].startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported {log['package']}, not the package in {src}")
    return log["commands"]


def text_difference(old: str, new: str) -> str | None:
    """None if equal; else the largest number difference, or why there is none."""
    if old == new:
        return None
    old_nums, new_nums = NUMBER.findall(old), NUMBER.findall(new)
    if NUMBER.sub("#", old) != NUMBER.sub("#", new) or len(old_nums) != len(new_nums):
        return "differs in text"
    worst = worst_scaled = 0.0
    for a, b in zip(old_nums, new_nums):
        if a != b:
            diff = abs(float(a) - float(b))
            scaled = diff / (1.0 + abs(float(a)))
            worst = max(worst, diff) if diff == diff else float("nan")
            worst_scaled = max(worst_scaled, scaled) if scaled == scaled else float("nan")
    return f"max abs difference {worst:.3e}, scaled {worst_scaled:.3e}"


def record_sections(text: str) -> dict:
    sections: dict = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            current = sections.setdefault(line[1:-1], {})
        elif "=" in line and current is not None:
            key, _, value = line.partition("=")
            if key.strip() != "timestamp":
                current[key.strip()] = value.strip()
    return sections


def record_difference(old: str, new: str) -> str | None:
    a, b = record_sections(old), record_sections(new)
    if a == b:
        return None
    notes = []
    for name in sorted(set(a) | set(b)):
        if name not in a:
            notes.append(f"[{name}] added")
        elif name not in b:
            notes.append(f"[{name}] removed")
        elif a[name] != b[name]:
            for key in sorted(set(a[name]) | set(b[name])):
                if key not in b[name]:
                    diff = "only in OLD"
                elif key not in a[name]:
                    diff = "only in NEW"
                else:
                    diff = text_difference(a[name][key], b[name][key])
                if diff is not None:
                    notes.append(f"[{name}] {key}: {diff}")
    return "; ".join(notes)


def compare_variant(old_dir: str, new_dir: str, old_log: list, new_log: list) -> list:
    """(name, difference or None) for every command output and output file."""
    rows = []
    if len(old_log) != len(new_log):
        rows.append(("commands", f"{len(old_log)} commands, then {len(new_log)}"))
    for (argv, old_code, old_out), (_, new_code, new_out) in zip(old_log, new_log):
        label = "stdout of " + argv[0] + " " + os.path.basename(argv[1])
        old_out = old_out.replace(old_dir, "<dir>")
        new_out = new_out.replace(new_dir, "<dir>")
        diff = text_difference(old_out, new_out)
        if old_code != new_code:
            diff = f"exit {old_code}, then {new_code}"
        rows.append((label, diff))
    files = set()
    for base in (old_dir, new_dir):
        for folder, _, names in os.walk(base):
            for name in names:
                rel = os.path.relpath(os.path.join(folder, name), base)
                if rel != LOG:
                    files.add(rel)
    for rel in sorted(files):
        paths = [os.path.join(base, rel) for base in (old_dir, new_dir)]
        if not all(os.path.exists(p) for p in paths):
            rows.append((rel, "written by one tree only"))
            continue
        texts = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                texts.append(handle.read())
        if os.path.basename(rel) == "record.txt":
            rows.append((rel, record_difference(*texts)))
        else:
            rows.append((rel, text_difference(*texts)))
    return rows


def main(argv=None) -> int:
    names, variants = workload_names()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--variants", default=None, help="comma-separated, default all")
    parser.add_argument("--workloads", default=None, help="comma-separated, default all")
    args = parser.parse_args(argv)
    chosen = names if args.workloads is None else args.workloads.split(",")
    indices = (
        range(variants) if args.variants is None
        else [int(v) for v in args.variants.split(",")]
    )
    runs = [(w, v) for w in chosen for v in indices]
    runs += [(case, None) for case in EXTRA_CASES]
    differences = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as scratch:
        for workload, variant in runs:
            label = f"{workload} {variant}" if variant is not None else f"extra {workload}"
            dirs = [
                os.path.join(scratch, f"{side}_{label.replace(' ', '_')}")
                for side in ("old", "new")
            ]
            logs = [
                run_tree(src, d, workload, variant)
                for src, d in zip((args.old_src, args.new_src), dirs)
            ]
            for name, diff in compare_variant(*dirs, *logs):
                if diff is None:
                    print(f"{label} {name}: identical")
                else:
                    differences += 1
                    print(f"{label} {name}: {diff}")
    print(f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
