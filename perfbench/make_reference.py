"""Regenerate reference.json: the gate's expected outputs for every variant.

    python3 perfbench/make_reference.py

Run from the repository root at a commit whose outputs are trusted; the
commit is recorded in the file.  Every variant of every workload must pass
the gate's own checks (exit codes, verify, sweep flip, half-line limits).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
from workloads import VARIANTS, WORKLOADS, Context


def main() -> int:
    sys.path.insert(0, run.SRC)
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    reference: dict = {"commit": sha}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for variant in range(VARIANTS):
            ctx = Context(workload, variant, os.path.join(run.WORK, "reference", name), 2)
            ctx.write_configs()
            _, outcome, summary = run.operation(ctx, {})
            expected = [f"no reference for variant {variant}"]
            if outcome.reasons != expected:
                print(f"{name} variant {variant}: {outcome.reasons}", file=sys.stderr)
                return 1
            summary.pop("tables")
            reference[name][str(variant)] = summary
            print(f"{name} variant {variant}: ok", flush=True)
    path = os.path.join(run.BENCH_DIR, "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
