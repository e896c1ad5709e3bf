"""Print every end-to-end metric and failed_frac for every workload.

    python3 perfbench/report.py [--seed 0] [--seconds 30]

Runs run.py once per workload (untraced) and tabulates the results.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    header = f"{'workload':<13} {'run_s':>9} {'setup_s':>9} {'peak_rss_mb':>12}  failed_frac"
    print(header)
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=os.path.dirname(BENCH), capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            print(f"{workload:<13} run failed:\n{done.stderr}")
            status = 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        m = {name: entry["value"] for name, entry in result["metrics"].items()}
        print(
            f"{workload:<13} {m['run_s']:>9.4f} {m['setup_s']:>9.4f} "
            f"{m['peak_rss_mb']:>12.1f}  {result['failed'] / result['attempted']:.3g} "
            f"({result['failed']} of {result['attempted']} operations)"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
