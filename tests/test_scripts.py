"""Smoke tests of the demo scripts: each runs to completion and its printed
results agree with the closed forms it quotes."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_heteroclinic_demo():
    out = run_script("heteroclinic_demo.py")
    assert "status converged" in out
    worst = re.search(r"worst deviation from \S+: (\S+)", out)
    assert worst is not None, out
    assert float(worst.group(1)) < 1e-5


def test_threshold_sweep():
    out = run_script("threshold_sweep.py")
    flips = re.findall(
        r"flip between (\S+) and (\S+) \(midpoint (\S+), closed form (\S+)\)", out
    )
    # one flip per swept family
    assert len(flips) == 2, out
    for a, b, mid, closed in (tuple(map(float, f)) for f in flips):
        assert abs(mid - closed) <= b - a
