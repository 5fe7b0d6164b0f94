"""Smoke tests for the scripts under scripts/, run as a user runs them."""
import os
import subprocess
import sys
from pathlib import Path

import pccss

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(pccss.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, check=False)


def test_failure_rates_rows_are_reproducible():
    args = ("--N", "64", "--n0", "4", "--trials", "200", "--zeta", "10",
            "--pz", "0.05", "0.1")
    first, again = run_script("failure_rates.py", *args), run_script("failure_rates.py", *args)
    assert first.returncode == again.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert lines[0] == "pz,x_rate,z_rate,z_upper95,pz_bound,pz_bound_tight"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.05", "0.1"]
    assert first.stdout == again.stdout
