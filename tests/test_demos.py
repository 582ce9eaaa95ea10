"""The demos run end to end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worked_example():
    out = run_demo("worked_example.py")
    assert "splitting type: (0,-1,-2)  [determined]" in out


def test_tree_of_roots():
    assert run_demo("tree_of_roots.py")


def test_sampling_bounds():
    # every seeded suite reports no violation, and the scan its tally
    out = run_demo("sampling_bounds.py")
    suites = [line for line in out.splitlines() if line.startswith("[")]
    assert len(suites) == 4
    assert all(": OK;" in line for line in suites)
    assert "'tally'" in out
