"""Each demo script runs to the end in a fresh interpreter and prints."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_the_curve_demo_prints_its_witness_in_the_text_grammar():
    """Demo 03 prints the non-closure witness as the hyperelliptic suite
    records it (JSON, exact values as text), not as a Python repr."""
    lines = _run(ROOT / "demos" / "03_hyperelliptic_curve.py").stdout.splitlines()
    (witness,) = [line for line in lines if line.startswith("non-closure witness: ")]
    assert json.loads(witness.partition(": ")[2]) == {
        "left": "phi_-1", "right": "phi_-1", "remainder_order": 2, "remainder_leading": "-1/3", "window": 38,
    }
