"""Every narrative demo runs to completion, silently on stderr, and prints its golden bytes.

The files ``tests/data/demo_NN.txt`` pin each demo's stdout byte for byte.
Rewrite them only for an intended change of a demo's output:

    for d in demos/*.py; do
        n=$(basename $d); PYTHONPATH=src python3 $d > tests/data/demo_${n%%_*}.txt
    done
"""
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN_DIR = Path(__file__).resolve().parent / "data"


@functools.cache
def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_golden_bytes(demo):
    expected = (GOLDEN_DIR / f"demo_{demo.stem.split('_')[0]}.txt").read_bytes()
    assert run_demo(demo).stdout == expected
