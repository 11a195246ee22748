"""The bit ledger: tools/bitcheck.py's output groups against tests/data/bitcheck.txt.

The file holds the build key that made it (numpy, its BLAS, the OpenBLAS
core, numpy's SIMD extensions), then one sha256 per group. A change that
means to move bits rewrites it, with every golden, and names each moved
group in CHANGES.md:

    python3 tools/goldens.py
"""
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import ROOT, load_tool


def read_ledger() -> dict[str, str]:
    lines = (ROOT / "tests" / "data" / "bitcheck.txt").read_text().splitlines()
    return dict(line.split(maxsplit=1) for line in lines)


def check_ledger(bitcheck) -> None:
    ledger = read_ledger()
    key = bitcheck.build_key()
    assert list(ledger) == [*key, *(name for name, _ in bitcheck.GROUPS)]
    recorded = {name: ledger[name] for name in key}
    if recorded != key:
        # the digests follow the BLAS kernel the CPU selects, so another build proves nothing
        pytest.skip(f"ledger made on {recorded}, this build is {key}")
    digests = bitcheck.digests()
    moved = [name for name, value in digests.items() if value != ledger[name]]
    assert not moved, f"groups moved against tests/data/bitcheck.txt: {', '.join(moved)}"


def test_groups_match_ledger():
    check_ledger(load_tool("bitcheck"))


def test_baseline_only_cpu_skips_naming_both_keys(monkeypatch):
    # numpy's config has no "found" SIMD list when dispatch is limited to its baseline
    bitcheck = load_tool("bitcheck")
    config = np.show_config(mode="dicts")  # numpy's own dict: build a changed copy, do not edit it
    baseline = {name: value for name, value in config["SIMD Extensions"].items() if name != "found"}
    monkeypatch.setattr(np, "show_config", lambda mode: {**config, "SIMD Extensions": baseline})
    recorded = read_ledger()["simd"]
    assert recorded != "none"
    with pytest.raises(pytest.skip.Exception) as skipped:
        check_ledger(bitcheck)
    assert f"'simd': '{recorded}'" in str(skipped.value) and "'simd': 'none'" in str(skipped.value)


def test_another_openblas_core_skips_naming_both_keys():
    # OPENBLAS_CORETYPE picks another kernel family, which moves five of the
    # six groups: the ledger test must say it cannot judge, not fail
    if load_tool("bitcheck").build_key()["core"] == "unknown":
        pytest.skip("no bundled OpenBLAS core to move")
    recorded = read_ledger()["core"]
    assert recorded != "Haswell"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
         f"{__file__}::test_groups_match_ledger"],
        cwd=ROOT, env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"}, capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0 and "1 skipped" in proc.stdout, proc.stdout + proc.stderr
    assert f"'core': '{recorded}'" in proc.stdout and "'core': 'Haswell'" in proc.stdout, proc.stdout


def test_simd_dispatch_disabled_skips_naming_both_keys():
    # NPY_DISABLE_CPU_FEATURES turns off every SIMD target numpy found, as a
    # baseline-only CPU would: the ledger test must say it cannot judge, not fail
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    if not found:
        pytest.skip("numpy found no SIMD target beyond its baseline to disable")
    recorded = read_ledger()["simd"]
    assert recorded != "none"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
         f"{__file__}::test_groups_match_ledger"],
        cwd=ROOT, env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(found)}, capture_output=True,
        text=True, timeout=600)
    assert proc.returncode == 0 and "1 skipped" in proc.stdout, proc.stdout + proc.stderr
    assert f"'simd': '{recorded}'" in proc.stdout and "'simd': 'none'" in proc.stdout, proc.stdout


def test_missing_openblas_reads_unknown(monkeypatch):
    bitcheck = load_tool("bitcheck")

    def no_library(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(bitcheck.ctypes, "CDLL", no_library)
    assert bitcheck.build_key()["core"] == "unknown"
