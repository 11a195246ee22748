"""The bit ledger: tools/bitcheck.py's output groups against tests/data/bitcheck.txt.

The file holds the build key that made it (numpy, its BLAS, numpy's SIMD
extensions), then one sha256 per group. A change that means to move bits
rewrites it and names each moved group in CHANGES.md:

    python3 tools/bitcheck.py > tests/data/bitcheck.txt
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_bitcheck():
    spec = importlib.util.spec_from_file_location("bitcheck", ROOT / "tools" / "bitcheck.py")
    bitcheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bitcheck)
    return bitcheck


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
    check_ledger(load_bitcheck())


def test_baseline_only_cpu_skips_naming_both_keys(monkeypatch):
    # numpy's config has no "found" SIMD list when dispatch is limited to its baseline
    bitcheck = load_bitcheck()
    config = np.show_config(mode="dicts")  # numpy's own dict: build a changed copy, do not edit it
    baseline = {name: value for name, value in config["SIMD Extensions"].items() if name != "found"}
    monkeypatch.setattr(np, "show_config", lambda mode: {**config, "SIMD Extensions": baseline})
    recorded = read_ledger()["simd"]
    assert recorded != "none"
    with pytest.raises(pytest.skip.Exception) as skipped:
        check_ledger(bitcheck)
    assert f"'simd': '{recorded}'" in str(skipped.value) and "'simd': 'none'" in str(skipped.value)
