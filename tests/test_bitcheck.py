"""The bit ledger: tools/bitcheck.py's output groups against tests/data/bitcheck.txt.

The file holds the build key that made it (numpy, its BLAS, numpy's SIMD
extensions), then one sha256 per group. A change that means to move bits
rewrites it and names each moved group in CHANGES.md:

    python3 tools/bitcheck.py > tests/data/bitcheck.txt
"""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_groups_match_ledger():
    spec = importlib.util.spec_from_file_location("bitcheck", ROOT / "tools" / "bitcheck.py")
    bitcheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bitcheck)
    lines = (ROOT / "tests" / "data" / "bitcheck.txt").read_text().splitlines()
    ledger = dict(line.split(maxsplit=1) for line in lines)
    key = bitcheck.build_key()
    assert list(ledger) == [*key, *(name for name, _ in bitcheck.GROUPS)]
    recorded = {name: ledger[name] for name in key}
    if recorded != key:
        # the digests follow the BLAS kernel the CPU selects, so another build proves nothing
        pytest.skip(f"ledger made on {recorded}, this build is {key}")
    digests = bitcheck.digests()
    moved = [name for name, value in digests.items() if value != ledger[name]]
    assert not moved, f"groups moved against tests/data/bitcheck.txt: {', '.join(moved)}"
