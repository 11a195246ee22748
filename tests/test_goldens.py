"""Every golden file under tests/data against its command in tools/goldens.py's table, byte for byte.

The table says what each file pins. A command that exits nonzero or
writes to stderr fails its case, and so does a demo that raises a
RuntimeWarning. Rewrite the files only for an intended change of output:

    python3 tools/goldens.py
"""
import pytest

from helpers import ROOT, load_tool

goldens = load_tool("goldens")


@pytest.mark.parametrize("name", sorted(goldens.GOLDENS))
def test_file_matches_its_command(name):
    assert goldens.render(name) == (ROOT / "tests" / "data" / name).read_bytes()


def test_table_names_every_golden():
    # the integrate configs are inputs, and the ledger is tools/bitcheck.py's (test_bitcheck.py)
    files = {path.name for path in (ROOT / "tests" / "data").iterdir()
             if path.suffix != ".cfg" and path.name != "bitcheck.txt"}
    assert set(goldens.GOLDENS) == files
