"""The tools run: tools/rk4.py and tools/faults.py end to end on shrunk sizes, tools/goldens.py's writer.

The timing tools reach into library seams (the RK4 step cache, the
oracle), so a change to those seams must keep them running. Their
numbers are wall times, counts and fault counts; only each line's shape
is checked here. tests/test_goldens.py runs the goldens' commands; here
main runs on stubbed commands into a temporary directory.
"""
import math

import pytest

from helpers import load_tool


def case_numbers(out: str, n_names: int) -> list[list[float]]:
    """The numbers of each case line, after the two header lines and each line's ``n_names`` names."""
    return [[float(word) for word in line.split()[n_names:]] for line in out.splitlines()[2:]]


def test_rk4_prints_one_line_per_case(capsys):
    rk4 = load_tool("rk4")
    rk4.STEPS, rk4.ROUNDS, rk4.REPEATS, rk4.HITS = 20, 1, 1, 3
    rk4.main()
    out = capsys.readouterr().out
    assert out.splitlines()[1].split() == ["group", "split", "terms", "products", "live", "us_step", "us_step_s1",
                                           "compile_ms", "hit_us"]
    rows = case_numbers(out, 2)
    assert len(rows) == 2 * len(rk4.GROUPS)  # a canonical and a random split per group
    for terms, products, live, *times in rows:
        assert all(math.isfinite(x) and x > 0 for x in (terms, products, live, *times))
        assert products <= terms and live <= terms  # each product and each live row has a term


def test_faults_prints_one_line_per_case(capsys):
    faults = load_tool("faults")
    faults.STEPS, faults.ROUNDS = 20, 2
    faults.main()
    rows = case_numbers(capsys.readouterr().out, 1)
    assert len(rows) == 2 * len(faults.FAMILIES)  # orders 2 and 4 per family
    for order, ms, *counts in rows:
        assert order in (2, 4) and math.isfinite(ms) and ms > 0
        # a short product may fault no page at all
        assert all(x >= 0 and x == int(x) for x in counts)


def stubbed_goldens(tmp_path, render):
    """tools/goldens.py writing into ``tmp_path``, with ``render`` and a one-line ledger."""
    goldens = load_tool("goldens")
    goldens.DATA, goldens.render, goldens.ledger = tmp_path, render, lambda: b"ledger\n"
    return goldens


def test_goldens_writes_the_table_and_the_ledger(tmp_path):
    goldens = stubbed_goldens(tmp_path, lambda name: name.encode())
    goldens.main()
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert written == {**{name: name.encode() for name in goldens.GOLDENS}, "bitcheck.txt": b"ledger\n"}


def test_goldens_writes_nothing_when_a_command_fails(tmp_path):
    def render(name):
        if name == last:
            raise RuntimeError(f"{name} failed")
        return b""

    goldens = stubbed_goldens(tmp_path, render)
    last = list(goldens.GOLDENS)[-1]  # every other file is rendered before it
    with pytest.raises(RuntimeError, match="failed"):
        goldens.main()
    assert not any(tmp_path.iterdir())
