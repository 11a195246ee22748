"""The timing tools run end to end: tools/rk4.py and tools/faults.py, on shrunk sizes.

Both reach into library seams (the RK4 step cache, the oracle), so a
change to those seams must keep them running. Their numbers are wall
times, counts and fault counts; only each line's shape is checked here.
"""
import math

from helpers import load_tool


def case_numbers(out: str, n_names: int) -> list[list[float]]:
    """The numbers of each case line, after the two header lines and each line's ``n_names`` names."""
    return [[float(word) for word in line.split()[n_names:]] for line in out.splitlines()[2:]]


def test_rk4_prints_one_line_per_case(capsys):
    rk4 = load_tool("rk4")
    rk4.STEPS, rk4.ROUNDS, rk4.REPEATS, rk4.HITS = 20, 1, 1, 3
    rk4.main()
    out = capsys.readouterr().out
    assert out.splitlines()[1].split() == ["group", "split", "terms", "products", "live", "us_step", "compile_ms",
                                           "hit_us"]
    rows = case_numbers(out, 2)
    assert len(rows) == 2 * len(rk4.GROUPS)  # a canonical and a random split per group
    for terms, products, live, us_step, compile_ms, hit_us in rows:
        assert all(math.isfinite(x) and x > 0 for x in (terms, products, live, us_step, compile_ms, hit_us))
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
