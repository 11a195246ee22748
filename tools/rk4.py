"""Print RK4's step, compile and cache-hit times, the Taylor flow's run and compile times, the CSV writer's time and peak.

    python3 tools/rk4.py

integrate runs RK4 through one generated function per split, which takes
a block of up to 64 steps per call on local floats, appends each sampled
step's floats to one flat list and packs a list for the block's end. For
su2, su3, su4 and su2+su3+su4, on the canonical split and on one seeded
random split, this runs one warm-up and then ROUNDS integrate runs of
10^4 steps at h = 1e-3 from a seeded start, sampling every 250th step as
the benchmark's integrate workload does, and ROUNDS more sampling every
step as `spinctl integrate --out` does, all in this process. One line
per case gives, the first three counted from the split's term table
(brachistochrone._terms), which both kernels emit:
- terms: the coupling's nonzero entries, the terms of each slope;
- products: the distinct products |m| * y_a those terms share, each formed
  once per slope, or once per call when row a has no term (y_a is then
  the constant entry c_a + 0.0 throughout);
- live: the rows with at least one term, the rows that get stages;
- us_step: the best run's microseconds per step at stride 250;
- us_step_s1: the same at stride 1, every step sampled;
- compile_ms: the best of REPEATS compiles of the runner past its cache
  (_compile_step.__wrapped__), term table included, what the first run
  on a split pays;
- hit_us: the best mean of REPEATS rounds of HITS _compile_step calls,
  each on a fresh split equal to the cached one, what every later
  `spinctl integrate` call pays (building the split, hash and lookup);
- taylor_ms: the best of ROUNDS runs of the audit's Taylor flow,
  brachistochrone._taylor at order 14 over ten steps of 0.1, from the
  same start, after one warm-up run that compiles its kernel;
- taylor_compile_ms: the best of REPEATS compiles of the Taylor runner
  past its cache (_compile_taylor.__wrapped__), term table included,
  what the audit's first flow on a split pays;
- csv_ms: the best of ROUNDS cli._csv_rows calls on the table of the
  stride-1 run, the rows `spinctl integrate --out` writes;
- csv_peak_kb: the tracemalloc peak of one such call, in kB: the memory
  that the writer's value budget per block costs.

Timings are wall clock and swing with the host's load: quote ranges over
several processes. Another checkout's src/ runs with
PYTHONPATH=../other/src python3 tools/rk4.py. Needs only numpy.
"""
from __future__ import annotations

import random
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))  # after PYTHONPATH

from spinctl import brachistochrone as bt  # noqa: E402
from spinctl import cli  # noqa: E402
from spinctl.generators import build_basis  # noqa: E402

GROUPS = ("su2", "su3", "su4", "su2+su3+su4")
STEPS = 10 ** 4
H = 1e-3
STRIDE = 250
ROUNDS = 7
REPEATS = 5
HITS = 1000
SEED = 0
TAYLOR_H, TAYLOR_STEPS, TAYLOR_ORDER = 0.1, 10, 14


def random_split(group: str, rng: random.Random) -> bt.ControlSplit:
    """A split of ``group`` whose S and S^c labels come in shuffled order."""
    basis = build_basis(group)
    labels = rng.sample(basis.labels, len(basis))
    ns = rng.randrange(1, len(basis))
    return bt.ControlSplit(basis, tuple(labels[:ns]), tuple(labels[ns:]))


def best(run, repeats: int) -> float:
    """Least wall time of ``repeats`` calls of ``run``, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return min(times)


def traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees allocated during one call of ``run``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def shape(split: bt.ControlSplit) -> tuple[int, int, int]:
    """Terms, distinct (|m|, a) products and live rows of ``split``'s step, read from its term table."""
    _, rows, live = bt._terms(split)
    products = {(m, a) for terms in rows for _, m, a, _ in terms}
    return sum(map(len, rows)), len(products), len(live)


def measure(split: bt.ControlSplit, rng: random.Random) -> tuple[float, ...]:
    """µs per step at stride STRIDE and 1, cold compile ms, cache-hit µs, Taylor flow and compile ms, CSV ms and kB."""
    ns = len(split.s_indices)
    x0 = np.array([rng.uniform(-1.0, 1.0) for _ in range(len(split.basis))])
    start = bt.OperatorPair(x0[:ns], x0[ns:])

    def run(stride: int):
        return bt.integrate(start, split, H, H * STEPS, sample_stride=stride)

    run(STRIDE)  # warm-up, fills the step cache
    step_s = best(lambda: run(STRIDE), ROUNDS)
    step_s1 = best(lambda: run(1), ROUNDS)
    compile_s = best(lambda: bt._compile_step.__wrapped__(split), REPEATS)
    labels = split.hamiltonian_labels, split.constraint_labels

    def hits():
        for _ in range(HITS):
            bt._compile_step(bt.ControlSplit(split.basis, *labels))

    hit_s = best(hits, REPEATS) / HITS

    def taylor():
        bt._taylor(split, x0, TAYLOR_H, TAYLOR_STEPS, TAYLOR_ORDER)

    taylor()  # warm-up, compiles the Taylor kernel
    taylor_s = best(taylor, ROUNDS)
    taylor_compile_s = best(lambda: bt._compile_taylor.__wrapped__(split), REPEATS)
    traj = run(1)
    table = np.column_stack([traj.times, traj.h_coeffs, traj.f_coeffs, traj.monitors])
    csv_s = best(lambda: cli._csv_rows(table), ROUNDS)
    csv_peak = traced_peak(lambda: cli._csv_rows(table))
    return (step_s / STEPS * 1e6, step_s1 / STEPS * 1e6, compile_s * 1e3, hit_s * 1e6, taylor_s * 1e3,
            taylor_compile_s * 1e3, csv_s * 1e3, csv_peak / 1e3)


def main() -> None:
    print(f"{STEPS} steps at h = {H}, best of {ROUNDS} runs per case and stride after one warm-up")
    print(f"{'group':<13}{'split':<11}{'terms':>6}{'products':>9}{'live':>5}{'us_step':>9}{'us_step_s1':>12}"
          f"{'compile_ms':>12}{'hit_us':>8}{'taylor_ms':>11}{'taylor_compile_ms':>19}{'csv_ms':>8}{'csv_peak_kb':>13}")
    rng = random.Random(SEED)
    for group in GROUPS:
        for name, split in (("canonical", bt.canonical_split(group)), ("random", random_split(group, rng))):
            terms, products, live = shape(split)
            us_step, us_step_s1, compile_ms, hit_us, taylor_ms, taylor_compile_ms, csv_ms, csv_peak_kb = \
                measure(split, rng)
            print(f"{group:<13}{name:<11}{terms:>6}{products:>9}{live:>5}{us_step:>9.2f}{us_step_s1:>12.2f}"
                  f"{compile_ms:>12.2f}{hit_us:>8.2f}{taylor_ms:>11.3f}{taylor_compile_ms:>19.2f}{csv_ms:>8.2f}"
                  f"{csv_peak_kb:>13.0f}")


if __name__ == "__main__":
    main()
