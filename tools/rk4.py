"""Print the time per RK4 step and the compile and cache-hit times of its generated block runner.

    python3 tools/rk4.py

integrate runs RK4 through one generated function per split, which takes
a block of up to 64 steps per call on local floats and packs a list only
for each sampled step and for the block's end. For su2, su3, su4 and
su2+su3+su4, on the canonical split and on one seeded random split, this
runs one warm-up and then ROUNDS integrate runs of 10^4 steps at
h = 1e-3 from a seeded start, sampling every 250th step as the
benchmark's integrate workload does, and ROUNDS more sampling every step
as `spinctl integrate --out` does, all in this process. One line per
case gives:
- terms: the coupling's nonzero entries, the terms of each slope;
- products: the distinct products |m| * y_a those terms share, each formed
  once per slope, or once per call when row a has no term (y_a is then
  the constant entry c_a + 0.0 throughout);
- live: the rows with at least one term, the rows that get stages;
- us_step: the best run's microseconds per step at stride 250;
- us_step_s1: the same at stride 1, every step sampled;
- compile_ms: the best of REPEATS compiles of the runner past its cache
  (_compile_step.__wrapped__), what the first run on a split pays;
- hit_us: the best mean of REPEATS rounds of HITS _compile_step calls,
  each on a fresh split equal to the cached one, what every later
  `spinctl integrate` call pays (building the split, hash and lookup).

Timings are wall clock and swing with the host's load: quote ranges over
several processes. Another checkout's src/ runs with
PYTHONPATH=../other/src python3 tools/rk4.py. Needs only numpy.
"""
from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))  # after PYTHONPATH

from spinctl import brachistochrone as bt  # noqa: E402
from spinctl.generators import build_basis  # noqa: E402

GROUPS = ("su2", "su3", "su4", "su2+su3+su4")
STEPS = 10 ** 4
H = 1e-3
STRIDE = 250
ROUNDS = 7
REPEATS = 5
HITS = 1000
SEED = 0


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


def shape(split: bt.ControlSplit) -> tuple[int, int, int]:
    """Terms, distinct (|m|, a) products and live rows of ``split``'s step."""
    k, a, b = np.nonzero(split.coupling)
    products = set(zip(np.abs(split.coupling[k, a, b]).tolist(), a.tolist()))
    return len(k), len(products), len(set(k.tolist()))


def measure(split: bt.ControlSplit, rng: random.Random) -> tuple[float, float, float, float]:
    """µs per step at stride STRIDE and 1, cold compile ms and cache-hit µs for ``split``."""
    ns = len(split.s_indices)
    x0 = np.array([rng.uniform(-1.0, 1.0) for _ in range(len(split.basis))])
    start = bt.OperatorPair(x0[:ns], x0[ns:])

    def run(stride: int):
        bt.integrate(start, split, H, H * STEPS, sample_stride=stride)

    run(STRIDE)  # warm-up, fills the step cache
    step_s = best(lambda: run(STRIDE), ROUNDS)
    step_s1 = best(lambda: run(1), ROUNDS)
    compile_s = best(lambda: bt._compile_step.__wrapped__(split), REPEATS)
    labels = split.hamiltonian_labels, split.constraint_labels

    def hits():
        for _ in range(HITS):
            bt._compile_step(bt.ControlSplit(split.basis, *labels))

    hit_s = best(hits, REPEATS) / HITS
    return step_s / STEPS * 1e6, step_s1 / STEPS * 1e6, compile_s * 1e3, hit_s * 1e6


def main() -> None:
    print(f"{STEPS} steps at h = {H}, best of {ROUNDS} runs per case and stride after one warm-up")
    print(f"{'group':<13}{'split':<11}{'terms':>6}{'products':>9}{'live':>5}{'us_step':>9}{'us_step_s1':>12}"
          f"{'compile_ms':>12}{'hit_us':>8}")
    rng = random.Random(SEED)
    for group in GROUPS:
        for name, split in (("canonical", bt.canonical_split(group)), ("random", random_split(group, rng))):
            terms, products, live = shape(split)
            us_step, us_step_s1, compile_ms, hit_us = measure(split, rng)
            print(f"{group:<13}{name:<11}{terms:>6}{products:>9}{live:>5}{us_step:>9.2f}{us_step_s1:>12.2f}"
                  f"{compile_ms:>12.2f}{hit_us:>8.2f}")


if __name__ == "__main__":
    main()
