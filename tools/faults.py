"""Print the time and the minor page faults of 10^4-step oracle products.

    python3 tools/faults.py

For su2, su3 (theta = 0.4) and su4 (m = 0.7, p0 = [1, 0.2, -0.5]) at
orders 2 and 4, runs one warm-up time_ordered_exponential on [0, 2] with
10^4 steps, then ROUNDS more, each between two readings of
resource.getrusage(RUSAGE_SELF).ru_minflt, all in this process. One line
per case gives the median ms per product and the median, least and most
minor faults per product.

The oracle's 1024-step passes allocate and free about 1 MB each, and the
faults follow where glibc's heap top sits when a pass ends, so the counts
swing with what the process ran before: quote ranges over several
processes. Another checkout's src/ runs with
PYTHONPATH=../other/src python3 tools/faults.py. Needs only numpy.
"""
from __future__ import annotations

import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))  # after PYTHONPATH

from spinctl import DiracParameters, su2_family, su3_family, su4_family, time_ordered_exponential  # noqa: E402

FAMILIES = {"su2": su2_family, "su3": lambda: su3_family(0.4),
            "su4": lambda: su4_family(DiracParameters(m=0.7, p0=[1.0, 0.2, -0.5]))}
STEPS = 10 ** 4
ROUNDS = 15


def measure(hamiltonian, order: int) -> tuple[list[float], list[int]]:
    """Milliseconds and minor faults of each of ROUNDS products, after one warm-up product."""
    time_ordered_exponential(hamiltonian, 0.0, 2.0, STEPS, order)
    ms, faults = [], []
    for _ in range(ROUNDS):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        time_ordered_exponential(hamiltonian, 0.0, 2.0, STEPS, order)
        ms.append((time.perf_counter() - t0) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    return ms, faults


def main() -> None:
    print(f"{STEPS} steps, {ROUNDS} products per case after one warm-up")
    print(f"{'family':<7}{'order':>6}{'ms_p50':>9}{'faults_p50':>12}{'min':>7}{'max':>7}")
    for name, make in FAMILIES.items():
        hamiltonian = make().hamiltonian
        for order in (2, 4):
            ms, faults = measure(hamiltonian, order)
            print(f"{name:<7}{order:>6}{statistics.median(ms):>9.2f}{statistics.median(faults):>12.0f}"
                  f"{min(faults):>7}{max(faults):>7}")


if __name__ == "__main__":
    main()
