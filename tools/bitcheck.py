"""Print one sha256 per output group of spinctl, to show a change is bit for bit.

Run it on two checkouts and compare the lines:

    python3 tools/bitcheck.py                               # this checkout's src/
    PYTHONPATH=../other/src python3 tools/bitcheck.py       # another checkout's src/

The groups hash the raw bytes of:
  oracle       time_ordered_exponential of su2, su3 (theta = 0.4) and su4
               (m = 0.7, p0 = [1, 0.2, -0.5]) on [0, 2], at orders 2 and 4,
               with 1, 255, 256, 257, 1000 and 4097 steps;
  evolve       evolve_state of each family, 700 steps from a fixed state;
  expm         expm_unitary on seeded stacks, d = 2 to 4: random Hermitian
               at scales 1e-3 to 1e2, involutory and spin-1 spectra (E up
               to 3 times the scale) at scales 1e-3 to 1;
  audit        format_report(full_report(seed)) for seeds 0-49.
Needs only numpy; the seeds are fixed, so a line moves only with the code.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))  # after PYTHONPATH

from spinctl import (  # noqa: E402
    DiracParameters, evolve_state, expm_unitary, format_report, full_report, su2_family, su3_family,
    su4_family, time_ordered_exponential)

FAMILIES = (su2_family, lambda: su3_family(0.4),
            lambda: su4_family(DiracParameters(m=0.7, p0=[1.0, 0.2, -0.5])))
STEPS = (1, 255, 256, 257, 1000, 4097)


def _oracle(digest):
    for make in FAMILIES:
        fam = make()
        for order in (2, 4):
            for steps in STEPS:
                digest.update(time_ordered_exponential(fam.hamiltonian, 0.0, 2.0, steps, order=order).tobytes())


def _evolve(digest):
    for make in FAMILIES:
        fam = make()
        psi0 = np.ones(fam.dim, dtype=complex) / np.sqrt(fam.dim)
        digest.update(evolve_state(psi0, fam.hamiltonian, 0.0, 2.0, 700).tobytes())


def _expm(digest):
    rng = np.random.default_rng(2019)
    spectra = ([-1.0, 1.0], [-1.0, -1.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0])
    for scale in 10.0 ** np.arange(-3, 3):
        for d in (2, 3, 4):
            a = rng.normal(size=(64, d, d)) + 1j * rng.normal(size=(64, d, d))
            stacks = [(a + a.conj().swapaxes(1, 2)) / 2]
            for spectrum in spectra:
                if len(spectrum) == d and scale <= 1:
                    q, _ = np.linalg.qr(rng.normal(size=(64, d, d)) + 1j * rng.normal(size=(64, d, d)))
                    stacks.append((q * rng.uniform(0.1, 3.0, size=(64, 1, 1)) * np.array(spectrum))
                                  @ q.conj().swapaxes(1, 2))
            for stack in stacks:
                for tau in (0.37, -2.1, 11.0):
                    digest.update(expm_unitary(scale * stack, tau).tobytes())


def _audit(digest):
    for seed in range(50):
        digest.update(format_report(full_report(seed=seed)).encode())


def main() -> None:
    for name, fill in (("oracle", _oracle), ("evolve", _evolve), ("expm", _expm), ("audit", _audit)):
        digest = hashlib.sha256()
        fill(digest)
        print(f"{name:8s} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
