"""Print one sha256 per output group of spinctl, to show a change is bit for bit.

Run it on two checkouts and compare the lines:

    python3 tools/bitcheck.py                               # this checkout's src/
    PYTHONPATH=../other/src python3 tools/bitcheck.py       # another checkout's src/

The groups hash the raw bytes of:
  oracle       time_ordered_exponential of su2, su3 (theta = 0.4) and su4
               (m = 0.7, p0 = [1, 0.2, -0.5]) on [0, 2], at orders 2 and 4,
               with 1, 255, 256, 257, 1000, 1023, 1024, 1025, 4097 and
               10000 steps, so across the oracle's 256-step trees and
               its 1024-step passes;
  evolve       evolve_state of each family, 700 and 1100 steps (one pass
               and two) from a fixed state;
  expm         expm_unitary on seeded stacks, d = 2 to 4: random Hermitian
               at scales 1e-3 to 1e2, involutory and spin-1 spectra (E up
               to 3 times the scale) at scales 1e-3 to 1;
  propagator   schrodinger_propagator of each family on a seeded grid of
               (t, s) in [-3, 3], 40 pairs, one scalar call each;
  audit        format_report(full_report(seed)) for seeds 0-49;
  flow         integrate on the canonical splits of su2, su3, su4 and
               su2+su3+su4 (one start and a stack of 5; sample strides 1
               and 7), brachistochrone_rhs on seeded stacks, and
               project_coefficients on seeded traceless stacks at scales
               1e-3 to 1e6 (warnings suppressed).
Needs only numpy; the seeds are fixed, so a line moves only with the code.
"""
from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))  # after PYTHONPATH

from spinctl import (  # noqa: E402
    DiracParameters, OperatorPair, brachistochrone_rhs, canonical_split, evolve_state, expm_unitary,
    format_report, full_report, integrate, project_coefficients, schrodinger_propagator, su2_family, su3_family,
    su4_family, time_ordered_exponential)

FAMILIES = (su2_family, lambda: su3_family(0.4),
            lambda: su4_family(DiracParameters(m=0.7, p0=[1.0, 0.2, -0.5])))
STEPS = (1, 255, 256, 257, 1000, 1023, 1024, 1025, 4097, 10000)


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
        for steps in (700, 1100):
            digest.update(evolve_state(psi0, fam.hamiltonian, 0.0, 2.0, steps).tobytes())


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


def _propagator(digest):
    rng = np.random.default_rng(30)
    times = rng.uniform(-3, 3, size=(40, 2))
    for make in FAMILIES:
        fam = make()
        for t, s in times:
            digest.update(schrodinger_propagator(fam, float(t), float(s)).tobytes())


def _audit(digest):
    for seed in range(50):
        digest.update(format_report(full_report(seed=seed)).encode())


def _flow(digest):
    rng = np.random.default_rng(28)
    for group in ("su2", "su3", "su4", "su2+su3+su4"):
        split = canonical_split(group)
        ns, nc = len(split.s_indices), len(split.c_indices)
        for runs in ((), (5,)):
            start = OperatorPair(rng.uniform(-1, 1, runs + (ns,)), rng.uniform(-1, 1, runs + (nc,)))
            for stride in (1, 7):
                run = integrate(start, split, 1e-3, 0.3, sample_stride=stride)
                for field in (run.times, run.h_coeffs, run.f_coeffs, run.monitors):
                    digest.update(field.tobytes())
        rates = brachistochrone_rhs(OperatorPair(rng.normal(size=(50, ns)), rng.normal(size=(50, nc))), split)
        digest.update(rates.h_coeffs.tobytes() + rates.f_coeffs.tobytes())
        d = split.basis.dim
        for scale in 10.0 ** np.arange(-3, 7):
            a = rng.normal(size=(50, d, d)) + 1j * rng.normal(size=(50, d, d))
            a = scale * (a + a.conj().swapaxes(1, 2)) / 2
            a -= np.trace(a, axis1=1, axis2=2)[:, None, None] / d * np.eye(d)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                digest.update(project_coefficients(a, split.basis).tobytes())


def main() -> None:
    for name, fill in (("oracle", _oracle), ("evolve", _evolve), ("expm", _expm), ("propagator", _propagator),
                       ("audit", _audit), ("flow", _flow)):
        digest = hashlib.sha256()
        fill(digest)
        print(f"{name:10s} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
