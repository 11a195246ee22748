"""Print spinctl's bit ledger: the build key, then one sha256 per output group.

The build key is numpy's version, its BLAS (name and version), the core
numpy's bundled OpenBLAS chose for this CPU ("unknown" for another BLAS)
and the SIMD extensions numpy found on this CPU beyond its baseline
("none" if none), since the BLAS kernel and numpy's SIMD loops, and so
the bits, follow the CPU. OPENBLAS_CORETYPE moves the core.
tests/test_bitcheck.py computes the groups in-process and compares them
with the committed ledger, tests/data/bitcheck.txt; a change that means to
move bits rewrites it, with every golden, through

    python3 tools/goldens.py

and names each moved group in CHANGES.md. Another checkout's src/ runs with
PYTHONPATH=../other/src python3 tools/bitcheck.py.

The groups hash the raw bytes of:
  oracle       time_ordered_exponential of su2, su3 (theta = 0.4) and su4
               (m = 0.7, p0 = [1, 0.2, -0.5]) on [0, 2], at orders 2 and 4,
               with 1, 255, 256, 257, 1000, 1023, 1024, 1025, 4097 and
               10000 steps, so within and across the oracle's 1024-step
               passes;
  evolve       evolve_state of each family, 700 and 1100 steps (one pass
               and two) from a fixed state;
  expm         expm_unitary on seeded stacks, d = 2 to 4: random Hermitian
               at scales 1e-3 to 1e2, involutory and spin-1 spectra (E up
               to 3 times the scale) at scales 1e-3 to 1;
  propagator   schrodinger_propagator of each family on a seeded grid of
               (t, s) in [-3, 3], 40 pairs, one scalar call each;
  audit        format_report(full_report(seed)) and each check's max_error
               for seeds 0-49;
  flow         integrate on the canonical splits of su2, su3, su4 and
               su2+su3+su4 (one start, then five; sample strides 1 and
               7), hashed field by field: times once, then h_coeffs,
               f_coeffs and monitors stacked over the starts; then the
               benchmark's regime, h = 1e-3, T = 2 and stride 250 (2000
               steps, samples inside the check blocks), from one start on
               the canonical split and on one seeded random split;
               brachistochrone_rhs on seeded stacks, and
               project_coefficients on seeded traceless stacks at scales
               1e-3 to 1e6 (warnings suppressed).
Needs only numpy; the seeds are fixed, so a line moves only with the code.
"""
from __future__ import annotations

import ctypes
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))  # after PYTHONPATH

from spinctl import (  # noqa: E402
    ControlSplit, DiracParameters, OperatorPair, brachistochrone_rhs, canonical_split, evolve_state, expm_unitary,
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
        results = full_report(seed=seed)
        digest.update(format_report(results).encode() + np.array([r.max_error for r in results]).tobytes())


def _flow(digest):
    rng = np.random.default_rng(28)
    for group in ("su2", "su3", "su4", "su2+su3+su4"):
        split = canonical_split(group)
        ns, nc = len(split.s_indices), len(split.c_indices)
        for n_starts in (1, 5):
            h0, f0 = rng.uniform(-1, 1, (n_starts, ns)), rng.uniform(-1, 1, (n_starts, nc))
            for stride in (1, 7):
                runs = [integrate(OperatorPair(h, f), split, 1e-3, 0.3, sample_stride=stride)
                        for h, f in zip(h0, f0)]
                digest.update(runs[0].times.tobytes())
                for field in ("h_coeffs", "f_coeffs", "monitors"):
                    digest.update(np.stack([getattr(run, field) for run in runs]).tobytes())
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
        labels = [split.basis.labels[k] for k in rng.permutation(len(split.basis))]
        cut = int(rng.integers(1, len(split.basis)))
        shuffled = ControlSplit(split.basis, tuple(labels[:cut]), tuple(labels[cut:]))
        for run_split in (split, shuffled):
            ns, x0 = len(run_split.s_indices), rng.uniform(-1, 1, len(split.basis))
            run = integrate(OperatorPair(x0[:ns], x0[ns:]), run_split, 1e-3, 2.0, sample_stride=250)
            for field in ("times", "h_coeffs", "f_coeffs", "monitors"):
                digest.update(getattr(run, field).tobytes())


GROUPS = (("oracle", _oracle), ("evolve", _evolve), ("expm", _expm), ("propagator", _propagator),
          ("audit", _audit), ("flow", _flow))


def build_key() -> dict[str, str]:
    """The numpy build and CPU class the digests hold for."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:  # the library numpy has loaded already, so this opens no second copy
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):  # another BLAS, or an OpenBLAS without the symbol
        core = "unknown"
    else:
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    # numpy lists no "found" extensions on a CPU that has only its baseline
    found = config["SIMD Extensions"].get("found", [])
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "core": core,
            "simd": " ".join(found) or "none"}


def digests() -> dict[str, str]:
    """The sha256 of each group, in GROUPS order."""
    out = {}
    for name, fill in GROUPS:
        digest = hashlib.sha256()
        fill(digest)
        out[name] = digest.hexdigest()
    return out


def main() -> None:
    for name, value in {**build_key(), **digests()}.items():
        print(f"{name:10s} {value}")


if __name__ == "__main__":
    main()
