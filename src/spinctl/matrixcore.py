"""Dense complex matrix primitives for small (2x2 to 4x4) operator algebra.

Everything operates on plain numpy arrays of dtype complex128. Matrices are
treated as immutable values; no function mutates its inputs.

expm_unitary has one exact closed form before its stacked eigh, the spin-1
form (spectrum in {-E, 0, E}), admitted by an involutory screen (every su2
and su4 H(t)) and then a spin-1 test (every su3 H(t)).

Inside this module, and in the oracle's chunks, stacks are time-last
(d, d, n). _expm_last takes and returns that one layout and runs the
screen, the test, the spin-1 form and the eigh along one path. Its
products go through _matmul_last, not @: numpy's @ hands each matrix of a
stack to BLAS on its own, while _matmul_last multiplies elementwise, d
broadcast multiplies and d - 1 adds whose inner loops run over the n
matrices. Each matrix of the product is bitwise what it would be alone.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["as_operator", "dagger", "expm_unitary", "row_dot"]

#: Absolute tolerance on max|H - H^dag| accepted by expm_unitary.
HERMITIAN_TOL = 1e-10
#: Entrywise tolerance for detecting H^2 = E^2 * I and H^3 = E^2 * H,
#: scaled by min(1, E^2) and min(1, E^3) respectively.
INVOLUTORY_TOL = 1e-10


def as_operator(a) -> np.ndarray:
    """Coerce ``a`` to a square complex128 matrix, or an (n, d, d) stack of them, with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unconjugated dot of the last axes, one (1, k) @ (k, 1) matmul per row: bitwise per row, unlike einsum."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def expm_unitary(h: np.ndarray, tau: float) -> np.ndarray:
    """Unitary exponential exp(-i H tau) of a Hermitian matrix or a stack of them.

    ``h`` is one (d, d) matrix or an (n, d, d) stack; the result has the
    same shape. Finiteness and Hermiticity are checked once over the whole
    stack. Each matrix with spectrum in {-E, 0, E}, i.e. H^3 = E^2 * H,
    takes the exact spin-1 form (Curtright, Fairlie & Zachos, SIGMA 10,
    084 (2014)), the identity when E^2 = 0, i.e. H = 0:

        I - i sin(E tau) * H / E - 2 sin^2(E tau / 2) * H^2 / E^2

    An involutory screen, H^2 = E^2 * I with E^2 = Tr H^2 / d, admits a
    matrix from H^2 alone; only the matrices it rejects take the spin-1
    test, with E^2 = Tr H^4 / Tr H^2. Both hold entrywise to INVOLUTORY_TOL
    * min(1, E^k), k = 2 and 3, so a small nonzero H is not taken for H = 0.
    The other matrices share one stacked Hermitian eigendecomposition.
    The stack is copied once to time-last (d, d, n) form for _expm_last and
    once back.
    Raises ValueError if ``tau`` or any matrix entry is non-finite, or if
    any matrix is not Hermitian within HERMITIAN_TOL.
    """
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    m = np.asarray(h, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    last = np.ascontiguousarray(m.reshape(-1, *m.shape[-2:]).transpose(1, 2, 0))
    _require_hermitian(last, "matrix")
    return np.ascontiguousarray(_expm_last(last, tau).transpose(2, 0, 1)).reshape(m.shape)


def _expm_last(h: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i H tau) of a time-last (d, d, n) Hermitian stack, returned time-last.

    expm_unitary's path, its checks taken as done. Every matrix gets the
    spin-1 form with its own E^2; those neither the screen nor the spin-1
    test admitted are then overwritten by one _eigh_exp call over them.
    """
    d, _, n = h.shape
    eye = np.eye(d, dtype=complex)[..., None]
    # H^2 overflows for |H| above about 1e154; such matrices fail the screen
    # and the spin-1 test (inf or nan) and take eigh, and the spin-1 form
    # computed for them meanwhile raises no warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h2 = _matmul_last(h, h)
        tr2 = np.add.reduce(h2.reshape(d * d, n)[:: d + 1].real, axis=0)
        e2 = tr2 / d
        closed = (np.maximum.reduce(np.abs(h2 - e2 * eye).reshape(d * d, n), axis=0)
                  <= INVOLUTORY_TOL * np.minimum(1.0, e2))
        if not closed.all():
            # compress, unlike a boolean index on the last axis, copies to contiguous (d, d, k)
            rest = ~closed
            e2[rest], closed[rest] = _spin1_test(h.compress(rest, axis=2), h2.compress(rest, axis=2),
                                                 tr2[rest])
        # E^2 = 0 only for H = 0 (H^2 = 0 and H Hermitian), whose exponential is I.
        # The half-angle form keeps H^2's term accurate at small E tau.
        zero = e2 == 0
        e2[zero] = 1.0
        e = np.sqrt(e2)
        et = e * tau
        half = np.sin(0.5 * et)
        u = eye + (-1j * np.sin(et) / e) * h - (2.0 * half * half / e2) * h2
    np.copyto(u, eye, where=zero)
    if not closed.all():
        rest = ~closed
        u[..., rest] = _eigh_exp(h.compress(rest, axis=2).transpose(2, 0, 1), tau).transpose(1, 2, 0)
    return u


def _require_hermitian(stack: np.ndarray, what: str) -> None:
    """Raise ValueError unless the time-last (d, d, n) stack is finite and Hermitian within HERMITIAN_TOL."""
    dev = np.maximum.reduce(np.abs(stack - stack.conj().swapaxes(0, 1)), axis=None)
    # A non-finite entry makes its own term of dev inf or nan, so only a
    # finite stack passes this test: finiteness needs no pass of its own.
    # (An infinite entry can also trip numpy's invalid-value warning here.)
    if not dev <= HERMITIAN_TOL:
        if not np.isfinite(stack).all():
            raise ValueError(f"{what} has non-finite entries")
        raise ValueError(f"{what} is not Hermitian: max|H - H^dag| = {dev:.3e}")


def _matmul_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[:, :, t] = a[:, :, t] @ b[:, :, t] for time-last (d, d, n) stacks a and b.

    Sums the d terms of each entry in index order, one broadcast multiply
    and one add per term over all n matrices at once, so every c[:, :, t]
    is bitwise the product of a[:, :, t] and b[:, :, t] alone, whatever n
    and the strides. The inner loops run over n: contiguous (d, d, n)
    inputs run fastest.
    """
    c = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        c += a[:, k, None] * b[None, k]
    return c


def _spin1_test(h: np.ndarray, h2: np.ndarray, tr2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E^2 = Tr H^4 / Tr H^2 and the mask of H^3 = E^2 * H, E^2 > 0.

    ``h`` and ``h2`` = H^2 are time-last (d, d, n) stacks and ``tr2`` holds
    the n values of Tr H^2. Runs under _expm_last's errstate: Tr H^4 or H^3
    overflows for |H| above about 1e77, E^2 underflows to 0 for |H| near
    1e-162, and Tr H^2 <= 0 only for a non-Hermitian H; each gives inf, nan
    or E^2 = 0, which fails the test without a warning.
    """
    d, _, n = h.shape
    # Tr H^4 = |H^2|_F^2, summed over each matrix's contiguous row of d*d entries
    rows = np.ascontiguousarray(h2.reshape(d * d, n).T).view(float)
    e2 = np.einsum("ij,ij->i", rows, rows) / tr2
    miss = np.abs(_matmul_last(h2, h) - e2 * h).reshape(d * d, n)
    spin1 = (np.maximum.reduce(miss, axis=0)
             <= INVOLUTORY_TOL * np.minimum(1.0, e2) ** 1.5) & (e2 > 0)
    return e2, spin1


def _eigh_exp(h: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i H tau) of a Hermitian stack through one stacked eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * tau)[:, None, :]) @ v.conj().swapaxes(1, 2)
