"""Dense complex matrix primitives for small (2x2 to 4x4) operator algebra.

Everything operates on plain numpy arrays of dtype complex128. Matrices are
treated as immutable values; no function mutates its inputs.

expm_unitary has one exact closed form before its stacked eigh, the spin-1
form (spectrum in {-E, 0, E}), admitted by an involutory screen (every su2
and su4 H(t)) and then a spin-1 test (every su3 H(t)).
"""
from __future__ import annotations

import functools
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
    Raises ValueError if ``tau`` or any matrix entry is non-finite, or if
    any matrix is not Hermitian within HERMITIAN_TOL.
    """
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    m = np.asarray(h, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    stack = m if m.ndim == 3 else m[None]
    dev = np.maximum.reduce(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=None)
    # A non-finite entry makes its own term of dev inf or nan, so only a
    # finite stack passes this test: finiteness needs no pass of its own.
    # (An infinite entry can also trip numpy's invalid-value warning here.)
    if not dev <= HERMITIAN_TOL:
        if not np.isfinite(stack).all():
            raise ValueError("matrix has non-finite entries")
        raise ValueError(f"matrix is not Hermitian: max|H - H^dag| = {dev:.3e}")
    n, d = stack.shape[:2]
    flat = stack.reshape(n, d * d)
    eye = _flat_identity(d)

    # H^2 overflows for |H| above about 1e154; such rows fail the screen and
    # the spin-1 test (inf or nan) without a warning, and take eigh.
    with np.errstate(over="ignore", invalid="ignore"):
        h2 = (stack @ stack).reshape(n, d * d)
        tr2 = np.add.reduce(h2[:, :: d + 1].real, axis=1, keepdims=True)
        e2 = tr2 / d
        closed = (np.maximum.reduce(np.abs(h2 - e2 * eye), axis=1)
                  <= INVOLUTORY_TOL * np.minimum(1.0, e2[:, 0]))
    n_closed = np.count_nonzero(closed)
    if n_closed < n:
        rest = slice(None) if n_closed == 0 else ~closed  # a whole stack takes no mask
        e2[rest], closed[rest] = _spin1_test(stack[rest], h2[rest], tr2[rest])
        n_closed = np.count_nonzero(closed)
    if n_closed == n:
        u = _spin1_exp(flat, h2, e2, tau, eye)
    elif n_closed == 0:
        u = _eigh_exp(stack, tau)
    else:
        u = np.empty_like(flat)
        u[closed] = _spin1_exp(flat[closed], h2[closed], e2[closed], tau, eye)
        u[~closed] = _eigh_exp(stack[~closed], tau).reshape(-1, d * d)
    return u.reshape(m.shape)


@functools.lru_cache(maxsize=None)
def _flat_identity(d: int) -> np.ndarray:
    """The d x d identity as one read-only row of d*d entries."""
    eye = np.eye(d, dtype=complex).reshape(1, d * d)
    eye.setflags(write=False)
    return eye


def _spin1_test(h: np.ndarray, h2: np.ndarray, tr2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E^2 = Tr H^4 / Tr H^2 and the mask of H^3 = E^2 * H, E^2 > 0, for an (n, d, d) stack h."""
    n, d = h.shape[:2]
    # Tr H^4 or H^3 overflows for |H| above about 1e77, E^2 underflows to 0
    # for |H| near 1e-162, and Tr H^2 <= 0 only for a non-Hermitian H: each
    # gives inf, nan or E^2 = 0, which fails the test without a warning.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h2v = h2.view(float)
        e2 = np.einsum("ij,ij->i", h2v, h2v)[:, None] / tr2
        h3 = (h2.reshape(n, d, d) @ h).reshape(n, d * d)
        spin1 = (np.maximum.reduce(np.abs(h3 - e2 * h.reshape(n, d * d)), axis=1)
                 <= INVOLUTORY_TOL * np.minimum(1.0, e2[:, 0]) ** 1.5) & (e2[:, 0] > 0)
    return e2, spin1


def _spin1_exp(h: np.ndarray, h2: np.ndarray, e2: np.ndarray, tau: float,
                eye: np.ndarray) -> np.ndarray:
    """I - i sin(E tau) H / E - 2 sin^2(E tau / 2) H^2 / E^2 for rows of d*d entries with H^3 = E^2 H.

    ``e2`` is an (n, 1) column. Rows with E^2 = 0 give exactly I (H^2 = 0 and H
    Hermitian force H = 0). The half-angle form keeps H^2's term accurate at small E tau.
    """
    n_zero = len(e2) - np.count_nonzero(e2)
    if n_zero:
        zero = e2[:, 0] == 0
        e2 = np.where(zero[:, None], 1.0, e2)
    e = np.sqrt(e2)
    et = e * tau
    half = np.sin(0.5 * et)
    u = eye + (-1j * np.sin(et) / e) * h - (2.0 * half * half / e2) * h2
    if n_zero:
        u[zero] = eye
    return u


def _eigh_exp(h: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i H tau) of a Hermitian stack through one stacked eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * tau)[:, None, :]) @ v.conj().swapaxes(1, 2)
