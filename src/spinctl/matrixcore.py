"""Dense complex matrix primitives for small (2x2 to 4x4) operator algebra.

Everything operates on plain numpy arrays of dtype complex128. Matrices are
treated as immutable values; no function mutates its inputs.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MatrixPredicates",
    "as_operator",
    "commutator",
    "dagger",
    "expm_unitary",
    "kron",
    "predicates",
]

#: Absolute tolerance on max|H - H^dag| accepted by expm_unitary.
HERMITIAN_TOL = 1e-10
#: Absolute entrywise tolerance for detecting H^2 = E^2 * I.
INVOLUTORY_TOL = 1e-10


def as_operator(a) -> np.ndarray:
    """Coerce ``a`` to a square complex128 matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B; block (i, j) equals A[i, j] * B."""
    return np.kron(as_operator(a), as_operator(b))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA."""
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def expm_unitary(h: np.ndarray, tau: float, herm_tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Unitary exponential exp(-i H tau) of a Hermitian matrix or a stack of them.

    ``h`` is one (d, d) matrix or an (n, d, d) stack; the result has the
    same shape. Finiteness and Hermiticity are checked once over the whole
    stack. Each matrix that is involutory up to a scale, i.e. H^2 = E^2 * I,
    takes the exact form

        cos(E tau) * I - i sin(E tau) * H / E

    (the identity when H = 0); the others share one stacked Hermitian
    eigendecomposition. Raises ValueError if any matrix has a non-finite
    entry or is not Hermitian within ``herm_tol``.
    """
    m = np.asarray(h, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    stack = m if m.ndim == 3 else m[None]
    dev = np.maximum.reduce(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=None)
    # A non-finite entry makes its own term of dev inf or nan, so only a
    # finite stack passes this test: finiteness needs no pass of its own.
    # (An infinite entry can also trip numpy's invalid-value warning here.)
    if not dev <= herm_tol:
        if not np.isfinite(stack).all():
            raise ValueError("matrix has non-finite entries")
        raise ValueError(f"matrix is not Hermitian: max|H - H^dag| = {dev:.3e}")
    n, d = stack.shape[:2]
    flat = stack.reshape(n, d * d)
    eye = _flat_identity(d)

    h2 = (stack @ stack).reshape(n, d * d)
    e2 = np.add.reduce(h2[:, :: d + 1].real, axis=1, keepdims=True) / d
    involutory = np.maximum.reduce(np.abs(h2 - e2 * eye), axis=1) <= INVOLUTORY_TOL
    # One branch for the whole stack (always so for a single matrix) needs no mask.
    n_involutory = np.count_nonzero(involutory)
    if n_involutory == n:
        u = _involutory_exp(flat, e2, tau, eye)
    elif n_involutory == 0:
        u = _eigh_exp(stack, tau)
    else:
        u = np.empty_like(flat)
        u[involutory] = _involutory_exp(flat[involutory], e2[involutory], tau, eye)
        u[~involutory] = _eigh_exp(stack[~involutory], tau).reshape(-1, d * d)
    return u.reshape(m.shape)


@functools.lru_cache(maxsize=None)
def _flat_identity(d: int) -> np.ndarray:
    """The d x d identity as one read-only row of d*d entries."""
    eye = np.eye(d, dtype=complex).reshape(1, d * d)
    eye.setflags(write=False)
    return eye


def _involutory_exp(h: np.ndarray, e2: np.ndarray, tau: float, eye: np.ndarray) -> np.ndarray:
    """cos(E tau) * I - i sin(E tau) * H / E for rows of d*d entries with H^2 = E^2 * I.

    ``e2`` holds E^2 as an (n, 1) column. Rows with E^2 ~ 0 give exactly
    the identity: H^2 = 0 and H Hermitian force H = 0.
    """
    zero = e2 <= INVOLUTORY_TOL
    n_zero = np.count_nonzero(zero)
    if n_zero:
        e2 = np.where(zero, 1.0, e2)
    e = np.sqrt(e2)
    et = e * tau
    u = np.cos(et) * eye - 1j * np.sin(et) * (h / e)
    if n_zero:
        u[zero[:, 0]] = eye
    return u


def _eigh_exp(h: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i H tau) of a Hermitian stack through one stacked eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * tau)[:, None, :]) @ v.conj().swapaxes(1, 2)


@dataclass(frozen=True)
class MatrixPredicates:
    """Hermiticity/unitarity/tracelessness report for one matrix."""

    hermitian: bool
    unitary: bool
    traceless: bool
    hermitian_dev: float
    unitary_dev: float
    trace_dev: float

    @property
    def max_deviation(self) -> float:
        return max(self.hermitian_dev, self.unitary_dev, self.trace_dev)


def predicates(a: np.ndarray, tol: float = 1e-12) -> MatrixPredicates:
    """Evaluate structural predicates of ``a`` against an absolute tolerance."""
    a = as_operator(a)
    eye = np.eye(a.shape[0], dtype=complex)
    herm = float(np.max(np.abs(a - dagger(a))))
    unit = float(np.max(np.abs(a @ dagger(a) - eye)))
    tr = float(abs(np.trace(a)))
    return MatrixPredicates(
        hermitian=herm <= tol,
        unitary=unit <= tol,
        traceless=tr <= tol,
        hermitian_dev=herm,
        unitary_dev=unit,
        trace_dev=tr,
    )
