"""Dense complex matrix primitives for small (2x2 to 4x4) operator algebra.

Everything operates on plain numpy arrays of dtype complex128. Matrices are
treated as immutable values; no function mutates its inputs.

expm_unitary scales each matrix to order 1 by one exact ldexp step (k from
_exponents) and runs all on that: the Hermiticity gate (so relative to its
scale), the involutory screen (every su2 and su4 H(t)), the spin-1 test
(every su3 H(t)), the exact spin-1 form and the stacked eigh.

Inside this module, and in the oracle's passes, stacks are time-last
(d, d, n); _expm_last runs all of the above along one path in that layout.
Its products go through _matmul_last, not @: numpy's @ hands each matrix
of a stack to BLAS on its own, while _matmul_last multiplies elementwise,
d broadcast multiplies and d - 1 adds whose inner loops run over the n
matrices. Each matrix of the product is bitwise what it would be alone.
A branch of _expm_last that takes the whole stack (the spin-1 test on
each su3 H(t)) uses it as it stands, with no copy; only a part is copied.
"""
from __future__ import annotations

import numpy as np

__all__ = ["as_operator", "dagger", "expm_unitary", "row_dot"]

#: Tolerance on max|H' - H'^dag|, H' = H / 2^k as in _require_hermitian: relative to H's scale.
HERMITIAN_TOL = 1e-10
#: Entrywise tolerance on H'^2 = E^2 * I and H'^3 = E^2 * H', times min(1, E^2) and min(1, E^3).
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


def expm_unitary(h: np.ndarray, tau: float | np.ndarray) -> np.ndarray:
    """Unitary exponential exp(-i H tau) of a Hermitian matrix or a stack of them.

    ``h`` is one (d, d) matrix or an (n, d, d) stack; the result has the
    same shape. ``tau`` is one number for every matrix or, for a stack, an
    (n,) array of one per matrix; each matrix's result is bitwise the one
    it gets alone with its own tau. Each matrix is scaled once to H' = H /
    2^k, entries of order 1, for all below. as_operator checks finiteness
    up front; Hermiticity, max|H' - H'^dag| <= HERMITIAN_TOL and so relative
    to each matrix's scale, is checked once over the whole stack. Each matrix with spectrum in {-E, 0, E}, i.e. H^3 = E^2 * H,
    takes the exact spin-1 form (Curtright, Fairlie & Zachos, SIGMA 10,
    084 (2014)), the identity when E^2 = 0, i.e. H = 0:

        I - i sin(E tau) * H / E - 2 sin^2(E tau / 2) * H^2 / E^2

    An involutory screen, H^2 = E^2 * I with E^2 = Tr H^2 / d, admits a
    matrix from H^2 alone; only the matrices it rejects take the spin-1
    test, with E^2 = Tr H^4 / Tr H^2. Both hold entrywise to INVOLUTORY_TOL
    * min(1, E^j), j = 2 and 3. The other matrices share one stacked
    eigendecomposition. Each phase is formed on H', times 2^k. The stack is
    copied once to time-last (d, d, n) form for _expm_last and once back.
    Raises ValueError as as_operator does, then if ``tau`` has another shape
    or a non-finite entry, if any matrix fails the Hermiticity gate (naming
    the first, with its max|H - H^dag|), or if a phase E tau, or an
    eigenvalue times tau, overflows (naming the tau of the first such matrix).
    """
    m = as_operator(h)
    taus = np.asarray(tau, dtype=float)
    if taus.ndim and (m.ndim != 3 or taus.shape != m.shape[:1]):
        raise ValueError(f"tau must be a number or one per matrix, got shape {taus.shape} for {m.shape}")
    if not np.isfinite(taus).all():
        raise ValueError(f"tau must be finite, got {float(taus.flat[np.argmin(np.isfinite(taus))])}")
    last = np.ascontiguousarray(m.reshape(-1, *m.shape[-2:]).transpose(1, 2, 0))
    return np.ascontiguousarray(_expm_last(last, taus, "matrix").transpose(2, 0, 1)).reshape(m.shape)


def _expm_last(h: np.ndarray, tau: float | np.ndarray, what: str,
               times: np.ndarray | None = None) -> np.ndarray:
    """exp(-i H tau) of a contiguous time-last (d, d, n) stack, returned time-last.

    expm_unitary's path after its input checks, all on the H' and k of one
    _require_hermitian pass (``what`` and ``times`` name a failing matrix).
    ``tau`` is one number or an (n,) array of one per matrix. Every step
    that uses it is elementwise, so each matrix's result is bitwise the
    one it gets alone; only eigh's matrices and the overflow error take it
    broadcast to (n,), so a scalar tau adds no array to the oracle's
    passes. No scale overflows, and at normal scales the spin-1 form,
    phase E' tau 2^k, is bitwise the unscaled one. Those neither test
    admitted are then overwritten by one _eigh_exp call on their H'. The
    spin-1 test and _eigh_exp take their matrices through _select_last, so
    a stack a branch takes whole is used as it stands, with no copy; both
    work per matrix, so the bits are the same either way. One check then raises if
    the result is non-finite: with H' bounded and E'^2 away from 0, only an
    overflowing phase can make it so; the error names the first such matrix's tau.
    """
    hs, k = _require_hermitian(h, what, times)
    d, _, n = hs.shape
    eye = np.eye(d, dtype=complex)[..., None]
    h2 = _matmul_last(hs, hs)
    tr2 = np.add.reduce(h2.reshape(d * d, n)[:: d + 1].real, axis=0)
    e2 = tr2 / d
    closed = (np.maximum.reduce(np.abs(h2 - e2 * eye).reshape(d * d, n), axis=0)
              <= INVOLUTORY_TOL * np.minimum(1.0, e2))
    if not closed.all():
        rest = ~closed
        e2[rest], closed[rest] = _spin1_test(_select_last(hs, rest), _select_last(h2, rest), tr2[rest])
    # E'^2 = 0 only for H = 0, whose spin-1 form with E' = 1 is I exactly.
    # The half-angle form keeps H^2's term accurate at small E tau.
    e2[e2 == 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.sqrt(e2)
        et = np.ldexp(e * tau, k)
        half = np.sin(0.5 * et)
        u = eye + (-1j * np.sin(et) / e) * hs - (2.0 * half * half / e2) * h2
        if not closed.all():
            rest = ~closed
            hr = _select_last(hs, rest).transpose(2, 0, 1)
            u[..., rest] = _eigh_exp(hr, k[rest], np.broadcast_to(tau, (n,))[rest]).transpose(1, 2, 0)
    if not np.isfinite(u).all():
        first = float(np.broadcast_to(tau, (n,))[np.argmin(np.isfinite(u).all(axis=(0, 1)))])
        raise ValueError(f"phase of exp(-i H tau) overflows at tau = {first}: |H| tau passes the float range")
    return u


def _select_last(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The matrices of the time-last (d, d, n) stack ``a`` that ``mask`` takes: ``a`` itself if it takes all.

    compress, unlike a boolean index on the last axis, copies to contiguous
    (d, d, k); a stack taken whole is used as it stands, with no copy.
    """
    return a if mask.all() else a.compress(mask, axis=2)


def _require_hermitian(stack: np.ndarray, what: str, times: np.ndarray | None = None) -> tuple:
    """H' = H / 2^k and k for each H of the time-last (d, d, n) stack, or ValueError for the first that fails.

    k is _exponents', so H' = ldexp(H, -k), exact at every magnitude, has
    its largest entry part in [0.5, 1), and no negative zeros. H fails if non-finite
    (only the oracle's H can be: its inputs overflow at a time of ``times``) or if
    max|H' - H'^dag| > HERMITIAN_TOL, relative to its scale; that message
    gives it in H's units (inf past the float range) and the time from ``times``, if given.
    """
    d, _, n = stack.shape
    k = _exponents(stack, (0, 1))
    hs = np.ldexp(stack.view(float), np.repeat(-k, 2)).view(complex)
    hs += 0.0  # -0 to +0, so that a zero's sign cannot change how eigh rounds
    dev = np.maximum.reduce(np.abs(hs - hs.conj().swapaxes(0, 1)).reshape(d * d, n), axis=0)
    # A non-finite entry makes its matrix's dev inf or nan (and may warn), so
    # only a finite matrix passes: finiteness needs no pass of its own.
    ok = dev <= HERMITIAN_TOL
    if not ok.all():
        i = int(np.argmin(ok))
        at = "" if times is None else f" at t = {float(times[i])}"
        if np.isfinite(hs[..., i]).all():
            with np.errstate(over="ignore"):
                raise ValueError(f"{what} is not Hermitian{at}: max|H - H^dag| = {np.ldexp(dev[i], k[i]):.3e}")
        raise ValueError(f"non-finite entries in {what}{at}: the inputs overflow")
    return hs, k


def _exponents(a: np.ndarray, axes: tuple[int, int]) -> np.ndarray:
    """k per matrix on ``axes``: np.frexp's exponent of its largest real or imaginary part (|a| can overflow)."""
    return np.frexp(np.maximum(np.abs(a.real).max(axis=axes), np.abs(a.imag).max(axis=axes)))[1]


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
    """E^2 = Tr H^4 / Tr H^2 and the mask of H^3 = E^2 * H.

    ``h`` and ``h2`` = H^2 are scaled time-last (d, d, n) stacks, ``tr2``
    their Tr H^2 ~ |H|_F^2 >= 0.25, as H passed the relative Hermiticity
    gate with a largest entry part of at least 0.5.
    """
    d, _, n = h.shape
    # Tr H^4 = |H^2|_F^2, summed over each matrix's contiguous row of d*d entries
    rows = np.ascontiguousarray(h2.reshape(d * d, n).T).view(float)
    e2 = np.einsum("ij,ij->i", rows, rows) / tr2
    miss = np.abs(_matmul_last(h2, h) - e2 * h).reshape(d * d, n)
    spin1 = np.maximum.reduce(miss, axis=0) <= INVOLUTORY_TOL * np.minimum(1.0, e2) ** 1.5
    return e2, spin1


def _eigh_exp(h: np.ndarray, k: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """exp(-i H tau) of the (m, d, d) stack H = H' 2^k, by one stacked eigh of H', phases w' tau 2^k.

    ``tau`` holds one tau per matrix, shape (m,).

    An overflowing phase gives NaN, which _expm_last's one result check catches.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * np.ldexp(w * tau[:, None], k[:, None]))[:, None, :]) @ v.conj().swapaxes(1, 2)
