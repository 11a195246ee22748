"""Independent numerical ground truth for time-dependent evolution.

The time-ordered exponential is a product of short-time steps, each
one exponential of a Hermitian K_k, so the product is unitary by
construction at every step, cleanly separating unitarity error from
discretization error. Two steps are offered:

    order 2, the midpoint step:  K_k = H(t_k)
    order 4, the two-point Gauss-Legendre Magnus step (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470, 151 (2009)):
        K_k = (H1 + H2) / 2 - i (sqrt(3) dt / 12) (H2 H1 - H1 H2),
        H1, H2 = H(t_k -+ sqrt(3) dt / 6),
    formed as (H1 + H2) / 2 - i (A - A^dag), A = (sqrt(3) dt / 12) H2 H1,
    so that K_k is Hermitian entry for entry

    U(t1, t0) ~ prod_k exp(-i K_k dt),  t_k = t0 + (k + 1/2) dt,

converging at second and fourth order in the step size. Steps run in
passes of up to 1024, each one H(t) call copied once to the time-last
(d, d, m) layout of matrixcore's exponential core; the pass's K and its
exponentials stay in that layout, and so do the pairwise product trees
of its chunks of 256 steps, whose levels the pass's full chunks share.
The midpoint product is the second-order referee that the acceptance criteria pin;
the audit's propagator_question referees the closed forms with 256
order-4 steps. Every closed-form family has a schedule of rotating-frame
type, H(t) = e^{-iCt} H0 e^{+iCt} with (C, H0) its ``frame``, so
schrodinger_propagator gives its exact propagator

    V(t, s) = e^{-iCt} e^{-i(H0 - C)(t - s)} e^{+iCs},

which satisfies i dV/dt = H(t) V. It broadcasts over t and s, and its
3n exponentials for n times are one stacked expm_unitary call with one
tau per matrix.

Diagnostics, each over a whole state history at once: the energy
variance <H^2> - <H>^2 and the projective (Fubini-Study) speed, which
along any Schrodinger evolution equals sqrt(variance).
"""
from __future__ import annotations

import itertools
import math
import numbers
from typing import Callable, Iterator

import numpy as np

from .closedforms import UnitaryFamily
from .matrixcore import _expm_last, _matmul_last, _require_hermitian, as_operator, expm_unitary, row_dot

__all__ = [
    "energy_variance",
    "evolve_state",
    "fs_speed_check",
    "schrodinger_propagator",
    "time_ordered_exponential",
]

#: Ceiling on ``steps``: about 7 to 20 s of midpoint factors, at 0.65 (su2)
#: to 2.0 (su4) us per step.
_MAX_STEPS = 10 ** 7

#: Steps per product tree (the tree's shape, so its bits, rest on it) and
#: chunks per pass: one stacked H(t) call and one stacked exponential per
#: pass of _GROUP * _CHUNK steps, the full chunks' trees sharing each level.
#: Bounds what a pass holds at once whatever the step count: at order 4
#: and d = 4, 2048 H(t) matrices, 512 kB per stack.
_CHUNK = 256
_GROUP = 4

#: The two Gauss-Legendre points of the order-4 step, in steps from its midpoint.
_GAUSS = np.array([-1.0, 1.0]) * math.sqrt(3) / 6

#: H(t) as the oracle takes it, e.g. ``UnitaryFamily.hamiltonian``: a 1-D
#: array of n times in, the (n, d, d) stack of H at those times out.
_Hamiltonian = Callable[[np.ndarray], np.ndarray]


def _step_factors(hamiltonian: _Hamiltonian, t0: float, t1: float,
                  steps: int, order: int) -> tuple[int, Iterator[np.ndarray]]:
    """The step factors exp(-i K_k dt), k = 0 .. steps-1, of the given order.

    Validates ``order`` (2 or 4), ``steps`` (an integer, Python or numpy,
    from 1 to _MAX_STEPS) and the finiteness of t0, t1 and t1 - t0 before
    any H(t) call, then evaluates the first pass at once to learn the
    dimension d from the first stack H(t) returns.
    Returns d and the factors in time order as time-last (d, d, m) passes
    of at most _GROUP * _CHUNK steps, each from one H(t) call (at the m
    midpoints, or at both Gauss points of each step, in step order), one
    copy of that stack to time-last form, in which K is formed, and one
    matrixcore._expm_last; passes after the first come lazily.
    Every stack must have shape (len(ts), d, d) with the same d. Each H(t)
    stack, and at order 4 each K stack, passes matrixcore._require_hermitian's relative
    gate (for K and order-2 H(t), in _expm_last's one scaling pass), whose
    error names the first failing time (for K, its step's first Gauss point).
    """
    if not (isinstance(order, numbers.Integral) and order in (2, 4)):
        raise ValueError(f"order must be 2 or 4, got {order!r}")
    if not (isinstance(steps, numbers.Integral) and 1 <= steps <= _MAX_STEPS):
        raise ValueError(f"steps must be an integer between 1 and the ceiling of {_MAX_STEPS}, "
                         f"got {steps}")
    span = float(t1) - float(t0)  # non-finite for a non-finite bound or an overflowing span
    if not math.isfinite(span):
        raise ValueError(f"time bounds and their span must be finite, got t0 = {t0}, t1 = {t1}")
    dt = span / steps

    size = _GROUP * _CHUNK

    def factors(start: int, dim: int | None) -> np.ndarray:
        ts = t0 + (np.arange(start, min(start + size, steps)) + 0.5) * dt
        if order == 4:
            ts = (ts[:, None] + _GAUSS * dt).ravel()
        h = np.asarray(hamiltonian(ts))
        if dim is None and h.ndim == 3:
            dim = h.shape[2]
        if h.shape != (len(ts), dim, dim):
            raise ValueError(f"H(t) returned shape {h.shape} for {len(ts)} times, "
                             f"expected (n, dim, dim) with dim {dim}")
        last = np.ascontiguousarray(h.transpose(1, 2, 0), dtype=complex)
        if order == 2:
            return _expm_last(last, dt, "H(t)", ts)
        # H(t) takes its own gate at order 4: K could cancel an anti-Hermitian part of it
        _require_hermitian(last, "H(t)", ts)
        # For Hermitian H1, H2 and A = (sqrt(3) dt / 12) H2 H1, the commutator
        # term is A - A^dag: one product, and K Hermitian entry for entry.
        # dt goes into one factor first, so the product stays near
        # |H| |H dt| and overflows only where the exponent itself would.
        h1, h2 = last[..., 0::2], last[..., 1::2]
        with np.errstate(over="ignore", invalid="ignore"):
            a = _matmul_last((math.sqrt(3) / 12 * dt) * h2, h1)
            k = 0.5 * (h1 + h2) - 1j * (a - a.conj().swapaxes(0, 1))
        return _expm_last(k, dt, "the step exponent", ts[::2])

    first = factors(0, None)
    dim = first.shape[0]
    rest = (factors(start, dim) for start in range(size, steps, size))
    return dim, itertools.chain([first], rest)


def _ordered_product(f: np.ndarray) -> np.ndarray:
    """The product over the last axis of a time-last (d, d, ..., m) stack, later factors on the left.

    Each level multiplies neighbours, later on the left, with one
    elementwise _matmul_last over all pairs, of every tree at once for a
    (d, d, g, m) stack of g trees. An odd last factor passes up unpaired,
    so time order is kept at every level.
    """
    while f.shape[-1] > 1:
        paired = _matmul_last(f[..., 1::2], f[..., 0:-1:2])
        f = np.concatenate([paired, f[..., -1:]], axis=-1) if f.shape[-1] % 2 else paired
    return f[..., 0]


def time_ordered_exponential(hamiltonian: _Hamiltonian, t0: float, t1: float,
                             steps: int, order: int = 2) -> np.ndarray:
    """Step-product approximation of the time-ordered exponential.

    ``order`` 2 takes the midpoint step, 4 the two-point Gauss-Legendre
    Magnus step (see the module docstring). Later times multiply from the
    left. Every exponent passes expm_unitary's Hermiticity check and takes
    its exponential, so the result is unitary to machine precision
    regardless of ``steps``. The factors of each chunk of _CHUNK steps are
    multiplied as a pairwise tree before joining the running product; the
    full chunks of a pass share the tree's levels, a last partial chunk
    takes its own.
    """
    dim, passes = _step_factors(hamiltonian, t0, t1, steps, order)
    u = np.eye(dim, dtype=complex)
    for f in passes:
        full = f.shape[2] // _CHUNK * _CHUNK
        if full:
            trees = _ordered_product(f[..., :full].reshape(dim, dim, -1, _CHUNK))
            for j in range(trees.shape[2]):
                # a contiguous copy, the layout of a lone tree's product: numpy may send
                # a strided operand of @ to another kernel, which rounds differently
                u = np.ascontiguousarray(trees[..., j]) @ u
        if full < f.shape[2]:
            u = _ordered_product(f[..., full:]) @ u
    return u


def schrodinger_propagator(family: UnitaryFamily, t: float | np.ndarray,
                           s: float | np.ndarray) -> np.ndarray:
    """The genuine Schrodinger propagator V(t, s) of a closed-form family (see the module docstring).

    Built from the family's rotating frame (C, H0), which must share one
    shape. Broadcasts over time like the family's own functions: scalar t
    and s give (d, d), an (n,) array of either the (n, d, d) stack. All
    3n exponentials are one expm_unitary call on the stack [C]*n,
    [H0 - C]*n, [C]*n with tau = (t, t - s, -s), which checks each
    exponent and its tau; each V is bitwise the one scalar times give.
    The family's own ``propagator`` is only the isometric conjugator of H(t).
    """
    c, h0 = family.frame
    if np.shape(c) != np.shape(h0):
        raise ValueError(f"dimension mismatch: {np.shape(c)} vs {np.shape(h0)}")
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    if t.ndim > 1:
        raise ValueError(f"times must be numbers or 1-D arrays, got shape {t.shape}")
    shape, n = t.shape + np.shape(c), t.size
    t, s = t.ravel(), s.ravel()
    frames = np.concatenate([np.broadcast_to(m, (n, *np.shape(c))) for m in (c, h0 - c, c)])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite t - s is expm_unitary's error
        taus = np.concatenate([t, t - s, -s])
    u = expm_unitary(frames, taus)
    return (u[:n] @ u[n:2 * n] @ u[2 * n:]).reshape(shape)


def evolve_state(psi0, hamiltonian: _Hamiltonian, t0: float, t1: float,
                 steps: int) -> np.ndarray:
    """Propagate a normalized state, returning all steps+1 samples.

    Each step applies one midpoint short-time propagator; every sample
    stays normalized to within the unitarity of the step exponential.
    """
    psi = np.asarray(psi0, dtype=complex)
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError(f"state is not normalized: |psi| = {nrm:.12f}")
    dim, passes = _step_factors(hamiltonian, t0, t1, steps, 2)
    if psi.shape != (dim,):
        raise ValueError(f"state shape {psi.shape} does not match dim {dim}")
    out = np.empty((steps + 1, dim), dtype=complex)
    out[0] = psi
    # each pass back to (m, d, d): a strided f @ psi skips BLAS and rounds differently
    factors = (np.ascontiguousarray(p.transpose(2, 0, 1)) for p in passes)
    for k, f in enumerate(itertools.chain.from_iterable(factors), start=1):
        psi = f @ psi
        out[k] = psi
    return out


def energy_variance(psi, h: np.ndarray):
    """<H^2> - <H>^2 in the state psi (nonnegative for Hermitian H).

    An (n, d) stack of states gives (n,), each bitwise the lone state's,
    with one (d, d) H for all states or an (n, d, d) stack of one per state.
    """
    psi = np.asarray(psi, dtype=complex)
    h = as_operator(h)
    if psi.ndim not in (1, 2) or psi.shape[-1] != h.shape[-1] or h.shape[:-2] not in ((), psi.shape[:-1]):
        raise ValueError(f"dimension mismatch: states {psi.shape}, matrix {h.shape}")
    hpsi = (h @ psi[..., None])[..., 0]
    mean = row_dot(psi.conj(), hpsi).real
    mean_sq = row_dot(hpsi.conj(), hpsi).real
    # float_power squares a stacked mean the way ** squares a scalar one
    return mean_sq - np.float_power(mean, 2)


def fs_speed_check(states: np.ndarray, dt: float, variances) -> np.ndarray:
    """Projective speed versus sqrt(energy variance) along a state history.

    For each interior sample (central differences, endpoints dropped) the
    speed sqrt(<dpsi|(1 - |psi><psi|)|dpsi>) is compared with the supplied
    sqrt(variance). Returns rows (fs_speed, sqrt_variance, residual) for
    samples 1 .. n-2. ``dt`` must be finite and nonzero; a negative one runs backwards.
    """
    states = np.asarray(states, dtype=complex)
    variances = np.asarray(variances, dtype=float)
    if states.ndim != 2 or states.shape[0] < 3:
        raise ValueError("need at least 3 states on a uniform time grid")
    if variances.shape != states.shape[:1]:
        raise ValueError(f"one variance per state is required, got shape {variances.shape}")
    if dt == 0 or not math.isfinite(dt):
        raise ValueError(f"dt must be nonzero and finite, got {dt}")
    dpsi = (states[2:] - states[:-2]) / (2.0 * dt)
    psi = states[1:-1]
    proj = dpsi - psi * row_dot(psi.conj(), dpsi)[:, None]
    fs = np.sqrt(row_dot(proj.conj(), proj).real)
    sv = np.sqrt(np.maximum(variances[1:-1], 0.0))
    return np.stack([fs, sv, np.abs(fs - sv)], axis=1)
