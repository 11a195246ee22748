"""Independent numerical ground truth for time-dependent evolution.

The referee for every closed-form claim is the midpoint step product

    U(t1, t0) ~ prod_k exp(-i H(t_k + dt/2) dt),

which is unitary by construction at every step and converges at second
order in the step size, cleanly separating unitarity error from
discretization error. For schedules of rotating-frame type,
H(t) = e^{-iCt} H0 e^{+iCt}, the exact propagator

    V(t, s) = e^{-iCt} e^{-i(H0 - C)(t - s)} e^{+iCs}

is available in closed form and satisfies i dV/dt = H(t) V.

Diagnostics: the energy variance <H^2> - <H>^2 and the projective
(Fubini-Study) speed of a state history, which along any Schrodinger
evolution equals sqrt(variance).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .closedforms import UnitaryFamily
from .matrixcore import as_operator, expm_unitary

__all__ = [
    "HamiltonianSchedule",
    "energy_variance",
    "evolve_state",
    "fs_speed_check",
    "rotating_frame_propagator",
    "schedule_for",
    "schrodinger_propagator",
    "time_ordered_exponential",
]

#: Step-product resolution that drives discretization error below 1e-6
#: on one 2*pi phase interval.
DEFAULT_STEPS_PER_PERIOD = 10_000

#: Ceiling on ``steps``: about 30 s of midpoint factors at 3 us per step.
_MAX_STEPS = 10 ** 7

#: Midpoints evaluated per stacked H(t) call and per stacked expm_unitary.
#: Bounds the factors held at once to _CHUNK * dim^2 complex entries
#: whatever the step count.
_CHUNK = 256


@dataclass(frozen=True)
class HamiltonianSchedule:
    """A time-dependent Hermitian matrix t -> H(t) of fixed dimension.

    ``evaluator`` takes a 1-D array of n times and returns the
    (n, dim, dim) stack of H at those times.
    """

    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]


def schedule_for(family: UnitaryFamily) -> HamiltonianSchedule:
    """Wrap a closed-form family's Hamiltonian as a schedule."""
    return HamiltonianSchedule(dim=family.dim, evaluator=family.hamiltonian)


def _step_factors(sched: HamiltonianSchedule, t0: float, t1: float,
                  steps: int) -> Iterator[np.ndarray]:
    """The midpoint factors exp(-i H(t_k + dt/2) dt), k = 0 .. steps-1.

    Validates ``steps`` (at least 1, at most _MAX_STEPS) at once, then
    yields the factors lazily in time order as (m, dim, dim) chunks of at
    most _CHUNK, each from one H(t) call and one stacked expm_unitary.
    """
    if not 1 <= steps <= _MAX_STEPS:
        raise ValueError(f"steps must be between 1 and the ceiling of {_MAX_STEPS}, got {steps}")
    dt = (t1 - t0) / steps

    def chunk(start: int) -> np.ndarray:
        ts = t0 + (np.arange(start, min(start + _CHUNK, steps)) + 0.5) * dt
        h = np.asarray(sched.evaluator(ts))
        if h.shape != (len(ts), sched.dim, sched.dim):
            raise ValueError(f"schedule produced shape {h.shape} for {len(ts)} times, "
                             f"declared dim {sched.dim}")
        return expm_unitary(h, dt)

    return map(chunk, range(0, steps, _CHUNK))


def _ordered_product(factors: np.ndarray) -> np.ndarray:
    """factors[-1] @ ... @ factors[0] as a pairwise product tree.

    Each level multiplies neighbours, later on the left; an odd last
    factor passes up unpaired, so time order is kept at every level.
    """
    while len(factors) > 1:
        paired = factors[1::2] @ factors[0:-1:2]
        factors = np.concatenate([paired, factors[-1:]]) if len(factors) % 2 else paired
    return factors[0]


def time_ordered_exponential(sched: HamiltonianSchedule, t0: float, t1: float,
                             steps: int) -> np.ndarray:
    """Midpoint step-product approximation of the time-ordered exponential.

    Later times multiply from the left. Each factor goes through
    expm_unitary, so Hermiticity of the schedule is enforced at every
    sampled midpoint and the result is unitary to machine precision
    regardless of ``steps``. The factors of each chunk of midpoints are
    multiplied as a pairwise tree before joining the running product.
    """
    u = np.eye(sched.dim, dtype=complex)
    for factors in _step_factors(sched, t0, t1, steps):
        u = _ordered_product(factors) @ u
    return u


def rotating_frame_propagator(c: np.ndarray, h0: np.ndarray, t: float,
                              s: float) -> np.ndarray:
    """Exact propagator for the schedule H(t) = e^{-iCt} H0 e^{+iCt}."""
    c, h0 = as_operator(c), as_operator(h0)
    if c.shape != h0.shape:
        raise ValueError(f"dimension mismatch: {c.shape} vs {h0.shape}")
    return expm_unitary(c, t) @ expm_unitary(h0 - c, t - s) @ expm_unitary(c, -s)


def schrodinger_propagator(family: UnitaryFamily, t: float, s: float) -> np.ndarray:
    """The genuine Schrodinger propagator of a closed-form family.

    Built from the family's rotating frame; the family's own ``propagator``
    is only the isometric conjugator of H(t).
    """
    c, h0 = family.frame
    return rotating_frame_propagator(c, h0, t, s)


def evolve_state(psi0, sched: HamiltonianSchedule, t0: float, t1: float,
                 steps: int) -> np.ndarray:
    """Propagate a normalized state, returning all steps+1 samples.

    Each step applies one midpoint short-time propagator; every sample
    stays normalized to within the unitarity of expm_unitary.
    """
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (sched.dim,):
        raise ValueError(f"state shape {psi.shape} does not match dim {sched.dim}")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized: |psi| = {nrm:.12f}")
    factors = itertools.chain.from_iterable(_step_factors(sched, t0, t1, steps))
    out = np.empty((steps + 1, sched.dim), dtype=complex)
    out[0] = psi
    for k, f in enumerate(factors, start=1):
        psi = f @ psi
        out[k] = psi
    return out


def energy_variance(psi, h: np.ndarray) -> float:
    """<H^2> - <H>^2 in the state psi (nonnegative for Hermitian H)."""
    psi = np.asarray(psi, dtype=complex)
    h = as_operator(h)
    if psi.shape != (h.shape[0],):
        raise ValueError(f"dimension mismatch: state {psi.shape}, matrix {h.shape}")
    hpsi = h @ psi
    mean = np.vdot(psi, hpsi).real
    mean_sq = np.vdot(hpsi, hpsi).real
    return mean_sq - mean ** 2


def fs_speed_check(states: np.ndarray, dt: float, variances) -> np.ndarray:
    """Projective speed versus sqrt(energy variance) along a state history.

    For each interior sample (central differences, endpoints dropped) the
    speed sqrt(<dpsi|(1 - |psi><psi|)|dpsi>) is compared with the supplied
    sqrt(variance). Returns rows (fs_speed, sqrt_variance, residual) for
    samples 1 .. n-2.
    """
    states = np.asarray(states, dtype=complex)
    variances = np.asarray(variances, dtype=float)
    if states.ndim != 2 or states.shape[0] < 3:
        raise ValueError("need at least 3 states on a uniform time grid")
    if variances.shape[0] != states.shape[0]:
        raise ValueError("one variance per state is required")
    n = states.shape[0]
    out = np.empty((n - 2, 3))
    for k in range(1, n - 1):
        dpsi = (states[k + 1] - states[k - 1]) / (2.0 * dt)
        psi = states[k]
        proj = dpsi - psi * np.vdot(psi, dpsi)
        fs = float(np.sqrt(np.vdot(proj, proj).real))
        sv = float(np.sqrt(max(variances[k], 0.0)))
        out[k - 1] = (fs, sv, abs(fs - sv))
    return out
