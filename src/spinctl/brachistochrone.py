"""Quantum brachistochrone dynamics on a partitioned generator basis.

The state is a pair (H, F) of Hermitian trace-free operators expanded on
disjoint spans S (Hamiltonian) and S^c (constraint) of one generator basis.
Both evolve by the single equation

    d(H + F)/dt = -i [H, F],

projected back onto the basis: a contraction with ``ControlSplit.coupling``,
a slice of the structure constants ``basis.structure``. The flow exactly
conserves Tr(H^2) and Tr(F^2), which a fixed-step RK4 integrator records from
the coefficients so discretization drift stays visible. Tr(HF) is not
monitored: S and S^c are trace-orthogonal, so it is identically zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .generators import GeneratorBasis, build_basis, project_coefficients, reconstruct
from .matrixcore import commutator

__all__ = [
    "ControlSplit",
    "NonFiniteStateError",
    "OperatorPair",
    "Trajectory",
    "brachistochrone_rhs",
    "canonical_split",
    "integrate",
]

#: Hamiltonian-span labels of the canonical split per group. su2 pairs the
#: transverse plane with a longitudinal constraint; su4 is the Dirac split
#: (mass + the momentum triple sigma_x (x) sigma_j that the constraint
#: table is written against); su3 spans the plane traced by the closed-form
#: family at theta = 0.
CANONICAL_S_LABELS = {
    "su2": ("sx", "sy"),
    "su3": ("l1", "l7"),
    "su4": ("s30", "s11", "s12", "s13"),
}


@dataclass(frozen=True)
class ControlSplit:
    """Partition of a generator basis into Hamiltonian span S and constraint span S^c."""

    basis: GeneratorBasis
    hamiltonian_labels: tuple[str, ...]
    constraint_labels: tuple[str, ...]

    def __post_init__(self):
        s, c = set(self.hamiltonian_labels), set(self.constraint_labels)
        if not self.hamiltonian_labels:
            raise ValueError("Hamiltonian span must be nonempty")
        if len(s) != len(self.hamiltonian_labels) or len(c) != len(self.constraint_labels):
            raise ValueError("split labels must be distinct")
        for label in (*self.hamiltonian_labels, *self.constraint_labels):
            if label not in self.basis.labels:
                raise ValueError(f"split label {label!r} not in {self.basis.group_id} basis")
        if s & c:
            raise ValueError(f"spans overlap: {sorted(s & c)}")
        if s | c != set(self.basis.labels):
            raise ValueError(f"split must cover the basis (missing {sorted(set(self.basis.labels) - s - c)})")

    @cached_property
    def s_indices(self) -> np.ndarray:
        return np.array([self.basis.index(l) for l in self.hamiltonian_labels], dtype=int)

    @cached_property
    def c_indices(self) -> np.ndarray:
        return np.array([self.basis.index(l) for l in self.constraint_labels], dtype=int)

    @cached_property
    def coupling(self) -> np.ndarray:
        """The slice M[k, a, b] of ``basis.structure`` with a in S and b in S^c.

        Rows k run over S, then S^c. Contracting M with (h_coeffs,
        f_coeffs) gives the projection of -i[H, F] stacked as (dH/dt,
        dF/dt) in one step; it is the whole vector field.
        """
        rows = np.concatenate([self.s_indices, self.c_indices])
        return self.basis.structure[np.ix_(rows, self.s_indices, self.c_indices)]

    def hamiltonian_matrix(self, h_coeffs) -> np.ndarray:
        """H from |S| coefficients; an (n, |S|) stack gives (n, d, d)."""
        full = np.zeros(np.shape(h_coeffs)[:-1] + (len(self.basis),))
        full[..., self.s_indices] = h_coeffs
        return reconstruct(full, self.basis)

    def constraint_matrix(self, f_coeffs) -> np.ndarray:
        """F from |S^c| coefficients; an (n, |S^c|) stack gives (n, d, d)."""
        full = np.zeros(np.shape(f_coeffs)[:-1] + (len(self.basis),))
        full[..., self.c_indices] = f_coeffs
        return reconstruct(full, self.basis)


def canonical_split(group_id: str) -> ControlSplit:
    """The canonical split of a group (see CANONICAL_S_LABELS)."""
    basis = build_basis(group_id)
    s = CANONICAL_S_LABELS[group_id]
    c = tuple(l for l in basis.labels if l not in s)
    return ControlSplit(basis, s, c)


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Coefficients of (H, F) over a split."""

    h_coeffs: np.ndarray
    f_coeffs: np.ndarray


def brachistochrone_rhs(state: OperatorPair, split: ControlSplit) -> OperatorPair:
    """Time derivative of an OperatorPair under d(H+F)/dt = -i[H, F].

    Reconstructs the matrices, forms K = -i[H, F] (Hermitian, traceless)
    and projects K back: the S components are dH/dt, the S^c components
    dF/dt. Returns the derivative as an OperatorPair.
    """
    h = split.hamiltonian_matrix(state.h_coeffs)
    f = split.constraint_matrix(state.f_coeffs)
    k = -1j * commutator(h, f)
    ck = project_coefficients(k, split.basis)
    return OperatorPair(ck[split.s_indices], ck[split.c_indices])


#: Ceiling on the step count T / h of ``integrate``: about five minutes of
#: RK4 at 30 us per step.
_MAX_STEPS = 10 ** 7


class NonFiniteStateError(RuntimeError):
    """Raised by ``integrate`` when the state or a monitor leaves the finite range."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled brachistochrone run with invariant monitors.

    monitors[:, 0..1] hold Tr(H^2) = sum_S n_k h_k^2 and Tr(F^2) =
    sum_S^c n_k f_k^2 at each sample, with the basis norms n_k = Tr(g_k^2).
    """

    times: np.ndarray      # (n,)
    h_coeffs: np.ndarray   # (n, |S|)
    f_coeffs: np.ndarray   # (n, |S^c|)
    monitors: np.ndarray   # (n, 2)

    def monitor_drift(self) -> np.ndarray:
        """Max |monitor(t) - monitor(0)| per channel."""
        return np.max(np.abs(self.monitors - self.monitors[0]), axis=0)


def integrate(initial: OperatorPair, split: ControlSplit, h: float, T: float,
              sample_stride: int = 1) -> Trajectory:
    """Classical fixed-step RK4 over the projected commutator field.

    Steps n = round(T / h) times from t = 0 so the final time is within h
    of T. Samples (and the invariant monitors) are recorded every
    ``sample_stride`` steps plus at the final step. No renormalization is
    applied; monitor drift is a deliberate fidelity signal.

    Raises ValueError unless 0 < h, T < inf, or for more than _MAX_STEPS
    steps, and NonFiniteStateError (a RuntimeError, with the failing step
    index) if the state leaves the finite range mid-run or a sampled
    monitor overflows.
    """
    if not (0 < h < np.inf and 0 < T < np.inf):  # NaN fails too
        raise ValueError(f"step size and horizon must be positive and finite, got h = {h}, T = {T}")
    if not T / h <= _MAX_STEPS:
        raise ValueError(f"T / h = {T / h:.3g} steps exceeds the ceiling of {_MAX_STEPS}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")

    m = split.coupling
    ns, nc = len(split.s_indices), len(split.c_indices)

    def rhs(c: np.ndarray) -> np.ndarray:
        return np.einsum("kab,a,b->k", m, c[:ns], c[ns:])

    h0, f0 = np.asarray(initial.h_coeffs, float), np.asarray(initial.f_coeffs, float)
    if h0.shape != (ns,) or f0.shape != (nc,):
        raise ValueError(f"initial coefficients have shapes {h0.shape} and {f0.shape}, "
                         f"the split needs ({ns},) and ({nc},)")
    c = np.concatenate([h0, f0])

    n_steps = int(round(T / h))
    times = [0.0]
    hs, fs = [c[:ns].copy()], [c[ns:].copy()]
    # The state is checked each step and the monitors once after the run, so
    # numpy's overflow warnings (from the squared coefficients, or from the
    # RK4 update itself when h is huge) would only repeat the error raised here.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * h * k1)
            k3 = rhs(c + 0.5 * h * k2)
            k4 = rhs(c + h * k3)
            c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.isfinite(c).all():
                raise NonFiniteStateError(f"non-finite state at step {step}")
            if step % sample_stride == 0 or step == n_steps:
                times.append(step * h)
                hs.append(c[:ns].copy())
                fs.append(c[ns:].copy())
        hs, fs = np.array(hs), np.array(fs)
        norms = split.basis.norm_constants
        mons = np.stack([hs ** 2 @ norms[split.s_indices], fs ** 2 @ norms[split.c_indices]], axis=1)

    overflow = ~np.isfinite(mons).all(axis=1)
    if overflow.any():
        step = min(int(np.argmax(overflow)) * sample_stride, n_steps)
        raise NonFiniteStateError(f"non-finite invariant monitor at step {step}")
    return Trajectory(np.array(times), hs, fs, mons)
