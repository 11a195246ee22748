"""Quantum brachistochrone dynamics on a partitioned generator basis.

The state is a pair (H, F) of Hermitian trace-free operators expanded on
disjoint spans S (Hamiltonian) and S^c (constraint) of one generator basis.
Both evolve by the single equation

    d(H + F)/dt = -i [H, F],

projected back onto the basis via the trace inner product. The projected
flow exactly conserves Tr(H^2) and Tr(F^2), which a fixed-step RK4 integrator
records from the coefficients so discretization drift stays visible. Tr(HF)
is not monitored: S and S^c are trace-orthogonal, so it is identically zero.

The su(4) case additionally ships the rate equations of the Dirac-type
split (mass/momentum on the Hamiltonian side) in two hand-derived
variants, ``dirac_split_rhs`` and ``dirac_vector_rhs``. Both are kept
exactly as derived, deliberately separate from the generic engine, so the
audit can measure where they agree and where they do not.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .generators import GeneratorBasis, build_basis, project_coefficients, reconstruct
from .matrixcore import commutator

__all__ = [
    "ControlSplit",
    "DiracSplitState",
    "NonFiniteStateError",
    "OperatorPair",
    "Trajectory",
    "brachistochrone_rhs",
    "canonical_split",
    "dirac_split_rhs",
    "dirac_state_to_pair",
    "dirac_vector_rhs",
    "integrate",
    "pair_to_dirac_state",
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
        if s & c:
            raise ValueError(f"spans overlap: {sorted(s & c)}")
        if s | c != set(self.basis.labels):
            missing = set(self.basis.labels) - (s | c)
            extra = (s | c) - set(self.basis.labels)
            raise ValueError(f"split must cover the basis (missing {sorted(missing)}, unknown {sorted(extra)})")

    @cached_property
    def s_indices(self) -> np.ndarray:
        return np.array([self.basis.index(l) for l in self.hamiltonian_labels], dtype=int)

    @cached_property
    def c_indices(self) -> np.ndarray:
        return np.array([self.basis.index(l) for l in self.constraint_labels], dtype=int)

    @cached_property
    def coupling(self) -> np.ndarray:
        """Structure tensor M[k, a, b] = -i Tr(g_k [g_a, g_b]) / Tr(g_k^2).

        Rows k run over S, then S^c. Contracting M with (h_coeffs,
        f_coeffs) gives the projection of -i[H, F] stacked as (dH/dt,
        dF/dt) in one step; it is the whole vector field.
        """
        g = self.basis.elements
        rows = np.concatenate([self.s_indices, self.c_indices])
        gs, gc = g[self.s_indices], g[self.c_indices]
        comm = np.einsum("aij,bjk->abik", gs, gc) - np.einsum("bij,ajk->abik", gc, gs)
        m = -1j * np.einsum("kij,abji->kab", g[rows], comm) / self.basis.norm_constants[rows, None, None]
        return np.ascontiguousarray(m.real)

    def hamiltonian_matrix(self, h_coeffs) -> np.ndarray:
        full = np.zeros(len(self.basis))
        full[self.s_indices] = h_coeffs
        return reconstruct(full, self.basis)

    def constraint_matrix(self, f_coeffs) -> np.ndarray:
        full = np.zeros(len(self.basis))
        full[self.c_indices] = f_coeffs
        return reconstruct(full, self.basis)


def canonical_split(group_id: str) -> ControlSplit:
    """The canonical split of a group (see CANONICAL_S_LABELS)."""
    basis = build_basis(group_id)
    s = CANONICAL_S_LABELS[group_id]
    c = tuple(l for l in basis.labels if l not in s)
    return ControlSplit(basis, s, c)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Trajectory:
    """Sampled brachistochrone run with invariant monitors.

    monitors[:, 0..1] hold Tr(H^2) = sum_S n_k h_k^2 and Tr(F^2) =
    sum_S^c n_k f_k^2 at each sample, with the basis norms n_k = Tr(g_k^2).
    """

    split: ControlSplit
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

    Raises ValueError for nonpositive h or T or for more than _MAX_STEPS
    steps, and NonFiniteStateError (a RuntimeError, with the failing step
    index) if the state leaves the finite range mid-run or a sampled
    monitor overflows.
    """
    if h <= 0 or T <= 0:
        raise ValueError("step size and horizon must be positive")
    if not T / h <= _MAX_STEPS:
        raise ValueError(f"T / h = {T / h:.3g} steps exceeds the ceiling of {_MAX_STEPS}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")

    m = split.coupling
    ns, nc = len(split.s_indices), len(split.c_indices)

    def rhs(c: np.ndarray) -> np.ndarray:
        return np.einsum("kab,a,b->k", m, c[:ns], c[ns:])

    c = np.concatenate([np.asarray(initial.h_coeffs, float),
                        np.asarray(initial.f_coeffs, float)])
    if c.shape != (ns + nc,):
        raise ValueError("initial coefficients do not match the split")

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
            if not np.all(np.isfinite(c)):
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
    return Trajectory(split, np.array(times), hs, fs, mons)


# --------------------------------------------------------------------------
# Hand-derived Dirac-split rate equations (su4), kept exactly as stated.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiracSplitState:
    """su(4) Dirac-split state in named physical coordinates.

    Hamiltonian side: mass m on s30 and momentum p on (s11, s12, s13).
    Constraint side: omega0 on (s01, s02, s03), omega10 on s10, omega20 on
    s20, omega2 on (s21, s22, s23), omega3 on (s31, s32, s33). The same
    dataclass doubles as the derivative carrier.
    """

    m: float
    p: np.ndarray = field(default_factory=lambda: np.zeros(3))
    omega0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    omega2: np.ndarray = field(default_factory=lambda: np.zeros(3))
    omega3: np.ndarray = field(default_factory=lambda: np.zeros(3))
    omega10: float = 0.0
    omega20: float = 0.0

    def __post_init__(self):
        for name in ("p", "omega0", "omega2", "omega3"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            object.__setattr__(self, name, v)

    @property
    def energy_squared(self) -> float:
        return self.m ** 2 + float(self.p @ self.p)

    @property
    def n_plus(self) -> np.ndarray:
        return self.omega0 + self.omega3

    @property
    def n_minus(self) -> np.ndarray:
        return self.omega0 - self.omega3

    @property
    def b(self) -> np.ndarray:
        return self.omega2

    @property
    def a(self) -> complex:
        return complex(self.omega10, self.omega20)


def dirac_state_to_pair(state: DiracSplitState) -> OperatorPair:
    """Coefficient vectors of a DiracSplitState over canonical_split('su4')."""
    h = np.concatenate([[state.m], state.p])
    f = np.concatenate([state.omega0, [state.omega10, state.omega20],
                        state.omega2, state.omega3])
    return OperatorPair(h_coeffs=h, f_coeffs=f)


def pair_to_dirac_state(pair: OperatorPair) -> DiracSplitState:
    """Inverse of dirac_state_to_pair."""
    h, f = np.asarray(pair.h_coeffs, float), np.asarray(pair.f_coeffs, float)
    return DiracSplitState(
        m=h[0], p=h[1:4],
        omega0=f[0:3], omega10=f[3], omega20=f[4],
        omega2=f[5:8], omega3=f[8:11],
    )


def dirac_split_rhs(s: DiracSplitState) -> DiracSplitState:
    """Component form of the Dirac-split rates.

    d(omega0)/dt = d(omega2)/dt = 0;
    d(omega10, omega3)/dt = 2 diag(-1, 1, 1, 1) (m, p);
    d(m, p)/dt = 2 * Theta(omega) (m, p) with Theta antisymmetric;
    d(omega20)/dt = 2 (m omega10 - p . omega3).

    The antisymmetry of Theta makes m^2 + |p|^2 an exact invariant. Note
    the (omega10, omega3) block carries no omega20 factor, unlike the
    generic projection; the audit measures that gap.
    """
    o = s.omega0
    theta = 2.0 * np.array([
        [0.0,        s.omega2[0],  s.omega2[1],  s.omega2[2]],
        [-s.omega2[0], 0.0,        o[2],        -o[1]],
        [-s.omega2[1], -o[2],      0.0,          o[0]],
        [-s.omega2[2],  o[1],     -o[0],         0.0],
    ])
    mp_dot = theta @ np.concatenate([[s.m], s.p])
    return DiracSplitState(
        m=mp_dot[0], p=mp_dot[1:],
        omega0=np.zeros(3), omega2=np.zeros(3),
        omega3=2.0 * s.p,
        omega10=-2.0 * s.m,
        omega20=2.0 * (s.m * s.omega10 - float(s.p @ s.omega3)),
    )


def dirac_vector_rhs(s: DiracSplitState) -> DiracSplitState:
    """Vector-matrix form of the same system.

    dp/dt = -m (n+ + n-) - (n+ + n-) x p;
    d(xi_c)/dt = m xi_r + p . (n+ - n-)  with a = xi_r + i xi_c;
    d(n+)/dt + d(n-)/dt = 4 p, together with d(n+)/dt = d(n-)/dt,
    d(xi_r)/dt = -m, dm/dt = b . p, db/dt = 0.

    Combining the n relations as stated gives d(omega0)/dt = 2p and
    d(omega3)/dt = 0, which disagrees with ``dirac_split_rhs``; so do the
    missing factors of two on dm/dt and d(xi_r)/dt. Those gaps are audit
    findings, not bugs here.
    """
    n_sum = s.n_plus + s.n_minus
    p_dot = -s.m * n_sum - np.cross(n_sum, s.p)
    return DiracSplitState(
        m=float(s.b @ s.p),
        p=p_dot,
        omega0=2.0 * s.p,          # (n+ + n-)'/2 with n+' = n-'
        omega3=np.zeros(3),        # (n+ - n-)'/2 with n+' = n-'
        omega2=np.zeros(3),
        omega10=-s.m,
        omega20=s.m * s.omega10 + float(s.p @ (s.n_plus - s.n_minus)),
    )
