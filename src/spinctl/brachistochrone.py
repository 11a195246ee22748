"""Quantum brachistochrone dynamics on a partitioned generator basis.

The state is a pair (H, F) of Hermitian trace-free operators expanded on
disjoint spans S (Hamiltonian) and S^c (constraint) of one generator basis.
Both evolve by the single equation

    d(H + F)/dt = -i [H, F],

projected back onto the basis: a contraction with ``ControlSplit.coupling``, a
slice of the structure constants ``basis.structure``; ``brachistochrone_rhs``
is the matrix route, the audit's referee, for a row or a stack. The flow
exactly conserves Tr(H^2) and Tr(F^2), which a fixed-step RK4 integrator
records from the coefficients so discretization drift stays visible. Tr(HF) is
not monitored: S and S^c are trace-orthogonal, so it is identically zero.

``integrate`` runs one start or a stack of starts on the private RK4 kernel
``_rk4``, and the audit runs its flow on the fixed-order Taylor kernel
``_taylor``. Both advance a (runs, n) array of coefficient rows one batched
step at a time through ``_flow``, each row bitwise as it would evolve alone,
and take a coupling tensor and the size of S, not a split. A split of a
direct sum such as ``su2+su3+su4`` runs its groups side by side as one flow.
The arrays are small, so a step costs numpy calls, not arithmetic: ``_rk4``
keeps its stage slopes and stage state in buffers allocated once per run,
and ``_flow`` checks finiteness once per block of steps, replaying a failed
block step by step to name the first non-finite step.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .generators import GeneratorBasis, _project, build_basis, reconstruct
from .matrixcore import as_operator

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
        return self._matrix(self.s_indices, h_coeffs)

    def constraint_matrix(self, f_coeffs) -> np.ndarray:
        """F from |S^c| coefficients; an (n, |S^c|) stack gives (n, d, d)."""
        return self._matrix(self.c_indices, f_coeffs)

    def _matrix(self, indices: np.ndarray, coeffs) -> np.ndarray:
        """The matrix of ``coeffs`` placed at basis ``indices``, zero elsewhere."""
        full = np.zeros(np.shape(coeffs)[:-1] + (len(self.basis),))
        full[..., indices] = coeffs
        return reconstruct(full, self.basis)


def canonical_split(group_id: str) -> ControlSplit:
    """The canonical split of a group (see CANONICAL_S_LABELS); a sum joins its parts' S labels, prefixed."""
    basis = build_basis(group_id)
    parts = group_id.split("+")
    s = CANONICAL_S_LABELS[group_id] if len(parts) == 1 else tuple(
        f"{part}.{label}" for part in parts for label in CANONICAL_S_LABELS[part])
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
    dF/dt. A non-finite K, from non-finite or overflowing coefficients,
    raises ValueError. (n, |S|) and (n, |S^c|) stacks give stacks, each row bitwise
    the lone row's; H and F stacks that differ in length raise ValueError.
    """
    h = split.hamiltonian_matrix(state.h_coeffs)
    f = split.constraint_matrix(state.f_coeffs)
    if h.shape != f.shape:
        raise ValueError(f"H and F stacks differ: {h.shape} vs {f.shape}")
    # Tr K = 0 by construction, so K skips project_coefficients' trace
    # test, whose absolute threshold the rounding of a large K passes.
    ck = _project(as_operator(-1j * (h @ f - f @ h)), split.basis)
    return OperatorPair(ck[..., split.s_indices], ck[..., split.c_indices])


#: Ceiling on the step count T / h of ``integrate``: about four minutes of
#: RK4 at 20-25 us per step (one run of su2 to su4). It counts steps, not
#: steps times runs: a stack of runs advances together, one batched step at
#: a time.
_MAX_STEPS = 10 ** 7

#: Steps between the finiteness checks of ``_flow``.
_BLOCK = 64


class NonFiniteStateError(RuntimeError):
    """Raised by ``integrate`` when the state or a monitor leaves the finite range."""


def _non_finite(what: str, step: int, run: int, runs: int) -> NonFiniteStateError:
    """The error for a non-finite state or monitor; a stack of runs also names the run."""
    where = f" of run {run}" if runs > 1 else ""
    return NonFiniteStateError(f"non-finite {what} at step {step}{where}")


def _flow(advance: Callable[[np.ndarray], np.ndarray], c: np.ndarray, h: float, n_steps: int,
          stride: int) -> tuple[np.ndarray, np.ndarray]:
    """``n_steps`` steps of size ``h`` from the (runs, n) stack ``c``; ``advance`` returns each next state.

    The whole stack is checked for finiteness once per block of _BLOCK
    steps and at the last step. A non-finite entry stays non-finite in
    every later step (it reaches the next state through c + k), so a
    block that ends finite was finite throughout. A block that does not is
    replayed from its first state, checking each step, and the error names
    the first non-finite step and, for a stack, the first run there.
    Returns the sample times (0, every ``stride`` steps and the last) and a
    (n_samples, runs, n) array of the states there.
    """
    times, samples = [0.0], [c.copy()]
    # The state is checked each block, so numpy's overflow warnings (from the
    # update itself when h is huge) would only repeat the error raised here.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, n_steps + 1, _BLOCK):
            start = c
            for step in range(first, min(first + _BLOCK, n_steps + 1)):
                c = advance(c)  # a new array each step, so a sample needs no copy
                if step % stride == 0 or step == n_steps:
                    times.append(step * h)
                    samples.append(c)
            if not np.isfinite(c).all():
                c = start
                for step in range(first, step + 1):
                    c = advance(c)
                    finite = np.isfinite(c).all(axis=1)
                    if not finite.all():
                        raise _non_finite("state", step, int(np.argmin(finite)), len(c))
    return np.array(times), np.array(samples)


def _rk4(coupling: np.ndarray, ns: int, c: np.ndarray, h: float, n_steps: int,
         stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 for a stack of runs of dc/dt = coupling . (c[:ns], c[ns:]).

    ``c`` is a (runs, n) array whose first ``ns`` columns are contracted with
    the second index of ``coupling`` and the rest with the third; returns
    ``_flow``'s samples. The four stage slopes and the stage state live in
    buffers allocated once per call, so a step allocates only the state it
    returns; each stage state is the textbook c + (h/2) k or c + h k, bit for bit.
    """
    k = np.empty((4,) + c.shape)
    k1, k2, k3, k4 = k
    k23 = k[1:3]
    y = np.empty_like(c)
    ys, yc = y[:, :ns], y[:, ns:]
    hh = 0.5 * h

    # the ufuncs take ``out`` positionally, which skips a keyword parse per call
    def advance(c: np.ndarray) -> np.ndarray:
        np.einsum("kab,na,nb->nk", coupling, c[:, :ns], c[:, ns:], out=k1)
        np.multiply(k1, hh, y)
        np.add(c, y, y)
        np.einsum("kab,na,nb->nk", coupling, ys, yc, out=k2)
        np.multiply(k2, hh, y)
        np.add(c, y, y)
        np.einsum("kab,na,nb->nk", coupling, ys, yc, out=k3)
        np.multiply(k3, h, y)
        np.add(c, y, y)
        np.einsum("kab,na,nb->nk", coupling, ys, yc, out=k4)
        # (h / 6) (k1 + 2 k2 + 2 k3 + k4), in place and in that order
        np.multiply(k23, 2, k23)
        np.add(k1, k2, k1)
        np.add(k1, k3, k1)
        np.add(k1, k4, k1)
        np.multiply(k1, h / 6.0, k1)
        return c + k1

    return _flow(advance, c, h, n_steps, stride)


def _taylor(coupling: np.ndarray, ns: int, c: np.ndarray, h: float, n_steps: int,
            order: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-order Taylor steps for the same stacks and field as ``_rk4``, every step sampled.

    The field is bilinear, so the Taylor coefficients of c(t) about each
    step's start follow from Cauchy products, c_{k+1} = sum_j M(c_j[:ns],
    c_{k-j}[ns:]) / (k + 1) (Jorba & Zou, Exp. Math. 14, 99 (2005)), and a
    step is their Horner sum at ``h``.
    """
    series = np.empty((order + 1,) + c.shape)

    def advance(c: np.ndarray) -> np.ndarray:
        series[0] = c
        for k in range(order):
            pairs = np.einsum("jna,jnb->nab", series[:k + 1, :, :ns], series[k::-1, :, ns:])
            series[k + 1] = np.einsum("kab,nab->nk", coupling, pairs) / (k + 1)
        c = series[order].copy()
        for coeffs in series[order - 1::-1]:
            c *= h
            c += coeffs
        return c

    return _flow(advance, c, h, n_steps, 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled brachistochrone run, or stack of runs, with invariant monitors.

    monitors[..., 0] and monitors[..., 1] hold Tr(H^2) = sum_S n_k h_k^2
    and Tr(F^2) = sum_S^c n_k f_k^2 at each sample, with the basis norms
    n_k = Tr(g_k^2). A stack of runs puts the run first on every field but
    ``times``, which all runs share.
    """

    times: np.ndarray      # (n,)
    h_coeffs: np.ndarray   # (n, |S|), or (runs, n, |S|)
    f_coeffs: np.ndarray   # (n, |S^c|), or (runs, n, |S^c|)
    monitors: np.ndarray   # (n, 2), or (runs, n, 2)

    def monitor_drift(self) -> np.ndarray:
        """Max |monitor(t) - monitor(0)| per channel: (2,), or (runs, 2) for a stack."""
        return np.max(np.abs(self.monitors - self.monitors[..., :1, :]), axis=-2)


def integrate(initial: OperatorPair, split: ControlSplit, h: float, T: float,
              sample_stride: int = 1) -> Trajectory:
    """Classical fixed-step RK4 over the projected commutator field.

    ``initial`` holds one start, an (|S|,) row and an (|S^c|,) row, or a
    stack of starts, (runs, |S|) and (runs, |S^c|), which advance together
    and give a stacked Trajectory; each run is bitwise the one it would be
    alone. Steps n = round(T / h) times from t = 0 so the final time is
    within h of T. Samples (and the invariant monitors) are recorded every
    ``sample_stride`` steps plus at the final step. No renormalization is
    applied; monitor drift is a deliberate fidelity signal.

    Raises ValueError unless 0 < h, T < inf, for more than _MAX_STEPS
    steps, for a ``sample_stride`` that is not an integer (Python or numpy)
    of at least 1, or for coefficients of the wrong shapes, and
    NonFiniteStateError (a RuntimeError, with the failing step index, and
    for a stack the run) if the state leaves the finite range mid-run or a
    sampled monitor overflows.
    """
    if not (0 < h < np.inf and 0 < T < np.inf):  # NaN fails too
        raise ValueError(f"step size and horizon must be positive and finite, got h = {h}, T = {T}")
    if not T / h <= _MAX_STEPS:
        raise ValueError(f"T / h = {T / h:.3g} steps exceeds the ceiling of {_MAX_STEPS}")
    if not (isinstance(sample_stride, numbers.Integral) and sample_stride >= 1):
        raise ValueError(f"sample_stride must be an integer >= 1, got {sample_stride}")

    ns, nc = len(split.s_indices), len(split.c_indices)
    h0, f0 = np.asarray(initial.h_coeffs, float), np.asarray(initial.f_coeffs, float)
    lead = h0.shape[:-1]
    if h0.ndim not in (1, 2) or 0 in lead or h0.shape != lead + (ns,) or f0.shape != lead + (nc,):
        needs = f"({ns},) and ({nc},)" if h0.ndim < 2 else f"(runs, {ns}) and (runs, {nc}), runs >= 1"
        raise ValueError(f"initial coefficients have shapes {h0.shape} and {f0.shape}, "
                         f"the split needs {needs}")

    n_steps = int(round(T / h))
    starts = np.concatenate([h0, f0], axis=-1).reshape(-1, ns + nc)
    times, samples = _rk4(split.coupling, ns, starts, h, n_steps, sample_stride)
    # per run: (n_samples, |S|) and (n_samples, |S^c|) views of the samples
    hs, fs = samples[..., :ns].swapaxes(0, 1), samples[..., ns:].swapaxes(0, 1)
    norms = split.basis.norm_constants
    # one stacked matmul; each run's slice keeps the bits a lone run's
    # (n_samples, |S|) @ (|S|,) has. Overflow is raised below
    with np.errstate(over="ignore", invalid="ignore"):
        mons = np.stack([hs ** 2 @ norms[split.s_indices], fs ** 2 @ norms[split.c_indices]], axis=-1)

    overflow = ~np.isfinite(mons).all(axis=2)
    if overflow.any():
        sample, run = np.argwhere(overflow.T)[0]
        raise _non_finite("invariant monitor", min(int(sample) * sample_stride, n_steps),
                          int(run), len(starts))
    if not lead:
        return Trajectory(times, hs[0], fs[0], mons[0])
    return Trajectory(times, hs, fs, mons)
