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

``integrate`` runs one start on RK4, and the audit runs its flow on the
fixed-order Taylor kernel ``_taylor``. Both advance one (n,) coefficient
state a block of steps at a time through ``_flow``. A split of a direct
sum such as ``su2+su3+su4`` runs its groups side by side as one flow.
The arrays are small, so a step of numpy calls costs their dispatch, not
arithmetic. RK4 therefore runs on Python floats through one generated
block runner, compiled once per split and cached: a loop of straight-line
steps over local floats, which packs a list only for a sampled step and
at the block's end. Its slopes sum over the coupling's nonzero entries bit
for bit as the einsum contraction does, forming each distinct product of
a magnitude |m| and an entry once, and rows whose slope is identically
zero get no stages. ``_taylor`` calls numpy's einsum core, ``c_einsum``,
directly, without ``np.einsum``'s Python dispatch and with the same bits.
``_flow`` calls a kernel's runner once per block and checks finiteness at
the block's end, replaying a failed block one step per call to name the
first non-finite step.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from numpy._core.multiarray import c_einsum

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
    # Tr K = 0 by construction, so K skips project_coefficients' trace test: its
    # threshold scales with |K|, K's rounding with |H| |F|, far larger if they nearly commute.
    ck = _project(as_operator(-1j * (h @ f - f @ h)), split.basis)
    return OperatorPair(ck[..., split.s_indices], ck[..., split.c_indices])


#: Ceiling on the step count T / h of ``integrate``: at most about a minute
#: of RK4 at 0.6-7 us per step (su2 to su2+su3+su4, every step sampled or
#: every 250th, Python 3.11 on a 2-core Xeon).
_MAX_STEPS = 10 ** 7

#: Steps between the finiteness checks of ``_flow``.
_BLOCK = 64


class NonFiniteStateError(RuntimeError):
    """Raised by ``integrate`` when the state or a monitor leaves the finite range."""


def _flow(run: Callable[[np.ndarray | list, int, int, list, list], np.ndarray | list], c: np.ndarray | list,
          n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """``n_steps`` steps from the (n,) state ``c``, one call of ``run`` per block of _BLOCK steps.

    ``run(c, first, stop, times, samples)`` takes steps first .. stop - 1
    from the state ``c`` before step ``first`` and returns the state after
    the last. It appends each sampled step's time and state to ``times``
    and ``samples``, a new state each, so a sample needs no copy. The state
    is an array (``_taylor``) or a list of floats (``integrate``), checked
    for finiteness at the end of each block. A non-finite entry stays
    non-finite in every later step (it reaches the next state through
    c + k), so a block that ends finite was finite throughout. A block that
    does not is replayed from its first state through ``run``, one step a
    call, checking each step, and the error names the first non-finite
    step. Returns the sample times (0 and each step ``run`` samples) and an
    (n_samples, n) array of the states there.
    """
    times, samples = [0.0], [c.copy()]
    # The state is checked each block, so numpy's overflow warnings (from the
    # update itself when h is huge) would only repeat the error raised here.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, n_steps + 1, _BLOCK):
            stop = min(first + _BLOCK, n_steps + 1)
            end = run(c, first, stop, times, samples)
            if not np.isfinite(end).all():
                for step in range(first, stop):
                    c = run(c, step, step + 1, times, samples)
                    if not np.isfinite(c).all():
                        raise NonFiniteStateError(f"non-finite state at step {step}")
            c = end
    return np.array(times), np.array(samples)


@lru_cache(maxsize=32)  # a run keeps one split; a session runs a few
def _compile_step(split: ControlSplit) -> Callable[[float, float, float, int, int],
                                                   Callable[[list, int, int, list, list], list]]:
    """Generated RK4 for ``split``'s flow: a runner that takes a block of steps on local floats.

    The flow is dc/dt = coupling . (c[:ns], c[ns:]) with coupling =
    ``split.coupling`` and ns = |S|. Returns ``make(h, hh, h6, stride,
    last) -> run``, so the compiled code holds no step size. ``run(c,
    first, stop, times, samples)`` is ``_flow``'s runner. It unpacks the
    list c into locals c0, c1, ... once, takes steps first .. stop - 1 in a
    loop of straight-line assignments, and returns the state after the
    last as a new list. At each step that is a multiple of ``stride`` or is
    ``last``, the run's final step, it appends step * h to ``times`` and a
    new list of the state to ``samples``; no other step packs a list. Each
    of the slopes k1..k4 (named a, b, d, e) first forms its distinct
    products p = |m| * y_a, one local each, with each magnitude |m| a name
    bound in the code's namespace; a product whose row a has no term is the
    same throughout, so the runner forms it once, before the loop. Its row
    k is then 0.0 +- p * y_(ns+b) +- ... over the nonzero coupling[k, a, b]
    in row-major order, "-" where the entry is negative. That is the sum
    ``c_einsum("kab,a,b->k")`` forms, bit for bit: a sequential sum from
    +0.0 of (M y_a) y_b in row-major (a, b) order, less its zero terms.
    Each stage is c_i + hh * k_i (h * k_i for the last), and the step sets
    c_i = c_i + h6 * (((a_i + 2.0 * b_i) + 2.0 * d_i) + e_i), textbook
    RK4's order. A row without terms gets no slope and no stage: the
    runner sets its entry to c_i + 0.0 once, before the loop, so a -0.0
    entry turns to +0.0 where textbook RK4 turns it, and a stage that no
    term reads is left out.

    Cached once per split: a frozen dataclass, equal to another over the
    same basis (one object per group) and labels. So the fresh split that
    ``spinctl integrate`` builds per call finds its runner without building
    its coupling, which only a miss reads.
    """
    # Skipping the coupling's zero entries keeps every bit of c_einsum's sum.
    # That sum starts at +0.0, so it never becomes -0.0, and with finite
    # inputs a zero entry adds +-0, which leaves it unchanged. A non-finite
    # input is a start entry, which stays non-finite in the state, or an entry
    # that overflowed and so has a nonzero row. The structure constants'
    # nonzero pattern is totally antisymmetric, bit for bit for every group
    # (su3's values are so only to 4.4e-16, from its two floats for sqrt(3),
    # but only the pattern counts here). So such an entry also feeds a
    # nonzero term of some row, the state turns non-finite at the step it
    # would with every term kept, and _flow names the step textbook RK4 names.
    #
    # Each product |m| * y_a goes into a local once per slope, and every term
    # that shares it reads that local: the same IEEE operation on the same
    # operands gives the same bits.
    #
    # A negative entry's term is subtracted: m * y_a = -(|m| * y_a) and
    # (-p) * y_b = -(p * y_b), since rounding is symmetric in sign, and
    # s + (-t) is s - t by IEEE's definition. Only a NaN's sign may differ,
    # and _flow raises before a non-finite state leaves it.
    #
    # A row without terms has slope +0.0 at every stage, so for finite h its
    # stage is c_i + 0.0 and its new entry c_i + h6 * (((0.0 + 2.0 * 0.0) +
    # 2.0 * 0.0) + 0.0) = c_i + 0.0, which needs no stages.
    #
    # The runner adds that 0.0 once per call, before the loop, not once per
    # step. x + 0.0 is idempotent: it maps -0.0 to +0.0 and leaves every other
    # value as it is (a NaN stays a NaN, and _flow raises on it). So the entry
    # after any number of steps is the entry after one, and a replay of one
    # step per call gives the same bits. Products then read c_i + 0.0 where
    # textbook RK4's first step reads the plain c_i. The two differ only when
    # c_i is -0.0, and the term is then a zero, whose sign a sum that starts
    # at +0.0 (and so never turns -0.0) absorbs, or a NaN either way. Such a
    # product is the same in every slope of every step, so the runner forms
    # it before the loop too.
    #
    # A stage that no term reads is not computed.
    coupling, ns = split.coupling, len(split.s_indices)
    n = coupling.shape[0]
    magnitudes: dict[float, str] = {}
    products: dict[tuple[str, int], str] = {}
    rows: list[list[tuple[str, str, int]]] = [[] for _ in range(n)]
    for k, a, b in zip(*np.nonzero(coupling)):
        m = coupling[k, a, b].item()
        name = magnitudes.setdefault(abs(m), f"m{len(magnitudes)}")
        rows[k].append(("-" if m < 0 else "+", products.setdefault((name, a), f"p{len(products)}"), ns + b))
    namespace: dict = {name: m for m, name in magnitudes.items()}
    live = [i for i in range(n) if rows[i]]
    read = {a for _, a in products} | {b for terms in rows for _, _, b in terms}

    def slopes(k: str, y: str) -> list[str]:
        def entry(i: int) -> str:
            return f"{y}{i}" if rows[i] else f"c{i}"

        return [*(f"{p} = {m} * {y}{a}" for (m, a), p in products.items() if rows[a]),
                *(f"{k}{i} = 0.0" + "".join(f" {sign} {p} * {entry(b)}" for sign, p, b in rows[i])
                  for i in live)]

    def stage(weight: str, k: str) -> list[str]:
        return [f"y{i} = c{i} + {weight} * {k}{i}" for i in live if i in read]

    state = ", ".join(f"c{i}" for i in range(n))
    loop = [*slopes("a", "c"), *stage("hh", "a"), *slopes("b", "y"), *stage("hh", "b"),
            *slopes("d", "y"), *stage("h", "d"), *slopes("e", "y"),
            *(f"c{i} = c{i} + h6 * (((a{i} + 2.0 * b{i}) + 2.0 * d{i}) + e{i})" for i in live),
            "if step == sample or step == last:",
            "    times.append(step * h)",
            f"    samples.append([{state}])",
            "    sample += stride"]
    body = [f"{state}, = c",
            *(f"c{i} = c{i} + 0.0" for i in range(n) if not rows[i]),
            *(f"{p} = {m} * c{a}" for (m, a), p in products.items() if not rows[a]),
            "sample = first + -first % stride",
            "for step in range(first, stop):",
            *(f"    {line}" for line in loop),
            f"return [{state}]"]
    exec("def make(h, hh, h6, stride, last):\n    def run(c, first, stop, times, samples):\n"
         + "".join(f"        {line}\n" for line in body) + "    return run\n", namespace)
    return namespace["make"]


def _taylor(split: ControlSplit, c: np.ndarray, h: float, n_steps: int,
            order: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-order Taylor steps of ``split``'s flow from the (n,) state ``c``, every step sampled.

    The field, dc/dt = M(c[:ns], c[ns:]) with M = ``split.coupling`` and
    ns = |S|, is bilinear, so the Taylor coefficients of c(t) about each
    step's start follow from Cauchy products, c_{k+1} = sum_j M(c_j[:ns],
    c_{k-j}[ns:]) / (k + 1) (Jorba & Zou, Exp. Math. 14, 99 (2005)), and a
    step is their Horner sum at ``h``.
    """
    coupling, ns = split.coupling, len(split.s_indices)
    series = np.empty((order + 1,) + c.shape)

    def advance(c: np.ndarray) -> np.ndarray:
        series[0] = c
        for k in range(order):
            pairs = c_einsum("ja,jb->ab", series[:k + 1, :ns], series[k::-1, ns:])
            series[k + 1] = c_einsum("kab,ab->k", coupling, pairs) / (k + 1)
        c = series[order].copy()
        for coeffs in series[order - 1::-1]:
            c *= h
            c += coeffs
        return c

    def run(c: np.ndarray, first: int, stop: int, times: list, samples: list) -> np.ndarray:
        for step in range(first, stop):
            c = advance(c)
            times.append(step * h)
            samples.append(c)
        return c

    return _flow(run, c, n_steps)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled brachistochrone run with invariant monitors.

    monitors[:, 0] and monitors[:, 1] hold Tr(H^2) = sum_S n_k h_k^2 and
    Tr(F^2) = sum_S^c n_k f_k^2 at each sample, with the basis norms
    n_k = Tr(g_k^2).
    """

    times: np.ndarray      # (n,)
    h_coeffs: np.ndarray   # (n, |S|)
    f_coeffs: np.ndarray   # (n, |S^c|)
    monitors: np.ndarray   # (n, 2)

    def monitor_drift(self) -> np.ndarray:
        """Max |monitor(t) - monitor(0)| per channel, (2,)."""
        return np.max(np.abs(self.monitors - self.monitors[0]), axis=0)


def integrate(initial: OperatorPair, split: ControlSplit, h: float, T: float,
              sample_stride: int = 1) -> Trajectory:
    """Classical fixed-step RK4 over the projected commutator field.

    The state runs as a list of Python floats through the split's generated
    step (``_compile_step``), bit for bit textbook RK4 on the einsum field.
    ``initial`` holds one start, an (|S|,) row and an (|S^c|,) row. Steps
    n = round(T / h) times from t = 0 so the final time is within h of T.
    Samples (and the invariant monitors) are recorded every
    ``sample_stride`` steps plus at the final step. No renormalization is
    applied; monitor drift is a deliberate fidelity signal.

    Raises ValueError unless 0 < h, T < inf, for more than _MAX_STEPS
    steps, for a ``sample_stride`` that is not an integer (Python or numpy)
    of at least 1, or for coefficients of the wrong shapes, and
    NonFiniteStateError (a RuntimeError, with the failing step index) if
    the state leaves the finite range mid-run or a sampled monitor
    overflows.
    """
    if not (0 < h < np.inf and 0 < T < np.inf):  # NaN fails too
        raise ValueError(f"step size and horizon must be positive and finite, got h = {h}, T = {T}")
    if not T / h <= _MAX_STEPS:
        raise ValueError(f"T / h = {T / h:.3g} steps exceeds the ceiling of {_MAX_STEPS}")
    if not (isinstance(sample_stride, numbers.Integral) and sample_stride >= 1):
        raise ValueError(f"sample_stride must be an integer >= 1, got {sample_stride}")

    ns, nc = len(split.s_indices), len(split.c_indices)
    h0, f0 = np.asarray(initial.h_coeffs, float), np.asarray(initial.f_coeffs, float)
    if h0.shape != (ns,) or f0.shape != (nc,):
        raise ValueError(f"initial coefficients have shapes {h0.shape} and {f0.shape}, "
                         f"the split needs ({ns},) and ({nc},)")

    n_steps = int(round(T / h))
    h = float(h)  # a numpy scalar would turn the state into np.float64 objects
    run = _compile_step(split)(h, 0.5 * h, h / 6.0, int(sample_stride), n_steps)
    times, samples = _flow(run, np.concatenate([h0, f0]).tolist(), n_steps)
    hs, fs = samples[:, :ns], samples[:, ns:]
    norms = split.basis.norm_constants
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        mons = np.stack([hs ** 2 @ norms[split.s_indices], fs ** 2 @ norms[split.c_indices]], axis=-1)

    overflow = ~np.isfinite(mons).all(axis=1)
    if overflow.any():
        step = min(int(np.argmax(overflow)) * sample_stride, n_steps)
        raise NonFiniteStateError(f"non-finite invariant monitor at step {step}")
    return Trajectory(times, hs, fs, mons)
