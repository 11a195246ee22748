"""Quantum brachistochrone dynamics on a partitioned generator basis.

The state is a pair (H, F) of Hermitian trace-free operators expanded on
disjoint spans S (Hamiltonian) and S^c (constraint) of one generator basis.
Both evolve by the single equation

    d(H + F)/dt = -i [H, F],

projected back onto the basis: a contraction with ``ControlSplit.coupling``, a
slice of the structure constants ``basis.structure``. The flow works on
these coefficients only; the matrix route, -i[H, F] formed and projected,
is the audit's referee and lives there. The flow exactly conserves Tr(H^2)
and Tr(F^2), which a fixed-step RK4 integrator records from the
coefficients so discretization drift stays visible. Tr(HF) is not
monitored: S and S^c are trace-orthogonal, so it is identically zero.

``integrate`` runs one start on RK4, and the audit runs its flow on the
fixed-order Taylor kernel ``_taylor``. Both advance one state, a list of
Python floats, a block of steps at a time through ``_flow``. A split of a
direct sum such as ``su2+su3+su4`` runs its groups side by side as one
flow. The arrays are small, so a step of numpy calls would cost their
dispatch, not arithmetic. Each kernel therefore runs one generated block
runner, compiled once per split and cached. Both runners share one frame
(``_emit``): a loop of straight-line steps over local floats, which adds
a step's floats to one flat sample list only on the sampling grid, every
stride-th step and the last, and packs a list only at the block's end.
Each kernel emits only its step, from one term table of the field
(``_terms``): the coupling's nonzero entries, row by row in row-major
order, each a magnitude |m| bound by name and a sign folded into the sum.
So each row sums from +0.0 as the dense sum does, bit for bit, and never
over the zero blocks of a direct sum. RK4 forms each distinct product of
a magnitude and an entry once, and rows whose slope is identically zero
get no stages. The Taylor step forms each coefficient from the pair sums
of Cauchy products, each a sequential sum from +0.0. ``_flow`` calls a
kernel's runner once per block and checks finiteness at the block's end,
replaying a failed block one step per call to name the first non-finite
step.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .generators import GeneratorBasis, build_basis, reconstruct

__all__ = [
    "ControlSplit",
    "NonFiniteStateError",
    "OperatorPair",
    "Trajectory",
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
        for field in ("hamiltonian_labels", "constraint_labels"):  # tuples, so a split can key a cache
            object.__setattr__(self, field, tuple(getattr(self, field)))
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


#: Ceiling on the step count T / h of ``integrate``: at most about a minute
#: of RK4 at 0.6-7 us per step (su2 to su2+su3+su4, every step sampled or
#: every 250th, Python 3.11 on a 2-core Xeon).
_MAX_STEPS = 10 ** 7

#: Steps between the finiteness checks of ``_flow``.
_BLOCK = 64


class NonFiniteStateError(RuntimeError):
    """Raised by ``integrate`` when the state or a monitor leaves the finite range."""


def _flow(run: Callable[[list, int, int, list, list], list], c: list, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """``n_steps`` steps from the state ``c``, a list of n floats, one call of ``run`` per block of _BLOCK steps.

    ``run(c, first, stop, steps, samples)`` takes steps first .. stop - 1
    from the state ``c`` before step ``first`` and returns the state after
    the last. It appends each sampled step's index to ``steps`` and the
    state's n floats to ``samples``, one flat list for the run. The state
    is checked for finiteness at the end of each block. A non-finite entry
    stays non-finite in every later step (each new entry is the old one
    plus an increment), so a block that ends finite was finite throughout.
    A block that does not is replayed from its first state through ``run``,
    one step a call, checking each step, and the error names the first
    non-finite step. Python floats never warn or raise on overflow. Returns
    the sampled steps (0 and each step ``run`` samples) and an (n_samples, n)
    array of the states there, read from the flat list by one np.fromiter.
    """
    steps, samples, n = [0], list(c), len(c)
    for first in range(1, n_steps + 1, _BLOCK):
        stop = min(first + _BLOCK, n_steps + 1)
        end = run(c, first, stop, steps, samples)
        if not np.isfinite(end).all():
            for step in range(first, stop):
                c = run(c, step, step + 1, steps, samples)
                if not np.isfinite(c).all():
                    raise NonFiniteStateError(f"non-finite state at step {step}")
        c = end
    return np.array(steps), np.fromiter(samples, float, len(samples)).reshape(len(steps), n)


def _terms(split: ControlSplit) -> tuple[tuple[tuple[str, float], ...],
                                         tuple[tuple[tuple[str, str, int, int], ...], ...], tuple[int, ...]]:
    """The term table of ``split``'s field dc/dt = coupling . (c[:ns], c[ns:]), which both kernels emit code from.

    Returns the distinct magnitudes |m| of ``split.coupling``'s nonzero
    entries as pairs (name, |m|), named m0, m1, ... in order of first
    appearance; per row k, its terms (sign, name, a, ns + b), with ns =
    |S|, one per nonzero coupling[k, a, b] in row-major (a, b) order, "-"
    where the entry is negative; and the live rows, those with a term. A
    kernel sums each row from +0.0 over its terms in this order, as the
    dense sequential sum does with m in place of |m|, bit for bit. Each
    kernel's compile reads it once and is itself cached per split.
    """
    # Skipping the coupling's zero entries keeps every bit of the dense sum.
    # That sum starts at +0.0, so it never becomes -0.0, and with finite
    # inputs a zero entry adds +-0, which leaves it unchanged. A non-finite
    # input is a start entry, which stays non-finite in the state, or an entry
    # that overflowed and so has a nonzero row. The structure constants'
    # nonzero pattern is totally antisymmetric, bit for bit for every group
    # (su3's values are so only to 4.4e-16, from its two floats for sqrt(3),
    # but only the pattern counts here). So such an entry also feeds a
    # nonzero term of some row, the state turns non-finite at the step it
    # would with every term kept, and _flow names the step the textbook names.
    # A Taylor pair sum that no row reads is not formed at all. The dense sum
    # multiplies it by 0, which adds +-0 while it stays finite; only such a sum
    # overflowing while every sum a row reads stays finite would turn the dense
    # sum non-finite where the kernel's is not.
    #
    # A negative entry's term is subtracted: m * x = -(|m| * x), since
    # rounding is symmetric in sign, and s + (-t) is s - t by IEEE's
    # definition. Only a NaN's sign may differ, and _flow raises before a
    # non-finite state leaves it.
    coupling, ns = split.coupling, len(split.s_indices)
    magnitudes: dict[float, str] = {}
    rows: list[list[tuple[str, str, int, int]]] = [[] for _ in range(coupling.shape[0])]
    for k, a, b in zip(*np.nonzero(coupling)):
        m = coupling[k, a, b].item()
        name = magnitudes.setdefault(abs(m), f"m{len(magnitudes)}")
        rows[k].append(("-" if m < 0 else "+", name, int(a), ns + int(b)))
    return (tuple((name, m) for m, name in magnitudes.items()), tuple(map(tuple, rows)),
            tuple(i for i, terms in enumerate(rows) if terms))


def _emit(kernel: str, magnitudes: tuple, rows: tuple, params: str, step: list[str],
          before: list[str]) -> Callable:
    """``make(params, stride, last) -> run``: ``_flow``'s runner around a kernel's ``step`` lines.

    ``magnitudes`` and ``rows`` are the term table's, as the kernel read
    it from ``_terms``. ``run(c, first, stop, steps, samples)`` unpacks
    the list c into locals c0, c1, ... once, sets each row without
    terms to c_i + 0.0, runs the ``before`` lines, and takes steps first ..
    stop - 1, each the ``step`` lines on the live rows' locals. At each step
    that is a multiple of ``stride`` or is ``last``, the run's final step,
    it appends the step to ``steps`` and the state's floats, c0, c1, ..., to
    the flat list ``samples``; no step packs a list. It returns the state
    after the last step as a new list. The code reads the magnitudes by
    name and is compiled under a filename that names the ``kernel``.
    """
    # A row without terms has a zero field, so for finite h each kernel's
    # textbook step adds +0.0 to its entry: the dense field sums +-0 from +0.0.
    # x + 0.0 is idempotent: it maps -0.0 to +0.0 and leaves every other value
    # as it is (a NaN stays a NaN, and _flow raises on it). So the runner adds
    # it once per call, not once per step: the entry after any number of steps
    # is the entry after one, and _flow's replay of one step per call gives
    # the same bits.
    state = ", ".join(f"c{i}" for i in range(len(rows)))
    body = [f"{state}, = c",
            *(f"c{i} = c{i} + 0.0" for i, terms in enumerate(rows) if not terms),
            *before,
            "sample = first + -first % stride",
            "for step in range(first, stop):",
            *(f"    {line}" for line in step),
            "    if step == sample or step == last:",
            "        steps.append(step)",
            f"        samples += ({state},)",
            "        sample += stride",
            f"return [{state}]"]
    source = (f"def make({params}, stride, last):\n    def run(c, first, stop, steps, samples):\n"
              + "".join(f"        {line}\n" for line in body) + "    return run\n")
    namespace = dict(magnitudes)
    exec(compile(source, f"<spinctl.brachistochrone {kernel}>", "exec"), namespace)
    return namespace["make"]


@lru_cache(maxsize=32)  # a run keeps one split; a session runs a few
def _compile_step(split: ControlSplit) -> Callable[[float, float, float, int, int],
                                                   Callable[[list, int, int, list, list], list]]:
    """Generated RK4 for ``split``'s flow: ``make(h, hh, h6, stride, last) -> run``, ``_emit``'s runner.

    The compiled code holds no step size. Each of the slopes k1..k4 (named
    a, b, d, e) first forms its distinct products p = |m| * y_a, one local
    each; a product whose row a has no term reads the constant c_a, so the
    runner forms it once, before the loop. Its row k is then 0.0 +- p *
    y_(ns+b) +- ... over the row's terms in the table's order, the textbook
    RK4 slope bit for bit. Each stage is c_i + hh * k_i (h * k_i for the
    last), and the step sets c_i = c_i + h6 * (((a_i + 2.0 * b_i) + 2.0 *
    d_i) + e_i), textbook RK4's order. Rows without terms get no slope and
    no stage.

    Cached once per split: a frozen dataclass, equal to another over the
    same basis (one object per group) and labels. So the fresh split that
    ``spinctl integrate`` builds per call finds its runner without building
    its coupling, which only a miss reads.
    """
    # Each product |m| * y_a goes into a local once per slope, and every term
    # that shares it reads that local: the same IEEE operation on the same
    # operands gives the same bits.
    #
    # A row without terms has slope +0.0 at every stage, so for finite h its
    # stage is c_i + 0.0 and its new entry c_i + h6 * (((0.0 + 2.0 * 0.0) +
    # 2.0 * 0.0) + 0.0) = c_i + 0.0, which _emit's frame sets. Products then
    # read c_i + 0.0 where textbook RK4's first step reads the plain c_i. The
    # two differ only when c_i is -0.0, and the term is then a zero, whose
    # sign a sum that starts at +0.0 (and so never turns -0.0) absorbs, or a
    # NaN either way.
    #
    # A stage that no term reads is not computed.
    magnitudes, rows, live = _terms(split)
    products: dict[tuple[str, int], str] = {}
    for terms in rows:
        for _, m, a, _ in terms:
            products.setdefault((m, a), f"p{len(products)}")
    read = {a for _, a in products} | {b for terms in rows for *_, b in terms}

    def slopes(k: str, y: str) -> list[str]:
        def entry(i: int) -> str:
            return f"{y}{i}" if rows[i] else f"c{i}"

        return [*(f"{p} = {m} * {y}{a}" for (m, a), p in products.items() if rows[a]),
                *(f"{k}{i} = 0.0" + "".join(f" {sign} {products[m, a]} * {entry(b)}" for sign, m, a, b in rows[i])
                  for i in live)]

    def stage(weight: str, k: str) -> list[str]:
        return [f"y{i} = c{i} + {weight} * {k}{i}" for i in live if i in read]

    step = [*slopes("a", "c"), *stage("hh", "a"), *slopes("b", "y"), *stage("hh", "b"),
            *slopes("d", "y"), *stage("h", "d"), *slopes("e", "y"),
            *(f"c{i} = c{i} + h6 * (((a{i} + 2.0 * b{i}) + 2.0 * d{i}) + e{i})" for i in live)]
    before = [f"{p} = {m} * c{a}" for (m, a), p in products.items() if not rows[a]]
    return _emit("step", magnitudes, rows, "h, hh, h6", step, before)


@lru_cache(maxsize=32)
def _compile_taylor(split: ControlSplit) -> Callable[[float, int, int, int],
                                                     Callable[[list, int, int, list, list], list]]:
    """Generated fixed-order Taylor steps of ``split``'s flow: ``make(h, order, stride, last) -> run``.

    One compiled kernel serves every step size and order >= 1. Per step
    the runner builds the Taylor coefficients c_0 = c, c_1, ..., c_order of
    the state about the step's start. Coefficient k + 1 reads the pair sums
    q_ab = 0.0 + h_0[a] * f_k[b] + h_1[a] * f_(k-1)[b] + ..., in that
    order, over the pairs (a, ns + b) the table's terms name, with h_j and
    f_j the S and S^c halves of c_j, each unpacked into locals per j. Its
    live row i is (0.0 +- |m| * q_ab +- ...) / (k + 1) over the row's
    terms; a row without terms has coefficient 0.0, which still enters the
    pair sums it feeds. The step's state is their Horner sum at h, (c_order
    * h + c_(order-1)) * h + ... + c_0, the textbook Taylor step bit for bit.
    """
    magnitudes, rows, live = _terms(split)
    pairs: dict[tuple[int, int], str] = {}
    for terms in rows:
        for *_, a, b in terms:
            pairs.setdefault((a, b), f"q{len(pairs)}")
    s_read, c_read = sorted({a for a, _ in pairs}), sorted({b for _, b in pairs})

    def pack(*items: str) -> str:
        return f"({', '.join(items)},)"

    def names(prefix: str, indices) -> str:
        return pack(*(f"{prefix}{i}" for i in indices))

    def coefficient(i: int) -> str:
        return f"t{i}" if rows[i] else "0.0"

    step = [f"hs, fs, series = [{names('c', s_read)}], [{names('c', c_read)}], []",
            "for k in range(order):",
            *(f"    {q} = 0.0" for q in pairs.values()),
            f"    for {names('u', s_read)}, {names('v', c_read)} in zip(hs, reversed(fs)):",
            *(f"        {q} = {q} + u{a} * v{b}" for (a, b), q in pairs.items()),
            "    n = k + 1",
            *(f"    t{i} = (0.0" + "".join(f" {sign} {m} * {pairs[a, b]}" for sign, m, a, b in rows[i]) + ") / n"
              for i in live),
            f"    hs.append({pack(*map(coefficient, s_read))})",
            f"    fs.append({pack(*map(coefficient, c_read))})",
            f"    series.append({names('t', live)})",
            f"for {names('y', live)} in series[-2::-1]:",
            *(f"    t{i} = t{i} * h + y{i}" for i in live),
            *(f"c{i} = t{i} * h + c{i}" for i in live)] if live else []
    return _emit("taylor", magnitudes, rows, "h, order", step, [])


def _taylor(split: ControlSplit, c: np.ndarray, h: float, n_steps: int,
            order: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-order Taylor steps of ``split``'s flow from the (n,) state ``c``, every step sampled.

    The field, dc/dt = M(c[:ns], c[ns:]) with M = ``split.coupling`` and
    ns = |S|, is bilinear, so the Taylor coefficients of c(t) about each
    step's start follow from Cauchy products, c_{k+1} = sum_j M(c_j[:ns],
    c_{k-j}[ns:]) / (k + 1) (Jorba & Zou, Exp. Math. 14, 99 (2005)), and a
    step is their Horner sum at ``h``. The steps run on Python floats
    through the split's generated runner (``_compile_taylor``); ``order``
    is an integer of at least 1, else ValueError.
    """
    if not (isinstance(order, numbers.Integral) and order >= 1):
        raise ValueError(f"Taylor order must be an integer >= 1, got {order}")
    h = float(h)
    run = _compile_taylor(split)(h, order, 1, n_steps)
    steps, samples = _flow(run, np.asarray(c, dtype=float).tolist(), n_steps)
    return steps * h, samples


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
    step (``_compile_step``), bit for bit textbook RK4 on the dense field.
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
    steps, samples = _flow(run, np.concatenate([h0, f0]).tolist(), n_steps)
    hs, fs = samples[:, :ns], samples[:, ns:]
    norms = split.basis.norm_constants
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        mons = np.stack([hs ** 2 @ norms[split.s_indices], fs ** 2 @ norms[split.c_indices]], axis=-1)

    overflow = ~np.isfinite(mons).all(axis=1)
    if overflow.any():
        raise NonFiniteStateError(f"non-finite invariant monitor at step {steps[np.argmax(overflow)]}")
    return Trajectory(steps * h, hs, fs, mons)
