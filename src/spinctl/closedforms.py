"""Closed-form time-dependent Hamiltonian families and their unitaries.

Three exactly solvable families are provided:

* su2: H(t) with counter-rotating off-diagonal phases e^{-it}, conjugated
  by U(t, s) = diag(1, e^{i(t-s)}).
* su3: a qutrit family H(t) built from cos/sin envelopes with an arbitrary
  phase theta, whose conjugator factorizes through the gate Q(t) as
  U(t, s) = Q(t) Q(s)^dag.
* su4: the Dirac family H(t) with block phases e^{-2iEt}, its non-unitary
  eigenframe (W, W^-1, D0) and the diagonal conjugator U(t, s).

The builders of H(t), U(t, s), Q(t), the su4 eigenframe and the transported
constraint take scalars or arrays: n times, n su3 phases or n su4 parameter
sets give the (n, d, d) stack, each matrix bitwise its scalar call.

In every family U(t, s) transports the Hamiltonian isometrically,
H(t) = U(t, s) H(s) U(t, s)^dag. It is *not* the Schrodinger propagator of
H(t); the genuine propagator is the rotating-frame form exposed through
``frame`` (see oracle.rotating_frame_propagator). Sign conventions that the
numerical audit fixes live in the AUDITED_CONVENTIONS record.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .generators import PAULI, build_basis, reconstruct
from .matrixcore import dagger, row_dot

__all__ = [
    "AUDITED_CONVENTIONS",
    "Conventions",
    "DiracParameters",
    "EPSILON",
    "EigenFrame",
    "UnitaryFamily",
    "dirac_hamiltonian",
    "epsilon_product",
    "isotropic_energy",
    "su2_family",
    "su3_family",
    "su3_gate",
    "su3_hamiltonian",
    "su3_propagator",
    "su4_constraint_t",
    "su4_eigenframe",
    "su4_family",
    "su4_propagator",
]

DEFAULT_THETA = -np.pi / 2


@dataclass(frozen=True)
class Conventions:
    """Sign/role choices that algebra alone leaves two-valued, fixed numerically.

    Each field is resolved by exactly one audit check (the RESOLVED token
    named in the comment); the values stored here are the ones under which
    every identity in the test suite holds. The library builds each stored
    value one way and never reads this record; only the audit does, to
    check the token it measures.
    """

    su4_phase_sign: int = -1          # audit isometry_su4: phase_sign=-1
    su3_upper_sign: int = +1          # audit isometry_su3: su3_u13_sign=+i
    didt_commutator_sign: int = -1    # audit frame_commutator: didt_sign=-1
    dirac_ode_factor: float = 1.0     # audit ode_transcriptions: ode_factor=+1
    schrodinger_propagator: str = "rotating_frame"  # audit propagator_question
    sphere_divisor_is_dim: bool = True  # audit sphere_constraint: sphere_divisor=dim


AUDITED_CONVENTIONS = Conventions()


def isotropic_energy(h: np.ndarray) -> float:
    """Radius E of the energy sphere a Hamiltonian lives on.

    For the in-scope families H^2 = E^2 * 1, so E = sqrt(Tr(H^2) / dim).
    The divisor is the matrix dimension (audited), not the fixed 2 that a
    Tr(sigma_k^2) = 2 habit would suggest; the two only agree for su2.
    """
    h = np.asarray(h)
    return float(np.sqrt(max(np.trace(h @ h).real / h.shape[0], 0.0)))

#: Matrix-valued vector (1, -i sigma_z, +i sigma_y); eps.p contracts a real
#: 3-vector into a 2x2 block satisfying (eps.p)(eps^dag.p) = |p|^2 * 1.
EPSILON = (PAULI[0], -1j * PAULI[3], 1j * PAULI[2])


def _block_scale(x):
    """A scalar as is, an array shaped (..., 1, 1) to scale a stack of blocks."""
    return x[..., None, None] if isinstance(x, np.ndarray) else x


def _components(p: np.ndarray):
    """The three components of a 3-vector, or of an (n, 3) stack each shaped (n, 1, 1)."""
    return (p[0], p[1], p[2]) if p.ndim == 1 else _block_scale(p.T)


def _sigma_dot(p: np.ndarray) -> np.ndarray:
    x, y, z = _components(p)
    return x * PAULI[1] + y * PAULI[2] + z * PAULI[3]


def _eps_dot(p: np.ndarray) -> np.ndarray:
    x, y, z = _components(p)
    return x * EPSILON[0] + y * EPSILON[1] + z * EPSILON[2]


def epsilon_product(p) -> tuple[np.ndarray, np.ndarray]:
    """Both orderings (eps.p)(eps^dag.p) and (eps^dag.p)(eps.p); each |p|^2 * 1.

    An (n, 3) stack of vectors gives two (n, 2, 2) stacks.
    """
    p = np.asarray(p, dtype=float)
    e = _eps_dot(p)
    ed = dagger(e)
    return e @ ed, ed @ e


@dataclass(frozen=True, eq=False)
class DiracParameters:
    """Mass, initial momentum and global phase of the su4 family: one set or n sets.

    One set has scalar ``m`` and ``theta`` and a 3-vector ``p0``; n sets have
    ``m`` and ``theta`` (a scalar is shared) of shape (n,) and ``p0`` of shape
    (n, 3). E = +sqrt(m^2 + |p0|^2) is stored when the sets are validated,
    never set. States must stay spectrally separated (E > 0); the eigenframe
    additionally needs |p0| > 0 so the E - m denominators exist.
    """

    m: float | np.ndarray
    p0: np.ndarray
    theta: float | np.ndarray = DEFAULT_THETA
    energy: float | np.ndarray = field(init=False)

    def __post_init__(self):
        m, p0, theta = (np.array(x, dtype=float) for x in (self.m, self.p0, self.theta))
        if m.ndim > 1 or p0.shape != m.shape + (3,):
            raise ValueError("p0 must be a 3-vector, or (n, 3) for m of shape (n,)")
        if theta.shape not in ((), m.shape) or not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite: a scalar, or one angle per set")
        # np.float_power and the per-set matmul round as float(m) ** 2 + p0 @ p0 does
        with np.errstate(over="ignore", invalid="ignore"):
            e2 = np.float_power(m, 2) + row_dot(p0, p0)
        if not np.all(np.isfinite(e2)):
            raise ValueError("non-finite energy: need finite m^2 + |p0|^2")
        if np.any(e2 <= 0.0):
            raise ValueError("degenerate spectrum: need m^2 + |p0|^2 > 0")
        theta, energy = np.full(m.shape, theta), np.asarray(np.sqrt(e2))
        for name, value in (("m", m), ("p0", p0), ("theta", theta), ("energy", energy)):
            value.setflags(write=False)  # energy is stored, so the sets must not change
            object.__setattr__(self, name, value if value.ndim else float(value))


def _block4(upper_left, upper_right, lower_left, lower_right) -> np.ndarray:
    """4x4 matrix from 2x2 blocks.

    ``upper_right`` may be an (n, 2, 2) stack, giving (n, 4, 4); the other
    blocks broadcast against it.
    """
    out = np.zeros(np.shape(upper_right)[:-2] + (4, 4), dtype=complex)
    out[..., :2, :2] = upper_left
    out[..., :2, 2:] = upper_right
    out[..., 2:, :2] = lower_left
    out[..., 2:, 2:] = lower_right
    return out


def _sparse_matrix(d: int, entries: dict) -> np.ndarray:
    """d x d matrix, zero except ``entries``; array entries lead with their broadcast shape."""
    lead = np.broadcast_shapes(*(np.shape(entry) for entry in entries.values()))
    out = np.zeros(lead + (d, d), dtype=complex)
    for (i, j), entry in entries.items():
        out[..., i, j] = entry
    return out


def _phase(theta, e, t) -> np.ndarray:
    """z = e^{i theta} e^{-2iEt}, shaped by ``_block_scale``.

    ``theta`` and ``e`` are scalars for one set and arrays for n sets, as
    DiracParameters holds them; ``t`` is a scalar or an array of times.
    numpy multiplies two complex scalars without fused multiply-adds, while
    its complex array loop may fuse them, so the product is spelled out
    over real parts: every entry is then bitwise the scalar product,
    whichever of theta, e and t are arrays.
    """
    a, b = np.exp(1j * theta), np.exp(-2j * e * t)
    z = (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)
    return _block_scale(z)


def dirac_hamiltonian(params, t) -> np.ndarray:
    """Time-optimal Dirac Hamiltonian; (4, 4) at a scalar t, (n, 4, 4) at n times.

    ``params`` holds one set or n sets. n sets pair the i-th set with the
    i-th of n times (or with one scalar t), and each matrix of the
    (n, 4, 4) stack is bitwise the one that set alone gives at that scalar
    time.

    Blocks [[m 1, z p0.sigma], [conj(z) p0.sigma, -m 1]] with the unimodular
    phase z = e^{i theta} e^{-2iEt}. At the default theta = -pi/2 this is
    [[m 1, -i e^{-2iEt} p0.sigma], [+i e^{+2iEt} p0.sigma, -m 1]], which at
    t = 0 reduces to the static Dirac matrix of ``assemble_dirac``. Always
    satisfies H(t)^2 = E^2 * 1.
    """
    z = _phase(params.theta, params.energy, t)
    ps = _sigma_dot(params.p0)
    eye = PAULI[0]
    m = _block_scale(params.m)
    return _block4(m * eye, z * ps, np.conj(z) * ps, -m * eye)


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """Triple (W, W^-1, D0) with H = W D0 W^-1; W is invertible, not unitary."""

    w: np.ndarray
    w_inv: np.ndarray
    d0: np.ndarray

    def hamiltonian(self) -> np.ndarray:
        return self.w @ self.d0 @ self.w_inv


def su4_eigenframe(params, t) -> EigenFrame:
    """Block eigenframe of the su4 family at time t.

    W(t) stacks the two E eigencolumns against the two -E ones,

        W = [[eps.p0 phi / E-,  -eps.p0 phi / E+ ],
             [sigma_x,           sigma_x         ]],

    with phi = e^{i theta} e^{-2iEt} and E+- = E +- m; W^-1 carries the
    conjugate phase and a global 1/(2E). D0 = E diag(1, 1, -1, -1).

    E -+ m cancels when |p0| << |m| (E - m for m > 0, E + m for m < 0), so
    that side is taken as |p0|^2 / (E + |m|), from (E - m)(E + m) = |p0|^2.

    Like ``dirac_hamiltonian``, n parameter sets with n times give
    (n, 4, 4) stacks, each bitwise the single-set frame.
    """
    m, p0, e = params.m, params.p0, params.energy
    p2 = row_dot(p0, p0)
    if np.any(p2 == 0.0):
        raise ValueError("eigenframe requires |p0| > 0 (E - m must not vanish)")
    phi = _phase(params.theta, e, t)
    big = e + abs(m)
    e_minus, e_plus = np.where(m >= 0, p2 / big, big), np.where(m >= 0, big, p2 / big)
    e_minus, e_plus, e = (_block_scale(x) for x in (e_minus, e_plus, e))
    ep = _eps_dot(p0)
    epd = dagger(ep)
    sx = PAULI[1]
    w = _block4(ep * phi / e_minus, -ep * phi / e_plus, sx, sx)
    w_inv = _block4(epd * np.conj(phi), e_minus * sx, -epd * np.conj(phi), e_plus * sx) / (2 * e)
    d0 = e * np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    return EigenFrame(w=w, w_inv=w_inv, d0=d0)


def su4_propagator(params, t, s) -> np.ndarray:
    """Diagonal conjugator diag(e^{-iE(t-s)} 1, e^{+iE(t-s)} 1).

    The phase sign is the audited one (-1), the unique choice under which
    U(t, s) H(s) U(t, s)^dag = H(t); the competing sign is the complex
    conjugate U(t, s).conj(). It equals W(t) W(s)^-1 up to the global phase
    e^{-iE(t-s)}. Like ``dirac_hamiltonian``, it takes one parameter set or
    n sets, and n times t and s give the (n, 4, 4) stack.
    """
    ph = np.exp(-1j * params.energy * (t - s))
    return _sparse_matrix(4, {(0, 0): ph, (1, 1): ph, (2, 2): np.conj(ph), (3, 3): np.conj(ph)})


def su4_constraint_t(f0_coeffs, params: DiracParameters, t) -> np.ndarray:
    """Constraint operator conjugated along the family, U(t,0) F(0) U(t,0)^dag.

    ``f0_coeffs`` are coefficients over the full su4 basis (label order of
    ``build_basis('su4')``). The result keeps the diagonal blocks
    sigma.n+- static while the off-diagonal blocks pick up e^{-+2iEt}.
    A 1-D array of n times gives the (n, 4, 4) stack from one F(0). With n
    parameter sets, ``f0_coeffs`` holds one row of coefficients per set,
    (n, 15), and each set's F(0) is carried to its own time.
    """
    f0 = reconstruct(f0_coeffs, build_basis("su4"))
    u = su4_propagator(params, t, 0.0)
    return u @ f0 @ dagger(u)


@dataclass(frozen=True, eq=False)
class UnitaryFamily:
    """One closed-form family: H(t), its conjugator U(t, s), and the frame.

    ``frame`` is the pair (C, H0) with H(t) = e^{-iCt} H0 e^{+iCt}; it is
    what the Schrodinger propagator is built from. ``gate`` is the
    eigenstate-representation map Q(t) where the family has one (su3).
    ``hamiltonian``, ``propagator`` and ``gate`` broadcast over time:
    scalar times give (dim, dim), n times the (n, dim, dim) stack.
    """

    group_id: str
    dim: int
    hamiltonian: Callable[[float | np.ndarray], np.ndarray]
    propagator: Callable[[float | np.ndarray, float | np.ndarray], np.ndarray]
    frame: tuple[np.ndarray, np.ndarray]
    gate: Optional[Callable[[float | np.ndarray], np.ndarray]] = None


def su2_family() -> UnitaryFamily:
    """H(t) = [[0, e^{-it}], [e^{+it}, 0]], U(t, s) = diag(1, e^{i(t-s)})."""

    def hamiltonian(t) -> np.ndarray:
        return _sparse_matrix(2, {(0, 1): np.exp(-1j * t), (1, 0): np.exp(1j * t)})

    def propagator(t, s) -> np.ndarray:
        return _sparse_matrix(2, {(0, 0): 1.0, (1, 1): np.exp(1j * (t - s))})

    return UnitaryFamily(
        group_id="su2",
        dim=2,
        hamiltonian=hamiltonian,
        propagator=propagator,
        frame=(PAULI[3] / 2.0, PAULI[1].copy()),
    )


def su3_hamiltonian(t, theta=DEFAULT_THETA) -> np.ndarray:
    """Qutrit Hamiltonian H(t): cos t on the 1-2 coupler, -i e^{-i theta} sin t on 2-3."""
    c, s = np.cos(t), np.sin(t)
    return _sparse_matrix(3, {
        (0, 1): c, (1, 0): c,
        (1, 2): -1j * np.exp(-1j * theta) * s,
        (2, 1): 1j * np.exp(1j * theta) * s,
    })


def su3_propagator(t, s, theta=DEFAULT_THETA) -> np.ndarray:
    """Qutrit conjugator U(t, s) = Q(t) Q(s)^dag, a rotation in the 1-3 plane.

    The sign of the upper-right entry is the audited one
    (+i e^{-i theta} sin(t-s)), forced jointly by unitarity, the isometry
    and the Q factorization.
    """
    c, sn = np.cos(t - s), np.sin(t - s)
    return _sparse_matrix(3, {
        (0, 0): c, (0, 2): 1j * np.exp(-1j * theta) * sn,
        (1, 1): 1.0,
        (2, 0): 1j * np.exp(1j * theta) * sn, (2, 2): c,
    })


def su3_gate(t, theta=DEFAULT_THETA) -> np.ndarray:
    """Qutrit gate Q(t) mapping into the eigenstate representation.

    Q(0) = [[r, -r, 0], [r, r, 0], [0, 0, 1]] with r = 1/sqrt(2).
    """
    c, s = np.cos(t), np.sin(t)
    r = 1.0 / np.sqrt(2.0)
    return _sparse_matrix(3, {
        (0, 0): r * c, (0, 1): -r * c, (0, 2): 1j * np.exp(-1j * theta) * s,
        (1, 0): r, (1, 1): r,
        (2, 0): 1j * r * np.exp(1j * theta) * s, (2, 1): -1j * r * np.exp(1j * theta) * s, (2, 2): c,
    })


def su3_family(theta: float = DEFAULT_THETA) -> UnitaryFamily:
    """The qutrit family at phase theta: H(t), U(t, s) and Q(t) bound to it."""
    # H(t) = e^{-iCt} H(0) e^{+iCt} with C = -(the 1-3 plane coupler)
    c_frame = -_sparse_matrix(3, {(0, 2): np.exp(-1j * theta), (2, 0): np.exp(1j * theta)})
    return UnitaryFamily(
        group_id="su3",
        dim=3,
        hamiltonian=lambda t: su3_hamiltonian(t, theta),
        propagator=lambda t, s: su3_propagator(t, s, theta),
        frame=(c_frame, su3_hamiltonian(0.0, theta)),
        gate=lambda t: su3_gate(t, theta),
    )


def su4_family(params: DiracParameters) -> UnitaryFamily:
    """The Dirac family for one fixed set (m, p0, theta)."""
    if np.ndim(params.m):
        raise ValueError("su4_family takes one parameter set, not n sets")
    d0 = params.energy * np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    return UnitaryFamily(
        group_id="su4",
        dim=4,
        hamiltonian=lambda t: dirac_hamiltonian(params, t),
        propagator=lambda t, s: su4_propagator(params, t, s),
        frame=(d0, dirac_hamiltonian(params, 0.0)),
    )
