"""Closed-form time-dependent Hamiltonian families and their unitaries.

Three exactly solvable families are provided:

* su2: H(t) with counter-rotating off-diagonal phases e^{-it}, conjugated
  by U(t, s) = diag(1, e^{i(t-s)}).
* su3: a qutrit family H(t) built from cos/sin envelopes with an arbitrary
  phase theta, whose conjugator factorizes through the gate Q(t) as
  U(t, s) = Q(t) Q(s)^dag.
* su4: the Dirac family H(t) with block phases e^{-2iEt}, its non-unitary
  eigenframe (W, W^-1, D0) and the diagonal conjugator U(t, s).

In every family U(t, s) transports the Hamiltonian isometrically,
H(t) = U(t, s) H(s) U(t, s)^dag. It is *not* the Schrodinger propagator of
H(t); the genuine propagator is the rotating-frame form exposed through
``frame`` (see oracle.rotating_frame_propagator). Sign conventions that the
numerical audit fixes live in the AUDITED_CONVENTIONS record.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .generators import PAULI, build_basis, reconstruct
from .matrixcore import dagger

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
    every identity in the test suite holds.
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
    d = h.shape[0] if AUDITED_CONVENTIONS.sphere_divisor_is_dim else 2
    return float(np.sqrt(max(np.trace(h @ h).real / d, 0.0)))

#: Matrix-valued vector (1, -i sigma_z, +i sigma_y); eps.p contracts a real
#: 3-vector into a 2x2 block satisfying (eps.p)(eps^dag.p) = |p|^2 * 1.
EPSILON = (PAULI[0], -1j * PAULI[3], 1j * PAULI[2])


def _sigma_dot(p: np.ndarray) -> np.ndarray:
    return p[0] * PAULI[1] + p[1] * PAULI[2] + p[2] * PAULI[3]


def _eps_dot(p: np.ndarray) -> np.ndarray:
    return p[0] * EPSILON[0] + p[1] * EPSILON[1] + p[2] * EPSILON[2]


def epsilon_product(p) -> tuple[np.ndarray, np.ndarray]:
    """Both orderings (eps.p)(eps^dag.p) and (eps^dag.p)(eps.p); each |p|^2 * 1."""
    p = np.asarray(p, dtype=float)
    e = _eps_dot(p)
    ed = dagger(e)
    return e @ ed, ed @ e


@dataclass(frozen=True)
class DiracParameters:
    """Mass, initial momentum and global phase of the su4 family.

    E = +sqrt(m^2 + |p0|^2) is always derived, never set. States must stay
    spectrally separated (E > 0); the eigenframe additionally needs
    |p0| > 0 so the E - m denominators exist.
    """

    m: float
    p0: np.ndarray
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        p0 = np.asarray(self.p0, dtype=float)
        if p0.shape != (3,):
            raise ValueError("p0 must be a 3-vector")
        object.__setattr__(self, "p0", p0)
        with np.errstate(over="ignore"):
            e2 = np.square(self.m) + p0 @ p0
        if not np.isfinite(e2):
            raise ValueError("non-finite energy: need finite m^2 + |p0|^2")
        if e2 <= 0.0:
            raise ValueError("degenerate spectrum: need m^2 + |p0|^2 > 0")

    @property
    def energy(self) -> float:
        return float(np.sqrt(self.m ** 2 + self.p0 @ self.p0))

    @property
    def momentum_norm(self) -> float:
        return float(np.linalg.norm(self.p0))


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


def _sparse_matrix(d: int, entries: dict, lead: tuple) -> np.ndarray:
    """Stack of d x d matrices of shape lead + (d, d), zero except ``entries``.

    ``entries`` maps (i, j) to a scalar or to an array of shape ``lead``:
    lead = () for a scalar time, (n,) for a 1-D array of n times.
    """
    out = np.zeros(lead + (d, d), dtype=complex)
    for (i, j), entry in entries.items():
        out[..., i, j] = entry
    return out


def dirac_hamiltonian(params: DiracParameters, t) -> np.ndarray:
    """Time-optimal Dirac Hamiltonian; (4, 4) at a scalar t, (n, 4, 4) at n times.

    Blocks [[m 1, z p0.sigma], [conj(z) p0.sigma, -m 1]] with the unimodular
    phase z = e^{i theta} e^{-2iEt}. At the default theta = -pi/2 this is
    [[m 1, -i e^{-2iEt} p0.sigma], [+i e^{+2iEt} p0.sigma, -m 1]], which at
    t = 0 reduces to the static Dirac matrix of ``assemble_dirac``. Always
    satisfies H(t)^2 = E^2 * 1.
    """
    e = params.energy
    z = np.exp(1j * params.theta) * np.exp(-2j * e * t)
    ps = _sigma_dot(params.p0)
    eye = PAULI[0]
    return _block4(params.m * eye, np.multiply.outer(z, ps), np.multiply.outer(np.conj(z), ps),
                   -params.m * eye)


@dataclass(frozen=True)
class EigenFrame:
    """Triple (W, W^-1, D0) with H = W D0 W^-1; W is invertible, not unitary."""

    w: np.ndarray
    w_inv: np.ndarray
    d0: np.ndarray

    def hamiltonian(self) -> np.ndarray:
        return self.w @ self.d0 @ self.w_inv


def su4_eigenframe(params: DiracParameters, t: float) -> EigenFrame:
    """Block eigenframe of the su4 family at time t.

    W(t) stacks the two E eigencolumns against the two -E ones,

        W = [[eps.p0 phi / E-,  -eps.p0 phi / E+ ],
             [sigma_x,           sigma_x         ]],

    with phi = e^{i theta} e^{-2iEt} and E+- = E +- m; W^-1 carries the
    conjugate phase and a global 1/(2E). D0 = E diag(1, 1, -1, -1).
    """
    if params.momentum_norm == 0.0:
        raise ValueError("eigenframe requires |p0| > 0 (E - m must not vanish)")
    e = params.energy
    e_minus, e_plus = e - params.m, e + params.m
    phi = np.exp(1j * params.theta) * np.exp(-2j * e * t)
    ep = _eps_dot(params.p0)
    epd = dagger(ep)
    sx = PAULI[1]
    w = _block4(ep * phi / e_minus, -ep * phi / e_plus, sx, sx)
    w_inv = _block4(epd * np.conj(phi), e_minus * sx, -epd * np.conj(phi), e_plus * sx) / (2 * e)
    d0 = e * np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    return EigenFrame(w=w, w_inv=w_inv, d0=d0)


def su4_propagator(params: DiracParameters, t: float, s: float,
                   phase_sign: Optional[int] = None) -> np.ndarray:
    """Diagonal conjugator diag(e^{i sign E (t-s)} 1, e^{-i sign E (t-s)} 1).

    The sign defaults to the audited value (-1), the unique choice under
    which U(t, s) H(s) U(t, s)^dag = H(t). It equals W(t) W(s)^-1 up to the
    global phase e^{-iE(t-s)}.
    """
    if phase_sign is None:
        phase_sign = AUDITED_CONVENTIONS.su4_phase_sign
    if phase_sign not in (-1, 1):
        raise ValueError("phase_sign must be +1 or -1")
    ph = np.exp(1j * phase_sign * params.energy * (t - s))
    return np.diag([ph, ph, np.conj(ph), np.conj(ph)])


def su4_constraint_t(f0_coeffs, params: DiracParameters, t: float) -> np.ndarray:
    """Constraint operator conjugated along the family, U(t,0) F(0) U(t,0)^dag.

    ``f0_coeffs`` are coefficients over the full su4 basis (label order of
    ``build_basis('su4')``). The result keeps the diagonal blocks
    sigma.n+- static while the off-diagonal blocks pick up e^{-+2iEt}.
    """
    basis = build_basis("su4")
    f0 = reconstruct(np.asarray(f0_coeffs, dtype=float), basis)
    u = su4_propagator(params, t, 0.0)
    return u @ f0 @ dagger(u)


@dataclass(frozen=True)
class UnitaryFamily:
    """One closed-form family: H(t), its conjugator U(t, s), and the frame.

    ``frame`` is the pair (C, H0) with H(t) = e^{-iCt} H0 e^{+iCt}; it is
    what the Schrodinger propagator is built from. ``gate`` is the
    eigenstate-representation map Q(t) where the family has one (su3).
    ``hamiltonian`` broadcasts over time: a scalar t gives (dim, dim), a
    1-D array of n times gives the (n, dim, dim) stack.
    """

    group_id: str
    dim: int
    hamiltonian: Callable[[float | np.ndarray], np.ndarray]
    propagator: Callable[[float, float], np.ndarray]
    frame: tuple[np.ndarray, np.ndarray]
    gate: Optional[Callable[[float], np.ndarray]] = None


def su2_family() -> UnitaryFamily:
    """H(t) = [[0, e^{-it}], [e^{+it}, 0]], U(t, s) = diag(1, e^{i(t-s)})."""

    def hamiltonian(t) -> np.ndarray:
        z = np.exp(-1j * t)
        return _sparse_matrix(2, {(0, 1): z, (1, 0): np.exp(1j * t)}, z.shape)

    def propagator(t: float, s: float) -> np.ndarray:
        return np.diag([1.0 + 0j, np.exp(1j * (t - s))])

    return UnitaryFamily(
        group_id="su2",
        dim=2,
        hamiltonian=hamiltonian,
        propagator=propagator,
        frame=(PAULI[3] / 2.0, PAULI[1].copy()),
    )


def su3_gate(t: float, theta: float = DEFAULT_THETA) -> np.ndarray:
    """Qutrit gate Q(t) mapping into the eigenstate representation.

    Q(0) = [[r, -r, 0], [r, r, 0], [0, 0, 1]] with r = 1/sqrt(2).
    """
    c, s = np.cos(t), np.sin(t)
    r = 1.0 / np.sqrt(2.0)
    return np.array([
        [r * c, -r * c, 1j * np.exp(-1j * theta) * s],
        [r, r, 0],
        [1j * r * np.exp(1j * theta) * s, -1j * r * np.exp(1j * theta) * s, c],
    ])


def su3_family(theta: float = DEFAULT_THETA) -> UnitaryFamily:
    """The qutrit family at phase theta.

    U(t, s) = Q(t) Q(s)^dag in closed form; the sign of the upper-right
    entry is the audited one (+i e^{-i theta} sin(t-s)), forced jointly by
    unitarity, the isometry and the Q factorization.
    """
    sgn = AUDITED_CONVENTIONS.su3_upper_sign

    def hamiltonian(t) -> np.ndarray:
        c, s = np.cos(t), np.sin(t)
        return _sparse_matrix(3, {
            (0, 1): c, (1, 0): c,
            (1, 2): -1j * np.exp(-1j * theta) * s,
            (2, 1): 1j * np.exp(1j * theta) * s,
        }, c.shape)

    def propagator(t: float, s: float) -> np.ndarray:
        c, sn = np.cos(t - s), np.sin(t - s)
        return np.array([
            [c, 0, sgn * 1j * np.exp(-1j * theta) * sn],
            [0, 1, 0],
            [1j * np.exp(1j * theta) * sn, 0, c],
        ])

    # H(t) = e^{-iCt} H(0) e^{+iCt} with C = -(the 1-3 plane coupler)
    c_frame = -np.array([
        [0, 0, np.exp(-1j * theta)],
        [0, 0, 0],
        [np.exp(1j * theta), 0, 0],
    ])

    return UnitaryFamily(
        group_id="su3",
        dim=3,
        hamiltonian=hamiltonian,
        propagator=propagator,
        frame=(c_frame, hamiltonian(0.0)),
        gate=lambda t: su3_gate(t, theta),
    )


def su4_family(params: DiracParameters) -> UnitaryFamily:
    """The Dirac family for fixed (m, p0, theta)."""
    e = params.energy
    d0 = e * np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    return UnitaryFamily(
        group_id="su4",
        dim=4,
        hamiltonian=lambda t: dirac_hamiltonian(params, t),
        propagator=lambda t, s: su4_propagator(params, t, s),
        frame=(d0, dirac_hamiltonian(params, 0.0)),
    )
