"""Numerical self-audit: every structural identity the library relies on.

Each check probes one identity with seeded random parameters (100 probes,
uniform in [-2, 2]). A check only measures: it is handed its seeded
generator, never the tolerance, and returns (err, token, detail), where
err is the np.max of its residuals (so a NaN probe makes err NaN) and
token is the assignment its residuals select, or None for a check with
nothing to resolve. run_check alone turns that into a CheckResult:

* PASS     - err <= tol; a NaN err never is.
* FAIL     - anything else.
* RESOLVED - err <= tol under one of two candidate sign/role assignments,
  and the measured token agrees with the value stored in
  closedforms.AUDITED_CONVENTIONS. No token is copied from that record.

Reports are deterministic for a fixed seed, byte for byte. A check draws
each random quantity as one array, in code order: the n sets (m, p0) by
_draw_sets, whose rejection loop redraws the short rows of p0 in place,
then the times. Its closed-form builders (H(t), U(t, s), Q(t), frames) and
rate systems are called once per stack of 100 probes, and conjugations and
residuals are stacks too. The draw order fixes the printed digits; a change
to it may move digits but must leave every verdict and token as it was.

Check catalog (fixed order):

    dirac_algebra            Clifford relations of (alpha, beta), exact
    kg_identity              H(t)^2 = (m^2 + |p|^2) * 1
    sphere_constraint        Tr(H^2 / 2) = m^2 + |p|^2
    eigenframe_inverse       W W^-1 = W^-1 W = 1 and W D0 W^-1 = H(t)
    isometry_su2             U(t,s) H(s) U(t,s)^dag = H(t)
    isometry_su3             same, resolving the sign of U's upper corner
    isometry_su4             same, resolving the diagonal phase sign
    frame_commutator         i dH/dt = sign * [H, D0], resolving the sign
    propagator_question      which unitary solves i dU/dt = H(t) U, by
                             central differences, refereed by 256
                             order-4 Magnus steps of the oracle
    ode_transcriptions       generic projection of -i[H, F] vs the
                             two hand-specialized Dirac-split rate
                             systems, all three kept in this module as
                             _matrix_rates, _component_rates and
                             _vector_rates
    epsilon_identity         (eps.p)(eps^dag.p) = |p|^2 * 1, both orders
    q_factorization          U(t,s) = Q(t) Q(s)^dag
    constraint_orthogonality Tr(H F) = 0 kept by closed-form transport;
                             spectrum of H + F conserved along
                             integrated flows, one per group, run as
                             one flow on the direct sum su2+su3+su4
                             by brachistochrone._taylor (order 14,
                             ten steps of 0.1), generated from the
                             same term table as integrate's RK4
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import brachistochrone as bt
from . import closedforms as cf
from . import oracle
from .generators import _project, build_basis, dirac_operators, verify_algebra
from .matrixcore import dagger, row_dot

__all__ = ["CheckResult", "catalog_ids", "format_report", "full_report", "run_check"]

_FD_STEP = 1e-6  # central finite-difference step for d/dt probes


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one audit check."""

    check_id: str
    status: str                 # PASS | FAIL | RESOLVED
    max_error: float
    detail: str
    token: Optional[str] = None  # convention token, RESOLVED only

    def line(self) -> str:
        tag = self.status if self.status != "RESOLVED" else f"RESOLVED:{self.token}"
        return f"CHECK {self.check_id} {tag} max_err={self.max_error:.3e} {self.detail}"


def _draw_sets(rng: np.random.Generator, n: int = 100, min_p: float = 0.0) -> cf.DiracParameters:
    """n sets (m, p0) as one DiracParameters; rows of p0 with |p0| <= min_p are redrawn."""
    m, p0 = rng.uniform(-2, 2, n), rng.uniform(-2, 2, (n, 3))
    while np.any(short := np.linalg.norm(p0, axis=1) <= min_p):
        p0[short] = rng.uniform(-2, 2, (np.count_nonzero(short), 3))
    return cf.DiracParameters(m=m, p0=p0)


def _resolve(candidates: dict, detail: str) -> tuple[float, str, str]:
    """Pick the candidate assignment with the smallest residual.

    Each candidate's residuals reduce with np.max, so one NaN probe makes
    that candidate NaN, and a NaN candidate ranks above every non-NaN one.
    Returns (err, winning token, detail naming the chosen and rejected).
    """
    errs = {k: float(np.max(v)) for k, v in candidates.items()}
    best = min(errs, key=lambda k: (math.isnan(errs[k]), errs[k]))
    rejected = "; ".join(f"{k}: {v:.3e}" for k, v in errs.items() if k != best)
    return errs[best], best, f"{detail} [chosen {best}: {errs[best]:.3e}; rejected {rejected}]"


# --------------------------------------------------------------------------
# Individual checks. Each takes rng and returns (err, token, detail).
# --------------------------------------------------------------------------

def _check_dirac_algebra(rng):
    report = verify_algebra(dirac_operators())
    worst = max(report, key=report.get)
    return np.max(list(report.values())), None, f"16 Clifford relations; worst {worst}"


def _check_kg_identity(rng):
    params, times = _draw_sets(rng), rng.uniform(-2, 2, 100)
    h = cf.dirac_hamiltonian(params, times)
    gaps = h @ h - (params.energy ** 2)[:, None, None] * np.eye(4)
    return np.max(np.abs(gaps)), None, "H(t)^2 = (m^2+|p|^2)*1 over 100 random (m, p, t)"


def _check_sphere_constraint(rng):
    params, times = _draw_sets(rng), rng.uniform(-2, 2, 100)
    h = cf.dirac_hamiltonian(params, times)
    tr, e2 = np.trace(h @ h, axis1=1, axis2=2).real, params.energy ** 2
    return _resolve(
        {"sphere_divisor=dim": np.abs(tr / 4.0 - e2), "sphere_divisor=2": np.abs(tr / 2.0 - e2)},
        "energy-sphere radius Tr(H^2)/divisor = m^2 + |p|^2 over 100 probes; "
        "the fixed divisor 2 only suits 2x2 generators",
    )


def _check_eigenframe_inverse(rng):
    params, times = _draw_sets(rng, min_p=0.1), rng.uniform(-2, 2, 100)
    frame, eye = cf.su4_eigenframe(params, times), np.eye(4)
    gaps = [frame.w @ frame.w_inv - eye, frame.w_inv @ frame.w - eye,
            frame.hamiltonian() - cf.dirac_hamiltonian(params, times)]
    return (np.max(np.abs(gaps)), None,
            "W W^-1 = W^-1 W = 1 and W D0 W^-1 = H(t), 100 probes with |p| > 0.1")


def _conjugation_gaps(u: np.ndarray, h_s: np.ndarray, h_t: np.ndarray) -> np.ndarray:
    """|U H(s) U^dag - H(t)| over a stack: how far each U falls short of carrying H(s) to H(t)."""
    return np.abs(u @ h_s @ dagger(u) - h_t)


def _check_isometry_su2(rng):
    fam = cf.su2_family()
    t, s = rng.uniform(-2, 2, (100, 2)).T
    gaps = _conjugation_gaps(fam.propagator(t, s), fam.hamiltonian(s), fam.hamiltonian(t))
    return np.max(gaps), None, "U(t,s) H(s) U(t,s)^dag = H(t), 100 random (t, s)"


def _check_isometry_su3(rng):
    (t, s), theta = rng.uniform(-2, 2, (100, 2)).T, rng.uniform(-2, 2, 100)
    h_s, h_t = cf.su3_hamiltonian(s, theta), cf.su3_hamiltonian(t, theta)
    built = cf.su3_propagator(t, s, theta)
    flipped = built.copy()
    flipped[:, 0, 2] = -flipped[:, 0, 2]  # su3_propagator builds +i; this is the competing corner sign
    unit_minus = np.abs(flipped @ dagger(flipped) - np.eye(3))
    return _resolve(
        {"su3_u13_sign=+i": _conjugation_gaps(built, h_s, h_t),
         "su3_u13_sign=-i": _conjugation_gaps(flipped, h_s, h_t)},
        "isometry over 100 random (t, s, theta); corner sign -i also breaks unitarity "
        f"({np.max(unit_minus):.3e})",
    )


def _check_isometry_su4(rng):
    params, (t, s) = _draw_sets(rng, min_p=0.1), rng.uniform(-2, 2, (2, 100))
    h_s, h_t = cf.dirac_hamiltonian(params, s), cf.dirac_hamiltonian(params, t)
    # su4_propagator builds the sign -1; its conjugate carries the competing +1
    built = cf.su4_propagator(params, t, s)
    return _resolve({"phase_sign=-1": _conjugation_gaps(built, h_s, h_t),
                     "phase_sign=+1": _conjugation_gaps(built.conj(), h_s, h_t)},
                    "diagonal-phase sign resolved by the isometry, 100 probes")


def _check_frame_commutator(rng):
    params, times = _draw_sets(rng), rng.uniform(-2, 2, 100)
    hdot = (cf.dirac_hamiltonian(params, times + _FD_STEP)
            - cf.dirac_hamiltonian(params, times - _FD_STEP)) / (2 * _FD_STEP)
    lhs = 1j * hdot
    h = cf.dirac_hamiltonian(params, times)
    d0 = params.energy[:, None, None] * np.diag([1.0, 1.0, -1.0, -1.0])
    comm = h @ d0 - d0 @ h
    return _resolve({"didt_sign=-1": np.abs(lhs + comm), "didt_sign=+1": np.abs(lhs - comm)},
                    "i dH/dt vs [H, D0] by central differences, 100 probes")


#: Catalog tolerance of propagator_question; a conjugator whose ODE residual
#: exceeds it is reported as "not a propagator".
_PROPAGATOR_TOL = 1e-4

#: Order-4 oracle steps of the referee product: one pass per family.
_REFEREE_STEPS = 256


def _check_propagator_question(rng):
    theta = rng.uniform(-2, 2)
    su4_set = _draw_sets(rng, n=1, min_p=0.1)
    families = {
        "su2": cf.su2_family(),
        "su3": cf.su3_family(theta),
        "su4": cf.su4_family(cf.DiracParameters(su4_set.m[0], su4_set.p0[0])),
    }
    parts, closed, rotating = [], [], []
    for name, fam in families.items():
        t, s = rng.uniform(0.2, 2), rng.uniform(-2, 0.1)

        def ode_residual(prop):
            """max|i dU/dt - H(t) U| at (t, s), and U(t, s) itself; one ``prop`` call at the three times."""
            u, up, um = prop(np.array([t, t + _FD_STEP, t - _FD_STEP]), s)
            du = (up - um) / (2 * _FD_STEP)
            return float(np.max(np.abs(1j * du - fam.hamiltonian(t) @ u))), u

        r_closed, _ = ode_residual(fam.propagator)
        r_rot, u_rot = ode_residual(lambda a, b: oracle.schrodinger_propagator(fam, a, b))
        # referee: order-4 step product against the rotating-frame form
        u_ref = oracle.time_ordered_exponential(fam.hamiltonian, s, t, _REFEREE_STEPS, order=4)
        r_oracle = float(np.max(np.abs(u_ref - u_rot)))
        closed.append(r_closed)
        rotating += [r_rot, r_oracle]
        verdict = "not a propagator" if r_closed > _PROPAGATOR_TOL else "also a propagator"
        parts.append(f"{name}: conjugator residual {r_closed:.3e} ({verdict}), "
                     f"rotating-frame residual {r_rot:.3e}, referee gap {r_oracle:.3e}")
    err, token, _ = _resolve(
        {"schrodinger=closed_form": closed, "schrodinger=rotating_frame": rotating}, "")
    return err, token, "; ".join(parts)


def _matrix_rates(split: bt.ControlSplit, x: np.ndarray) -> np.ndarray:
    """The matrix route: the rates of a row of ``split``'s coefficients, h then f, in the same slots.

    Reconstructs H and F and projects K = -i[H, F] back, its S part dH/dt
    and its S^c part dF/dt: the field without ``split.coupling``, the
    coefficient flow's referee. An (n, |S| + |S^c|) stack gives the stack
    of rates, each row bitwise the lone row's. There is no finiteness
    gate: a NaN probe gives NaN rates, so its check FAILs.
    """
    ns = len(split.s_indices)
    h, f = split.hamiltonian_matrix(x[..., :ns]), split.constraint_matrix(x[..., ns:])
    # Tr K = 0 by construction, so K skips project_coefficients' trace test: its
    # threshold scales with |K|, K's rounding with |H| |F|, far larger if they nearly commute.
    k = _project(-1j * (h @ f - f @ h), split.basis)
    return np.concatenate([k[..., split.s_indices], k[..., split.c_indices]], axis=-1)


# --------------------------------------------------------------------------
# Hand-derived Dirac-split rate equations (su4), kept exactly as stated. Each
# maps a row of the 15 coefficients of canonical_split("su4"), h then f, to
# its rate in the same slots: m on s30, p on s1j, omega0 on s0j, omega10 on
# s10, omega20 on s20, omega2 on s2j and omega3 on s3j (j = 1, 2, 3). A
# (..., 15) stack of rows gives the stack of their rates, bitwise.
# --------------------------------------------------------------------------

def _component_rates(x: np.ndarray) -> np.ndarray:
    """Component form of the Dirac-split rates.

    d(omega0)/dt = d(omega2)/dt = 0;
    d(omega10, omega3)/dt = 2 diag(-1, 1, 1, 1) (m, p);
    d(m, p)/dt = 2 * Theta(omega) (m, p) with Theta antisymmetric;
    d(omega20)/dt = 2 (m omega10 - p . omega3).

    The antisymmetry of Theta makes m^2 + |p|^2 an exact invariant. Note
    the (omega10, omega3) block carries no omega20 factor, unlike the
    generic projection; the audit measures that gap.
    """
    m, p, o, omega10, _, omega2, omega3 = np.split(x, [1, 4, 7, 8, 9, 12], axis=-1)
    (o1, o2, o3), (w1, w2, w3) = np.moveaxis(o, -1, 0), np.moveaxis(omega2, -1, 0)
    zero = np.zeros_like(o1)
    theta = 2.0 * np.stack([
        zero, w1,   w2,   w3,
        -w1,  zero, o3,   -o2,
        -w2,  -o3,  zero, o1,
        -w3,  o2,   -o1,  zero,
    ], axis=-1).reshape(x.shape[:-1] + (4, 4))
    mp_dot = (theta @ x[..., :4, None])[..., 0]
    omega20_dot = 2.0 * (m * omega10 - row_dot(p, omega3)[..., None])
    zeros = np.zeros_like(p)
    return np.concatenate([mp_dot, zeros, -2.0 * m, omega20_dot, zeros, 2.0 * p], axis=-1)


def _vector_rates(x: np.ndarray) -> np.ndarray:
    """Vector-matrix form of the same system, with n+- = omega0 +- omega3 and b = omega2.

    dp/dt = -m (n+ + n-) - (n+ + n-) x p;
    d(xi_c)/dt = m xi_r + p . (n+ - n-)  with a = xi_r + i xi_c;
    d(n+)/dt + d(n-)/dt = 4 p, together with d(n+)/dt = d(n-)/dt,
    d(xi_r)/dt = -m, dm/dt = b . p, db/dt = 0.

    Combining the n relations as stated gives d(omega0)/dt = 2p and
    d(omega3)/dt = 0, which disagrees with ``_component_rates``; so do the
    missing factors of two on dm/dt and d(xi_r)/dt. Those gaps are audit
    findings, not bugs here.
    """
    m, p, o, omega10, _, b, omega3 = np.split(x, [1, 4, 7, 8, 9, 12], axis=-1)
    n_plus, n_minus = o + omega3, o - omega3
    n = n_plus + n_minus
    p_dot = -m * n - np.cross(n, p)
    omega20_dot = m * omega10 + row_dot(p, n_plus - n_minus)[..., None]
    zeros = np.zeros_like(p)
    # omega0' = (n+ + n-)'/2 and omega3' = (n+ - n-)'/2, with n+' = n-'
    return np.concatenate([row_dot(b, p)[..., None], p_dot, 2.0 * p, -m, omega20_dot, zeros, zeros],
                          axis=-1)


# Row slots of the rates. Group A is where the component form is a faithful projection.
_GROUP_A = [0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 8]  # m, p, omega0, omega2, omega20
_GROUP_B = [7, 12, 13, 14]                      # omega10, omega3


def _check_ode_transcriptions(rng):
    x = rng.uniform(-2, 2, (100, 15))
    # generic, component, vector: (100, 15) each
    g, d, v = _matrix_rates(bt.canonical_split("su4"), x), _component_rates(x), _vector_rates(x)
    ga, da, gb, db = g[:, _GROUP_A], d[:, _GROUP_A], g[:, _GROUP_B], d[:, _GROUP_B]
    factor = np.sum(ga * da) / np.sum(da * da)
    res_a = np.max(np.abs(ga - factor * da))
    res_b_raw = np.max(np.abs(gb - factor * db))
    res_b_scaled = np.max(np.abs(gb - factor * db * x[:, 8, None]))
    gap = np.abs(g - v)
    res_vec_m, res_vec_p, res_vec_o0 = (np.max(gap[:, k]) for k in (0, slice(1, 4), slice(4, 7)))
    token = f"ode_factor={factor:+g}"  # 6 significant digits
    detail = (
        f"fitted factor {factor:+.12g}; mass/momentum/omega20 rates match generic to {res_a:.3e}; "
        f"(omega10, omega3) rates match only after an extra omega20 factor ({res_b_scaled:.3e} scaled "
        f"vs {res_b_raw:.3e} raw, a norm-conservation defect of the component form); "
        f"vector-matrix form gaps: dm/dt {res_vec_m:.3e} (b.p lacks the factor 2), "
        f"dp/dt {res_vec_p:.3e} (mass term couples n+ + n- instead of 2b; curl term agrees), "
        f"domega0/dt {res_vec_o0:.3e} (4p split across the wrong n combination)"
    )
    return np.max([res_a, res_b_scaled]), token, detail


def _check_epsilon_identity(rng):
    p = rng.uniform(-2, 2, (100, 3))
    target = np.sum(p * p, axis=1)[:, None, None] * np.eye(2)
    gaps = [side - target for side in cf.epsilon_product(p)]
    return (np.max(np.abs(gaps)), None,
            "(eps.p)(eps^dag.p) = (eps^dag.p)(eps.p) = |p|^2 * 1, 100 probes")


def _check_q_factorization(rng):
    theta, t, s = rng.uniform(-2, 2, (100, 3)).T
    gaps = cf.su3_gate(t, theta) @ dagger(cf.su3_gate(s, theta)) - cf.su3_propagator(t, s, theta)
    return np.max(np.abs(gaps)), None, "U(t,s) = Q(t) Q(s)^dag over 100 random (t, s, theta)"


def _check_constraint_orthogonality(rng):
    # closed-form: simultaneous conjugation preserves Tr(H F); and a
    # constraint built orthogonal to H(0) stays orthogonal to H(t).
    basis = build_basis("su4")
    # 20 sets, the 15 coefficients of each one's F(0), then 5 times per set
    params, f0 = _draw_sets(rng, n=20, min_p=0.1), rng.uniform(-2, 2, (20, 15))
    times = rng.uniform(-2, 2, 100)
    # coefficients of each H(0) by project_coefficients' core, which, unlike
    # project_coefficients, lets a NaN H(0) FAIL this check instead of raising
    h0 = _project(cf.dirac_hamiltonian(params, 0.0), basis)
    # remove the H(0) component so Tr(H(0) F(0)) = 0; Tr(A B) = sum_k a_k b_k Tr(g_k^2)
    norms = basis.norm_constants
    f0 -= ((f0 * h0) @ norms / ((h0 * h0) @ norms))[:, None] * h0
    per_time = np.repeat(np.arange(20), 5)  # each set at its 5 times
    at_times = cf.DiracParameters(m=params.m[per_time], p0=params.p0[per_time])
    h_t = cf.dirac_hamiltonian(at_times, times)
    f_t = cf.su4_constraint_t(f0[per_time], at_times, times)
    overlaps = np.abs(np.trace(h_t @ f_t, axis1=1, axis2=2).real)
    # integrated flows: X = H + F obeys dX/dt = -i[H, X], so the spectrum of
    # X is conserved; its drift along one short random run per group, the
    # three advanced as one flow on their direct sum. Each diagonal block of
    # the sum's X keeps its spectrum, so the sorted spectrum of the whole X
    # drifts no more than the worst block (sorting is 1-Lipschitz)
    # One start per group is drawn, group by group, its H and then its F;
    # the sum's state holds all the S blocks, then all the S^c blocks.
    starts = [(rng.uniform(-1, 1, len(sp.s_indices)), rng.uniform(-1, 1, len(sp.c_indices)))
              for sp in map(bt.canonical_split, ("su2", "su3", "su4"))]
    x0 = np.concatenate([h for h, _ in starts] + [f for _, f in starts])
    split = bt.canonical_split("su2+su3+su4")
    ns = len(split.s_indices)
    _, samples = bt._taylor(split, x0, 0.1, 10, order=14)
    spectra = np.linalg.eigvalsh(split.hamiltonian_matrix(samples[:, :ns])
                                 + split.constraint_matrix(samples[:, ns:]))
    err_closed, err_flow = np.max(overlaps), np.max(np.abs(spectra - spectra[0]))
    return (np.max([err_closed, err_flow]), None,
            f"Tr(H F) = 0 transported by conjugation ({err_closed:.3e}); "
            f"spectrum of H + F conserved along integrated flows ({err_flow:.3e})")


_CATALOG: tuple[tuple[str, Callable, float], ...] = (
    ("dirac_algebra", _check_dirac_algebra, 0.0),
    ("kg_identity", _check_kg_identity, 1e-12),
    ("sphere_constraint", _check_sphere_constraint, 1e-12),
    ("eigenframe_inverse", _check_eigenframe_inverse, 1e-12),
    ("isometry_su2", _check_isometry_su2, 1e-13),
    ("isometry_su3", _check_isometry_su3, 1e-13),
    ("isometry_su4", _check_isometry_su4, 1e-12),
    ("frame_commutator", _check_frame_commutator, 1e-6),
    ("propagator_question", _check_propagator_question, _PROPAGATOR_TOL),
    ("ode_transcriptions", _check_ode_transcriptions, 1e-11),
    ("epsilon_identity", _check_epsilon_identity, 1e-13),
    ("q_factorization", _check_q_factorization, 1e-13),
    ("constraint_orthogonality", _check_constraint_orthogonality, 1e-11),
)


def catalog_ids() -> tuple[str, ...]:
    """All check ids in report order."""
    return tuple(cid for cid, _, _ in _CATALOG)


def _expected_tokens() -> dict[str, str]:
    """The token each resolving check must measure, read from the convention record."""
    c = cf.AUDITED_CONVENTIONS
    return {
        "sphere_constraint": f"sphere_divisor={'dim' if c.sphere_divisor_is_dim else 2}",
        "isometry_su3": f"su3_u13_sign={'+i' if c.su3_upper_sign == 1 else '-i'}",
        "isometry_su4": f"phase_sign={c.su4_phase_sign:+g}",
        "frame_commutator": f"didt_sign={c.didt_commutator_sign:+g}",
        "propagator_question": f"schrodinger={c.schrodinger_propagator}",
        "ode_transcriptions": f"ode_factor={c.dirac_ode_factor:+g}",
    }


def _verdict(check_id: str, err: float, tol: float, detail: str, token: Optional[str],
             expected: Optional[str]) -> CheckResult:
    """The one place a measurement becomes a status.

    PASS (no token) or RESOLVED needs ``err <= tol``, which NaN fails, and
    the measured token equal to the expected one; anything else is FAIL.
    """
    err = float(err)
    if not err <= tol:
        return CheckResult(check_id, "FAIL", err,
                           detail if token is None else f"no assignment passes; {detail}")
    if token != expected:
        return CheckResult(check_id, "FAIL", err,
                           f"resolution {token} contradicts stored convention {expected}; {detail}")
    return CheckResult(check_id, "PASS" if token is None else "RESOLVED", err, detail, token)


def run_check(check_id: str, tol: Optional[float] = None, seed: int = 0) -> CheckResult:
    """Run one catalog check.

    ``tol`` overrides the check's default tolerance; the randomized probes
    are drawn from a generator keyed on (seed, catalog position), so a
    single check reproduces exactly what full_report produces for it.
    """
    for idx, (cid, fn, default_tol) in enumerate(_CATALOG):
        if cid == check_id:
            tol = default_tol if tol is None else tol
            err, token, detail = fn(np.random.default_rng([seed, idx]))
            return _verdict(cid, err, tol, detail, token, _expected_tokens().get(cid))
    raise KeyError(f"unknown check id {check_id!r}")


def full_report(tol: Optional[float] = None, seed: int = 0) -> list[CheckResult]:
    """Run the entire catalog in order; failures are results, not errors."""
    return [run_check(cid, tol=tol, seed=seed) for cid, _, _ in _CATALOG]


def format_report(results: list[CheckResult]) -> str:
    """One line per check, newline-terminated."""
    return "".join(r.line() + "\n" for r in results)
