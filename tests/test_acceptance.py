"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is stated inline; nothing is deferred to runtime
calibration.
"""
import numpy as np
import pytest

from dirac_rows import dirac_row, named
from helpers import displayed_dirac_matrix, random_params
from spinctl.audit import _component_rates, _vector_rates, full_report, format_report
from spinctl.brachistochrone import ControlSplit, OperatorPair, canonical_split, integrate
from spinctl.cli import dispatch
from spinctl.closedforms import (
    DiracParameters,
    dirac_hamiltonian,
    epsilon_product,
    su2_family,
    su3_family,
    su3_gate,
    su4_eigenframe,
    su4_family,
)
from spinctl.generators import (
    assemble_dirac,
    build_basis,
    dirac_operators,
    project_coefficients,
    verify_algebra,
)
from spinctl.matrixcore import dagger
from spinctl.oracle import (
    energy_variance,
    evolve_state,
    fs_speed_check,
    schrodinger_propagator,
    time_ordered_exponential,
)

RNG = np.random.default_rng(2024)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_algebra_suite():
    algebra = verify_algebra(dirac_operators())
    exact = max(algebra.values()) == 0.0 and len(algebra) == 16
    ops = dirac_operators()
    worst = 0.0
    for _ in range(1000):
        m, p = RNG.uniform(-2, 2), RNG.uniform(-2, 2, 3)
        worst = max(worst, float(np.max(np.abs(
            assemble_dirac(ops, m, p) - displayed_dirac_matrix(m, p)))))
    report(1, "dirac-algebra", exact and worst == 0.0,
           f"16 relations exact, block-matrix reconstruction max dev {worst:.1e} over 1000 draws")


def test_criterion_02_klein_gordon_identity():
    worst = 0.0
    for _ in range(1000):
        params = random_params(RNG, min_p=0.0)
        t = RNG.uniform(-2, 2)
        h = dirac_hamiltonian(params, t)
        worst = max(worst, float(np.max(np.abs(h @ h - params.energy ** 2 * np.eye(4)))))
    report(2, "involutory-identity", worst < 1e-12, f"max |H^2 - E^2 I| = {worst:.2e} <= 1e-12")


def test_criterion_03_eigenframe():
    worst_inv, worst_real = 0.0, 0.0
    eye = np.eye(4)
    for _ in range(100):
        params = random_params(RNG, min_p=0.1)
        t = RNG.uniform(-2, 2)
        fr = su4_eigenframe(params, t)
        worst_inv = max(worst_inv,
                        float(np.max(np.abs(fr.w @ fr.w_inv - eye))),
                        float(np.max(np.abs(fr.w_inv @ fr.w - eye))))
        worst_real = max(worst_real, float(np.max(np.abs(
            fr.hamiltonian() - dirac_hamiltonian(params, t)))))
    report(3, "eigenframe", worst_inv < 1e-10 and worst_real < 1e-10,
           f"inverse pair {worst_inv:.2e}, W D0 W^-1 vs H {worst_real:.2e}, both <= 1e-10")


def _families_for_laws(rng):
    yield "su2", lambda: su2_family()
    yield "su3", lambda: su3_family(rng.uniform(-2, 2))
    yield "su4", lambda: su4_family(random_params(rng, min_p=0.1))


def test_criterion_04_propagator_laws():
    worst = {"unitary": 0.0, "identity": 0.0, "composition": 0.0, "reversal": 0.0}
    for name, make in _families_for_laws(RNG):
        for _ in range(100):
            fam = make()
            t, s, r = RNG.uniform(-2, 2, 3)
            u_ts, u_sr, u_tr = fam.propagator(t, s), fam.propagator(s, r), fam.propagator(t, r)
            eye = np.eye(fam.dim)
            worst["unitary"] = max(worst["unitary"],
                                   float(np.max(np.abs(u_ts @ dagger(u_ts) - eye))))
            worst["identity"] = max(worst["identity"],
                                    float(np.max(np.abs(fam.propagator(t, t) - eye))))
            worst["composition"] = max(worst["composition"],
                                       float(np.max(np.abs(u_ts @ u_sr - u_tr))))
            # time-reversal conjugation: families with complex structure
            # constants (su3 at sin(theta) != 0) satisfy it in the theta ->
            # -theta partner family, so the literal law is checked on its
            # conjugation-closed member theta = 0
            rev_fam = su3_family(0.0) if name == "su3" else fam
            worst["reversal"] = max(worst["reversal"], float(np.max(np.abs(
                np.conj(rev_fam.propagator(-t, -s)) - rev_fam.propagator(t, s)))))
    ok = all(v < 1e-12 for v in worst.values())
    report(4, "propagator-laws", ok,
           ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + ", all <= 1e-12")


def test_criterion_05_isometry():
    worst = 0.0
    for name, make in _families_for_laws(RNG):
        for _ in range(100):
            fam = make()
            t, s = RNG.uniform(-2, 2, 2)
            u = fam.propagator(t, s)
            worst = max(worst, float(np.max(np.abs(
                u @ fam.hamiltonian(s) @ dagger(u) - fam.hamiltonian(t)))))
    phase_tokens = [r.token for r in full_report(seed=0)
                    if r.token and "phase_sign" in r.token]
    ok = worst < 1e-10 and len(phase_tokens) == 1
    report(5, "isometric-transport", ok,
           f"max conjugation residual {worst:.2e} <= 1e-10; "
           f"su4 phase resolutions in audit: {phase_tokens}")


def test_criterion_06_epsilon_identity():
    worst = 0.0
    for _ in range(1000):
        p = RNG.uniform(-2, 2, 3)
        left, right = epsilon_product(p)
        target = float(p @ p) * np.eye(2)
        worst = max(worst, float(np.max(np.abs(left - target))),
                    float(np.max(np.abs(right - target))))
    report(6, "epsilon-identity", worst < 1e-14,
           f"both orderings within {worst:.2e} <= 1e-14 over 1000 draws")


def test_criterion_07_integrator_conservation():
    worst_drift = 0.0
    for group in ("su2", "su3", "su4"):
        split = canonical_split(group)
        ns = len(split.s_indices)
        # 20 starts in one draw; row by row, the same draws as one start at a time
        for x0 in RNG.uniform(-2, 2, (20, ns + len(split.c_indices))):
            traj = integrate(OperatorPair(x0[:ns], x0[ns:]), split, h=1e-3, T=10.0, sample_stride=250)
            worst_drift = max(worst_drift, float(np.max(traj.monitor_drift())))

    split = canonical_split("su2")
    start = OperatorPair(np.array([1.0, 0.0]), np.array([-0.5]))

    def terminal_error(h):
        traj = integrate(start, split, h=h, T=2 * np.pi, sample_stride=10 ** 9)
        t_end = traj.times[-1]
        return np.max(np.abs(traj.h_coeffs[-1] - [np.cos(t_end), np.sin(t_end)]))

    ratio = terminal_error(0.05) / terminal_error(0.025)
    ok = worst_drift < 1e-8 and 12 <= ratio <= 20
    report(7, "integrator-conservation", ok,
           f"max monitor drift {worst_drift:.2e} <= 1e-8 over 60 runs at T=10, h=1e-3; "
           f"step-halving ratio {ratio:.1f} in [12, 20]")


def test_criterion_08_brachistochrone_vs_closed_form():
    # Each family is H(t) = e^{-iCt} H0 e^{+iCt}, (C, H0) = fam.frame. With F = -C
    # held constant, X = H + F = e^{-iCt} (H0 - C) e^{+iCt} obeys dX/dt = -i[H, F],
    # the flow, when H(t) stays in S and C lies in S^c. The canonical su3 split
    # holds only at theta = 0, so su3 takes (l1, l7, l2, l6); su4's C = E beta has
    # beta in the canonical S, so su4 flows its massless part: m beta commutes
    # with C and stays put, and the run reproduces H(t) - m beta.
    def split(group, s_labels):
        basis = build_basis(group)
        return ControlSplit(basis, s_labels, tuple(l for l in basis.labels if l not in s_labels))

    def gap(fam, sp, shift, h):
        # max |H_flow - (H(t) - shift)| and |F_flow + C| over [0, 2], every 0.1
        c, h0 = fam.frame
        start = OperatorPair(project_coefficients(h0 - shift, sp.basis)[sp.s_indices],
                             project_coefficients(-c, sp.basis)[sp.c_indices])
        traj = integrate(start, sp, h=h, T=2.0, sample_stride=round(0.1 / h))
        return max(np.max(np.abs(sp.hamiltonian_matrix(traj.h_coeffs) - fam.hamiltonian(traj.times) + shift)),
                   np.max(np.abs(sp.constraint_matrix(traj.f_coeffs) + c)))

    # RK4 error model: gap(h) ~ K h^4, so halving h = 0.02 divides the gap by 16
    # (16.00 su2, 16.06 su3, 16.00 su4), and at h = 1e-3 K h^4 is 1.7e-14 (su2),
    # 1.5e-14 (su3) and at most 2.9e-11 (su4, larger E); each bound allows
    # about 3x to 6x that.
    beta = dirac_operators().beta
    su4_split = split("su4", ("s11", "s12", "s13", "s21", "s22", "s23"))
    cases = [("su2", su2_family(), canonical_split("su2"), 0.0, 1e-13)]
    cases += [(f"su3 theta={theta:.3g}", su3_family(theta), split("su3", ("l1", "l7", "l2", "l6")), 0.0, 1e-13)
              for theta in (0.0, 0.7, -np.pi / 2)]
    cases += [(f"su4 m={params.m:g}", su4_family(params), su4_split, params.m * beta, 1e-10)
              for params in (DiracParameters(m=1.0, p0=np.array([0.4, -0.8, 1.1])),
                             DiracParameters(m=-0.6, p0=np.array([1.5, 0.3, -1.2]), theta=0.9))]
    failures, details = [], []
    for name, fam, sp, shift, bound in cases:
        err = gap(fam, sp, shift, 1e-3)
        ratio = gap(fam, sp, shift, 0.02) / gap(fam, sp, shift, 0.01)
        if not (err <= bound and 15 <= ratio <= 17):
            failures.append(name)
        details.append(f"{name} {err:.1e} <= {bound:.0e} ratio {ratio:.2f}")
    report(8, "closed-form-flows", not failures,
           f"flow vs frame, h=1e-3 over [0, 2], halving ratio in [15, 17]: {'; '.join(details)}")


def test_criterion_09_oracle_agreement():
    worst = 0.0
    families = [su2_family(), su3_family(-np.pi / 2),
                su4_family(DiracParameters(m=1.0, p0=[0.4, -0.8, 1.1]))]
    for fam in families:
        span = 2 * np.pi
        if fam.group_id == "su4":
            span = 2 * np.pi / np.abs(fam.frame[0][0, 0].real)
        u = time_ordered_exponential(fam.hamiltonian, 0.0, span, 10_000)
        v = schrodinger_propagator(fam, span, 0.0)
        worst = max(worst, float(np.max(np.abs(u - v))))

    fam = su2_family()
    ref = schrodinger_propagator(fam, 2 * np.pi, 0.0)
    errs = [float(np.max(np.abs(
        time_ordered_exponential(fam.hamiltonian, 0.0, 2 * np.pi, n) - ref)))
        for n in (200, 400)]
    ratio = errs[0] / errs[1]
    ok = worst < 1e-6 and 3.5 <= ratio <= 4.5
    report(9, "oracle-agreement", ok,
           f"max closed-form vs step-product gap {worst:.2e} <= 1e-6 at 1e4 steps; "
           f"midpoint convergence ratio {ratio:.2f} in [3.5, 4.5]")


def test_criterion_10_qutrit_gate():
    r = 1 / np.sqrt(2)
    expected = np.array([[r, -r, 0], [r, r, 0], [0, 0, 1]], dtype=complex)
    exact = bool(np.all(su3_gate(0.0) == expected))
    worst = 0.0
    for _ in range(100):
        theta = RNG.uniform(-2, 2)
        t, s = RNG.uniform(-2, 2, 2)
        fam = su3_family(theta)
        worst = max(worst, float(np.max(np.abs(
            fam.gate(t) @ dagger(fam.gate(s)) - fam.propagator(t, s)))))
    report(10, "qutrit-gate", exact and worst < 1e-10,
           f"Q(0) entries exact; Q(t) Q(s)^dag vs U within {worst:.2e} <= 1e-10")


def test_criterion_11_dirac_split_transcriptions():
    d = named(_component_rates(dirac_row(m=1.0, p=[0, 0, 2])))
    ok = d.omega10 == -2.0 and d.omega3[2] == 4.0
    d = named(_component_rates(dirac_row(m=1.0, p=[1, 0, 0], omega2=[1, 0, 0])))
    ok &= d.m == 2.0 and d.p[0] == -2.0
    d = named(_component_rates(dirac_row(m=1.0, p=[0, 0, 0], omega10=1.0)))
    ok &= d.omega20 == 2.0
    v = named(_vector_rates(dirac_row(m=1.0, p=[1, 0, 0], omega2=[1, 0, 0])))
    ok &= v.m == 1.0  # the factor-2 gap against the component form

    ode = {r.check_id: r for r in full_report(seed=0)}["ode_transcriptions"]
    reported = (ode.status == "RESOLVED"
                and "b.p lacks the factor 2" in ode.detail
                and "mass term couples n+ + n-" in ode.detail
                and "omega20 factor" in ode.detail)
    report(11, "dirac-split-transcriptions", bool(ok and reported),
           f"worked examples hold exactly; audit reports the discrepancy pattern: {ode.detail[:96]}...")


def test_criterion_12_projective_speed():
    dt = 1e-4
    steps = 200
    cases = [
        (su2_family(), np.array([1.0, 0.0], dtype=complex)),
        (su3_family(-np.pi / 2), np.array([1.0, 0.0, 0.0], dtype=complex)),
        (su4_family(DiracParameters(m=1.0, p0=[0.4, -0.8, 1.1])),
         np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)),
    ]
    worst = 0.0
    for fam, psi0 in cases:
        states = evolve_state(psi0, fam.hamiltonian, 0.0, steps * dt, steps)
        variances = [energy_variance(s, fam.hamiltonian(k * dt))
                     for k, s in enumerate(states)]
        rows = fs_speed_check(states, dt, variances)
        worst = max(worst, float(np.max(rows[:, 2])))
    report(12, "projective-speed", worst < 1e-5,
           f"max |fs_speed - sqrt(variance)| = {worst:.2e} <= 1e-5 at dt=1e-4")


def test_criterion_13_determinism_and_exit_codes(tmp_path):
    r1 = format_report(full_report(tol=None, seed=0))
    r2 = format_report(full_report(tol=None, seed=0))
    byte_identical = r1.encode() == r2.encode()
    codes = (
        dispatch(["audit", "--out", str(tmp_path / "a.txt")]),
        dispatch(["audit", "--tol", "0", "--out", str(tmp_path / "b.txt")]),
        dispatch(["integrate"]),
        dispatch(["frobnicate"]),
    )
    ok = byte_identical and codes == (0, 1, 2, 2)
    report(13, "determinism-and-exit-codes", ok,
           f"reports byte-identical: {byte_identical}; exit codes {codes} == (0, 1, 2, 2)")
