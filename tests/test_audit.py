import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dirac_rows import dirac_row, named
from sum_parts import part_columns
from spinctl import audit, brachistochrone as bt, closedforms as cf
from spinctl.audit import catalog_ids, format_report, full_report, run_check
from spinctl.brachistochrone import OperatorPair, brachistochrone_rhs, canonical_split, integrate

EXPECTED_TOKENS = {
    "sphere_constraint": "sphere_divisor=dim",
    "isometry_su3": "su3_u13_sign=+i",
    "isometry_su4": "phase_sign=-1",
    "frame_commutator": "didt_sign=-1",
    "propagator_question": "schrodinger=rotating_frame",
    "ode_transcriptions": "ode_factor=+1",
}


@pytest.fixture(scope="module")
def report():
    return full_report(seed=0)


class TestCatalog:
    def test_every_check_present_once(self, report):
        ids = [r.check_id for r in report]
        assert ids == list(catalog_ids())
        assert len(set(ids)) == len(ids)

    def test_no_failures_at_default_tolerances(self, report):
        assert [r.check_id for r in report if r.status == "FAIL"] == []

    def test_expected_resolutions(self, report):
        by_id = {r.check_id: r for r in report}
        for cid, token in EXPECTED_TOKENS.items():
            assert by_id[cid].status == "RESOLVED"
            assert by_id[cid].token == token
        for r in report:
            if r.check_id not in EXPECTED_TOKENS:
                assert r.status == "PASS"

    def test_single_su4_phase_resolution(self, report):
        tokens = [r.token for r in report if r.token and "phase_sign" in r.token]
        assert tokens == ["phase_sign=-1"]

    def test_algebra_exact(self, report):
        by_id = {r.check_id: r for r in report}
        assert by_id["dirac_algebra"].max_error == 0.0

    def test_epsilon_small(self, report):
        by_id = {r.check_id: r for r in report}
        assert by_id["epsilon_identity"].max_error < 1e-14

    def test_ode_transcription_findings_reported(self, report):
        detail = {r.check_id: r for r in report}["ode_transcriptions"].detail
        assert "omega20 factor" in detail
        assert "factor 2" in detail
        assert "n+ + n-" in detail

    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    def test_flow_spectral_drift_detected(self, monkeypatch, group):
        # Scaling one group's last F sample by 1 + 1e-9 moves the spectrum of
        # H + F but keeps Tr(HF) = 0, so only a spectral check can see it, and
        # only if the check reads that group's block of the direct-sum flow.
        _, f_cols = part_columns(canonical_split("su2+su3+su4"), group)
        f_cols += 8  # the state holds the 8 S coefficients, then the S^c ones
        flow = bt._taylor

        def perturbed(*args, **kwargs):
            times, samples = flow(*args, **kwargs)
            samples[-1, f_cols] *= 1 + 1e-9
            return times, samples

        monkeypatch.setattr(bt, "_taylor", perturbed)
        result = run_check("constraint_orthogonality")
        assert result.status == "FAIL"
        assert result.max_error > 1e-10

    def test_unknown_check(self):
        with pytest.raises(KeyError):
            run_check("nonexistent_check")

# each AUDITED_CONVENTIONS field, its other value, and the check that resolves it
CONVENTION_FLIPS = [
    ("su4_phase_sign", +1, "isometry_su4"),
    ("su3_upper_sign", -1, "isometry_su3"),
    ("didt_commutator_sign", +1, "frame_commutator"),
    ("dirac_ode_factor", -1.0, "ode_transcriptions"),
    ("schrodinger_propagator", "closed_form", "propagator_question"),
    ("sphere_divisor_is_dim", False, "sphere_constraint"),
]


# one named, minimal fault for each check whose residual no other test pushes past
# its tolerance; each changes one quantity by 1e-9 or less, but for the oracle's end
# time, whose shift must outgrow the catalog tolerance 1e-4 that the referee gap shares
def _scale_alpha_x(monkeypatch):
    """alpha_x times 1 + 2^-40, so alpha_x^2 misses the identity by about 2^-39."""
    ops = audit.dirac_operators()
    alpha = ops.alpha * np.array([1 + 2.0 ** -40, 1, 1])[:, None, None]
    monkeypatch.setattr(audit, "dirac_operators", lambda: dataclasses.replace(ops, alpha=alpha))


def _speed_up_su2_phase(monkeypatch):
    """The su2 propagator's phase rate times 1 + 1e-9, over a stack of (t, s) too."""
    fam = cf.su2_family()
    propagator = lambda t, s: fam.propagator((1 + 1e-9) * t, (1 + 1e-9) * s)
    monkeypatch.setattr(audit.cf, "su2_family", lambda: dataclasses.replace(fam, propagator=propagator))


def _bump_epsilon_entry(monkeypatch):
    """One entry of EPSILON[0] plus 1e-9."""
    eps0 = cf.EPSILON[0].copy()
    eps0[0, 0] += 1e-9
    monkeypatch.setattr(cf, "EPSILON", (eps0, *cf.EPSILON[1:]))


def _twist_su3_gate(monkeypatch):
    """Q(t) times e^{1e-9 i t}, each matrix of a stack by its own t."""
    su3_gate = cf.su3_gate
    twisted = lambda t, theta: su3_gate(t, theta) * np.exp(1e-9j * np.asarray(t))[..., None, None]
    monkeypatch.setattr(audit.cf, "su3_gate", twisted)


def _scale_component_mass_rate(monkeypatch):
    """The dm/dt slot of the component form times 1 + 1e-9."""
    component_rates = audit._component_rates

    def scaled(x):
        rate = component_rates(x)
        rate[..., 0] *= 1 + 1e-9
        return rate

    monkeypatch.setattr(audit, "_component_rates", scaled)


def _shift_oracle_end_time(monkeypatch):
    """The oracle's end time t1 plus 1e-3, so the referee product overshoots."""
    time_ordered_exponential = audit.oracle.time_ordered_exponential
    shifted = lambda h, t0, t1, steps, order=2: time_ordered_exponential(h, t0, t1 + 1e-3, steps, order)
    monkeypatch.setattr(audit.oracle, "time_ordered_exponential", shifted)


FAULTS = [
    ("dirac_algebra", _scale_alpha_x),
    ("isometry_su2", _speed_up_su2_phase),
    ("epsilon_identity", _bump_epsilon_entry),
    ("q_factorization", _twist_su3_gate),
    ("ode_transcriptions", _scale_component_mass_rate),
    ("propagator_question", _shift_oracle_end_time),
]


class TestChecksCanFail:
    @pytest.mark.parametrize("cid,fault", FAULTS, ids=[cid for cid, _ in FAULTS])
    def test_named_fault_fails_its_check(self, monkeypatch, cid, fault):
        fault(monkeypatch)
        assert run_check(cid).status == "FAIL"

    def test_nan_probe_fails_its_check(self, monkeypatch):
        # one NaN entry in probe 3 of a check's first H(t) stack: max() over floats
        # would drop it, np.max keeps it. The last case poisons only the H(0) stack
        # (one scalar t) that feeds F(0): a FAIL there too, not an error
        cases = [(cid, False) for cid in ("kg_identity", "sphere_constraint", "eigenframe_inverse",
                                          "isometry_su4", "frame_commutator", "constraint_orthogonality")]
        hamiltonian = cf.dirac_hamiltonian
        for cid, at_scalar_time in [*cases, ("constraint_orthogonality", True)]:
            poisoned_stacks = []

            def poisoned(params, t):
                h = hamiltonian(params, t)
                if h.ndim == 3 and not poisoned_stacks and (not at_scalar_time or np.ndim(t) == 0):
                    poisoned_stacks.append(len(h))
                    h = h.copy()
                    h[3, 0, 0] = np.nan
                return h

            monkeypatch.setattr(audit.cf, "dirac_hamiltonian", poisoned)
            result = run_check(cid)
            assert len(poisoned_stacks) == 1, cid
            assert result.status == "FAIL", cid
            assert "max_err=nan" in result.line(), cid

    @pytest.mark.parametrize("candidates", [
        {"nan": [np.nan], "finite": [1.0]},
        {"finite": [1.0], "nan": [0.5, np.nan]},
        {"finite": [1e300], "nan": [np.nan, 0.0]},
    ])
    def test_resolve_never_picks_nan_over_finite(self, candidates):
        assert audit._resolve(candidates, "")[1] == "finite"

    def test_every_convention_field_is_flipped(self):
        assert {f for f, _, _ in CONVENTION_FLIPS} == {f.name for f in dataclasses.fields(cf.Conventions)}

    @pytest.mark.parametrize("field,other,cid", CONVENTION_FLIPS)
    def test_flipped_convention_fails_its_check(self, monkeypatch, field, other, cid):
        assert getattr(cf.AUDITED_CONVENTIONS, field) != other
        monkeypatch.setattr(cf, "AUDITED_CONVENTIONS",
                            dataclasses.replace(cf.AUDITED_CONVENTIONS, **{field: other}))
        result = run_check(cid)
        assert result.status == "FAIL" and result.token is None
        if field == "su4_phase_sign":
            assert "resolution phase_sign=-1 contradicts stored convention phase_sign=+1" in result.detail


def generic_rates(x: np.ndarray) -> np.ndarray:
    """The generic projection of a 15-slot row, as a 15-slot rate."""
    rate = brachistochrone_rhs(OperatorPair(x[:4], x[4:]), canonical_split("su4"))
    return np.concatenate([rate.h_coeffs, rate.f_coeffs])


class TestDiracSplitForms:
    def test_component_form_worked_examples(self):
        d = named(audit._component_rates(dirac_row(m=1.0, p=[0, 0, 2])))
        assert d.omega10 == -2.0
        assert d.omega3[2] == 4.0

        d = named(audit._component_rates(dirac_row(m=1.0, p=[1, 0, 0], omega2=[1, 0, 0])))
        assert d.m == 2.0
        assert d.p[0] == -2.0

        d = named(audit._component_rates(dirac_row(m=1.0, p=[0, 0, 0], omega10=1.0)))
        assert d.omega20 == 2.0

    def test_component_form_conserves_energy(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = rng.uniform(-2, 2, 15)
            s, d = named(x), named(audit._component_rates(x))
            assert abs(s.m * d.m + s.p @ d.p) < 1e-12

    def test_vector_form_worked_examples(self):
        d = named(audit._vector_rates(dirac_row(m=1.0, p=[0.4, -0.3, 0.8])))
        assert np.array_equal(d.p, np.zeros(3))  # n+ = n- = 0

        d = named(audit._vector_rates(dirac_row(m=1.0, p=[1, 0, 0], omega2=[1, 0, 0])))
        assert d.m == 1.0  # b.p without the factor 2

        d = named(audit._vector_rates(dirac_row(m=0.0, p=[1, 0, 0])))
        n_plus, n_minus = d.omega0 + d.omega3, d.omega0 - d.omega3
        assert np.array_equal(n_plus + n_minus, np.array([4.0, 0.0, 0.0]))

    def test_generic_engine_vs_component_form(self):
        """The generic projection matches the component form exactly (factor 1)
        on the mass/momentum/omega0/omega2/omega20 rates; the (omega10, omega3)
        block matches only after an extra omega20 factor."""
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = rng.uniform(-2, 2, 15)
            s, g, d = named(x), named(generic_rates(x)), named(audit._component_rates(x))
            assert abs(g.m - d.m) < 1e-12
            assert np.max(np.abs(g.p - d.p)) < 1e-12
            assert np.max(np.abs(g.omega0 - d.omega0)) < 1e-12
            assert np.max(np.abs(g.omega2 - d.omega2)) < 1e-12
            assert abs(g.omega20 - d.omega20) < 1e-12
            assert abs(g.omega10 - d.omega10 * s.omega20) < 1e-12
            assert np.max(np.abs(g.omega3 - d.omega3 * s.omega20)) < 1e-12

    @pytest.mark.parametrize("rates", ["_component_rates", "_vector_rates"])
    def test_stack_is_bitwise_its_rows(self, rates):
        x = np.random.default_rng(29).uniform(-2, 2, (200, 15))
        stacked = getattr(audit, rates)(x)
        assert stacked.shape == (200, 15)
        assert np.array_equal(stacked, np.array([getattr(audit, rates)(row) for row in x]))

    def test_vector_form_cross_term_matches_generic(self):
        # the curl part of dp/dt agrees between the vector form and the
        # generic engine; the mass coupling does not (audited finding)
        rng = np.random.default_rng(23)
        for _ in range(20):
            s = named(rng.uniform(-2, 2, 15))
            x = dirac_row(m=0.0, p=s.p, omega0=s.omega0, omega2=np.zeros(3),
                          omega3=s.omega3, omega10=s.omega10, omega20=s.omega20)
            g, v = named(generic_rates(x)), named(audit._vector_rates(x))
            assert np.max(np.abs(g.p - v.p)) < 1e-12


def _bench_workloads():
    """bench/workloads.py loaded by path (it imports only the standard library)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchTokenMap:
    """The bench gate keeps its own convention-to-token map; it must say what the audit says."""

    @pytest.mark.parametrize("flip", [None, *CONVENTION_FLIPS])
    def test_bench_copy_matches_audit(self, monkeypatch, flip):
        if flip is not None:
            field, other, _ = flip
            monkeypatch.setattr(cf, "AUDITED_CONVENTIONS",
                                dataclasses.replace(cf.AUDITED_CONVENTIONS, **{field: other}))
        bench_tokens = _bench_workloads()._resolved_tokens(cf.AUDITED_CONVENTIONS)
        assert bench_tokens == audit._expected_tokens()


class TestDrawSets:
    def test_redrawn_sets_clear_min_p(self):
        # at min_p = 3 about one set in eighty is kept, so every draw reaches the redraw loop
        a, b = (audit._draw_sets(np.random.default_rng(11), n=40, min_p=3.0) for _ in range(2))
        assert a.m.shape == (40,) and a.p0.shape == (40, 3)
        assert np.all(np.linalg.norm(a.p0, axis=1) > 3.0)
        assert np.array_equal(a.m, b.m) and np.array_equal(a.p0, b.p0)


class TestDirectSumFlow:
    def test_slices_back_to_serial_runs(self):
        # the flow half of constraint_orthogonality: one Taylor flow over the three
        # groups is, group by group, its own Taylor flow and the RK4 integrate of
        # that group. Not bitwise: "kab,nab->nk" sums over the zero blocks of the
        # direct sum in another grouping than over one group's coupling. At h = 2.5e-4
        # RK4's worst gap is rounding-bound, about 2e-14; at 5e-4 it reaches 2.4e-13
        rng = np.random.default_rng(11)
        split = canonical_split("su2+su3+su4")
        assert split.coupling.shape == (26, 8, 18)
        for x0 in rng.uniform(-1, 1, (20, 26)):
            times, samples = bt._taylor(split, x0, 0.1, 10, order=14)
            for group in ("su2", "su3", "su4"):
                part = canonical_split(group)
                hc, fc = part_columns(split, group)
                fc += 8
                ns = len(part.s_indices)
                alone = bt._taylor(part, np.concatenate([x0[hc], x0[fc]]), 0.1, 10, order=14)[1]
                assert np.max(np.abs(samples[:, hc] - alone[:, :ns])) <= 1e-15
                assert np.max(np.abs(samples[:, fc] - alone[:, ns:])) <= 1e-15
                rk4 = integrate(OperatorPair(x0[hc], x0[fc]), part, h=2.5e-4, T=1.0, sample_stride=400)
                np.testing.assert_allclose(times, rk4.times, rtol=0, atol=1e-15)
                assert np.max(np.abs(samples[:, hc] - rk4.h_coeffs)) <= 1e-13
                assert np.max(np.abs(samples[:, fc] - rk4.f_coeffs)) <= 1e-13


class TestDeterminism:
    def test_reports_byte_identical(self, report):
        again = full_report(seed=0)
        assert format_report(report) == format_report(again)

    def test_seed_changes_probes_not_verdicts(self, report):
        other = full_report(seed=5)
        assert [r.status for r in other] == [r.status for r in report]

    def test_run_check_matches_full_report(self, report):
        for r in report:
            solo = run_check(r.check_id, seed=0)
            assert solo.line() == r.line()


class TestToleranceMonotonicity:
    def test_loosening_never_adds_failures(self, report):
        tight = full_report(tol=1e-10)
        loose = full_report(tol=1e-2)
        fails_tight = {r.check_id for r in tight if r.status == "FAIL"}
        fails_loose = {r.check_id for r in loose if r.status == "FAIL"}
        assert fails_loose <= fails_tight

    def test_zero_tolerance_fails_numeric_checks(self):
        zero = full_report(tol=0.0)
        assert any(r.status == "FAIL" for r in zero)
        by_id = {r.check_id: r for r in zero}
        assert by_id["dirac_algebra"].status == "PASS"  # exact arithmetic


class TestLineFormat:
    def test_line_shape(self, report):
        for r in report:
            line = r.line()
            assert line.startswith(f"CHECK {r.check_id} ")
            assert "max_err=" in line
            fields = line.split()
            assert fields[0] == "CHECK"
            assert fields[2].split(":")[0] in ("PASS", "FAIL", "RESOLVED")
