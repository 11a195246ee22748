import dataclasses

import pytest

from spinctl import audit
from spinctl.audit import catalog_ids, format_report, full_report, run_check

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

    def test_flow_spectral_drift_detected(self, monkeypatch):
        # Scaling the last F sample by 1 + 1e-6 moves the spectrum of H + F
        # but keeps Tr(HF) = 0, so only a spectral check can see it.
        integrate = audit.bt.integrate

        def perturbed(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            fs = traj.f_coeffs.copy()
            fs[-1] *= 1 + 1e-6
            return dataclasses.replace(traj, f_coeffs=fs)

        monkeypatch.setattr(audit.bt, "integrate", perturbed)
        result = run_check("constraint_orthogonality")
        assert result.status == "FAIL"
        assert result.max_error > 1e-7

    def test_unknown_check(self):
        with pytest.raises(KeyError):
            run_check("nonexistent_check")


class TestDeterminism:
    def test_reports_byte_identical(self, report):
        again = full_report(seed=0)
        assert format_report(report) == format_report(again)

    def test_seed_changes_probes_not_verdicts(self, report):
        other = full_report(seed=5)
        assert [r.status for r in other] == [r.status for r in report]

    def test_run_check_matches_full_report(self, report):
        for r in report[:4]:
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
