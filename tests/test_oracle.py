import numpy as np
import pytest

from spinctl.closedforms import DiracParameters, su2_family, su3_family, su4_family
from spinctl.generators import PAULI
from spinctl.matrixcore import dagger, expm_unitary, predicates
from spinctl.oracle import (
    HamiltonianSchedule,
    energy_variance,
    evolve_state,
    fs_speed_check,
    rotating_frame_propagator,
    schedule_for,
    schrodinger_propagator,
    time_ordered_exponential,
)

RNG = np.random.default_rng(41)
I2, SX, SY, SZ = PAULI

ALL_FAMILIES = [
    su2_family(),
    su3_family(-np.pi / 2),
    su4_family(DiracParameters(m=1.0, p0=[0.4, -0.8, 1.1])),
]


class TestTimeOrderedExponential:
    def test_constant_schedule_exact(self):
        sched = HamiltonianSchedule(2, lambda t: np.broadcast_to(SZ, (len(t), 2, 2)))
        for steps in (1, 7, 50):
            u = time_ordered_exponential(sched, 0.0, np.pi / 2, steps)
            assert np.max(np.abs(u - np.diag([-1j, 1j]))) < 1e-13

    def test_unitary_at_any_resolution(self):
        sched = schedule_for(su3_family(0.7))
        for steps in (3, 31):
            u = time_ordered_exponential(sched, -1.0, 2.0, steps)
            assert predicates(u, tol=1e-10).unitary

    def test_su2_matches_rotating_frame(self):
        fam = su2_family()
        u = time_ordered_exponential(schedule_for(fam), 0.0, 2 * np.pi, 10_000)
        v = rotating_frame_propagator(SZ / 2, SX, 2 * np.pi, 0.0)
        assert np.max(np.abs(u - v)) < 1e-6

    def test_second_order_convergence(self):
        fam = su2_family()
        ref = schrodinger_propagator(fam, 2 * np.pi, 0.0)
        sched = schedule_for(fam)
        err = [np.max(np.abs(time_ordered_exponential(sched, 0.0, 2 * np.pi, n) - ref))
               for n in (200, 400)]
        assert 3.5 <= err[0] / err[1] <= 4.5

    @pytest.mark.parametrize("steps", [1, 2, 255, 256, 257, 1000])
    def test_matches_sequential_product(self, steps):
        t0, t1 = -0.3, 2.6
        dt = (t1 - t0) / steps
        for fam in ALL_FAMILIES:
            ref = np.eye(fam.dim, dtype=complex)
            for k in range(steps):
                ref = expm_unitary(fam.hamiltonian(t0 + (k + 0.5) * dt), dt) @ ref
            u = time_ordered_exponential(schedule_for(fam), t0, t1, steps)
            assert np.max(np.abs(u - ref)) <= 1e-12

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            time_ordered_exponential(schedule_for(su2_family()), 0.0, 1.0, 0)

    def test_step_ceiling_checked_before_any_schedule_call(self):
        def never(t):
            raise AssertionError("H(t) evaluated past the step ceiling")

        sched = HamiltonianSchedule(2, never)
        with pytest.raises(ValueError, match="ceiling of 10000000"):
            time_ordered_exponential(sched, 0.0, 1.0, 10 ** 7 + 1)
        with pytest.raises(ValueError, match="ceiling of 10000000"):
            evolve_state(np.array([1.0, 0.0]), sched, 0.0, 1.0, 10 ** 7 + 1)

    def test_schedule_dim_enforced(self):
        sched = HamiltonianSchedule(3, lambda t: SZ)
        with pytest.raises(ValueError, match="dim"):
            time_ordered_exponential(sched, 0.0, 1.0, 2)


class TestRotatingFramePropagator:
    def test_zero_frame(self):
        h0 = SX + 0.3 * SZ
        t, s = 1.2, -0.4
        v = rotating_frame_propagator(np.zeros((2, 2)), h0, t, s)
        assert np.max(np.abs(v - expm_unitary(h0, t - s))) < 1e-13

    def test_commuting_frame(self):
        h0 = SZ * 0.8
        v = rotating_frame_propagator(h0, h0, 1.7, 0.2)
        assert np.max(np.abs(v - expm_unitary(h0, 1.5))) < 1e-13

    def test_identity_at_equal_times(self):
        for fam in ALL_FAMILIES:
            v = schrodinger_propagator(fam, 0.8, 0.8)
            assert np.max(np.abs(v - np.eye(fam.dim))) < 1e-13

    def test_solves_schrodinger_equation(self):
        step = 1e-6
        for fam in ALL_FAMILIES:
            t, s = 1.1, -0.2
            dv = (schrodinger_propagator(fam, t + step, s)
                  - schrodinger_propagator(fam, t - step, s)) / (2 * step)
            resid = 1j * dv - fam.hamiltonian(t) @ schrodinger_propagator(fam, t, s)
            assert np.max(np.abs(resid)) < 1e-8

    def test_frame_reproduces_schedule(self):
        for fam in ALL_FAMILIES:
            c, h0 = fam.frame
            for t in (0.0, 0.9, -1.3):
                g = expm_unitary(c, t)
                assert np.max(np.abs(g @ h0 @ dagger(g) - fam.hamiltonian(t))) < 1e-12

    def test_matches_oracle_for_all_families(self):
        for fam in ALL_FAMILIES:
            span = 2 * np.pi
            if fam.group_id == "su4":
                span = 2 * np.pi / np.abs(fam.frame[0][0, 0])
            u = time_ordered_exponential(schedule_for(fam), 0.0, span, 10_000)
            v = schrodinger_propagator(fam, span, 0.0)
            assert np.max(np.abs(u - v)) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rotating_frame_propagator(SZ, np.eye(3), 1.0, 0.0)


class TestEvolveState:
    def test_zero_hamiltonian(self):
        sched = HamiltonianSchedule(2, lambda t: np.zeros((len(t), 2, 2)))
        psi0 = np.array([0.6, 0.8], dtype=complex)
        states = evolve_state(psi0, sched, 0.0, 1.0, 10)
        assert states.shape == (11, 2)
        assert np.max(np.abs(states - psi0)) < 1e-14

    def test_phase_only_evolution(self):
        sched = HamiltonianSchedule(2, lambda t: np.broadcast_to(SZ, (len(t), 2, 2)))
        states = evolve_state(np.array([1.0, 0.0]), sched, 0.0, 2.0, 100)
        assert np.max(np.abs(np.abs(states) - np.abs(states[0]))) < 1e-12

    def test_norm_preserved(self):
        fam = su4_family(DiracParameters(m=0.7, p0=[1.0, 0.2, -0.5]))
        psi0 = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        states = evolve_state(psi0, schedule_for(fam), 0.0, 3.0, 500)
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_eigencolumn_energy_trace(self):
        from spinctl.closedforms import su4_eigenframe
        params = DiracParameters(m=1.0, p0=[0.3, 0.4, -0.2])
        fam = su4_family(params)
        w = su4_eigenframe(params, 0.0).w
        psi0 = w[:, 0] / np.linalg.norm(w[:, 0])
        states = evolve_state(psi0, schedule_for(fam), 0.0, 0.5, 200)
        series = [np.vdot(s, fam.hamiltonian(k * 0.5 / 200) @ s).real
                  for k, s in enumerate(states)]
        assert np.all(np.isfinite(series))
        assert series[0] == pytest.approx(params.energy, abs=1e-10)

    def test_final_state_matches_propagator(self):
        for fam in ALL_FAMILIES:
            psi0 = np.zeros(fam.dim, dtype=complex)
            psi0[0] = 1.0
            states = evolve_state(psi0, schedule_for(fam), 0.0, 1.5, 257)
            u = time_ordered_exponential(schedule_for(fam), 0.0, 1.5, 257)
            assert states.shape == (258, fam.dim)
            assert np.max(np.abs(states[-1] - u @ psi0)) <= 1e-12

    def test_rejects_unnormalized(self):
        sched = HamiltonianSchedule(2, lambda t: np.broadcast_to(SZ, (len(t), 2, 2)))
        with pytest.raises(ValueError, match="normalized"):
            evolve_state(np.array([1.0, 1.0]), sched, 0.0, 1.0, 5)


class TestEnergyVariance:
    def test_eigenvector(self):
        assert energy_variance(np.array([1.0, 0.0]), SZ) == pytest.approx(0.0, abs=1e-14)

    def test_balanced_superposition(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert energy_variance(psi, SZ) == pytest.approx(1.0, abs=1e-14)

    def test_su4_basis_state(self):
        params = DiracParameters(m=1.2, p0=[0.5, -0.7, 0.9])
        h = su4_family(params).hamiltonian(0.0)
        psi = np.array([1.0, 0, 0, 0], dtype=complex)
        assert energy_variance(psi, h) == pytest.approx(params.momentum_norm ** 2, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            energy_variance(np.array([1.0, 0.0]), np.eye(3))


class TestFsSpeed:
    def test_stationary_state(self):
        sched = HamiltonianSchedule(2, lambda t: np.broadcast_to(SZ, (len(t), 2, 2)))
        states = evolve_state(np.array([1.0, 0.0]), sched, 0.0, 0.01, 100)
        variances = [energy_variance(s, SZ) for s in states]
        rows = fs_speed_check(states, 1e-4, variances)
        assert np.max(rows[:, 2]) < 1e-10

    def test_precessing_state(self):
        dt = 1e-4
        sched = HamiltonianSchedule(2, lambda t: np.broadcast_to(SZ, (len(t), 2, 2)))
        states = evolve_state(np.array([1.0, 1.0]) / np.sqrt(2), sched, 0.0, 200 * dt, 200)
        variances = [energy_variance(s, SZ) for s in states]
        rows = fs_speed_check(states, dt, variances)
        assert np.max(np.abs(rows[:, 0] - 1.0)) < 1e-6
        assert np.max(rows[:, 2]) < 1e-6

    def test_su2_family_trajectory(self):
        dt = 1e-4
        fam = su2_family()
        sched = schedule_for(fam)
        states = evolve_state(np.array([1.0, 0.0]), sched, 0.0, 200 * dt, 200)
        variances = [energy_variance(s, fam.hamiltonian(k * dt))
                     for k, s in enumerate(states)]
        rows = fs_speed_check(states, dt, variances)
        assert np.max(rows[:, 2]) < 1e-5

    def test_too_few_states(self):
        with pytest.raises(ValueError, match="3 states"):
            fs_speed_check(np.ones((2, 2), dtype=complex), 1e-4, [0.0, 0.0])

    def test_variance_count_mismatch(self):
        with pytest.raises(ValueError):
            fs_speed_check(np.ones((4, 2), dtype=complex), 1e-4, [0.0, 0.0])
