import dataclasses
import re

import numpy as np
import pytest

from spinctl import oracle
from spinctl.cli import dispatch
from spinctl.closedforms import DiracParameters, su2_family, su3_family, su4_family
from spinctl.generators import PAULI
from spinctl.matrixcore import dagger, expm_unitary
from spinctl.oracle import (
    energy_variance,
    evolve_state,
    fs_speed_check,
    schrodinger_propagator,
    time_ordered_exponential,
)

RNG = np.random.default_rng(41)
I2, SX, SY, SZ = PAULI

def constant(h):
    """H(t) = h at every time, in the stacked form the oracle takes."""
    return lambda t: np.broadcast_to(h, (len(t),) + h.shape)


def framed(c, h0):
    """The su2 family with its frame (C, H0) replaced by hand, as a user may build one."""
    return dataclasses.replace(su2_family(), frame=(c, h0))


ALL_FAMILIES = [
    su2_family(),
    su3_family(-np.pi / 2),
    su4_family(DiracParameters(m=1.0, p0=[0.4, -0.8, 1.1])),
]


class TestTimeOrderedExponential:
    def test_constant_schedule_exact(self):
        for steps in (1, 7, 50, np.int64(7)):
            u = time_ordered_exponential(constant(SZ), 0.0, np.pi / 2, steps)
            assert np.max(np.abs(u - np.diag([-1j, 1j]))) < 1e-13

    def test_unitary_at_any_resolution(self):
        for steps in (3, 31):
            u = time_ordered_exponential(su3_family(0.7).hamiltonian, -1.0, 2.0, steps)
            assert np.max(np.abs(u @ dagger(u) - np.eye(3))) <= 1e-10

    def test_su2_matches_rotating_frame(self):
        fam = su2_family()
        u = time_ordered_exponential(fam.hamiltonian, 0.0, 2 * np.pi, 10_000)
        v = schrodinger_propagator(framed(SZ / 2, SX), 2 * np.pi, 0.0)
        assert np.max(np.abs(u - v)) < 1e-6

    def test_second_order_convergence(self):
        fam = su2_family()
        ref = schrodinger_propagator(fam, 2 * np.pi, 0.0)
        err = [np.max(np.abs(time_ordered_exponential(fam.hamiltonian, 0.0, 2 * np.pi, n) - ref))
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
            u = time_ordered_exponential(fam.hamiltonian, t0, t1, steps)
            assert np.max(np.abs(u - ref)) <= 1e-12

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=[f.group_id for f in ALL_FAMILIES])
    def test_fourth_order_convergence(self, fam):
        ref = schrodinger_propagator(fam, 2 * np.pi, 0.0)
        err = [np.max(np.abs(time_ordered_exponential(fam.hamiltonian, 0.0, 2 * np.pi, n, order=4) - ref))
               for n in (100, 200)]
        assert 14 <= err[0] / err[1] <= 18

    @pytest.mark.parametrize("steps", [1, 2, 255, 256, 257, 1000])
    def test_matches_sequential_magnus_product(self, steps):
        t0, t1 = -0.3, 2.6
        dt = (t1 - t0) / steps
        c = np.sqrt(3) / 6
        for fam in ALL_FAMILIES:
            ref = np.eye(fam.dim, dtype=complex)
            for k in range(steps):
                mid = t0 + (k + 0.5) * dt
                h1, h2 = fam.hamiltonian(mid - c * dt), fam.hamiltonian(mid + c * dt)
                k4 = (h1 + h2) / 2 - 1j * (np.sqrt(3) * dt / 12) * (h2 @ h1 - h1 @ h2)
                ref = expm_unitary(k4, dt) @ ref
            u = time_ordered_exponential(fam.hamiltonian, t0, t1, steps, order=4)
            assert np.max(np.abs(u - ref)) <= 1e-12

    def test_fourth_order_unitary(self):
        for fam in ALL_FAMILIES:
            for steps in (3, 256, 1000):
                u = time_ordered_exponential(fam.hamiltonian, -1.0, 2.0, steps, order=4)
                assert np.max(np.abs(u @ dagger(u) - np.eye(fam.dim))) <= 1e-13

    def test_rejects_bad_order(self):
        def never(t):
            raise AssertionError("H(t) evaluated for an order that is neither 2 nor 4")

        for order in (0, 1, 3, 4.0, "4", None, True):
            with pytest.raises(ValueError, match="order must be 2 or 4"):
                time_ordered_exponential(never, 0.0, 1.0, 4, order=order)

    def test_non_finite_schedule_names_first_bad_gauss_point(self):
        def spiked(t):  # 2 steps on [0, 1]: Gauss points 0.106, 0.394, 0.606, 0.894
            h = np.broadcast_to(SZ, (len(t), 2, 2)).astype(complex)
            h[t > 0.5] = np.inf
            return h

        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match=r"non-finite entries in H\(t\) at t = 0\.605"):
            time_ordered_exponential(spiked, 0.0, 1.0, 2, order=4)

    @pytest.mark.filterwarnings("error")
    def test_extreme_scale_step_is_unitary_at_both_orders(self):
        # |H| = 1e160, whose unscaled square would overflow; |H dt| = 1.4
        def rotating(t):
            return 1e160 * (np.cos(t)[:, None, None] * SX + np.sin(t)[:, None, None] * SY)

        for order in (2, 4):
            u = time_ordered_exponential(rotating, 0.0, 1e-159, 1, order=order)
            assert np.max(np.abs(u @ dagger(u) - I2)) <= 1e-13

    def test_overflowing_step_exponent_names_first_gauss_point(self):
        # finite H, but |H|^2 dt = 1e400 overflows the order-4 commutator
        def rotating(t):
            return 1e200 * (np.cos(t)[:, None, None] * SX + np.sin(t)[:, None, None] * SY)

        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match=r"non-finite entries in the step exponent at t = 0\.2113"):
            time_ordered_exponential(rotating, 0.0, 1.0, 1, order=4)

    def test_rejects_bad_steps(self):
        def never(t):
            raise AssertionError("H(t) evaluated for a step count that is not a positive integer")

        for steps in (0, 2.5, np.nan, 4.0):
            with pytest.raises(ValueError, match="steps must be an integer"):
                time_ordered_exponential(never, 0.0, 1.0, steps)
            with pytest.raises(ValueError, match="steps must be an integer"):
                evolve_state(np.array([1.0, 0.0]), never, 0.0, 1.0, steps)

    def test_step_ceiling_checked_before_any_schedule_call(self):
        def never(t):
            raise AssertionError("H(t) evaluated past the step ceiling")

        with pytest.raises(ValueError, match="ceiling of 10000000"):
            time_ordered_exponential(never, 0.0, 1.0, 10 ** 7 + 1)
        with pytest.raises(ValueError, match="ceiling of 10000000"):
            evolve_state(np.array([1.0, 0.0]), never, 0.0, 1.0, 10 ** 7 + 1)

    @pytest.mark.parametrize("t0,t1", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan),
                                       (-1e308, 1e308)])
    def test_non_finite_bounds_checked_before_any_schedule_call(self, t0, t1):
        # the last pair is finite, but its span t1 - t0 overflows
        def never(t):
            raise AssertionError("H(t) evaluated on a non-finite time grid")

        with pytest.raises(ValueError, match=re.escape(f"span must be finite, got t0 = {t0}, t1 = {t1}")):
            time_ordered_exponential(never, t0, t1, 4)
        with pytest.raises(ValueError, match="span must be finite"):
            evolve_state(np.array([1.0, 0.0]), never, t0, t1, 4)

    def test_non_finite_schedule_names_first_bad_midpoint(self):
        def spiked(t):  # 4 steps on [0, 1]: midpoints 0.125, 0.375, 0.625, 0.875
            h = np.broadcast_to(SZ, (len(t), 2, 2)).astype(complex)
            h[t > 0.5] = np.inf
            return h

        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match=r"non-finite entries in H\(t\) at t = 0\.625: the inputs overflow"):
            time_ordered_exponential(spiked, 0.0, 1.0, 4)

    @pytest.mark.parametrize("order,steps,first_bad", [(2, 4, r"0\.625"), (4, 2, r"0\.6056")],
                             ids=["order2", "order4"])
    def test_non_hermitian_schedule_names_first_bad_time(self, order, steps, first_bad):
        def skewed(t):  # midpoints 0.125 .. 0.875 (order 2), Gauss points 0.106 .. 0.894 (order 4)
            h = np.broadcast_to(SX, (len(t), 2, 2)).astype(complex)
            h[t > 0.5] += 1e-6j * SZ
            return h

        with pytest.raises(ValueError, match=rf"^H\(t\) is not Hermitian at t = {first_bad}\d*: "
                                             r"max\|H - H\^dag\| = 2\.000e-06$"):
            time_ordered_exponential(skewed, 0.0, 1.0, steps, order=order)

    def test_schedule_dim_enforced(self):
        def growing(t):  # d = 2 for the first pass of _GROUP * _CHUNK midpoints, 3 for the second
            return np.zeros((len(t), 2, 2) if t[0] < 0.5 else (len(t), 3, 3))

        for hamiltonian, steps in ((lambda t: SZ, 2),
                                   (lambda t: np.zeros((len(t), 2, 3)), 2),
                                   (growing, oracle._GROUP * oracle._CHUNK + 76)):
            with pytest.raises(ValueError, match="dim"):
                time_ordered_exponential(hamiltonian, 0.0, 1.0, steps)
            with pytest.raises(ValueError, match="dim"):
                evolve_state(np.array([1.0, 0.0]), hamiltonian, 0.0, 1.0, steps)


class TestPassGrouping:
    """A pass of _GROUP chunks, their trees sharing each level, is bitwise one chunk per pass."""

    FAMILIES = ALL_FAMILIES + [su4_family(DiracParameters(m=1.0, p0=[3e3, -2e3, 5e3]))]  # the last takes eigh
    IDS = ["su2", "su3", "su4", "su4_eigh"]

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("fam", FAMILIES, ids=IDS)
    def test_product_is_bitwise_ungrouped(self, fam, order, monkeypatch):
        assert oracle._GROUP > 1
        all_steps = (1, 255, 1023, 1024, 1025, 2049, 4097)
        grouped = [time_ordered_exponential(fam.hamiltonian, -0.3, 2.6, n, order) for n in all_steps]
        monkeypatch.setattr(oracle, "_GROUP", 1)
        for steps, u in zip(all_steps, grouped):
            ref = time_ordered_exponential(fam.hamiltonian, -0.3, 2.6, steps, order)
            assert u.tobytes() == ref.tobytes(), steps

    @pytest.mark.parametrize("fam", FAMILIES, ids=IDS)
    def test_evolve_state_is_bitwise_ungrouped(self, fam, monkeypatch):
        psi0 = np.ones(fam.dim, dtype=complex) / np.sqrt(fam.dim)
        grouped = evolve_state(psi0, fam.hamiltonian, -0.3, 2.6, 1100)
        monkeypatch.setattr(oracle, "_GROUP", 1)
        assert grouped.tobytes() == evolve_state(psi0, fam.hamiltonian, -0.3, 2.6, 1100).tobytes()


class TestOrderFourExponent:
    """K = (H1 + H2)/2 - i (A - A^dag), A = (sqrt(3) dt/12) H2 H1: Hermitian entry for entry."""

    @pytest.fixture
    def exponents(self, monkeypatch):
        seen = []

        expm_last = oracle._expm_last

        def spy(k, tau, what, times):  # k is a time-last (d, d, m) stack
            seen.append(np.array(k.transpose(2, 0, 1)))
            return expm_last(k, tau, what, times)

        monkeypatch.setattr(oracle, "_expm_last", spy)
        return seen

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=[f.group_id for f in ALL_FAMILIES])
    def test_exponent_is_exactly_hermitian(self, fam, scale, exponents):
        time_ordered_exponential(lambda t: scale * fam.hamiltonian(t), -0.3, 2.6, 300, order=4)
        k = np.concatenate(exponents)
        assert len(k) == 300
        assert np.max(np.abs(k - dagger(k))) == 0

    def test_large_energy_su4_probe(self, capsys):
        # |H| ~ 6e5: the exponent's commutator term is large, and K stays exactly Hermitian
        assert dispatch(["propagate", "--family", "su4", "--t1", "1", "--m", "1e5",
                         "--p", "3e5,-2e5,5e5", "--steps", "2000", "--order", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "max_deviation=1.592e+00"

    @pytest.mark.parametrize("order", [2, 4])
    def test_rejects_non_hermitian_schedule(self, order):
        with pytest.raises(ValueError, match="not Hermitian"):
            time_ordered_exponential(constant(SX + 1e-6j * SZ), 0.0, 1.0, 300, order=order)

    def test_rejects_anti_hermitian_parts_that_cancel_in_the_exponent(self, exponents):
        # 2 steps on [0, 1]: H1 = SX - X and H2 = SX + X in each step, X = 1e-3 i SZ
        # anti-Hermitian, so H1 + H2 = 2 SX exactly and K alone would look Hermitian
        def skewed(t):
            sign = np.sign((t % 0.5) - 0.25)[:, None, None]
            return SX + sign * (1e-3j * SZ)

        with pytest.raises(ValueError, match=r"H\(t\) is not Hermitian"):
            time_ordered_exponential(skewed, 0.0, 1.0, 2, order=4)
        assert exponents == []


class TestRotatingFramePropagator:
    def test_zero_frame(self):
        h0 = SX + 0.3 * SZ
        t, s = 1.2, -0.4
        v = schrodinger_propagator(framed(np.zeros((2, 2)), h0), t, s)
        assert np.max(np.abs(v - expm_unitary(h0, t - s))) < 1e-13

    def test_commuting_frame(self):
        h0 = SZ * 0.8
        v = schrodinger_propagator(framed(h0, h0), 1.7, 0.2)
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
            u = time_ordered_exponential(fam.hamiltonian, 0.0, span, 10_000)
            v = schrodinger_propagator(fam, span, 0.0)
            assert np.max(np.abs(u - v)) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=re.escape("dimension mismatch: (2, 2) vs (3, 3)")):
            schrodinger_propagator(framed(SZ, np.eye(3)), 1.0, 0.0)

    @pytest.mark.parametrize("bad", ["c", "h0"])
    def test_non_finite_frame(self, bad):
        c, h0 = SZ / 2, SX.astype(complex)
        if bad == "c":
            c = np.diag([np.nan, 0.0])
        else:
            h0[0, 1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            schrodinger_propagator(framed(c, h0), 1.0, 0.0)


class TestPropagatorBroadcasting:
    """schrodinger_propagator broadcasts over t and s, each V bitwise the scalar call."""

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=["su2", "su3", "su4"])
    def test_array_t_is_bitwise_scalar_calls(self, fam):
        rng = np.random.default_rng(60)
        for _ in range(10):
            t, s = rng.uniform(-3, 3, 5), float(rng.uniform(-3, 3))
            v = schrodinger_propagator(fam, t, s)
            assert v.shape == (5, fam.dim, fam.dim)
            ref = np.stack([schrodinger_propagator(fam, float(tk), s) for tk in t])
            assert v.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=["su2", "su3", "su4"])
    def test_array_s_and_both_arrays_are_bitwise_scalar_calls(self, fam):
        rng = np.random.default_rng(61)
        t, s = rng.uniform(-3, 3, 4), rng.uniform(-3, 3, 4)
        ref = np.stack([schrodinger_propagator(fam, 0.9, float(sk)) for sk in s])
        assert schrodinger_propagator(fam, 0.9, s).tobytes() == ref.tobytes()
        ref = np.stack([schrodinger_propagator(fam, float(tk), float(sk)) for tk, sk in zip(t, s)])
        assert schrodinger_propagator(fam, t, s).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=["su2", "su3", "su4"])
    def test_shapes(self, fam):
        d = fam.dim
        assert schrodinger_propagator(fam, 0.4, -0.2).shape == (d, d)
        assert schrodinger_propagator(fam, np.float64(0.4), np.array(-0.2)).shape == (d, d)
        assert schrodinger_propagator(fam, np.array([0.4]), -0.2).shape == (1, d, d)
        assert schrodinger_propagator(fam, [0.4, 0.5, 0.6], [-0.2]).shape == (3, d, d)

    @pytest.mark.parametrize("t,s", [
        (np.nan, 0.0), (1.0, np.inf), ([0.5, np.nan, 1.0], 0.0), ([0.5, 1.0], [0.0, -np.inf]),
        (1e308, -1e308), (np.inf, np.inf)], ids=["t_nan", "s_inf", "t_array", "s_array", "overflow", "inf_minus_inf"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_times_raise(self, t, s):
        with pytest.raises(ValueError, match="^tau must be finite, got "):
            schrodinger_propagator(ALL_FAMILIES[0], t, s)

    def test_rejects_times_of_more_than_one_axis(self):
        with pytest.raises(ValueError, match=re.escape("times must be numbers or 1-D arrays, got shape (2, 2)")):
            schrodinger_propagator(ALL_FAMILIES[0], np.ones((2, 2)), 0.0)

    def test_dimension_mismatch_with_array_times(self):
        with pytest.raises(ValueError, match=re.escape("dimension mismatch: (2, 2) vs (3, 3)")):
            schrodinger_propagator(framed(SZ, np.eye(3)), np.array([1.0, 2.0]), 0.0)


class TestEvolveState:
    def test_zero_hamiltonian(self):
        psi0 = np.array([0.6, 0.8], dtype=complex)
        states = evolve_state(psi0, constant(np.zeros((2, 2))), 0.0, 1.0, 10)
        assert states.shape == (11, 2)
        assert np.max(np.abs(states - psi0)) < 1e-14

    def test_phase_only_evolution(self):
        states = evolve_state(np.array([1.0, 0.0]), constant(SZ), 0.0, 2.0, 100)
        assert np.max(np.abs(np.abs(states) - np.abs(states[0]))) < 1e-12

    def test_norm_preserved(self):
        fam = su4_family(DiracParameters(m=0.7, p0=[1.0, 0.2, -0.5]))
        psi0 = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        states = evolve_state(psi0, fam.hamiltonian, 0.0, 3.0, 500)
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_eigencolumn_energy_trace(self):
        from spinctl.closedforms import su4_eigenframe
        params = DiracParameters(m=1.0, p0=[0.3, 0.4, -0.2])
        fam = su4_family(params)
        w = su4_eigenframe(params, 0.0).w
        psi0 = w[:, 0] / np.linalg.norm(w[:, 0])
        states = evolve_state(psi0, fam.hamiltonian, 0.0, 0.5, 200)
        series = [np.vdot(s, fam.hamiltonian(k * 0.5 / 200) @ s).real
                  for k, s in enumerate(states)]
        assert np.all(np.isfinite(series))
        assert series[0] == pytest.approx(params.energy, abs=1e-10)

    def test_final_state_matches_propagator(self):
        for fam in ALL_FAMILIES:
            psi0 = np.zeros(fam.dim, dtype=complex)
            psi0[0] = 1.0
            states = evolve_state(psi0, fam.hamiltonian, 0.0, 1.5, 257)
            u = time_ordered_exponential(fam.hamiltonian, 0.0, 1.5, 257)
            assert states.shape == (258, fam.dim)
            assert np.max(np.abs(states[-1] - u @ psi0)) <= 1e-12

    def test_rejects_unnormalized(self):
        for psi0 in ([1.0, 1.0], [np.nan, 0.0], [np.nan, np.nan]):
            with pytest.raises(ValueError, match="normalized"):
                evolve_state(np.array(psi0), constant(SZ), 0.0, 1.0, 5)

    @pytest.mark.parametrize("psi0", [np.array([1.0, 0.0, 0.0]), np.array([1.0]),
                                      np.array([[1.0], [0.0]])])
    def test_rejects_state_of_wrong_length(self, psi0):
        with pytest.raises(ValueError, match="does not match dim 2"):
            evolve_state(psi0, constant(SZ), 0.0, 1.0, 5)


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
        assert energy_variance(psi, h) == pytest.approx(params.p0 @ params.p0, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            energy_variance(np.array([1.0, 0.0]), np.eye(3))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_is_bitwise_per_state_calls(self, d):
        rng = np.random.default_rng(d)
        psi = rng.normal(size=(2000, d)) + 1j * rng.normal(size=(2000, d))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        h = rng.normal(size=(2000, d, d)) + 1j * rng.normal(size=(2000, d, d))
        h = (h + dagger(h)) / 2
        per_matrix = energy_variance(psi, h)
        assert per_matrix.shape == (2000,)
        assert np.array_equal(per_matrix, [energy_variance(s, m) for s, m in zip(psi, h)])
        assert np.array_equal(energy_variance(psi, h[0]), [energy_variance(s, h[0]) for s in psi])

    @pytest.mark.parametrize("psi_shape,h_shape",
                             [((1, 5, 2), (5, 2, 2)), ((5, 2), (4, 2, 2)), ((2,), (5, 2, 2))],
                             ids=["3-D_states", "stack_lengths_differ", "one_state_many_H"])
    def test_rejects_mismatched_stacks(self, psi_shape, h_shape):
        psi = np.zeros(psi_shape, dtype=complex)
        psi[..., 0] = 1.0
        with pytest.raises(ValueError, match="dimension mismatch"):
            energy_variance(psi, np.broadcast_to(SZ, h_shape))


class TestFsSpeed:
    def test_stationary_state(self):
        states = evolve_state(np.array([1.0, 0.0]), constant(SZ), 0.0, 0.01, 100)
        variances = [energy_variance(s, SZ) for s in states]
        rows = fs_speed_check(states, 1e-4, variances)
        assert np.max(rows[:, 2]) < 1e-10

    def test_precessing_state(self):
        dt = 1e-4
        states = evolve_state(np.array([1.0, 1.0]) / np.sqrt(2), constant(SZ), 0.0, 200 * dt, 200)
        variances = [energy_variance(s, SZ) for s in states]
        rows = fs_speed_check(states, dt, variances)
        assert np.max(np.abs(rows[:, 0] - 1.0)) < 1e-6
        assert np.max(rows[:, 2]) < 1e-6

    def test_su2_family_trajectory(self):
        dt = 1e-4
        fam = su2_family()
        states = evolve_state(np.array([1.0, 0.0]), fam.hamiltonian, 0.0, 200 * dt, 200)
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

    def test_rejects_variances_of_two_columns(self):
        with pytest.raises(ValueError, match="one variance per state"):
            fs_speed_check(np.ones((4, 2), dtype=complex), 1e-4, np.zeros((4, 2)))

    @pytest.mark.parametrize("dt", [0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_rejects_zero_or_non_finite_dt(self, dt):
        states = evolve_state(np.array([1.0, 1.0]) / np.sqrt(2), constant(SZ), 0.0, 0.01, 10)
        with pytest.raises(ValueError, match="dt must be nonzero and finite"):
            fs_speed_check(states, dt, np.ones(11))

    def test_backward_history_takes_negative_dt(self):
        dt = 1e-4
        states = evolve_state(np.array([1.0, 1.0]) / np.sqrt(2), constant(SZ), 0.0, -200 * dt, 200)
        rows = fs_speed_check(states, -dt, energy_variance(states, SZ))
        assert np.max(rows[:, 2]) < 1e-6
