import dataclasses

import numpy as np
import pytest

from helpers import random_params
from spinctl.brachistochrone import canonical_split
from spinctl.closedforms import (
    DEFAULT_THETA,
    DiracParameters,
    dirac_hamiltonian,
    epsilon_product,
    isotropic_energy,
    su2_family,
    su3_family,
    su3_gate,
    su3_hamiltonian,
    su3_propagator,
    su4_constraint_t,
    su4_eigenframe,
    su4_family,
    su4_propagator,
)
from spinctl.generators import PAULI, assemble_dirac, build_basis, dirac_operators, reconstruct
from spinctl.matrixcore import dagger

RNG = np.random.default_rng(31)
I2, SX, SY, SZ = PAULI


class TestStackedHamiltonian:
    def test_families_broadcast_over_time(self):
        ts = np.linspace(-2.0, 3.0, 11)
        # off theta = -pi/2 a fused complex multiply would round the phase differently
        tilted = DiracParameters(m=0.3, p0=np.array([0.5, -1.2, 0.8]), theta=0.7)
        for fam in (su2_family(), su3_family(0.9), su4_family(random_params(RNG)), su4_family(tilted)):
            stacked = fam.hamiltonian(ts)
            assert stacked.shape == (len(ts), fam.dim, fam.dim)
            assert np.array_equal(stacked, np.stack([fam.hamiltonian(t) for t in ts]))
            assert fam.hamiltonian(0.4).shape == (fam.dim, fam.dim)
            assert fam.hamiltonian(ts[:1]).shape == (1, fam.dim, fam.dim)


# the su2 and su3 builders over (t, s, theta); each ignores what it does not take
STACKED_BUILDERS = {
    "su2_propagator": lambda t, s, theta: su2_family().propagator(t, s),
    "su3_hamiltonian": lambda t, s, theta: su3_hamiltonian(t, theta),
    "su3_propagator": su3_propagator,
    "su3_gate": lambda t, s, theta: su3_gate(t, theta),
}


class TestStackedTimes:
    """n times, with n thetas or one shared theta, give bitwise the stack of scalar calls."""

    @pytest.mark.parametrize("shared_theta", [False, True], ids=["n_thetas", "shared_theta"])
    @pytest.mark.parametrize("name", list(STACKED_BUILDERS))
    def test_stack_is_scalar_calls(self, name, shared_theta):
        build = STACKED_BUILDERS[name]
        ts, ss, thetas = np.random.default_rng(17).uniform(-3, 3, (3, 100))
        ts[0], ss[1] = 0.0, -0.0
        if shared_theta:
            thetas = 0.7
        stacked = build(ts, ss, thetas)
        assert stacked.shape[0] == 100 and stacked.shape[1:] == build(0.1, 0.2, 0.3).shape
        singles = [build(t, s, theta) for t, s, theta in zip(ts, ss, np.broadcast_to(thetas, ts.shape))]
        assert np.array_equal(stacked, np.array(singles))


class TestStackedParameters:
    """One DiracParameters of n sets gives, bitwise, the stack of single-set calls."""

    @pytest.fixture(scope="class")
    def probes(self):
        rng = np.random.default_rng(2024)
        m, p0, theta = [], [], []
        for k in range(100):
            m_k, p_k = rng.uniform(-2, 2), rng.uniform(-2, 2, 3)
            if k % 4 == 1:
                m_k = -abs(m_k)
            if k % 5 == 2:
                p_k = p_k * 1e-9  # the eigenframe's cancellation branch, at both signs of m
            m.append(m_k)
            p0.append(p_k)
            theta.append(rng.uniform(-np.pi, np.pi) if k % 3 == 0 else DEFAULT_THETA)
        params = DiracParameters(m=np.array(m), p0=np.array(p0), theta=np.array(theta))
        singles = [DiracParameters(m=a, p0=b, theta=c) for a, b, c in zip(m, p0, theta)]
        assert np.linalg.norm(params.p0, axis=1).min() < 1e-8 and params.m.min() < 0
        return params, singles, rng.uniform(-2, 2, 100), rng.uniform(-2, 2, 100)

    def test_fields(self, probes):
        params, singles, _, _ = probes
        assert params.m.shape == params.theta.shape == params.energy.shape == (100,)
        assert params.p0.shape == (100, 3)
        assert np.array_equal(params.energy, [p.energy for p in singles])
        assert isinstance(singles[0].energy, float)

    def test_dirac_hamiltonian(self, probes):
        params, singles, ts, _ = probes
        stacked = dirac_hamiltonian(params, ts)
        assert stacked.shape == (100, 4, 4)
        assert np.array_equal(stacked, np.array([dirac_hamiltonian(p, t) for p, t in zip(singles, ts)]))
        assert np.array_equal(dirac_hamiltonian(params, 0.3),
                              np.array([dirac_hamiltonian(p, 0.3) for p in singles]))

    def test_su4_eigenframe(self, probes):
        params, singles, ts, _ = probes
        frame = su4_eigenframe(params, ts)
        frames = [su4_eigenframe(p, t) for p, t in zip(singles, ts)]
        for name in ("w", "w_inv", "d0"):
            assert np.array_equal(getattr(frame, name), np.array([getattr(f, name) for f in frames]))
        with_zero = DiracParameters(m=np.array([*params.m[:3], 1.0]), p0=np.vstack([params.p0[:3], np.zeros(3)]))
        with pytest.raises(ValueError, match="requires"):
            su4_eigenframe(with_zero, ts[:4])

    def test_su4_propagator(self, probes):
        params, singles, ts, ss = probes
        assert np.array_equal(su4_propagator(params, ts, ss),
                              np.array([su4_propagator(p, t, s) for p, t, s in zip(singles, ts, ss)]))

    def test_su4_constraint_over_times(self, probes):
        _, singles, ts, _ = probes
        f0 = np.random.default_rng(5).uniform(-1, 1, 15)
        assert np.array_equal(su4_constraint_t(f0, singles[0], ts),
                              np.array([su4_constraint_t(f0, singles[0], t) for t in ts]))

    def test_su4_constraint_over_sets(self, probes):
        params, singles, ts, _ = probes
        f0 = np.random.default_rng(8).uniform(-1, 1, (100, 15))
        assert np.array_equal(su4_constraint_t(f0, params, ts),
                              np.array([su4_constraint_t(c, p, t) for c, p, t in zip(f0, singles, ts)]))

    def test_stored_energy_is_the_scalar_formula_bitwise(self, probes):
        # python's float ** 2 (libm pow) and x * x differ in the last bit for some x
        rng = np.random.default_rng(11)
        many = DiracParameters(m=rng.uniform(-2, 2, 50000), p0=rng.uniform(-2, 2, (50000, 3)))
        for params in (probes[0], many):
            expected = [float(np.sqrt(float(m) ** 2 + p0 @ p0)) for m, p0 in zip(params.m, params.p0)]
            assert np.array_equal(params.energy, expected)

    def test_epsilon_product(self):
        p = np.random.default_rng(6).uniform(-2, 2, (100, 3))
        for side, singles in zip(epsilon_product(p), zip(*(epsilon_product(v) for v in p))):
            assert np.array_equal(side, np.array(singles))


class TestDiracParameters:
    def test_energy_is_derived(self):
        params = DiracParameters(m=3.0, p0=[0, 4, 0])
        assert params.energy == 5.0
        assert params.energy ** 2 - params.m ** 2 == pytest.approx(16.0, abs=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            DiracParameters(m=0.0, p0=[0, 0, 0])

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError, match="3-vector"):
            DiracParameters(m=1.0, p0=[1, 2])

    @pytest.mark.parametrize("shape", [(4, 2), (3, 3), (5, 3), (3,)])
    def test_rejects_momenta_not_one_per_mass(self, shape):
        with pytest.raises(ValueError, match=r"3-vector, or \(n, 3\)"):
            DiracParameters(m=np.ones(4), p0=np.ones(shape))

    def test_rejects_2d_mass(self):
        with pytest.raises(ValueError, match=r"3-vector, or \(n, 3\)"):
            DiracParameters(m=np.ones((2, 2)), p0=np.ones((2, 2, 3)))

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            DiracParameters(m=1.0, p0=[0, 0, 1], theta=theta)
        with pytest.raises(ValueError, match="theta must be finite"):
            DiracParameters(m=np.ones(3), p0=np.ones((3, 3)), theta=[0.1, theta, 0.2])

    def test_rejects_theta_not_one_per_mass(self):
        with pytest.raises(ValueError, match="one angle per set"):
            DiracParameters(m=np.ones(3), p0=np.ones((3, 3)), theta=np.zeros(4))

    def test_scalar_theta_is_shared_by_n_sets(self):
        params = DiracParameters(m=np.ones(3), p0=np.ones((3, 3)), theta=0.7)
        assert np.array_equal(params.theta, [0.7, 0.7, 0.7])
        assert np.array_equal(DiracParameters(m=np.ones(2), p0=np.ones((2, 3))).theta,
                              [DEFAULT_THETA, DEFAULT_THETA])

    def test_rejects_one_degenerate_set_among_n(self):
        with pytest.raises(ValueError, match="degenerate"):
            DiracParameters(m=[1.0, 0.0, 2.0], p0=[[0, 0, 1], [0, 0, 0], [1, 0, 0]])

    @pytest.mark.parametrize("m,p0", [
        ([1.0, np.nan, 2.0], np.ones((3, 3))),
        ([1.0, 1e200, 2.0], np.ones((3, 3))),
        ([1.0, 1.0, 2.0], [[0, 0, 1], [0, np.inf, 0], [1, 0, 0]]),
    ])
    def test_rejects_one_non_finite_set_among_n(self, m, p0):
        with pytest.raises(ValueError, match="non-finite energy"):
            DiracParameters(m=m, p0=p0)

    def test_replace_recomputes_energy(self):
        params = DiracParameters(m=3.0, p0=[0, 4, 0])
        moved = dataclasses.replace(params, m=0.0)
        assert moved.energy == 4.0 and params.energy == 5.0
        stacked = DiracParameters(m=[3.0, 1.0], p0=[[0, 4, 0], [0, 0, 0]])
        assert np.array_equal(dataclasses.replace(stacked, m=np.array([0.0, 2.0])).energy, [4.0, 2.0])

    def test_holds_read_only_copies_of_its_arrays(self):
        m, p0 = np.array([3.0, 1.0]), np.array([[0.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        params = DiracParameters(m=m, p0=p0)
        m[0], p0[0, 1] = 0.0, 0.0
        assert np.array_equal(params.m, [3.0, 1.0]) and np.array_equal(params.p0[0], [0.0, 4.0, 0.0])
        assert np.array_equal(params.energy, [5.0, np.sqrt(2.0)])
        for name in ("m", "p0", "theta", "energy"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(params, name)[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            DiracParameters(m=1.0, p0=[0, 0, 1]).p0[0] = 1.0

    def test_su4_family_takes_one_set(self):
        with pytest.raises(ValueError, match="one parameter set"):
            su4_family(DiracParameters(m=np.ones(4), p0=np.ones((4, 3))))

    @pytest.mark.parametrize("m,p0", [
        (1e200, [0, 0, 1]), (0.0, [0, 0, 1e200]), (float("nan"), [0, 0, 1]), (1.0, [np.inf, 0, 0]),
    ])
    def test_rejects_non_finite_energy(self, m, p0):
        with pytest.raises(ValueError, match="non-finite energy"):
            DiracParameters(m=m, p0=p0)


class TestDiracHamiltonian:
    def test_reduces_to_static_matrix_at_t0(self):
        params = DiracParameters(m=1.0, p0=[0, 0, 1])
        h = dirac_hamiltonian(params, 0.0)
        assert np.max(np.abs(h - assemble_dirac(dirac_operators(), 1.0, [0, 0, 1]))) < 1e-15

    def test_involutory_for_all_times(self):
        for _ in range(30):
            params = random_params(RNG, min_p=0.0)
            t = RNG.uniform(-3, 3)
            h = dirac_hamiltonian(params, t)
            assert np.max(np.abs(h - dagger(h))) < 1e-14
            assert np.max(np.abs(h @ h - params.energy ** 2 * np.eye(4))) < 1e-12

    def test_period_in_block_phase(self):
        params = random_params(RNG)
        t0 = 0.37
        h1 = dirac_hamiltonian(params, t0)
        h2 = dirac_hamiltonian(params, t0 + np.pi / params.energy)
        assert np.max(np.abs(h1 - h2)) < 1e-12

    def test_energy_sphere_radius(self):
        # Tr(H^2) = dim * E^2; the radius helper uses the audited divisor
        params = DiracParameters(m=1.0, p0=[0, 0, 1])
        h = dirac_hamiltonian(params, 0.0)
        assert np.trace(h @ h).real / 2.0 == pytest.approx(2 * params.energy ** 2)
        assert isotropic_energy(h) == pytest.approx(params.energy, abs=1e-12)

    @pytest.mark.parametrize("bad,message", [
        (np.full((2, 2), np.nan), r"^matrix has non-finite entries$"),
        (np.diag([np.inf, 1.0]), r"^matrix has non-finite entries$"),
        (np.zeros((2, 2, 2)), r"^expected one square matrix, got shape \(2, 2, 2\)$"),
        (np.zeros((2, 3)), r"^expected a square matrix or a stack of them, got shape \(2, 3\)$"),
    ], ids=["nan", "inf", "stack", "not_square"])
    def test_energy_sphere_radius_refuses_all_but_one_finite_matrix(self, bad, message):
        # a NaN once came back as nan, an inf as inf with a warning, a stack as numpy's ambiguity error
        with pytest.raises(ValueError, match=message):
            isotropic_energy(bad)


class TestEigenframe:
    def test_inverse_pair(self):
        for _ in range(20):
            params = random_params(RNG)
            t = RNG.uniform(-2, 2)
            fr = su4_eigenframe(params, t)
            assert np.max(np.abs(fr.w @ fr.w_inv - np.eye(4))) < 1e-10
            assert np.max(np.abs(fr.w_inv @ fr.w - np.eye(4))) < 1e-10

    def test_realizes_hamiltonian(self):
        for _ in range(20):
            params = random_params(RNG)
            t = RNG.uniform(-2, 2)
            fr = su4_eigenframe(params, t)
            assert np.max(np.abs(fr.hamiltonian() - dirac_hamiltonian(params, t))) < 1e-10

    def test_columns_are_eigenvectors(self):
        params = random_params(RNG)
        fr = su4_eigenframe(params, 0.0)
        h0 = dirac_hamiltonian(params, 0.0)
        e = params.energy
        assert np.max(np.abs(h0 @ fr.w - fr.w @ fr.d0)) < 1e-12
        assert np.array_equal(np.diag(fr.d0), np.array([e, e, -e, -e]))

    def test_not_unitary(self):
        fr = su4_eigenframe(DiracParameters(m=1.0, p0=[0, 0, 1]), 0.0)
        assert np.max(np.abs(dagger(fr.w) @ fr.w - np.eye(4))) > 0.1

    def test_energy_split_product(self):
        params = random_params(RNG)
        e, m = params.energy, params.m
        assert (e - m) * (e + m) == pytest.approx(params.p0 @ params.p0, rel=1e-12)

    def test_static_block_table_at_theta_zero(self):
        # literal static form: columns built from (px - i py), pz over E -+ m
        m, p = 0.8, np.array([0.4, -0.7, 1.1])
        params = DiracParameters(m=m, p0=p, theta=0.0)
        e = params.energy
        em, ep = e - m, e + m
        px, py, pz = p
        w_expected = np.array([
            [(px - 1j * py) / em, pz / em, -(px - 1j * py) / ep, -pz / ep],
            [-pz / em, (px + 1j * py) / em, pz / ep, -(px + 1j * py) / ep],
            [0, 1, 0, 1],
            [1, 0, 1, 0],
        ])
        w_inv_expected = np.array([
            [px + 1j * py, -pz, 0, em],
            [pz, px - 1j * py, em, 0],
            [-(px + 1j * py), pz, 0, ep],
            [-pz, -(px - 1j * py), ep, 0],
        ]) / (2 * e)
        fr = su4_eigenframe(params, 0.0)
        assert np.max(np.abs(fr.w - w_expected)) < 1e-14
        assert np.max(np.abs(fr.w_inv - w_inv_expected)) < 1e-14

    def test_rejects_zero_momentum(self):
        with pytest.raises(ValueError, match=r"\|p0\| > 0"):
            su4_eigenframe(DiracParameters(m=1.0, p0=[0, 0, 0]), 0.0)

    @pytest.mark.parametrize("m", [1.0, -1.0])
    @pytest.mark.parametrize("p", [1e-9, 1e-7])
    def test_tiny_momentum_without_cancellation(self, m, p):
        # E - m (m > 0) or E + m (m < 0) cancels to 0 or a few ulps when |p0| << |m|
        params = DiracParameters(m=m, p0=[p, 0, 0])
        t = 0.3
        with np.errstate(all="raise"):
            fr = su4_eigenframe(params, t)
        assert np.isfinite(fr.w).all() and np.isfinite(fr.w_inv).all()
        assert np.max(np.abs(fr.w @ fr.w_inv - np.eye(4))) <= 1e-14
        assert np.max(np.abs(fr.w_inv @ fr.w - np.eye(4))) <= 1e-14
        assert np.max(np.abs(fr.hamiltonian() - dirac_hamiltonian(params, t))) <= 1e-14
        with pytest.raises(ValueError, match=r"\|p0\| > 0"):
            su4_eigenframe(DiracParameters(m=m, p0=[0, 0, 0]), t)

    def test_conjugator_is_frame_transport_up_to_phase(self):
        # W(t) W(s)^-1 = e^{-iE(t-s)} U(t, s) with the audited sign
        params = random_params(RNG)
        t, s = 0.9, -0.3
        wt = su4_eigenframe(params, t)
        ws = su4_eigenframe(params, s)
        u = su4_propagator(params, t, s)
        phase = np.exp(-1j * params.energy * (t - s))
        assert np.max(np.abs(wt.w @ ws.w_inv - phase * u)) < 1e-12


class TestSu4Propagator:
    def test_identity_at_equal_times(self):
        params = random_params(RNG)
        assert np.max(np.abs(su4_propagator(params, 1.3, 1.3) - np.eye(4))) < 1e-15

    def test_isometry_with_audited_sign(self):
        for _ in range(20):
            params = random_params(RNG)
            t, s = RNG.uniform(-2, 2, 2)
            u = su4_propagator(params, t, s)
            lhs = u @ dirac_hamiltonian(params, s) @ dagger(u)
            assert np.max(np.abs(lhs - dirac_hamiltonian(params, t))) < 1e-10

    def test_opposite_sign_fails_isometry(self):
        params = DiracParameters(m=1.0, p0=[0, 0, 1])
        t, s = 0.7, 0.1
        u = su4_propagator(params, t, s).conj()  # the competing phase sign
        lhs = u @ dirac_hamiltonian(params, s) @ dagger(u)
        assert np.max(np.abs(lhs - dirac_hamiltonian(params, t))) > 0.1


class TestConstraintEvolution:
    def setup_method(self):
        self.basis = build_basis("su4")
        self.params = DiracParameters(m=0.9, p0=[0.4, -0.8, 1.1])

    def test_time_zero_identity(self):
        f0 = RNG.uniform(-2, 2, 15)
        assert np.max(np.abs(su4_constraint_t(f0, self.params, 0.0)
                             - reconstruct(f0, self.basis))) < 1e-14

    def test_block_diagonal_part_static(self):
        # support only on the diagonal-block labels s01..s03, s31..s33
        f0 = np.zeros(15)
        for label in ("s01", "s02", "s03", "s31", "s32", "s33"):
            f0[self.basis.index(label)] = RNG.uniform(-1, 1)
        f_start = reconstruct(f0, self.basis)
        for t in (0.3, 1.7):
            assert np.max(np.abs(su4_constraint_t(f0, self.params, t) - f_start)) < 1e-12

    def test_block_pattern(self):
        f0 = RNG.uniform(-2, 2, 15)
        f_start = reconstruct(f0, self.basis)
        t = 0.83
        ft = su4_constraint_t(f0, self.params, t)
        phase = np.exp(-2j * self.params.energy * t)
        assert np.max(np.abs(ft[:2, :2] - f_start[:2, :2])) < 1e-12
        assert np.max(np.abs(ft[2:, 2:] - f_start[2:, 2:])) < 1e-12
        assert np.max(np.abs(ft[:2, 2:] - phase * f_start[:2, 2:])) < 1e-12

    def test_orthogonality_transported(self):
        # Tr(H F) is invariant under simultaneous conjugation; force it to
        # zero at t = 0 and it stays zero
        f0 = RNG.uniform(-2, 2, 15)
        h0 = dirac_hamiltonian(self.params, 0.0)
        h0_coeffs = np.einsum("kij,ji->k", self.basis.elements, h0).real / self.basis.norm_constants
        f0 -= np.trace(h0 @ reconstruct(f0, self.basis)).real * h0_coeffs / np.trace(h0 @ h0).real
        for t in np.linspace(-2, 2, 7):
            ft = su4_constraint_t(f0, self.params, t)
            ht = dirac_hamiltonian(self.params, t)
            assert abs(np.trace(ht @ ft)) < 1e-10


class TestSu2Family:
    def test_closed_pair_values(self):
        fam = su2_family()
        assert np.max(np.abs(fam.propagator(np.pi, 0.0) - np.diag([1, -1]))) < 1e-12
        h = fam.hamiltonian(0.9)
        assert np.max(np.abs(h @ h - np.eye(2))) < 1e-14

    def test_isometry(self):
        fam = su2_family()
        for _ in range(20):
            t, s = RNG.uniform(-3, 3, 2)
            u = fam.propagator(t, s)
            assert np.max(np.abs(u @ fam.hamiltonian(s) @ dagger(u) - fam.hamiltonian(t))) < 1e-12

    def test_brachistochrone_consistency(self):
        # dH/dt(0) = sigma_y for H(0) = sigma_x requires the constraint
        # lambda sigma_z with lambda = -1/2
        from spinctl.audit import _matrix_rates
        deriv = _matrix_rates(canonical_split("su2"), np.array([1.0, 0.0, -0.5]))
        assert np.allclose(deriv[:2], [0.0, 1.0], atol=1e-14)
        fd = (su2_family().hamiltonian(1e-7) - su2_family().hamiltonian(-1e-7)) / 2e-7
        assert np.max(np.abs(fd - SY)) < 1e-7


class TestSu3Family:
    def test_gate_at_zero(self):
        r = 1 / np.sqrt(2)
        expected = np.array([[r, -r, 0], [r, r, 0], [0, 0, 1]], dtype=complex)
        assert np.max(np.abs(su3_gate(0.0) - expected)) == 0.0

    def test_gate_unitary(self):
        for _ in range(10):
            q = su3_gate(RNG.uniform(-3, 3), RNG.uniform(-3, 3))
            assert np.max(np.abs(q @ dagger(q) - np.eye(3))) < 1e-14

    def test_q_factorization(self):
        for _ in range(20):
            theta = RNG.uniform(-3, 3)
            fam = su3_family(theta)
            t, s = RNG.uniform(-3, 3, 2)
            assert np.max(np.abs(fam.gate(t) @ dagger(fam.gate(s)) - fam.propagator(t, s))) < 1e-14

    def test_isometry(self):
        for _ in range(20):
            theta = RNG.uniform(-3, 3)
            fam = su3_family(theta)
            t, s = RNG.uniform(-3, 3, 2)
            u = fam.propagator(t, s)
            assert np.max(np.abs(u @ fam.hamiltonian(s) @ dagger(u) - fam.hamiltonian(t))) < 1e-12

    def test_flipped_corner_breaks_unitarity(self):
        fam = su3_family(0.4)
        u = fam.propagator(1.1, 0.2)
        u_flipped = u.copy()
        u_flipped[0, 2] = -u_flipped[0, 2]
        assert np.max(np.abs(u_flipped @ dagger(u_flipped) - np.eye(3))) > 0.1

    def test_hamiltonian_spectrum_fixed(self):
        # Q(t) diagonalizes H(t) with static eigenvalues (1, -1, 0)
        fam = su3_family(-0.9)
        for t in (0.0, 0.7, 2.1):
            q = fam.gate(t)
            d = dagger(q) @ fam.hamiltonian(t) @ q
            assert np.max(np.abs(d - np.diag([1.0, -1.0, 0.0]))) < 1e-13

    def test_matches_brachistochrone_flow_at_theta_zero(self):
        # seed H(0) = l1 with a unit constraint on l4: the flow sweeps out
        # exactly the theta = 0 family and leaves the constraint untouched
        from spinctl.brachistochrone import OperatorPair, integrate
        split = canonical_split("su3")
        f0 = np.zeros(6)
        f0[split.constraint_labels.index("l4")] = 1.0
        traj = integrate(OperatorPair(np.array([1.0, 0.0]), f0),
                         split, h=1e-3, T=2.0, sample_stride=200)
        fam = su3_family(0.0)
        for k, t in enumerate(traj.times):
            h = split.hamiltonian_matrix(traj.h_coeffs[k])
            assert np.max(np.abs(h - fam.hamiltonian(t))) < 1e-6
        assert np.max(np.abs(traj.f_coeffs - f0)) < 1e-10


class TestTimeReversal:
    def test_su2_su4_conjugation(self):
        fam2 = su2_family()
        params = random_params(RNG)
        fam4 = su4_family(params)
        for _ in range(20):
            t, s = RNG.uniform(-3, 3, 2)
            for fam in (fam2, fam4):
                assert np.max(np.abs(np.conj(fam.propagator(-t, -s)) - fam.propagator(t, s))) < 1e-12

    def test_su3_conjugation_at_real_phase(self):
        fam = su3_family(0.0)
        for _ in range(20):
            t, s = RNG.uniform(-3, 3, 2)
            assert np.max(np.abs(np.conj(fam.propagator(-t, -s)) - fam.propagator(t, s))) < 1e-12

    def test_su3_conjugation_flips_theta(self):
        # for general theta the conjugate of the reversed propagator lands in
        # the family at -theta
        for _ in range(20):
            theta = RNG.uniform(-3, 3)
            t, s = RNG.uniform(-3, 3, 2)
            lhs = np.conj(su3_family(theta).propagator(-t, -s))
            rhs = su3_family(-theta).propagator(t, s)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestEpsilonProduct:
    def test_unit_axes(self):
        for p in ([1, 0, 0], [0, 0, 1]):
            left, right = epsilon_product(p)
            assert np.max(np.abs(left - np.eye(2))) < 1e-15
            assert np.max(np.abs(right - np.eye(2))) < 1e-15

    def test_random(self):
        for _ in range(100):
            p = RNG.uniform(-2, 2, 3)
            left, right = epsilon_product(p)
            target = float(p @ p) * np.eye(2)
            assert np.max(np.abs(left - target)) < 1e-14
            assert np.max(np.abs(right - target)) < 1e-14
