import numpy as np
import pytest

from spinctl.brachistochrone import canonical_split
from spinctl.closedforms import (
    AUDITED_CONVENTIONS,
    DiracParameters,
    dirac_hamiltonian,
    epsilon_product,
    isotropic_energy,
    su2_family,
    su3_family,
    su3_gate,
    su4_constraint_t,
    su4_eigenframe,
    su4_family,
    su4_propagator,
)
from spinctl.generators import PAULI, assemble_dirac, build_basis, dirac_operators, reconstruct
from spinctl.matrixcore import dagger

RNG = np.random.default_rng(31)
I2, SX, SY, SZ = PAULI


def random_params(rng, min_p=0.1) -> DiracParameters:
    p = rng.uniform(-2, 2, 3)
    while np.linalg.norm(p) <= min_p:
        p = rng.uniform(-2, 2, 3)
    return DiracParameters(m=rng.uniform(-2, 2), p0=p)


class TestStackedHamiltonian:
    def test_families_broadcast_over_time(self):
        ts = np.linspace(-2.0, 3.0, 11)
        for fam in (su2_family(), su3_family(0.9), su4_family(random_params(RNG))):
            stacked = fam.hamiltonian(ts)
            assert stacked.shape == (len(ts), fam.dim, fam.dim)
            assert np.array_equal(stacked, np.stack([fam.hamiltonian(t) for t in ts]))
            assert fam.hamiltonian(0.4).shape == (fam.dim, fam.dim)
            assert fam.hamiltonian(ts[:1]).shape == (1, fam.dim, fam.dim)


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
        assert (e - m) * (e + m) == pytest.approx(params.momentum_norm ** 2, rel=1e-12)

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
        u = su4_propagator(params, t, s, phase_sign=-AUDITED_CONVENTIONS.su4_phase_sign)
        lhs = u @ dirac_hamiltonian(params, s) @ dagger(u)
        assert np.max(np.abs(lhs - dirac_hamiltonian(params, t))) > 0.1

    def test_rejects_other_signs(self):
        with pytest.raises(ValueError):
            su4_propagator(random_params(RNG), 1.0, 0.0, phase_sign=2)


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
        from spinctl.brachistochrone import OperatorPair, brachistochrone_rhs
        split = canonical_split("su2")
        deriv = brachistochrone_rhs(OperatorPair(np.array([1.0, 0.0]), np.array([-0.5])), split)
        assert np.allclose(deriv.h_coeffs, [0.0, 1.0], atol=1e-14)
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
