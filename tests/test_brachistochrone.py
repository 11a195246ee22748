import numpy as np
import pytest

from spinctl.brachistochrone import (
    ControlSplit,
    DiracSplitState,
    NonFiniteStateError,
    OperatorPair,
    brachistochrone_rhs,
    canonical_split,
    dirac_split_rhs,
    dirac_state_to_pair,
    dirac_vector_rhs,
    integrate,
    pair_to_dirac_state,
)
from spinctl.generators import build_basis

RNG = np.random.default_rng(23)


def random_state(rng: np.random.Generator) -> DiracSplitState:
    return DiracSplitState(
        m=rng.uniform(-2, 2), p=rng.uniform(-2, 2, 3),
        omega0=rng.uniform(-2, 2, 3), omega2=rng.uniform(-2, 2, 3),
        omega3=rng.uniform(-2, 2, 3),
        omega10=rng.uniform(-2, 2), omega20=rng.uniform(-2, 2),
    )


def random_split(group: str, rng: np.random.Generator) -> ControlSplit:
    """A split whose S and S^c labels come in shuffled, non-basis order."""
    basis = build_basis(group)
    labels = [basis.labels[k] for k in rng.permutation(len(basis))]
    ns = int(rng.integers(1, len(basis)))
    return ControlSplit(basis, tuple(labels[:ns]), tuple(labels[ns:]))


class TestControlSplit:
    def test_canonical_splits(self):
        for group, ns in (("su2", 2), ("su3", 2), ("su4", 4)):
            split = canonical_split(group)
            assert len(split.hamiltonian_labels) == ns
            assert len(split.hamiltonian_labels) + len(split.constraint_labels) == len(split.basis)

    def test_rejects_overlap(self):
        basis = build_basis("su2")
        with pytest.raises(ValueError, match="overlap"):
            ControlSplit(basis, ("sx", "sy"), ("sy", "sz"))

    def test_rejects_incomplete_cover(self):
        basis = build_basis("su2")
        with pytest.raises(ValueError, match="cover"):
            ControlSplit(basis, ("sx",), ("sz",))

    def test_rejects_empty_hamiltonian_span(self):
        basis = build_basis("su2")
        with pytest.raises(ValueError, match="nonempty"):
            ControlSplit(basis, (), ("sx", "sy", "sz"))


class TestRhs:
    def test_zero_constraint_freezes_everything(self):
        split = canonical_split("su4")
        state = OperatorPair(RNG.uniform(-1, 1, 4), np.zeros(11))
        deriv = brachistochrone_rhs(state, split)
        assert np.array_equal(deriv.h_coeffs, np.zeros(4))
        assert np.array_equal(deriv.f_coeffs, np.zeros(11))

    def test_su2_commutator_direction(self):
        # H = sigma_x, F = lambda sigma_z: dH/dt = -2 lambda sigma_y, dF/dt = 0
        split = canonical_split("su2")
        lam = 0.7
        deriv = brachistochrone_rhs(OperatorPair(np.array([1.0, 0.0]), np.array([lam])), split)
        assert np.allclose(deriv.h_coeffs, [0.0, -2 * lam], atol=1e-14)
        assert np.allclose(deriv.f_coeffs, [0.0], atol=1e-14)

    def test_su4_mass_rate(self):
        # dm/dt = 2 (omega21 px + omega22 py + omega23 pz)
        split = canonical_split("su4")
        for _ in range(10):
            s = random_state(RNG)
            deriv = brachistochrone_rhs(dirac_state_to_pair(s), split)
            expected = 2 * float(s.omega2 @ s.p)
            assert abs(deriv.h_coeffs[0] - expected) < 1e-12

    def test_matrix_route_matches_coupling_tensor(self):
        groups = ("su2", "su3", "su4")
        splits = [canonical_split(g) for g in groups] + [random_split(g, RNG) for g in groups]
        for split in splits:
            m = split.coupling
            for _ in range(10):
                h = RNG.uniform(-2, 2, len(split.s_indices))
                f = RNG.uniform(-2, 2, len(split.c_indices))
                deriv = brachistochrone_rhs(OperatorPair(h, f), split)
                fast = np.einsum("kab,a,b->k", m, h, f)
                stacked = np.concatenate([deriv.h_coeffs, deriv.f_coeffs])
                assert np.max(np.abs(stacked - fast)) < 1e-13


class TestIntegrate:
    def test_constant_when_constraint_zero(self):
        split = canonical_split("su3")
        start = OperatorPair(np.array([1.0, -0.5]), np.zeros(6))
        traj = integrate(start, split, h=1e-2, T=1.0, sample_stride=10)
        assert np.allclose(traj.h_coeffs, traj.h_coeffs[0], atol=0)
        assert np.allclose(traj.f_coeffs, 0, atol=0)

    def test_empty_constraint_span(self):
        basis = build_basis("su3")
        split = ControlSplit(basis, basis.labels, ())
        start = OperatorPair(RNG.uniform(-1, 1, 8), np.zeros(0))
        traj = integrate(start, split, h=1e-2, T=0.1)
        assert np.array_equal(traj.h_coeffs, np.broadcast_to(start.h_coeffs, traj.h_coeffs.shape))
        assert traj.f_coeffs.shape == (11, 0)
        assert np.array_equal(traj.monitors[:, 1], np.zeros(11))

    def test_su2_reproduces_closed_form(self):
        split = canonical_split("su2")
        start = OperatorPair(np.array([1.0, 0.0]), np.array([-0.5]))
        traj = integrate(start, split, h=1e-3, T=2 * np.pi, sample_stride=50)
        expected = np.stack([np.cos(traj.times), np.sin(traj.times)], axis=1)
        assert np.max(np.abs(traj.h_coeffs - expected)) < 1e-6
        assert np.max(np.abs(traj.f_coeffs + 0.5)) < 1e-12

    def test_monitors_conserved(self):
        split = canonical_split("su4")
        start = OperatorPair(RNG.uniform(-1, 1, 4), RNG.uniform(-1, 1, 11))
        traj = integrate(start, split, h=1e-3, T=2.0, sample_stride=100)
        drift = traj.monitor_drift()
        assert drift[0] < 1e-9 and drift[1] < 1e-9
        tr_hf = [np.trace(split.hamiltonian_matrix(hc) @ split.constraint_matrix(fc)).real
                 for hc, fc in zip(traj.h_coeffs, traj.f_coeffs)]
        assert np.max(np.abs(tr_hf)) < 1e-12

    @pytest.mark.parametrize("group", ["su3", "su4"])
    def test_monitors_match_matrix_route(self, group):
        split = random_split(group, RNG)
        start = OperatorPair(RNG.uniform(-1, 1, len(split.s_indices)),
                             RNG.uniform(-1, 1, len(split.c_indices)))
        traj = integrate(start, split, h=1e-2, T=1.0, sample_stride=7)
        hm = np.array([split.hamiltonian_matrix(hc) for hc in traj.h_coeffs])
        fm = np.array([split.constraint_matrix(fc) for fc in traj.f_coeffs])
        expected = np.stack([np.einsum("nij,nji->n", hm, hm).real,
                             np.einsum("nij,nji->n", fm, fm).real], axis=1)
        assert traj.monitors.shape == expected.shape
        assert np.max(np.abs(traj.monitors - expected) / np.abs(expected)) < 1e-12

    def test_final_time_near_horizon(self):
        split = canonical_split("su2")
        start = OperatorPair(np.array([1.0, 0.0]), np.array([-0.5]))
        traj = integrate(start, split, h=0.4, T=1.0)
        assert abs(traj.times[-1] - 1.0) <= 0.4

    def test_rk4_order(self):
        split = canonical_split("su2")
        start = OperatorPair(np.array([1.0, 0.0]), np.array([-0.5]))

        def terminal_error(h):
            traj = integrate(start, split, h=h, T=2 * np.pi, sample_stride=10 ** 9)
            t_end = traj.times[-1]
            return np.max(np.abs(traj.h_coeffs[-1] - [np.cos(t_end), np.sin(t_end)]))

        ratio = terminal_error(0.05) / terminal_error(0.025)
        assert 12 <= ratio <= 20

    def test_invalid_grid(self):
        split = canonical_split("su2")
        start = OperatorPair(np.array([1.0, 0.0]), np.array([-0.5]))
        with pytest.raises(ValueError):
            integrate(start, split, h=-1e-3, T=1.0)
        with pytest.raises(ValueError):
            integrate(start, split, h=1e-3, T=0.0)
        with pytest.raises(ValueError):
            integrate(start, split, h=1e-3, T=1.0, sample_stride=0)

    @pytest.mark.parametrize("h,T", [(1e-320, 1e300), (1e-9, 1e3), (1e-8, 0.100000001)])
    def test_step_count_ceiling(self, h, T):
        split = canonical_split("su2")
        start = OperatorPair(np.array([1.0, 0.0]), np.array([-0.5]))
        with pytest.raises(ValueError, match="ceiling"):
            integrate(start, split, h=h, T=T)

    def test_monitor_overflow_detected_with_step_index(self):
        # F = 0 freezes a finite state whose Tr(H^2) overflows
        split = canonical_split("su2")
        start = OperatorPair(np.array([1e200, 0.0]), np.array([0.0]))
        with pytest.raises(NonFiniteStateError, match="monitor at step 0"):
            integrate(start, split, h=0.1, T=1.0)

    def test_nonfinite_detected_with_step_index(self):
        split = canonical_split("su4")
        start = OperatorPair(np.full(4, 1e154), np.full(11, 1e154))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"step \d+"):
                integrate(start, split, h=10.0, T=100.0)


class TestDiracSplitForms:
    def test_state_pair_roundtrip(self):
        s = random_state(RNG)
        back = pair_to_dirac_state(dirac_state_to_pair(s))
        assert s.m == back.m and np.array_equal(s.p, back.p)
        assert np.array_equal(s.omega3, back.omega3)
        assert s.omega10 == back.omega10 and s.omega20 == back.omega20

    def test_component_form_worked_examples(self):
        d = dirac_split_rhs(DiracSplitState(m=1.0, p=[0, 0, 2]))
        assert d.omega10 == -2.0
        assert d.omega3[2] == 4.0

        d = dirac_split_rhs(DiracSplitState(m=1.0, p=[1, 0, 0], omega2=[1, 0, 0]))
        assert d.m == 2.0
        assert d.p[0] == -2.0

        d = dirac_split_rhs(DiracSplitState(m=1.0, p=[0, 0, 0], omega10=1.0))
        assert d.omega20 == 2.0

    def test_component_form_conserves_energy(self):
        for _ in range(50):
            s = random_state(RNG)
            d = dirac_split_rhs(s)
            assert abs(s.m * d.m + s.p @ d.p) < 1e-12

    def test_vector_form_worked_examples(self):
        d = dirac_vector_rhs(DiracSplitState(m=1.0, p=[0.4, -0.3, 0.8]))
        assert np.array_equal(d.p, np.zeros(3))  # n+ = n- = 0

        d = dirac_vector_rhs(DiracSplitState(m=1.0, p=[1, 0, 0], omega2=[1, 0, 0]))
        assert d.m == 1.0  # b.p without the factor 2

        d = dirac_vector_rhs(DiracSplitState(m=0.0, p=[1, 0, 0]))
        assert np.array_equal(d.n_plus + d.n_minus, np.array([4.0, 0.0, 0.0]))

    def test_generic_engine_vs_component_form(self):
        """The generic projection matches the component form exactly (factor 1)
        on the mass/momentum/omega0/omega2/omega20 rates; the (omega10, omega3)
        block matches only after an extra omega20 factor."""
        split = canonical_split("su4")
        for _ in range(100):
            s = random_state(RNG)
            g = pair_to_dirac_state(brachistochrone_rhs(dirac_state_to_pair(s), split))
            d = dirac_split_rhs(s)
            assert abs(g.m - d.m) < 1e-12
            assert np.max(np.abs(g.p - d.p)) < 1e-12
            assert np.max(np.abs(g.omega0 - d.omega0)) < 1e-12
            assert np.max(np.abs(g.omega2 - d.omega2)) < 1e-12
            assert abs(g.omega20 - d.omega20) < 1e-12
            assert abs(g.omega10 - d.omega10 * s.omega20) < 1e-12
            assert np.max(np.abs(g.omega3 - d.omega3 * s.omega20)) < 1e-12

    def test_vector_form_cross_term_matches_generic(self):
        # the curl part of dp/dt agrees between the vector form and the
        # generic engine; the mass coupling does not (audited finding)
        split = canonical_split("su4")
        for _ in range(20):
            s = random_state(RNG)
            s = DiracSplitState(m=0.0, p=s.p, omega0=s.omega0, omega2=np.zeros(3),
                                omega3=s.omega3, omega10=s.omega10, omega20=s.omega20)
            g = pair_to_dirac_state(brachistochrone_rhs(dirac_state_to_pair(s), split))
            v = dirac_vector_rhs(s)
            assert np.max(np.abs(g.p - v.p)) < 1e-12

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError, match="3-vector"):
            DiracSplitState(m=1.0, p=[1, 2])
