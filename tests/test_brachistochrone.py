import numpy as np
import pytest

from dirac_rows import named
from sum_parts import part_columns
from spinctl import brachistochrone as bt
from spinctl.brachistochrone import (
    ControlSplit,
    NonFiniteStateError,
    OperatorPair,
    brachistochrone_rhs,
    canonical_split,
    integrate,
)
from spinctl.generators import build_basis

RNG = np.random.default_rng(23)


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

    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    def test_matrices_of_a_stack(self, group):
        split = random_split(group, RNG)
        hc = RNG.uniform(-1, 1, (7, len(split.s_indices)))
        fc = RNG.uniform(-1, 1, (7, len(split.c_indices)))
        for build, rows in ((split.hamiltonian_matrix, hc), (split.constraint_matrix, fc)):
            stacked = build(rows)
            assert stacked.shape == (7, split.basis.dim, split.basis.dim)
            assert np.array_equal(stacked, np.array([build(row) for row in rows]))


def textbook_rk4(coupling: np.ndarray, ns: int, c: np.ndarray, h: float, n_steps: int,
                 stride: int) -> tuple[np.ndarray, np.ndarray]:
    """RK4 as first written: a fresh array per stage, the state checked at every step.

    The bitwise reference for ``bt._rk4``: the same (times, samples), and the
    same NonFiniteStateError, naming the first non-finite step and run.
    """
    def rhs(x):
        return np.einsum("kab,na,nb->nk", coupling, x[:, :ns], x[:, ns:])

    times, samples = [0.0], [c.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * h * k1)
            k3 = rhs(c + 0.5 * h * k2)
            k4 = rhs(c + h * k3)
            k2 *= 2
            k3 *= 2
            k1 += k2
            k1 += k3
            k1 += k4
            k1 *= h / 6.0
            c = c + k1
            finite = np.isfinite(c).all(axis=1)
            if not finite.all():
                where = f" of run {int(np.argmin(finite))}" if len(c) > 1 else ""
                raise NonFiniteStateError(f"non-finite state at step {step}{where}")
            if step % stride == 0 or step == n_steps:
                times.append(step * h)
                samples.append(c)
    return np.array(times), np.array(samples)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal bit patterns, so 0.0 and -0.0 differ."""
    assert actual.dtype == expected.dtype == np.float64 and actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


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
            x = RNG.uniform(-2, 2, 15)
            s = named(x)
            deriv = brachistochrone_rhs(OperatorPair(x[:4], x[4:]), split)
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


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e2, 1e3, 1e6])
    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    def test_large_commutator_is_projected_without_trace_warning(self, group, scale):
        # Tr -i[H, F] = 0 by construction; its rounded trace grows with |H||F|
        split = canonical_split(group)
        rng = np.random.default_rng(58)
        h = scale * rng.uniform(-1, 1, (50, len(split.s_indices)))
        f = scale * rng.uniform(-1, 1, (50, len(split.c_indices)))
        deriv = brachistochrone_rhs(OperatorPair(h, f), split)
        fast = np.einsum("kab,na,nb->nk", split.coupling, h, f)
        stacked = np.concatenate([deriv.h_coeffs, deriv.f_coeffs], axis=1)
        assert np.max(np.abs(stacked - fast)) <= 1e-13 * scale ** 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_commutator_raises(self, bad):
        split = canonical_split("su3")
        h, f = np.ones(len(split.s_indices)), np.ones(len(split.c_indices))
        h[1] = f[0] = bad  # 1e200 is finite, but H F overflows
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError, match="non-finite"):
            brachistochrone_rhs(OperatorPair(h, f), split)


class TestStackedRhs:
    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "random_split"])
    def test_rows_bitwise_per_row_calls(self, group, canonical):
        split = canonical_split(group) if canonical else random_split(group, RNG)
        ns, nc = len(split.s_indices), len(split.c_indices)
        h, f = RNG.uniform(-2, 2, (40, ns)), RNG.uniform(-2, 2, (40, nc))
        deriv = brachistochrone_rhs(OperatorPair(h, f), split)
        assert deriv.h_coeffs.shape == (40, ns) and deriv.f_coeffs.shape == (40, nc)
        for k in range(40):
            row = brachistochrone_rhs(OperatorPair(h[k], f[k]), split)
            assert np.array_equal(deriv.h_coeffs[k], row.h_coeffs)
            assert np.array_equal(deriv.f_coeffs[k], row.f_coeffs)

    @pytest.mark.parametrize("h_lead,f_lead",
                             [((3,), (1,)), ((1,), (3,)), ((), (3,)), ((3,), ()), ((2,), (3,))],
                             ids=["n_vs_1", "1_vs_n", "row_vs_stack", "stack_vs_row", "n_vs_m"])
    def test_mismatched_stacks_raise(self, h_lead, f_lead):
        split = canonical_split("su3")
        state = OperatorPair(np.ones(h_lead + (len(split.s_indices),)),
                             np.ones(f_lead + (len(split.c_indices),)))
        with pytest.raises(ValueError, match="stacks differ"):
            brachistochrone_rhs(state, split)


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
        for stride in (0, np.nan, 2.5, 4.0):
            with pytest.raises(ValueError, match="sample_stride must be an integer"):
                integrate(start, split, h=1e-3, T=1.0, sample_stride=stride)
        assert integrate(start, split, h=1e-2, T=1.0, sample_stride=np.int64(10)).times.shape == (11,)

    @pytest.mark.parametrize("h,T", [(np.inf, 1.0), (np.nan, 1.0), (1e-3, np.inf), (1e-3, np.nan)])
    def test_rejects_non_finite_grid(self, h, T):
        # T / h is 0 steps for an infinite h and NaN for a NaN one: the grid is checked first
        split = canonical_split("su2")
        start = OperatorPair(np.array([1.0, 0.0]), np.array([-0.5]))
        with pytest.raises(ValueError, match=f"positive and finite, got h = {h}, T = {T}"):
            integrate(start, split, h=h, T=T)

    @pytest.mark.parametrize("h_len,f_len", [(3, 0), (1, 2), (2, 2), (2, 0)])
    def test_rejects_mis_sized_pair(self, h_len, f_len):
        # a right total length must not let coefficients slide between H and F
        split = canonical_split("su2")
        start = OperatorPair(np.ones(h_len), np.ones(f_len))
        with pytest.raises(ValueError, match=r"needs \(2,\) and \(1,\)"):
            integrate(start, split, h=1e-2, T=0.1)

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



def random_starts(split: ControlSplit, runs: int) -> OperatorPair:
    return OperatorPair(RNG.uniform(-1, 1, (runs, len(split.s_indices))),
                        RNG.uniform(-1, 1, (runs, len(split.c_indices))))


class TestStackedIntegrate:
    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "random"])
    def test_rows_bitwise_serial(self, group, canonical):
        split = canonical_split(group) if canonical else random_split(group, RNG)
        starts = random_starts(split, 5)
        traj = integrate(starts, split, h=1e-2, T=1.0, sample_stride=7)
        n = len(traj.times)
        assert traj.h_coeffs.shape == (5, n, len(split.s_indices))
        assert traj.f_coeffs.shape == (5, n, len(split.c_indices))
        assert traj.monitors.shape == (5, n, 2)
        assert traj.monitor_drift().shape == (5, 2)
        for r, (h0, f0) in enumerate(zip(starts.h_coeffs, starts.f_coeffs)):
            alone = integrate(OperatorPair(h0, f0), split, h=1e-2, T=1.0, sample_stride=7)
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.h_coeffs[r], alone.h_coeffs)
            assert np.array_equal(traj.f_coeffs[r], alone.f_coeffs)
            assert np.array_equal(traj.monitors[r], alone.monitors)
            assert np.array_equal(traj.monitor_drift()[r], alone.monitor_drift())

    def test_one_overflowing_run_is_named(self):
        split = canonical_split("su4")
        starts = random_starts(split, 3)
        starts.h_coeffs[1], starts.f_coeffs[1] = 1e154, 1e154
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as alone:
                integrate(OperatorPair(starts.h_coeffs[1], starts.f_coeffs[1]), split, h=10.0, T=100.0)
            with pytest.raises(NonFiniteStateError) as stacked:
                integrate(starts, split, h=10.0, T=100.0)
        assert str(alone.value).startswith("non-finite state at step ")
        assert str(stacked.value) == f"{alone.value} of run 1"

    def test_overflowing_monitor_names_the_run(self):
        # run 1 has F = 0, which freezes a finite state whose Tr(H^2) overflows
        split = canonical_split("su2")
        starts = OperatorPair(np.array([[1.0, 0.0], [1e200, 0.0]]), np.array([[-0.5], [0.0]]))
        with pytest.raises(NonFiniteStateError, match="monitor at step 0 of run 1$"):
            integrate(starts, split, h=0.1, T=1.0)

    @pytest.mark.parametrize("h_shape,f_shape", [
        ((3, 2), (4, 1)),   # runs differ
        ((3, 2), (1,)),     # a stack and a row
        ((3, 3), (3, 0)),   # the right total width, split wrongly
        ((3, 2), (3, 2)),
        ((0, 2), (0, 1)),   # no runs
        ((1, 3, 2), (1, 3, 1)),
    ])
    def test_rejects_mis_shaped_stack(self, h_shape, f_shape):
        split = canonical_split("su2")
        with pytest.raises(ValueError, match=r"needs \(runs, 2\) and \(runs, 1\)"):
            integrate(OperatorPair(np.ones(h_shape), np.ones(f_shape)), split, h=1e-2, T=0.1)


class TestRk4Kernel:
    """``_rk4`` is ``textbook_rk4`` bit for bit, across _flow's check blocks."""

    N_STEPS = 150  # two full blocks of 64 steps and a partial one

    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "random"])
    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_matches_textbook(self, group, canonical, runs, stride):
        rng = np.random.default_rng(41)
        split = canonical_split(group) if canonical else random_split(group, rng)
        ns = len(split.s_indices)
        x0 = rng.uniform(-1, 1, (runs, len(split.basis)))
        got = bt._rk4(split.coupling, ns, x0, 1e-2, self.N_STEPS, stride)
        for actual, expected in zip(got, textbook_rk4(split.coupling, ns, x0, 1e-2, self.N_STEPS, stride)):
            assert_bitwise(actual, expected)

    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    def test_signed_zeros_match_textbook(self, group):
        split = canonical_split(group)
        ns, n = len(split.s_indices), len(split.basis)
        x0 = np.random.default_rng(43).uniform(-1, 1, (3, n))
        x0[0, ::2], x0[0, 1::2] = 0.0, -0.0
        x0[1, 0], x0[1, ns - 1], x0[1, ns], x0[1, -1] = -0.0, 0.0, -0.0, 0.0
        x0[2, ns:] = -0.0  # F = 0 holds H still
        # the stage sums add slopes to -0.0 entries: both routes must give each sum the same sign
        got = bt._rk4(split.coupling, ns, x0, 1e-2, self.N_STEPS, 1)
        for actual, expected in zip(got, textbook_rk4(split.coupling, ns, x0, 1e-2, self.N_STEPS, 1)):
            assert_bitwise(actual, expected)


class TestNonFiniteBlocks:
    """A blow-up is named at its step wherever it falls against _flow's 64-step blocks.

    With F = f sz fixed, the su2 flow rotates H at 2|f| per unit time. At
    h = 3 and f = -0.5 each RK4 step multiplies |H| by about 1.5, so the
    start's size sets the step at which the state overflows. The other
    runs (|f| <= 0.2) are stable at that step size.
    """

    H = 3.0

    @staticmethod
    def starts(scale: float) -> np.ndarray:
        """Rows (h_sx, h_sy, f_sz); run 1, of size ``scale``, is the one that grows."""
        return np.array([[1.0, 0.0, 0.1], [scale, 0.0, -0.5], [0.0, 1.0, 0.2]])

    @pytest.mark.parametrize("scale,n_steps,step", [
        (1.4e296, 100, 64),
        (9e295, 100, 65),
        (3e291, 100, 90),
        (3e291, 90, 90),
    ], ids=["last_of_block", "first_of_next_block", "in_final_partial_block", "at_last_step"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
    def test_integrate_names_the_step(self, scale, n_steps, step, stacked):
        assert bt._BLOCK == 64, "the scales above place each blow-up against 64-step blocks"
        split = canonical_split("su2")
        x0 = self.starts(scale) if stacked else self.starts(scale)[1:2]
        with pytest.raises(NonFiniteStateError) as reference:
            textbook_rk4(split.coupling, 2, x0, self.H, n_steps, 1)
        assert str(reference.value) == f"non-finite state at step {step}" + (" of run 1" if stacked else "")
        start = OperatorPair(x0[:, :2], x0[:, 2:]) if stacked else OperatorPair(x0[0, :2], x0[0, 2:])
        with pytest.raises(NonFiniteStateError) as got:
            integrate(start, split, h=self.H, T=self.H * n_steps)
        assert str(got.value) == str(reference.value)

    def test_taylor_names_a_step_past_the_first_block(self):
        # every _taylor step is sampled, so a finite run's samples are each step's state
        coupling, x0 = canonical_split("su2").coupling, self.starts(3e291)
        samples = bt._taylor(coupling, 2, x0, self.H, 94, order=4)[1]
        assert np.isfinite(samples).all()
        with pytest.raises(NonFiniteStateError, match=r"^non-finite state at step 1 of run 1$"):
            bt._taylor(coupling, 2, samples[-1], self.H, 1, order=4)
        with pytest.raises(NonFiniteStateError, match=r"^non-finite state at step 95 of run 1$"):
            bt._taylor(coupling, 2, x0, self.H, 150, order=4)


class TestSumSplit:
    """A split of the direct sum su2+su3+su4 is each group's split, block by block."""

    SUM = "su2+su3+su4"

    def test_canonical_split_joins_the_parts(self):
        split = canonical_split(self.SUM)
        assert split.hamiltonian_labels == ("su2.sx", "su2.sy", "su3.l1", "su3.l7",
                                            "su4.s30", "su4.s11", "su4.s12", "su4.s13")
        assert split.constraint_labels[:2] == ("su2.sz", "su3.l2")
        assert len(split.constraint_labels) == 18

    def test_coupling_blocks_are_the_parts(self):
        split = canonical_split(self.SUM)
        assert split.coupling.shape == (26, 8, 18)
        nonzeros = 0
        for group in ("su2", "su3", "su4"):
            part = canonical_split(group).coupling
            s, c = part_columns(split, group)
            block = split.coupling[np.ix_(np.concatenate([s, 8 + c]), s, c)]
            assert block.tobytes() == part.tobytes()
            nonzeros += np.count_nonzero(part)
        assert np.count_nonzero(split.coupling) == nonzeros  # zero off the blocks

    @pytest.mark.parametrize("h,T,stride", [(1e-2, 0.5, 1), (1e-3, 1.0, 7), (0.1, 2.0, 3)])
    def test_stacked_integrate_is_each_groups_run(self, h, T, stride):
        split = canonical_split(self.SUM)
        starts = random_starts(split, 5)
        traj = integrate(starts, split, h=h, T=T, sample_stride=stride)
        for group in ("su2", "su3", "su4"):
            s, c = part_columns(split, group)
            alone = integrate(OperatorPair(starts.h_coeffs[:, s], starts.f_coeffs[:, c]),
                              canonical_split(group), h=h, T=T, sample_stride=stride)
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.h_coeffs[..., s], alone.h_coeffs)
            assert np.array_equal(traj.f_coeffs[..., c], alone.f_coeffs)


class TestTaylorFlow:
    @pytest.mark.parametrize("order", [4, 6])
    def test_step_halving_gains_two_to_the_order(self, order):
        # global error at a fixed order p scales as step^p; the reference is the
        # same kernel at order 20 and a quarter of the step
        split = canonical_split("su4")
        x0 = np.random.default_rng(5).uniform(-1, 1, (20, 15))
        ref = bt._taylor(split.coupling, 4, x0, 0.025, 40, order=20)[1][::4]

        def error(step, n_steps):
            """Per start, the worst error over the samples at t = 0, 0.1, ..., 1."""
            samples = bt._taylor(split.coupling, 4, x0, step, n_steps, order)[1]
            return np.max(np.abs(samples[::n_steps // 10] - ref), axis=(0, 2))

        ratio = error(0.1, 10) / error(0.05, 20)
        assert np.all((0.8 * 2 ** order <= ratio) & (ratio <= 1.2 * 2 ** order)), ratio

    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    def test_stacked_rows_are_bitwise_serial(self, group):
        split = canonical_split(group)
        ns = len(split.s_indices)
        x0 = np.random.default_rng(7).uniform(-1, 1, (50, ns + len(split.c_indices)))
        times, stacked = bt._taylor(split.coupling, ns, x0, 0.1, 10, order=14)
        for run, row in enumerate(x0):
            alone_times, alone = bt._taylor(split.coupling, ns, row[None], 0.1, 10, order=14)
            assert np.array_equal(times, alone_times)
            assert np.array_equal(stacked[:, run], alone[:, 0])

    @pytest.mark.parametrize("scale,step", [(1e100, 1), (1e20, 2)])
    def test_non_finite_state_names_step_and_run(self, scale, step):
        # the Taylor sum from a huge start overflows: in the first step, or, from a
        # smaller one, in the next step, whose series starts from the first's huge sum
        split = canonical_split("su4")
        x0 = np.full((3, 15), 0.5)
        x0[1] *= scale
        with pytest.raises(NonFiniteStateError, match=rf"^non-finite state at step {step} of run 1$"):
            bt._taylor(split.coupling, 4, x0, 0.1, 10, order=14)
        with pytest.raises(NonFiniteStateError, match=rf"^non-finite state at step {step}$"):
            bt._taylor(split.coupling, 4, x0[1:2], 0.1, 10, order=14)
