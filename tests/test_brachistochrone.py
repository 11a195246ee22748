import ast
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_rows import named
from helpers import PROPERTY
from sum_parts import part_columns
from spinctl import brachistochrone as bt
from spinctl.audit import _matrix_rates
from spinctl.brachistochrone import (
    ControlSplit,
    NonFiniteStateError,
    OperatorPair,
    Trajectory,
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

    def test_rejects_repeated_label(self):
        basis = build_basis("su2")
        with pytest.raises(ValueError, match="split labels must be distinct"):
            ControlSplit(basis, ("sx", "sx"), ("sy", "sz"))

    def test_rejects_incomplete_cover(self):
        basis = build_basis("su2")
        with pytest.raises(ValueError, match="cover"):
            ControlSplit(basis, ("sx",), ("sz",))

    def test_rejects_empty_hamiltonian_span(self):
        basis = build_basis("su2")
        with pytest.raises(ValueError, match="nonempty"):
            ControlSplit(basis, (), ("sx", "sy", "sz"))

    def test_list_labels_key_the_kernel_cache_as_tuples(self):
        # list labels once made the split unhashable, so integrate failed in the kernel cache
        basis = build_basis("su2")
        listed, tupled = ControlSplit(basis, ["sx", "sy"], ["sz"]), ControlSplit(basis, ("sx", "sy"), ("sz",))
        assert listed.hamiltonian_labels == ("sx", "sy") and listed.constraint_labels == ("sz",)
        assert listed == tupled and hash(listed) == hash(tupled)
        x0 = np.random.default_rng(101).uniform(-1, 1, 3)
        expected = integrate(OperatorPair(x0[:2], x0[2:]), tupled, h=1e-2, T=0.5, sample_stride=7)
        misses = bt._compile_step.cache_info().misses
        got = integrate(OperatorPair(x0[:2], x0[2:]), listed, h=1e-2, T=0.5, sample_stride=7)
        assert bt._compile_step.cache_info().misses == misses
        for field in ("times", "h_coeffs", "f_coeffs", "monitors"):
            assert_bitwise(getattr(got, field), getattr(expected, field))

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

    The bitwise reference for ``integrate``'s RK4: the same times and
    samples, and the same NonFiniteStateError, naming the first non-finite step.
    """
    def rhs(x):
        return np.einsum("kab,a,b->k", coupling, x[:ns], x[ns:])

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
            if not np.isfinite(c).all():
                raise NonFiniteStateError(f"non-finite state at step {step}")
            if step % stride == 0 or step == n_steps:
                times.append(step * h)
                samples.append(c)
    return np.array(times), np.array(samples)


@st.composite
def splits(draw) -> ControlSplit:
    """A split of su2, su3, su4 or a sum of them over a permutation of its labels, with any nonempty S."""
    basis = build_basis(draw(st.sampled_from(["su2", "su3", "su4", "su2+su3", "su2+su3+su4"])))
    labels = draw(st.permutations(basis.labels))
    ns = draw(st.integers(1, len(basis)))
    return ControlSplit(basis, tuple(labels[:ns]), tuple(labels[ns:]))


#: Start entries that a uniform draw from [-3, 3] all but never gives.
EDGE_ENTRIES = (1e150, -1e150, 0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan)


@st.composite
def starts(draw, n: int, edges: tuple[float, ...] = EDGE_ENTRIES) -> np.ndarray:
    """An (n,) state of entries from [-3, 3], up to two of them set to one of ``edges``."""
    x0 = draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        x0[i] = draw(st.sampled_from(edges))
    return np.array(x0)


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """0.0 + terms[0] + terms[1] + ... over the first axis, added one term at a time in that order.

    np.cumsum adds each term to the running sum of the terms before it;
    unlike np.sum it never sums pairwise, so its last running sum is this one.
    """
    return np.cumsum(np.concatenate([np.zeros((1, *terms.shape[1:])), terms]), axis=0)[-1]


def textbook_taylor(coupling: np.ndarray, ns: int, c: np.ndarray, h: float, n_steps: int,
                    order: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor steps as first written: a fresh array per coefficient, the state checked at every step.

    The bitwise reference for ``bt._taylor``: the same times and samples,
    and the same NonFiniteStateError, naming the first non-finite step.
    Each coefficient c_{k+1} = sum_j M(c_j[:ns], c_{k-j}[ns:]) / (k + 1)
    sums over the dense coupling M in a fixed order, with elementwise
    products and ordered sums only: first each pair's sum q_ab over
    j = 0 .. k, then each row's terms M[k, a, b] q_ab over (a, b) in
    row-major order, zero entries and all. (``_taylor`` forms no pair sum
    that no row reads, which adds 0 * q_ab here, so the two could differ
    only if such a sum overflowed while every other stayed finite.)
    """
    times, samples = [0.0], [c.copy()]
    rows = coupling.reshape(len(coupling), -1).T  # (a, b) in row-major order, then k
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            series = [c]
            for k in range(order):
                known = np.stack(series)  # coefficients 0..k
                pairs = ordered_sum(known[:, :ns, None] * known[::-1, None, ns:])
                series.append(ordered_sum(rows * pairs.reshape(-1, 1)) / (k + 1))
            c = series[order]
            for coeffs in series[order - 1::-1]:
                c = c * h + coeffs
            if not np.isfinite(c).all():
                raise NonFiniteStateError(f"non-finite state at step {step}")
            times.append(step * h)
            samples.append(c)
    return np.array(times), np.array(samples)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal bit patterns, so 0.0 and -0.0 differ."""
    assert actual.dtype == expected.dtype == np.float64 and actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


def assert_integrate_is_textbook(split: ControlSplit, x0: np.ndarray, h: float, n_steps: int,
                                 stride: int) -> None:
    """``integrate`` from the (n,) state ``x0`` gives ``textbook_rk4``'s times and samples, bit for bit."""
    ns = len(split.s_indices)
    traj = integrate(OperatorPair(x0[:ns], x0[ns:]), split, h=h, T=h * n_steps, sample_stride=stride)
    times, samples = textbook_rk4(split.coupling, ns, x0, h, n_steps, stride)
    assert_bitwise(traj.times, times)
    assert_bitwise(np.hstack([traj.h_coeffs, traj.f_coeffs]), samples)


class TestRhs:
    """The audit's matrix route, the referee of the coefficient field: one row, or a stack of rows."""

    def test_zero_constraint_freezes_everything(self):
        x = np.concatenate([RNG.uniform(-1, 1, 4), np.zeros(11)])
        assert np.array_equal(_matrix_rates(canonical_split("su4"), x), np.zeros(15))

    def test_su2_commutator_direction(self):
        # H = sigma_x, F = lambda sigma_z: dH/dt = -2 lambda sigma_y, dF/dt = 0
        lam = 0.7
        deriv = _matrix_rates(canonical_split("su2"), np.array([1.0, 0.0, lam]))
        assert np.allclose(deriv, [0.0, -2 * lam, 0.0], atol=1e-14)

    def test_su4_mass_rate(self):
        # dm/dt = 2 (omega21 px + omega22 py + omega23 pz)
        split = canonical_split("su4")
        for _ in range(10):
            x = RNG.uniform(-2, 2, 15)
            s = named(x)
            expected = 2 * float(s.omega2 @ s.p)
            assert abs(_matrix_rates(split, x)[0] - expected) < 1e-12

    def test_matrix_route_matches_coupling_tensor(self):
        groups = ("su2", "su3", "su4")
        splits = [canonical_split(g) for g in groups] + [random_split(g, RNG) for g in groups]
        for split in splits:
            m = split.coupling
            for _ in range(10):
                h = RNG.uniform(-2, 2, len(split.s_indices))
                f = RNG.uniform(-2, 2, len(split.c_indices))
                fast = np.einsum("kab,a,b->k", m, h, f)
                assert np.max(np.abs(_matrix_rates(split, np.concatenate([h, f])) - fast)) < 1e-13


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e2, 1e3, 1e6])
    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    def test_large_commutator_is_projected_without_trace_warning(self, group, scale):
        # Tr -i[H, F] = 0 by construction; its rounded trace grows with |H||F|
        split = canonical_split(group)
        rng = np.random.default_rng(58)
        h = scale * rng.uniform(-1, 1, (50, len(split.s_indices)))
        f = scale * rng.uniform(-1, 1, (50, len(split.c_indices)))
        fast = np.einsum("kab,na,nb->nk", split.coupling, h, f)
        assert np.max(np.abs(_matrix_rates(split, np.hstack([h, f])) - fast)) <= 1e-13 * scale ** 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_commutator_gives_nan_rates(self, bad):
        # no finiteness gate: the NaN reaches the rates, so a check that reads them FAILs
        split = canonical_split("su3")
        h, f = np.ones(len(split.s_indices)), np.ones(len(split.c_indices))
        h[1] = f[0] = bad  # 1e200 is finite, but H F overflows
        with np.errstate(invalid="ignore", over="ignore"):
            deriv = _matrix_rates(split, np.concatenate([h, f]))
        assert np.isnan(deriv).all()


class TestStackedRhs:
    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "random_split"])
    def test_rows_bitwise_per_row_calls(self, group, canonical):
        split = canonical_split(group) if canonical else random_split(group, RNG)
        ns, nc = len(split.s_indices), len(split.c_indices)
        x = np.hstack([RNG.uniform(-2, 2, (40, ns)), RNG.uniform(-2, 2, (40, nc))])
        deriv = _matrix_rates(split, x)
        assert deriv.shape == (40, ns + nc)
        for k in range(40):
            assert np.array_equal(deriv[k], _matrix_rates(split, x[k]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_row_stays_in_its_row(self, bad):
        split = canonical_split("su3")
        x = np.random.default_rng(59).uniform(-2, 2, (40, len(split.basis)))
        clean = _matrix_rates(split, x)
        x[7, 1] = x[7, -1] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            deriv = _matrix_rates(split, x)
        assert np.isnan(deriv[7]).all()
        others = np.arange(40) != 7
        assert np.array_equal(deriv[others], clean[others])


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

    @pytest.mark.parametrize("h_shape,f_shape", [
        (3, 0), (1, 2), (2, 2), (2, 0),
        pytest.param((3, 2), (3, 1), id="3x2-3x1"),  # integrate takes one start, not a stack
        pytest.param((1, 2), (1, 1), id="1x2-1x1"),
    ])
    def test_rejects_mis_sized_pair(self, h_shape, f_shape):
        # a right total length must not let coefficients slide between H and F
        split = canonical_split("su2")
        start = OperatorPair(np.ones(h_shape), np.ones(f_shape))
        with pytest.raises(ValueError, match=r"needs \(2,\) and \(1,\)"):
            integrate(start, split, h=1e-2, T=0.1)

    @pytest.mark.parametrize("h,T", [(1e-320, 1e300), (1e-9, 1e3), (1e-8, 0.100000001)])
    def test_step_count_ceiling(self, h, T):
        split = canonical_split("su2")
        start = OperatorPair(np.array([1.0, 0.0]), np.array([-0.5]))
        with pytest.raises(ValueError, match="ceiling"):
            integrate(start, split, h=h, T=T)

    @pytest.mark.parametrize("j", [-500, -20, -1, 1, 7, 300])
    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    def test_power_of_two_scale_is_bitwise(self, group, j):
        # The field is bilinear, so c -> 2^j c with t -> 2^-j t maps each flow
        # onto another; every RK4 operation commutes with that exact scaling,
        # and any absolute threshold in the flow would break it.
        split = canonical_split(group)
        rng = np.random.default_rng(31)
        start = OperatorPair(rng.uniform(-1, 1, len(split.s_indices)), rng.uniform(-1, 1, len(split.c_indices)))
        ref = integrate(start, split, h=1e-2, T=1.0, sample_stride=7)
        s = 2.0 ** j
        scaled = OperatorPair(s * start.h_coeffs, s * start.f_coeffs)
        traj = integrate(scaled, split, h=1e-2 / s, T=1.0 / s, sample_stride=7)
        assert np.array_equal(traj.times, ref.times / s)
        assert np.array_equal(traj.h_coeffs, s * ref.h_coeffs)
        assert np.array_equal(traj.f_coeffs, s * ref.f_coeffs)
        assert np.array_equal(traj.monitors, 4.0 ** j * ref.monitors)

    def test_monitor_overflow_detected_with_step_index(self):
        # F = 0 freezes a finite state whose Tr(H^2) overflows
        split = canonical_split("su2")
        start = OperatorPair(np.array([1e200, 0.0]), np.array([0.0]))
        with pytest.raises(NonFiniteStateError, match="monitor at step 0"):
            integrate(start, split, h=0.1, T=1.0)

    def test_monitor_overflow_at_the_final_sample_names_its_step(self):
        # RK4 at h = 2 grows |H| about 7.6-fold a step: Tr(H^2) overflows at step
        # 5, the final sample, off the stride's grid of steps 0 and 3
        split = canonical_split("su2")
        start = OperatorPair(np.array([1e150, 0.0]), np.array([1.0]))
        with pytest.raises(NonFiniteStateError, match="^non-finite invariant monitor at step 5$"):
            integrate(start, split, h=2.0, T=10.0, sample_stride=3)

    def test_nonfinite_detected_with_step_index(self):
        split = canonical_split("su4")
        start = OperatorPair(np.full(4, 1e154), np.full(11, 1e154))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"step \d+"):
                integrate(start, split, h=10.0, T=100.0)


class TestStackedIntegrate:
    """``integrate`` takes one start: any stack of starts is rejected with the one-row shapes."""

    @pytest.mark.parametrize("h_shape,f_shape", [
        ((3, 2), (4, 1)),   # start counts differ
        ((3, 2), (1,)),     # a stack and a row
        ((3, 3), (3, 0)),   # the right total width, split wrongly
        ((3, 2), (3, 2)),
        ((0, 2), (0, 1)),   # no starts
        ((1, 3, 2), (1, 3, 1)),
    ])
    def test_rejects_mis_shaped_stack(self, h_shape, f_shape):
        split = canonical_split("su2")
        with pytest.raises(ValueError, match=r"needs \(2,\) and \(1,\)"):
            integrate(OperatorPair(np.ones(h_shape), np.ones(f_shape)), split, h=1e-2, T=0.1)


class TestRk4Kernel:
    """``integrate``'s RK4 is ``textbook_rk4`` bit for bit, across _flow's check blocks."""

    N_STEPS = 150  # two full blocks of 64 steps and a partial one

    @pytest.mark.parametrize("group", ["su2", "su3", "su4", "su2+su3+su4"])
    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "random"])
    @pytest.mark.parametrize("starts", [1, 3])
    # 100 > _BLOCK samples inside later blocks, 75 divides N_STEPS so the last step is a
    # multiple of the stride, and at 10^9 only the last step is sampled
    @pytest.mark.parametrize("stride", [1, 7, 75, 100, 10 ** 9])
    def test_matches_textbook(self, group, canonical, starts, stride):
        rng = np.random.default_rng(41)
        split = canonical_split(group) if canonical else random_split(group, rng)
        for x0 in rng.uniform(-1, 1, (starts, len(split.basis))):
            assert_integrate_is_textbook(split, x0, 1e-2, self.N_STEPS, stride)

    @settings(PROPERTY, max_examples=200)
    @given(data=st.data())
    def test_matches_textbook_on_drawn_runs(self, data):
        # integrate is textbook RK4 bit for bit, or fails with its NonFiniteStateError; a
        # monitor overflow, which only integrate checks, must name the first overflowing sample
        split = data.draw(splits())
        x0 = data.draw(starts(len(split.basis)))
        h = data.draw(st.sampled_from([1e-3, 0.1, 1.0, 1e10, 1e200]))
        n_steps = data.draw(st.one_of(st.integers(1, bt._BLOCK), st.integers(bt._BLOCK + 1, 150)))
        stride = data.draw(st.one_of(st.integers(1, 9), st.sampled_from([64, 100, 10 ** 9])))
        ns = len(split.s_indices)

        def run() -> Trajectory:
            return integrate(OperatorPair(x0[:ns], x0[ns:]), split, h=h, T=h * n_steps, sample_stride=stride)

        try:
            times, samples = textbook_rk4(split.coupling, ns, x0, h, n_steps, stride)
        except NonFiniteStateError as reference:
            with pytest.raises(NonFiniteStateError) as got:
                run()
            assert str(got.value) == str(reference)
            return
        norms = split.basis.norm_constants
        with np.errstate(over="ignore"):
            finite = (np.isfinite(samples[:, :ns] ** 2 @ norms[split.s_indices])
                      & np.isfinite(samples[:, ns:] ** 2 @ norms[split.c_indices]))
        if not finite.all():
            with pytest.raises(NonFiniteStateError) as got:
                run()
            step = min(int(np.argmin(finite)) * stride, n_steps)
            assert str(got.value) == f"non-finite invariant monitor at step {step}"
            return
        traj = run()
        assert_bitwise(traj.times, times)
        assert_bitwise(np.hstack([traj.h_coeffs, traj.f_coeffs]), samples)

    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    def test_signed_zeros_match_textbook(self, group):
        split = canonical_split(group)
        ns, n = len(split.s_indices), len(split.basis)
        starts = np.random.default_rng(43).uniform(-1, 1, (3, n))
        starts[0, ::2], starts[0, 1::2] = 0.0, -0.0
        starts[1, 0], starts[1, ns - 1], starts[1, ns], starts[1, -1] = -0.0, 0.0, -0.0, 0.0
        starts[2, ns:] = -0.0  # F = 0 holds H still
        # the stage sums add slopes to -0.0 entries: both routes must give each sum the same sign
        for x0 in starts:
            assert_integrate_is_textbook(split, x0, 1e-2, self.N_STEPS, 1)

    @pytest.mark.parametrize("group,seed", [("su3", 47), ("su4", 47), ("su2+su3+su4", 53)])
    def test_term_free_rows_products_match_textbook(self, group, seed):
        # TestNonFiniteBlocks' random splits: slope a alone forms a product |m| * c_a whose row has no term
        split = random_split(group, np.random.default_rng(seed))
        ns = len(split.s_indices)
        term_free = ~split.coupling.any(axis=(1, 2))
        assert split.coupling[:, term_free[:ns]].any()
        for x0 in np.random.default_rng(97).uniform(-1, 1, (2, len(split.basis))):
            for stride in (1, 7):
                assert_integrate_is_textbook(split, x0, 1e-2, self.N_STEPS, stride)

    def test_splits_over_the_same_labels_share_one_step(self):
        basis = build_basis("su4")
        labels = basis.labels[3:9], basis.labels[:3] + basis.labels[9:]
        first, second = ControlSplit(basis, *labels), ControlSplit(basis, *labels)
        assert first is not second
        assert bt._compile_step(first) is bt._compile_step(second)

    def test_fresh_equal_split_compiles_nothing_and_builds_no_coupling(self):
        # integrate on a fresh split, as `spinctl integrate` makes per call, finds the
        # cached split's step by its labels alone
        basis = build_basis("su4")
        labels = basis.labels[3:9], basis.labels[:3] + basis.labels[9:]
        x0 = np.random.default_rng(59).uniform(-1, 1, 15)
        integrate(OperatorPair(x0[:6], x0[6:]), ControlSplit(basis, *labels), h=1e-2, T=0.1)  # warms the cache
        fresh = ControlSplit(basis, *labels)
        misses = bt._compile_step.cache_info().misses
        integrate(OperatorPair(x0[:6], x0[6:]), fresh, h=1e-2, T=0.1)
        assert bt._compile_step.cache_info().misses == misses
        assert "coupling" not in fresh.__dict__

    def test_canonical_and_random_splits_do_not_share_a_step(self):
        canonical, shuffled = canonical_split("su3"), random_split("su3", np.random.default_rng(61))
        assert canonical.coupling.shape != shuffled.coupling.shape or not np.array_equal(
            canonical.coupling, shuffled.coupling)
        assert bt._compile_step(canonical) is not bt._compile_step(shuffled)

    def test_constraint_order_is_part_of_the_key(self):
        # the same S, its S^c in two orders: other couplings, so other steps, each textbook RK4
        basis = build_basis("su4")
        s, c = basis.labels[3:9], basis.labels[:3] + basis.labels[9:]
        splits = ControlSplit(basis, s, c), ControlSplit(basis, s, c[::-1])
        assert not np.array_equal(splits[0].coupling, splits[1].coupling)
        assert bt._compile_step(splits[0]) is not bt._compile_step(splits[1])
        x0 = np.random.default_rng(79).uniform(-1, 1, 15)
        for split in splits:
            assert_integrate_is_textbook(split, x0, 1e-2, self.N_STEPS, 7)

    def test_cached_step_holds_no_step_size(self):
        split = random_split("su4", np.random.default_rng(67))
        x0 = np.random.default_rng(71).uniform(-1, 1, 15)
        for h in (1e-2, 3e-3, 1e-2):  # the second and third runs take the first run's compiled step
            assert_integrate_is_textbook(split, x0, h, self.N_STEPS, 7)

    def test_numpy_step_size_gives_python_float_bits(self):
        split = canonical_split("su3")
        x0 = np.random.default_rng(73).uniform(-1, 1, 8)
        start, T = OperatorPair(x0[:2], x0[2:]), 3e-3 * self.N_STEPS
        got = integrate(start, split, h=np.float64(3e-3), T=T, sample_stride=7)
        expected = integrate(start, split, h=3e-3, T=T, sample_stride=7)
        for field in ("times", "h_coeffs", "f_coeffs", "monitors"):
            assert_bitwise(getattr(got, field), getattr(expected, field))

    @staticmethod
    def sum_split(part: str, span: str) -> ControlSplit:
        """su2+su3+su4's canonical split with every label of ``part`` moved into ``span``, "S" or "S^c"."""
        split = canonical_split("su2+su3+su4")
        moved = tuple(label for label in split.basis.labels if label.startswith(f"{part}."))
        s = tuple(label for label in split.hamiltonian_labels if label not in moved)
        c = tuple(label for label in split.constraint_labels if label not in moved)
        return ControlSplit(split.basis, *((s + moved, c) if span == "S" else (s, c + moved)))

    @pytest.mark.parametrize("part", ["su2", "su3", "su4"])
    @pytest.mark.parametrize("span", ["S", "S^c"])
    def test_group_wholly_in_one_span_matches_textbook(self, part, span):
        split = self.sum_split(part, span)
        s, c = part_columns(split, part)
        mine = np.concatenate([s, len(split.s_indices) + c])
        # the group's rows have no term and its entries feed no other row's term
        assert not (split.coupling[mine].any() or split.coupling[:, s].any() or split.coupling[:, :, c].any())
        for x0 in np.random.default_rng(83).uniform(-1, 1, (2, len(split.basis))):
            for stride in (1, 7):
                assert_integrate_is_textbook(split, x0, 1e-2, self.N_STEPS, stride)

    @pytest.mark.parametrize("value", [0.0, -0.0, np.inf, -np.inf, np.nan], ids=["+0", "-0", "+inf", "-inf", "nan"])
    @pytest.mark.parametrize("case", ["su4", "su3 in S", "su3 in S^c"])
    def test_term_free_start_entries_match_textbook(self, case, value):
        # su4's canonical term-free rows feed other rows' terms; a group moved wholly into one span feeds none
        split = canonical_split(case) if case == "su4" else self.sum_split(*case.split(" in "))
        ns = len(split.s_indices)
        term_free = np.flatnonzero(~split.coupling.any(axis=(1, 2)))
        assert term_free.size
        x0 = np.random.default_rng(89).uniform(-1, 1, len(split.basis))
        x0[term_free] = value
        if np.isfinite(value):
            assert_integrate_is_textbook(split, x0, 1e-2, self.N_STEPS, 1)
            return
        with pytest.raises(NonFiniteStateError) as reference:
            textbook_rk4(split.coupling, ns, x0, 1e-2, self.N_STEPS, 1)
        with pytest.raises(NonFiniteStateError) as got:
            integrate(OperatorPair(x0[:ns], x0[ns:]), split, h=1e-2, T=1e-2 * self.N_STEPS)
        assert str(got.value) == str(reference.value) == "non-finite state at step 1"

    def test_generated_source_holds_no_coefficient(self, monkeypatch):
        split = canonical_split("su2+su3+su4")
        coupling, ns = split.coupling, len(split.s_indices)
        sources = []

        def spy(source, filename, mode):
            sources.append(source)
            return compile(source, filename, mode)

        monkeypatch.setattr(bt, "compile", spy, raising=False)
        namespace = bt._compile_step.__wrapped__(split).__globals__  # past the cache
        [source] = sources
        nodes = list(ast.walk(ast.parse(source)))
        assert {node.value for node in nodes if isinstance(node, ast.Constant)} == {0.0, 2.0}
        # the m names are bound to the distinct magnitudes of the nonzero entries, one name each
        names = {node.id for node in nodes if isinstance(node, ast.Name) and re.fullmatch(r"m\d+", node.id)}
        assert sorted(namespace[name] for name in names) == sorted(set(np.abs(coupling[np.nonzero(coupling)]).tolist()))
        # the runner's loop takes the steps: each slope row is 0.0 then one term p * y_b per nonzero
        # entry (k, a, b) in row-major order, with p = |m| * y_a and "-" exactly where the entry is negative
        run = next(node for node in nodes if isinstance(node, ast.FunctionDef) and node.name == "run")
        [loop] = [node for node in run.body if isinstance(node, ast.For)]
        before = run.body[:run.body.index(loop)]
        products, slopes = {}, {}
        for line in (*before, *loop.body):
            if not isinstance(line, ast.Assign):
                continue
            [target] = line.targets
            if isinstance(target, ast.Name) and target.id[0] == "p":
                product = (namespace[line.value.left.id], int(line.value.right.id[1:]))
                assert products.setdefault(target.id, product) == product
            elif isinstance(target, ast.Name) and target.id[0] in "abde":
                terms, value = [], line.value
                while isinstance(value, ast.BinOp):
                    factor, y = value.right.left.id, value.right.right.id
                    terms.append((isinstance(value.op, ast.Sub), *products[factor], int(y[1:])))
                    value = value.left
                assert isinstance(value, ast.Constant) and value.value == 0.0
                slopes.setdefault(target.id[0], {})[int(target.id[1:])] = terms[::-1]
        expected = {}
        for k, a, b in zip(*np.nonzero(coupling)):
            m = coupling[k, a, b].item()
            expected.setdefault(int(k), []).append((m < 0, abs(m), int(a), ns + int(b)))
        assert slopes == {k: expected for k in "abde"}
        # each term-free row's entry is turned to c_i + 0.0 once, before the loop, and nowhere else
        def zeroed(lines) -> list[str]:
            return [text for text in map(ast.unparse, lines) if re.fullmatch(r"(c\d+) = \1 \+ 0\.0", text)]

        term_free = [f"c{i} = c{i} + 0.0" for i in range(len(coupling)) if i not in expected]
        assert zeroed(before) == term_free
        assert zeroed(node for node in ast.walk(run) if isinstance(node, ast.Assign)) == term_free
        assert len(expected) < len(coupling)  # the canonical sum has term-free rows, which get no slope


@pytest.mark.parametrize("group", ["su2", "su3", "su4", "su2+su3+su4"])
class TestSamplePacking:
    """_flow's flat list of sampled states comes back as one full row per sampled step, from both kernels."""

    @staticmethod
    def start(split: ControlSplit) -> tuple[np.ndarray, OperatorPair]:
        x0 = np.random.default_rng(53).uniform(-1, 1, len(split.basis))
        ns = len(split.s_indices)
        return x0, OperatorPair(x0[:ns], x0[ns:])

    def test_no_step_samples_the_start_alone(self, group):
        # T / h = 0.4 rounds to 0 steps: the start is the one sample, a (1, n) row
        split = canonical_split(group)
        x0, start = self.start(split)
        traj = integrate(start, split, h=1.0, T=0.4)
        assert traj.times.tolist() == [0.0]
        assert_bitwise(np.hstack([traj.h_coeffs, traj.f_coeffs]), x0[None])
        times, samples = bt._taylor(split, x0, 1.0, 0, order=4)
        assert times.tolist() == [0.0]
        assert_bitwise(samples, x0[None])

    def test_stride_above_the_step_count_samples_the_ends(self, group):
        # stride 7 over 5 steps samples steps 0 and 5 only, each the every-step run's row
        split, h, n_steps = canonical_split(group), 0.05, 5
        x0, start = self.start(split)
        every = integrate(start, split, h=h, T=h * n_steps)
        traj = integrate(start, split, h=h, T=h * n_steps, sample_stride=7)
        assert_bitwise(traj.times, every.times[[0, -1]])
        assert_bitwise(traj.h_coeffs, every.h_coeffs[[0, -1]])
        assert_bitwise(traj.f_coeffs, every.f_coeffs[[0, -1]])
        steps, samples = bt._flow(bt._compile_taylor(split)(h, 4, 7, n_steps), x0.tolist(), n_steps)
        assert steps.tolist() == [0, n_steps]
        assert_bitwise(samples, bt._taylor(split, x0, h, n_steps, order=4)[1][[0, -1]])


class TestNonFiniteBlocks:
    """A blow-up is named at its step wherever it falls against _flow's 64-step blocks.

    With F = f sz fixed, the su2 flow rotates H at 2|f| per unit time. At
    h = 3 and f = -0.5 each RK4 step multiplies |H| by about 1.5, so the
    start's size sets the step at which the state overflows.
    """

    H = 3.0

    @staticmethod
    def start(scale: float) -> np.ndarray:
        """The state (h_sx, h_sy, f_sz) = (scale, 0, -0.5), which grows."""
        return np.array([scale, 0.0, -0.5])

    @pytest.mark.parametrize("scale,n_steps,step", [
        (1.4e296, 100, 64),
        (9e295, 100, 65),
        (3e291, 100, 90),
        (3e291, 90, 90),
    ], ids=["last_of_block", "first_of_next_block", "in_final_partial_block", "at_last_step"])
    def test_integrate_names_the_step(self, scale, n_steps, step):
        assert bt._BLOCK == 64, "the scales above place each blow-up against 64-step blocks"
        split = canonical_split("su2")
        x0 = self.start(scale)
        with pytest.raises(NonFiniteStateError) as reference:
            textbook_rk4(split.coupling, 2, x0, self.H, n_steps, 1)
        assert str(reference.value) == f"non-finite state at step {step}"
        with pytest.raises(NonFiniteStateError) as got:
            integrate(OperatorPair(x0[:2], x0[2:]), split, h=self.H, T=self.H * n_steps)
        assert str(got.value) == str(reference.value)

    @staticmethod
    def assert_names_textbook_step(split: ControlSplit, x0: np.ndarray, h: float) -> None:
        ns = len(split.s_indices)
        with pytest.raises(NonFiniteStateError) as reference:
            textbook_rk4(split.coupling, ns, x0, h, 100, 1)
        with pytest.raises(NonFiniteStateError) as got:
            integrate(OperatorPair(x0[:ns], x0[ns:]), split, h=h, T=h * 100)
        assert str(got.value) == str(reference.value)

    # the RK4 step's field skips the coupling's zero entries, whose terms are +-0 only for
    # finite inputs, so a non-finite stage state or start must still fail at textbook RK4's step
    @pytest.mark.parametrize("group", ["su3", "su4", "su2+su3+su4"])
    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "random"])
    def test_overflowing_stage_names_the_textbook_step(self, group, canonical):
        rng = np.random.default_rng(47)
        split = canonical_split(group) if canonical else random_split(group, rng)
        ns = len(split.s_indices)
        x0 = rng.uniform(-1, 1, len(split.basis))
        # |c| ~ 1 at h = 1e3 blows up within a few steps, slopes and stage states alike
        self.assert_names_textbook_step(split, x0, 1e3)
        # |c| ~ 1e100 at h = 1e200: the first slope is finite, the first stage state is not
        big = 1e100 * x0
        with np.errstate(over="ignore"):
            k1 = np.einsum("kab,a,b->k", split.coupling, big[:ns], big[ns:])
            assert np.isfinite(k1).all() and not np.isfinite(big + 0.5 * 1e200 * k1).all()
        self.assert_names_textbook_step(split, big, 1e200)

    @pytest.mark.parametrize("group", ["su3", "su4", "su2+su3+su4"])
    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "random"])
    def test_infinite_start_entry_names_the_textbook_step(self, group, canonical):
        rng = np.random.default_rng(53)
        split = canonical_split(group) if canonical else random_split(group, rng)
        x0 = rng.uniform(-1, 1, len(split.basis))
        for i in range(len(x0)):  # every entry, those that feed few of the coupling's terms too
            start = x0.copy()
            start[i] = np.inf if i % 2 else -np.inf
            self.assert_names_textbook_step(split, start, 1e-2)

    def test_taylor_names_a_step_past_the_first_block(self):
        # every _taylor step is sampled, so a finite run's samples are each step's state
        split, x0 = canonical_split("su2"), self.start(3e291)
        samples = bt._taylor(split, x0, self.H, 94, order=4)[1]
        assert np.isfinite(samples).all()
        with pytest.raises(NonFiniteStateError, match=r"^non-finite state at step 1$"):
            bt._taylor(split, samples[-1], self.H, 1, order=4)
        with pytest.raises(NonFiniteStateError, match=r"^non-finite state at step 95$"):
            bt._taylor(split, x0, self.H, 150, order=4)


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
    def test_integrate_is_each_groups_run(self, h, T, stride):
        split = canonical_split(self.SUM)
        ns, nc = len(split.s_indices), len(split.c_indices)
        for h0, f0 in zip(RNG.uniform(-1, 1, (5, ns)), RNG.uniform(-1, 1, (5, nc))):
            traj = integrate(OperatorPair(h0, f0), split, h=h, T=T, sample_stride=stride)
            for group in ("su2", "su3", "su4"):
                s, c = part_columns(split, group)
                alone = integrate(OperatorPair(h0[s], f0[c]), canonical_split(group), h=h, T=T, sample_stride=stride)
                assert np.array_equal(traj.times, alone.times)
                assert np.array_equal(traj.h_coeffs[:, s], alone.h_coeffs)
                assert np.array_equal(traj.f_coeffs[:, c], alone.f_coeffs)


class TestTaylorFlow:
    @pytest.mark.parametrize("order", [4, 6])
    def test_step_halving_gains_two_to_the_order(self, order):
        # global error at a fixed order p scales as step^p; the reference is the
        # same kernel at order 20 and a quarter of the step
        split = canonical_split("su4")
        starts = np.random.default_rng(5).uniform(-1, 1, (20, 15))

        def error(x0, step, n_steps):
            """The worst error over the samples at t = 0, 0.1, ..., 1."""
            ref = bt._taylor(split, x0, 0.025, 40, order=20)[1][::4]
            samples = bt._taylor(split, x0, step, n_steps, order)[1]
            return np.max(np.abs(samples[::n_steps // 10] - ref))

        ratio = np.array([error(x0, 0.1, 10) / error(x0, 0.05, 20) for x0 in starts])
        assert np.all((0.8 * 2 ** order <= ratio) & (ratio <= 1.2 * 2 ** order)), ratio

    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    @pytest.mark.parametrize("starts", [1, 5])
    def test_matches_textbook(self, group, starts):
        split = canonical_split(group)
        ns = len(split.s_indices)
        # a full block of 64 steps and a partial one; a step of 0.2 leaves the
        # high-order coefficients' last bits visible in the sum
        n_steps = 70
        for x0 in np.random.default_rng(11).uniform(-1, 1, (starts, len(split.basis))):
            got = bt._taylor(split, x0, 0.2, n_steps, order=6)
            for actual, expected in zip(got, textbook_taylor(split.coupling, ns, x0, 0.2, n_steps, 6)):
                assert_bitwise(actual, expected)

    @settings(PROPERTY, max_examples=100)
    @given(data=st.data())
    def test_matches_textbook_on_drawn_runs(self, data):
        # _taylor is textbook_taylor bit for bit, or fails with its NonFiniteStateError
        split = data.draw(splits())
        x0 = data.draw(starts(len(split.basis), tuple(x for x in EDGE_ENTRIES if np.isfinite(x))))
        h = data.draw(st.sampled_from([1e-3, 0.05, 0.1]))
        order, n_steps = data.draw(st.integers(1, 14)), data.draw(st.integers(1, 80))
        try:
            times, samples = textbook_taylor(split.coupling, len(split.s_indices), x0, h, n_steps, order)
        except NonFiniteStateError as reference:
            with pytest.raises(NonFiniteStateError) as got:
                bt._taylor(split, x0, h, n_steps, order)
            assert str(got.value) == str(reference)
            return
        got = bt._taylor(split, x0, h, n_steps, order)
        assert_bitwise(got[0], times)
        assert_bitwise(got[1], samples)

    @pytest.mark.parametrize("stride", [1, 7, 64, 100, 10 ** 9])
    def test_samples_every_stride_th_step_and_the_last(self, stride):
        # the runner frame's one sampling rule, on the grid integrate samples, over
        # runs of 1 to 150 steps: past one 64-step block and into a third
        split, h, order = canonical_split("su3"), 0.05, 4
        x0 = np.random.default_rng(107).uniform(-1, 1, 8)
        every = bt._taylor(split, x0, h, 150, order)[1]
        make = bt._compile_taylor(split)
        for n_steps in range(1, 151):
            steps, samples = bt._flow(make(h, order, stride, n_steps), x0.tolist(), n_steps)
            assert_bitwise(samples, every[sorted({*range(0, n_steps + 1, stride), n_steps})])
            traj = integrate(OperatorPair(x0[:2], x0[2:]), split, h=h, T=h * n_steps, sample_stride=stride)
            assert_bitwise(steps * h, traj.times)

    @pytest.mark.parametrize("order", [0, -1, 2.0])
    def test_order_below_one_or_not_an_integer_is_refused(self, order, monkeypatch):
        # refused before a runner is built: order 0 once failed inside the generated code
        split = canonical_split("su2")
        monkeypatch.setattr(bt, "_compile_taylor", None)
        with pytest.raises(ValueError, match=rf"^Taylor order must be an integer >= 1, got {order}$"):
            bt._taylor(split, np.ones(3), 0.1, 10, order)

    @pytest.mark.parametrize("scale,step", [(1e100, 1), (1e20, 2)])
    def test_non_finite_state_names_the_step(self, scale, step):
        # the Taylor sum from a huge start overflows: in the first step, or, from a
        # smaller one, in the next step, whose series starts from the first's huge sum
        split = canonical_split("su4")
        with pytest.raises(NonFiniteStateError, match=rf"^non-finite state at step {step}$"):
            bt._taylor(split, np.full(15, 0.5 * scale), 0.1, 10, order=14)


class TestHotLoops:
    def test_kernels_never_dispatch_through_np_einsum(self, monkeypatch):
        # integrate and _taylor sum their fields on Python floats in generated runners;
        # np.einsum's Python layer would cost about a microsecond per call
        split = canonical_split("su4")  # builds the basis with np.einsum, so before the patch
        x0 = np.random.default_rng(13).uniform(-1, 1, 15)

        def dispatch(*args, **kwargs):
            raise AssertionError("np.einsum called from a flow kernel")

        monkeypatch.setattr(np, "einsum", dispatch)
        traj = integrate(OperatorPair(x0[:4], x0[4:]), split, h=1e-2, T=1.0, sample_stride=10)
        assert traj.h_coeffs.shape == (11, 4)
        assert bt._taylor(split, x0, 0.05, 70, order=6)[1].shape == (71, 15)
        # each runner's code names its kernel, so a profiler can tell them apart
        assert bt._compile_step(split)(1e-2, 5e-3, 1e-2 / 6.0, 1, 1).__code__.co_filename == \
            "<spinctl.brachistochrone step>"
        assert bt._compile_taylor(split)(0.05, 6, 1, 1).__code__.co_filename == "<spinctl.brachistochrone taylor>"
