import re

import numpy as np
import pytest

from helpers import eigh_exp
from spinctl import matrixcore
from spinctl.closedforms import DiracParameters, su2_family, su3_family, su4_family
from spinctl.generators import PAULI, assemble_dirac, dirac_operators
from spinctl.matrixcore import _matmul_last, as_operator, dagger, expm_unitary, row_dot
from spinctl.oracle import time_ordered_exponential

I2, SX, SY, SZ = PAULI
RNG = np.random.default_rng(7)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + dagger(a)) / 2


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def with_spectrum(rng, spectrum):
    u = haar_unitary(rng, len(spectrum))
    return (u * np.asarray(spectrum, dtype=float)) @ dagger(u)


class TestDagger:
    def test_stack_is_daggered_per_matrix(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        assert np.array_equal(dagger(a), np.array([m.conj().T for m in a]))
        assert np.array_equal(dagger(a[0]), a[0].conj().T)


class TestAsOperator:
    def test_takes_a_stack(self):
        stack = np.stack([SX, SY, SZ])
        assert np.array_equal(as_operator(stack), stack)
        assert as_operator(stack).dtype == complex

    def test_takes_non_contiguous_views(self):
        a = np.array([[1, 2j], [3, 4]])
        assert np.array_equal(as_operator(a.T), a.T)
        assert as_operator(np.broadcast_to(np.zeros((2, 2)), (3, 2, 2))).shape == (3, 2, 2)

    @pytest.mark.parametrize("shape", [(2, 3, 2, 2), (3, 2, 3), (2,)], ids=["4-D", "non-square", "1-D"])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="square matrix or a stack"):
            as_operator(np.zeros(shape))

    def test_rejects_non_finite_in_a_stack(self):
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            as_operator(stack)


class TestRowDot:
    def test_stack_is_per_row_calls(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(2, 500, 4))
        assert np.array_equal(row_dot(a, b), np.array([row_dot(x, y) for x, y in zip(a, b)]))
        assert row_dot(a[0], b[0]) == pytest.approx(a[0] @ b[0], rel=1e-15)


class TestMatmulLast:
    """The time-last product: c[:, :, t] = a[:, :, t] @ b[:, :, t], each matrix bitwise alone."""

    @staticmethod
    def random_stack(rng, d, n):
        return rng.normal(size=(d, d, n)) + 1j * rng.normal(size=(d, d, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_each_matrix_is_its_lone_product(self, d, n):
        rng = np.random.default_rng(10 + d)
        a, b = self.random_stack(rng, d, n), self.random_stack(rng, d, n)
        f = self.random_stack(rng, d, 2 * n + 1)
        # contiguous, then strided inputs as the product tree passes them
        for x, y in ((a, b), (f[..., 1::2], f[..., 0:-1:2]), (a, f[..., 2::2])):
            c = _matmul_last(x, y)
            assert c.shape == (d, d, n)
            lone = np.stack([_matmul_last(x[..., t:t + 1], y[..., t:t + 1])[..., 0]
                             for t in range(n)], axis=-1)
            assert np.array_equal(c, lone)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_agrees_with_matmul(self, d):
        # Either product of complex d-vectors is within sqrt(2) gamma_{d+2} |a| |b|
        # of the exact one, gamma_k = k u / (1 - k u), u = eps / 2 (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.6),
        # so the two differ by at most sqrt(2) (d + 2) eps |a| |b|, to first order.
        rng = np.random.default_rng(20 + d)
        a, b = self.random_stack(rng, d, 500), self.random_stack(rng, d, 500)
        a *= 10.0 ** rng.uniform(-8, 8, size=500)
        ref = (a.transpose(2, 0, 1) @ b.transpose(2, 0, 1)).transpose(1, 2, 0)
        bound = np.sqrt(2) * (d + 2) * np.finfo(float).eps * np.einsum("ikt,kjt->ijt", abs(a), abs(b))
        assert np.all(np.abs(_matmul_last(a, b) - ref) <= bound)


class TestExpmUnitary:
    def test_diagonal_quarter_turn(self):
        u = expm_unitary(SZ, np.pi / 2)
        assert np.max(np.abs(u - np.diag([-1j, 1j]))) < 1e-15

    def test_zero_matrix(self):
        assert np.array_equal(expm_unitary(np.zeros((3, 3)), 2.7), np.eye(3))

    def test_dirac_half_period(self):
        # E = sqrt(2), tau = pi / sqrt(2): cos(E tau) = -1, sin(E tau) = 0
        h = assemble_dirac(dirac_operators(), 1.0, [0, 0, 1])
        u = expm_unitary(h, np.pi / np.sqrt(2))
        assert np.max(np.abs(u + np.eye(4))) < 1e-12

    def test_fast_path_matches_eigendecomposition(self):
        ops = dirac_operators()
        worst = 0.0
        for _ in range(1000):
            m = RNG.uniform(-2, 2)
            p = RNG.uniform(-2, 2, 3)
            tau = RNG.uniform(-3, 3)
            h = assemble_dirac(ops, m, p)
            w, v = np.linalg.eigh(h)
            direct = (v * np.exp(-1j * w * tau)) @ dagger(v)
            worst = max(worst, float(np.max(np.abs(expm_unitary(h, tau) - direct))))
        assert worst < 1e-12

    def test_unitarity_and_inverse(self):
        for d in (2, 3, 4):
            for _ in range(20):
                h = random_hermitian(RNG, d)
                tau = RNG.uniform(-3, 3)
                u = expm_unitary(h, tau)
                assert np.max(np.abs(u @ dagger(u) - np.eye(d))) <= 1e-12
                assert np.max(np.abs(u @ expm_unitary(h, -tau) - np.eye(d))) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_unitary(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    @pytest.mark.filterwarnings("error")
    def test_rejects_non_hermitian_at_any_scale(self):
        # the gate is relative to each matrix's scale, so a small nilpotent or
        # Tr H^2 = 0 input is as non-Hermitian as its unit-scale form, and a
        # deviation past the float range reads inf, with no overflow warning
        for h, dev in ((1e-11 * np.array([[0, 1], [0, 0]]), "1.000e-11"),
                       (1e-11 * np.diag([1.0, 1j, 0.0]), "2.000e-11"),
                       (5e-324 * np.diag([1.0, 1j, 0.0]), "9.881e-324"),
                       (np.array([[0, 1.5e308], [-1.5e308, 0]]), "inf")):
            with pytest.raises(ValueError, match=rf"^matrix is not Hermitian: max\|H - H\^dag\| = {dev}$"):
                expm_unitary(h, 1.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("h", [SX, np.diag([1.0, 2.0, -3.0])], ids=["involutory", "eigh"])
    def test_rejects_non_finite_tau(self, h, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            expm_unitary(h, tau)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h,tau", [
        (1e10 * SX, 1e300),  # closed form: E tau = 1e310
        (1e200 * SX, 1e200),  # H^2 overflows, so eigh: w tau = 1e400
        (np.stack([SZ, 1e10 * SX]), 1e300),
        (np.stack([SX, 1e200 * SX, 1e10 * SX]), 1e200),
        (1e308 * SX, 1e300),  # closed form at the float limit: E tau = 1e608
    ], ids=["closed_form", "eigh", "mixed_closed_form", "mixed_eigh", "float_limit"])
    def test_overflowing_phase_raises(self, h, tau):
        with pytest.raises(ValueError, match=r"^phase of exp\(-i H tau\) overflows at tau = "):
            expm_unitary(h, tau)


class TestExpmUnitaryStack:
    def mixed_stack(self):
        dirac = assemble_dirac(dirac_operators(), 0.7, [0.2, -0.4, 1.1])
        return np.stack([dirac, np.zeros((4, 4)), random_hermitian(RNG, 4),
                         np.kron(SZ, I2), random_hermitian(RNG, 4), 3.0 * dirac])

    def test_matches_per_matrix_calls(self):
        stack = self.mixed_stack()
        for tau in (0.37, -2.1):
            u = expm_unitary(stack, tau)
            assert u.shape == stack.shape
            ref = np.stack([expm_unitary(h, tau) for h in stack])
            assert np.array_equal(u, ref)

    def test_single_branch_stacks(self):
        for stack in (np.stack([SX, SZ, np.zeros((2, 2))]),
                      np.stack([random_hermitian(RNG, 3) for _ in range(5)])):
            ref = np.stack([expm_unitary(h, 0.8) for h in stack])
            assert np.array_equal(expm_unitary(stack, 0.8), ref)
        # spin-1 only, so the spin-1 test takes the whole stack as it stands
        rng = np.random.default_rng(31)
        stack = np.concatenate([[s * with_spectrum(rng, [-1.0, 0.0, 1.0]) for s in (1e-3, 1.0, 1e2)],
                                su3_family(0.4).hamiltonian(np.linspace(0.0, 2.0, 1024))])
        tau = rng.uniform(-5, 5, len(stack))
        ref = np.stack([expm_unitary(h, tk) for h, tk in zip(stack, tau)])
        assert expm_unitary(stack, tau).tobytes() == ref.tobytes()

    def test_select_last_copies_only_a_part(self):
        a = np.arange(2 * 2 * 5, dtype=complex).reshape(2, 2, 5)
        assert matrixcore._select_last(a, np.ones(5, dtype=bool)) is a
        part = matrixcore._select_last(a, np.array([True, False, True, True, False]))
        assert part.flags.c_contiguous and np.array_equal(part, a[..., [0, 2, 3]])

    def test_zero_matrices_give_identity(self):
        u = expm_unitary(np.zeros((3, 2, 2)), 1.3)
        assert np.array_equal(u, np.broadcast_to(np.eye(2), (3, 2, 2)))

    def test_rejects_non_hermitian_anywhere(self):
        stack = self.mixed_stack()
        stack[4, 0, 1] += 1e-6
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian: max\|H - H\^dag\| = 1\.000e-06$"):
            expm_unitary(stack, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite_anywhere(self, bad):
        stack = self.mixed_stack()
        stack[2, 3, 3] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            expm_unitary(stack, 1.0)

    def test_rejects_bad_shapes(self):
        for shape in ((4,), (2, 3), (2, 2, 3), (1, 2, 2, 2)):
            with pytest.raises(ValueError, match="square"):
                expm_unitary(np.zeros(shape), 1.0)


class TestExpmUnitaryPerMatrixTau:
    """An (n,) tau gives each matrix of an (n, d, d) stack its own tau, bitwise its lone call."""

    SPECTRA = {2: ([-1.0, 1.0],), 3: ([-1.0, 0.0, 1.0],),
               4: ([-1.0, -1.0, 1.0, 1.0], [-1.0, 0.0, 0.0, 1.0])}

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_each_path_matches_per_matrix_calls(self, d, monkeypatch):
        # involutory or spin-1 spectra, generic matrices for eigh and a zero matrix, at scales 1e-3 to 1e2
        rng = np.random.default_rng(50 + d)
        stack = []
        for scale in (1e-3, 1.0, 1e2):
            stack += [scale * with_spectrum(rng, spec) for spec in self.SPECTRA[d]]
            stack += [scale * random_hermitian(rng, d) for _ in range(2)]
        stack = np.stack(stack + [np.zeros((d, d))])
        stack = stack[rng.permutation(len(stack))]
        tau = rng.uniform(-5, 5, len(stack))
        taken, stacked_eigh = [], matrixcore._eigh_exp

        def counting(h, k, tau):
            taken.append(len(h))
            return stacked_eigh(h, k, tau)

        monkeypatch.setattr(matrixcore, "_eigh_exp", counting)
        u = expm_unitary(stack, tau)
        assert taken == [6]  # the generic matrices take eigh, the others a closed form
        ref = np.stack([expm_unitary(h, tk) for h, tk in zip(stack, tau)])
        assert u.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("h,tau", [
        (np.stack([SX, SZ]), np.ones((2, 1))),
        (np.stack([SX, SZ]), np.ones(3)),
        (np.stack([SX, SZ]), np.ones(1)),
        (SX, np.ones(1)),
        (SX, np.ones(2)),
    ], ids=["2d", "too_long", "too_short", "single_matrix", "single_matrix_two"])
    def test_rejects_other_tau_shapes(self, h, tau):
        with pytest.raises(ValueError, match=r"^tau must be a number or one per matrix, got shape "):
            expm_unitary(h, tau)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry(self, bad):
        tau = np.array([0.3, 1.2, bad, -0.4])
        with pytest.raises(ValueError, match=rf"^tau must be finite, got {bad}$"):
            expm_unitary(np.stack([SX, SZ, SY, np.diag([1.0, 2.0])]), tau)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h,tau,first", [
        (np.stack([SZ, 1e10 * SX, 1e10 * SX]), [1e300, 1.0, 3e300], "3e+300"),  # closed form
        (np.stack([SZ, 1e10 * SX, 1e10 * SX]), [1.0, 2e300, 3e300], "2e+300"),
        (np.diag([1.0, 2.0, -3.0]) * np.array([1.0, 1e10, 1e10])[:, None, None], [1e300, 1.0, 4e300],
         "4e+300"),  # eigh
    ], ids=["closed_form_last", "closed_form_middle", "eigh_last"])
    def test_overflow_names_the_first_failing_tau(self, h, tau, first):
        with pytest.raises(ValueError, match=rf"^phase of exp\(-i H tau\) overflows at tau = {re.escape(first)}: "):
            expm_unitary(h, np.array(tau))


class TestPredicates:
    def test_family_propagator_unitary(self):
        from spinctl.closedforms import su2_family
        u = su2_family().propagator(1.3, -0.4)
        assert np.max(np.abs(u @ dagger(u) - np.eye(2))) <= 1e-12


class TestExpmUnitarySmallScale:
    """A small nonzero H is not taken for H = 0: the screens act on H scaled by a power of two."""

    def test_small_involutory(self):
        h = 1e-6 * SX
        assert np.max(np.abs(expm_unitary(h, 1.0) - eigh_exp(h, 1.0))) <= 1e-15

    def test_small_spin1(self):
        h = 1e-6 * with_spectrum(np.random.default_rng(21), [-1.0, 0.0, 1.0])
        assert np.max(np.abs(expm_unitary(h, 100.0) - eigh_exp(h, 100.0))) <= 1e-15

    def test_small_generic(self):
        h = 1e-6 * random_hermitian(np.random.default_rng(22), 3)
        assert np.max(np.abs(expm_unitary(h, 100.0) - eigh_exp(h, 100.0))) <= 1e-15

    def test_identity_only_for_zero(self):
        h = np.stack([np.zeros((2, 2)), 1e-9 * SZ])
        u = expm_unitary(h, 1.0)
        assert np.array_equal(u[0], np.eye(2))
        assert np.max(np.abs(u[1] - eigh_exp(h[1], 1.0))) <= 1e-16


class TestExpmUnitaryScaleModel:
    """Each matrix is scaled by a power of two before the gate, the screens, the closed form and eigh.

    So exp(-i (2^j H) (2^-j tau)) is bitwise exp(-i H tau) wherever 2^j H
    has normal entries, and no scale from subnormal entries to the float
    limit overflows, underflows to the identity or warns.
    """

    SPIN1 = with_spectrum(np.random.default_rng(29), [-0.8, 0.0, 0.8])
    CASES = {"involutory": 0.7 * SX, "spin1": (SPIN1 + dagger(SPIN1)) / 2, "spin1_unsymmetrized": SPIN1,
             "dirac": assemble_dirac(dirac_operators(), 0.6, [0.3, -0.5, 0.2]),
             "generic": random_hermitian(np.random.default_rng(30), 4)}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", CASES)
    def test_power_of_two_scale_is_bitwise(self, case):
        h, tau = self.CASES[case], 0.9
        ref = expm_unitary(h, tau)
        bad = [j for j in range(-1000, 1001)
               if not np.array_equal(expm_unitary(2.0 ** j * h, 2.0 ** -j * tau), ref)]
        assert bad == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale,tau", [
        (1e-160, 1e160), (1e-170, 1e165), (1e-200, 1e200),  # H^2 underflows unscaled
        (1e-310, 1e300), (5e-324, 1.0),  # subnormal entries
        (1e308, 1e-308)])  # the float limit
    def test_extreme_scale_is_the_exact_rotation(self, scale, tau):
        # exp(-i s tau SX) = cos(s tau) I - i sin(s tau) SX
        phase = scale * tau
        exact = np.cos(phase) * I2 - 1j * np.sin(phase) * SX
        assert np.max(np.abs(expm_unitary(scale * SX, tau) - exact)) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_zero_signs_are_bitwise(self, d):
        # about a third of the off-diagonal pairs exactly zero, once as +0 and once as -0 - 0j
        rng = np.random.default_rng(40 + d)
        pos = np.stack([random_hermitian(rng, d) for _ in range(100)])
        rows, cols = np.triu_indices(d, 1)
        zero = rng.uniform(size=(100, len(rows))) < 1 / 3
        n, pair = np.nonzero(zero)
        pos[n, rows[pair], cols[pair]] = pos[n, cols[pair], rows[pair]] = 0.0
        neg = pos.copy()
        neg[n, rows[pair], cols[pair]] = neg[n, cols[pair], rows[pair]] = complex(-0.0, -0.0)
        for tau in (0.7, -2.3):
            u_neg, u_pos = expm_unitary(neg, tau), expm_unitary(pos, tau)
            assert [i for i in range(100) if u_neg[i].tobytes() != u_pos[i].tobytes()] == []


class TestExpmUnitarySpin1:
    """Matrices with spectrum in {-E, 0, E} take the spin-1 closed form, not eigh.

    The involutory spectra, with no zero, pass the involutory screen and
    reach the same closed form from there.
    """

    SPECTRA = {"d3": [-1.0, 0.0, 1.0], "d4_one_zero": [-1.0, 0.0, 0.0, 1.0],
               "d4_double": [-1.0, -1.0, 0.0, 1.0], "d2_involutory": [-1.0, 1.0],
               "d4_involutory": [-1.0, -1.0, 1.0, 1.0]}

    @pytest.fixture
    def no_eigh(self, monkeypatch):
        def refuse(h, k, tau):
            raise AssertionError("took the eigh branch")
        monkeypatch.setattr(matrixcore, "_eigh_exp", refuse)

    @pytest.mark.parametrize("spectrum", SPECTRA.values(), ids=SPECTRA.keys())
    def test_diagonal_matches_eigh(self, spectrum, no_eigh):
        # E at unit scale: the phase E tau, rounded on both sides, stays below 50.
        rng = np.random.default_rng(23)
        for _ in range(200):
            e, tau = rng.uniform(0.1, 1.0), rng.uniform(-50, 50)
            h = np.diag(e * np.asarray(spectrum))
            assert np.max(np.abs(expm_unitary(h, tau) - eigh_exp(h, tau))) <= 1e-14

    @pytest.mark.parametrize("spectrum", SPECTRA.values(), ids=SPECTRA.keys())
    def test_rotated_matches_eigh(self, spectrum, no_eigh):
        # Both sides carry a phase rounding of order eps * |E tau|, so the
        # bound grows with the phase; it is 1e-14 near |E tau| = 2.
        rng = np.random.default_rng(24)
        for _ in range(200):
            e, tau = rng.uniform(0.1, 3.0), rng.uniform(-50, 50)
            h = with_spectrum(rng, e * np.asarray(spectrum))
            err = np.max(np.abs(expm_unitary(h, tau) - eigh_exp(h, tau)))
            assert err <= 3e-15 * (1 + abs(e * tau))

    @pytest.mark.parametrize("scale,tau", [(1e120, 1e-120), (1e160, 1e-160), (1e-160, 1e160),
                                           (1e6, 1e-6), (1e7, 1e-7)])
    def test_extreme_scales_take_closed_form_quietly(self, scale, tau, no_eigh):
        # H^2 and Tr H^4 of the unscaled matrix would overflow or underflow, and
        # its rounding-level anti-Hermitian part grows with the scale
        h = scale * with_spectrum(np.random.default_rng(27), [-1.0, 0.0, 1.0])
        assert np.max(np.abs(expm_unitary(h, tau) - eigh_exp(h, tau))) <= 1e-14

    def test_huge_stack_sends_only_the_generic_matrix_to_eigh(self, monkeypatch):
        # H^2 of every unscaled matrix would overflow: the two spin-1 matrices
        # take the closed form, with no RuntimeWarning (an error under this suite)
        rng = np.random.default_rng(28)
        stack = 1e160 * np.stack([with_spectrum(rng, s) for s in
                                  ([-1.0, 0.0, 1.0], [-1.0, 1.0, 1.0], [0.3, -2.0, 1.0])])
        taken, stacked_eigh = [], matrixcore._eigh_exp

        def counting(h, k, tau):
            taken.append(len(h))
            return stacked_eigh(h, k, tau)

        monkeypatch.setattr(matrixcore, "_eigh_exp", counting)
        u = expm_unitary(stack, 1e-160)
        assert taken == [1]
        for h, uk in zip(stack, u):
            assert np.max(np.abs(uk - eigh_exp(h, 1e-160))) <= 1e-14

    def test_near_miss_takes_eigh(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            h = with_spectrum(rng, [-1.0, 1e-6, 1.0])
            tau = rng.uniform(-50, 50)
            assert np.max(np.abs(expm_unitary(h, tau) - eigh_exp(h, tau))) <= 1e-14

    def test_mixed_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(26)
        stack = np.stack([np.kron(SZ, I2), with_spectrum(rng, [-0.7, 0.0, 0.0, 0.7]),
                          random_hermitian(rng, 4), np.zeros((4, 4)),
                          with_spectrum(rng, [-2.0, -2.0, 0.0, 2.0])])
        for tau in (0.37, -2.1):
            ref = np.stack([expm_unitary(h, tau) for h in stack])
            assert np.array_equal(expm_unitary(stack, tau), ref)

    @pytest.mark.parametrize("family,scale", [
        (su2_family, 1.0), (lambda: su3_family(0.4), 1.0),
        (lambda: su4_family(DiracParameters(m=0.7, p0=[1.0, 0.2, -0.5])), 1.0),
        (lambda: su3_family(0.4), 100.0)], ids=["su2", "su3", "su4", "su3x100"])
    def test_family_product_takes_no_eigh(self, family, scale, no_eigh):
        fam = family()
        for order in (2, 4):  # the order-4 exponent K mixes H at two times and their commutator
            u = time_ordered_exponential(lambda t: scale * fam.hamiltonian(t), 0.0, 1.0, 600, order=order)
            assert np.max(np.abs(u @ dagger(u) - np.eye(fam.dim))) <= 1e-13

    @pytest.mark.parametrize("family,spin1_calls", [
        (su2_family, []), (lambda: su3_family(0.4), [1024, 1024]),
        (lambda: su4_family(DiracParameters(m=0.7, p0=[1.0, 0.2, -0.5])), [])], ids=["su2", "su3", "su4"])
    def test_family_passes_route_whole_stacks(self, family, spin1_calls, monkeypatch):
        # su2 and su4 pass the involutory screen; every su3 matrix of a pass takes one spin-1 test
        taken, spin1_test, eigh_exp = [], matrixcore._spin1_test, matrixcore._eigh_exp

        def spy_spin1(h, h2, tr2):
            taken.append(("spin1", h.shape[2]))
            return spin1_test(h, h2, tr2)

        def spy_eigh(h, k, tau):
            taken.append(("eigh", len(h)))
            return eigh_exp(h, k, tau)

        monkeypatch.setattr(matrixcore, "_spin1_test", spy_spin1)
        monkeypatch.setattr(matrixcore, "_eigh_exp", spy_eigh)
        fam = family()
        for order in (2, 4):
            taken.clear()
            time_ordered_exponential(fam.hamiltonian, 0.0, 2.0, 2048, order=order)
            assert taken == [("spin1", n) for n in spin1_calls]
