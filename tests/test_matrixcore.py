import numpy as np
import pytest

from spinctl.generators import PAULI, assemble_dirac, dirac_operators
from spinctl.matrixcore import commutator, dagger, expm_unitary, kron, predicates

I2, SX, SY, SZ = PAULI
RNG = np.random.default_rng(7)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + dagger(a)) / 2


class TestKron:
    def test_beta_block_form(self):
        assert np.array_equal(kron(SZ, I2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4, dtype=complex))

    def test_xx_antidiagonal(self):
        # hand expansion of the 4x4 block form
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1
        assert np.array_equal(kron(SX, SX), expected)

    def test_associative_bilinear(self):
        for _ in range(20):
            a, b, c = (RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)) for _ in range(3))
            assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-14
            x, y = RNG.normal(2, size=2)
            lhs = kron(x * a + y * b, c)
            rhs = x * kron(a, c) + y * kron(b, c)
            assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            kron(np.ones((2, 3)), I2)

    def test_rejects_nonfinite(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError):
            kron(bad, I2)


class TestCommutator:
    def test_pauli_commutator(self):
        assert np.array_equal(commutator(SX, SY), 2j * SZ)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(SX, np.eye(3))


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
                assert predicates(u, tol=1e-12).unitary
                assert np.max(np.abs(u @ expm_unitary(h, -tau) - np.eye(d))) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_unitary(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


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
            assert np.max(np.abs(u - ref)) <= 1e-14

    def test_single_branch_stacks(self):
        for stack in (np.stack([SX, SZ, np.zeros((2, 2))]),
                      np.stack([random_hermitian(RNG, 3) for _ in range(5)])):
            ref = np.stack([expm_unitary(h, 0.8) for h in stack])
            assert np.max(np.abs(expm_unitary(stack, 0.8) - ref)) <= 1e-14

    def test_zero_matrices_give_identity(self):
        u = expm_unitary(np.zeros((3, 2, 2)), 1.3)
        assert np.array_equal(u, np.broadcast_to(np.eye(2), (3, 2, 2)))

    def test_rejects_non_hermitian_anywhere(self):
        stack = self.mixed_stack()
        stack[4, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            expm_unitary(stack, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite_anywhere(self, bad):
        stack = self.mixed_stack()
        stack[2, 3, 3] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            expm_unitary(stack, 1.0)

    def test_rejects_bad_shapes(self):
        for shape in ((4,), (2, 3), (2, 2, 3), (1, 2, 2, 2)):
            with pytest.raises(ValueError, match="square"):
                expm_unitary(np.zeros(shape), 1.0)


class TestPredicates:
    def test_pauli(self):
        rep = predicates(SX)
        assert rep.hermitian and rep.unitary and rep.traceless
        assert rep.max_deviation == 0.0

    def test_diag_not_traceless(self):
        rep = predicates(np.diag([1.0, 2.0]).astype(complex))
        assert rep.hermitian and not rep.traceless
        assert rep.trace_dev == 3.0

    def test_family_propagator_unitary(self):
        from spinctl.closedforms import su2_family
        u = su2_family().propagator(1.3, -0.4)
        assert predicates(u, tol=1e-12).unitary
