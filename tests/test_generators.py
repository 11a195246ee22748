import warnings

import numpy as np
import pytest

from helpers import displayed_dirac_matrix
from spinctl.generators import (
    DiracOperators,
    PAULI,
    assemble_dirac,
    build_basis,
    dirac_operators,
    project_coefficients,
    reconstruct,
    verify_algebra,
)
from spinctl.matrixcore import dagger

RNG = np.random.default_rng(11)

I2, SX, SY, SZ = PAULI


class TestBases:
    @pytest.mark.parametrize("group,count,norm", [("su2", 3, 2.0), ("su3", 8, 2.0), ("su4", 15, 4.0)])
    def test_counts_and_norms(self, group, count, norm):
        basis = build_basis(group)
        assert len(basis) == count
        assert np.allclose(basis.norm_constants, norm)

    @pytest.mark.parametrize("group", ["su2", "su3", "su4", "su2+su3+su4"])
    def test_hermitian_traceless_orthogonal(self, group):
        basis = build_basis(group)
        g = basis.elements
        for k in range(len(basis)):
            assert np.max(np.abs(g[k] - dagger(g[k]))) < 1e-14
            assert abs(np.trace(g[k])) < 1e-14
        gram = np.einsum("kij,lji->kl", g, g)
        assert np.max(np.abs(gram - np.diag(basis.norm_constants))) < 1e-14

    def test_su4_label_order(self):
        basis = build_basis("su4")
        assert basis.labels[:4] == ("s01", "s02", "s03", "s10")
        assert basis.labels[-1] == "s33"
        assert np.array_equal(basis.elements[basis.index("s21")], np.kron(SY, SX))

    def test_unknown_group(self):
        with pytest.raises(ValueError, match="unknown group"):
            build_basis("su5")

    def test_label_lookup(self):
        basis = build_basis("su2")
        assert basis.index("sy") == 1
        with pytest.raises(KeyError):
            basis.index("sw")


def antisymmetric(n: int, table: dict) -> np.ndarray:
    """The totally antisymmetric (n, n, n) array with the given 1-based entries."""
    f = np.zeros((n, n, n))
    for (a, b, c), v in table.items():
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            f[i - 1, j - 1, k - 1] = v
            f[j - 1, i - 1, k - 1] = -v
    return f


#: Nonzero f_abc, a < b < c, of [l_a, l_b] = 2i f_abc l_c (Gell-Mann 1962).
GELL_MANN_F = {(1, 2, 3): 1.0, (1, 4, 7): 0.5, (1, 5, 6): -0.5, (2, 4, 6): 0.5, (2, 5, 7): 0.5,
               (3, 4, 5): 0.5, (3, 6, 7): -0.5, (4, 5, 8): np.sqrt(3) / 2, (6, 7, 8): np.sqrt(3) / 2}


class TestStructureConstants:
    """structure[k, a, b] is the g_k coefficient of -i[g_a, g_b]."""

    @pytest.mark.parametrize("group", ["su2", "su3", "su4", "su2+su3+su4"])
    def test_antisymmetric(self, group):
        f = build_basis(group).structure
        assert np.array_equal(f, -f.transpose(0, 2, 1))

    @pytest.mark.parametrize("group", ["su2", "su3", "su4", "su2+su3+su4"])
    def test_jacobi_identity(self, group):
        # [[g_a, g_b], g_c] + cyclic = 0, written in the constants
        f = build_basis(group).structure
        jacobi = (np.einsum("mab,nmc->abcn", f, f) + np.einsum("mbc,nma->abcn", f, f)
                  + np.einsum("mca,nmb->abcn", f, f))
        assert np.max(np.abs(jacobi)) < 1e-15

    def test_su2_is_twice_levi_civita(self):
        assert np.array_equal(build_basis("su2").structure, 2 * antisymmetric(3, {(1, 2, 3): 1.0}))

    def test_su3_is_twice_gell_mann_table(self):
        # structure[c, a, b] = 2 f_abc = 2 f_cab, f being totally antisymmetric
        f = build_basis("su3").structure
        assert np.max(np.abs(f - 2 * antisymmetric(8, GELL_MANN_F))) < 1e-15

    def test_su4_entries_are_zero_or_two(self):
        # two Pauli products either commute or give 2i times a third
        f = build_basis("su4").structure
        assert set(np.unique(f)) <= {-2.0, 0.0, 2.0}
        assert np.all(np.count_nonzero(f, axis=0) <= 1)

    def test_read_only(self):
        f = build_basis("su3").structure
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0, 0, 1] = 1.0


class TestDirectSums:
    """su2+su3+su4: each part a diagonal block, in the order named."""

    PARTS = ("su2", "su3", "su4")

    def blocks(self):
        """Per part, its basis and its slices of the sum's elements and of its matrix rows."""
        k = i = 0
        for group in self.PARTS:
            part = build_basis(group)
            yield part, slice(k, k + len(part)), slice(i, i + part.dim)
            k, i = k + len(part), i + part.dim

    def test_elements_are_the_parts_on_the_diagonal(self):
        basis = build_basis("su2+su3+su4")
        assert basis.elements.shape == (26, 9, 9)
        outside = np.ones(basis.elements.shape, bool)
        for part, k, i in self.blocks():
            assert np.array_equal(basis.elements[k, i, i], part.elements)
            assert np.array_equal(basis.norm_constants[k], part.norm_constants)
            outside[k, i, i] = False
        assert not basis.elements[outside].any()

    def test_structure_blocks_are_bitwise_the_parts(self):
        f = build_basis("su2+su3+su4").structure
        outside = np.ones(f.shape, bool)
        for part, k, _ in self.blocks():
            assert f[k, k, k].tobytes() == part.structure.tobytes()
            outside[k, k, k] = False
        assert not f[outside].any()

    def test_labels_unique_and_prefixed(self):
        basis = build_basis("su2+su3+su4")
        assert len(set(basis.labels)) == len(basis) == 26
        assert basis.labels == tuple(f"{g}.{l}" for g in self.PARTS for l in build_basis(g).labels)
        assert basis.index("su4.s33") == 25

    #: a sum that is not a basis, and the error it raises
    BAD_SUMS = {
        "su2+su2": "empty or repeated part",
        "su2+su3+su2": "empty or repeated part",
        "su2+": "empty or repeated part",
        "+su3": "empty or repeated part",
        "su5+su2": "unknown group 'su5'$",  # the part, not the sum
    }

    @pytest.mark.parametrize("group", BAD_SUMS)
    def test_rejects_repeated_empty_or_unknown_parts(self, group):
        with pytest.raises(ValueError, match=self.BAD_SUMS[group]):
            build_basis(group)


class TestDiracOperators:
    def test_beta_diagonal(self):
        assert np.array_equal(dirac_operators().beta, np.diag([1, 1, -1, -1]).astype(complex))

    def test_assembled_matches_displayed_block_form(self):
        h = assemble_dirac(dirac_operators(), 1.0, [0, 0, 1])
        expected = np.array([
            [1, 0, -1j, 0],
            [0, 1, 0, 1j],
            [1j, 0, -1, 0],
            [0, -1j, 0, -1],
        ])
        assert np.array_equal(h, expected)

    def test_squares_to_energy(self):
        h = assemble_dirac(dirac_operators(), 1.0, [0, 0, 1])
        assert np.array_equal(h @ h, 2 * np.eye(4, dtype=complex))

    def test_rejects_momentum_not_a_3_vector(self):
        with pytest.raises(ValueError, match="p must be a 3-vector"):
            assemble_dirac(dirac_operators(), 1.0, [1, 2])

    def test_algebra_exact(self):
        report = verify_algebra(dirac_operators())
        assert set(len(report) * [0.0]) == set(report.values())
        assert len(report) == 16

    def test_perturbation_detected(self):
        ops = dirac_operators()
        alpha = ops.alpha.copy()
        alpha[0] = alpha[0].copy()
        alpha[0][0, 0] += 1e-6
        report = verify_algebra(DiracOperators(alpha=alpha, beta=ops.beta))
        assert max(report.values()) > 1e-7

    def test_sigma_x_convention_passes_algebra_but_not_block_form(self):
        # the competing representation alpha_j = sigma_x (x) sigma_j satisfies
        # the Clifford relations yet assembles to a different block matrix
        alpha = np.stack([np.kron(SX, s) for s in (SX, SY, SZ)])
        other = DiracOperators(alpha=alpha, beta=np.kron(SZ, I2))
        assert max(verify_algebra(other).values()) == 0.0
        m, p = 0.6, np.array([0.3, -0.2, 0.9])
        assert np.max(np.abs(assemble_dirac(other, m, p) - displayed_dirac_matrix(m, p))) > 0.1

    def test_random_assembly_matches_displayed(self):
        ops = dirac_operators()
        for _ in range(50):
            m = RNG.uniform(-2, 2)
            p = RNG.uniform(-2, 2, 3)
            assert np.array_equal(assemble_dirac(ops, m, p), displayed_dirac_matrix(m, p))


class TestProjection:
    def test_pauli_coefficients(self):
        basis = build_basis("su2")
        c = project_coefficients(2 * SX + 3 * SZ, basis)
        assert np.allclose(c, [2, 0, 3], atol=1e-14)

    def test_dirac_mass_coefficient(self):
        basis = build_basis("su4")
        h = assemble_dirac(dirac_operators(), 1.5, RNG.uniform(-1, 1, 3))
        c = project_coefficients(h, basis)
        assert abs(c[basis.index("s30")] - 1.5) < 1e-14

    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    def test_roundtrip(self, group):
        basis = build_basis(group)
        for _ in range(20):
            c = RNG.uniform(-2, 2, len(basis))
            assert np.max(np.abs(project_coefficients(reconstruct(c, basis), basis) - c)) < 1e-13
            a = RNG.normal(size=(basis.dim,) * 2) + 1j * RNG.normal(size=(basis.dim,) * 2)
            a = (a + dagger(a)) / 2
            a -= np.trace(a) / basis.dim * np.eye(basis.dim)
            assert np.max(np.abs(reconstruct(project_coefficients(a, basis), basis) - a)) < 1e-13

    def test_zero_coefficients(self):
        basis = build_basis("su3")
        assert np.array_equal(reconstruct(np.zeros(8), basis), np.zeros((3, 3)))

    def test_unit_vector_label(self):
        basis = build_basis("su4")
        c = np.zeros(15)
        c[basis.index("s21")] = 1.0
        assert np.array_equal(reconstruct(c, basis), np.kron(SY, SX))

    def test_warns_on_trace(self):
        basis = build_basis("su2")
        with pytest.warns(UserWarning, match="identity component"):
            project_coefficients(np.diag([1.0, 0.0]).astype(complex), basis)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            project_coefficients(np.eye(3, dtype=complex), build_basis("su2"))

    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    def test_projected_stack_is_per_matrix_calls(self, group):
        basis = build_basis(group)
        a = reconstruct(RNG.uniform(-2, 2, (50, len(basis))), basis)
        stacked = project_coefficients(a, basis)
        assert stacked.shape == (50, len(basis))
        assert np.array_equal(stacked, np.array([project_coefficients(m, basis) for m in a]))

    def test_stack_warns_once_naming_the_worst_trace(self):
        stack = np.zeros((4, 2, 2), dtype=complex)
        stack[1] = np.diag([0.5, 0.0])
        stack[3] = np.diag([-3.0, 0.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            project_coefficients(stack, build_basis("su2"))
        assert [str(w.message) for w in caught] == [
            "matrix has trace 3.000e+00; identity component dropped by projection"]

    @pytest.mark.parametrize("group", ["su3", "su4"])
    def test_large_traceless_input_projects_without_warning(self, group):
        # |Tr A| is only rounding, about eps * |A|: above an absolute 1e-12, not above 1e-12 * 2^k
        basis = build_basis(group)
        rng = np.random.default_rng(28)
        a = rng.normal(size=(50, basis.dim, basis.dim)) + 1j * rng.normal(size=(50, basis.dim, basis.dim))
        a = 1e6 * (a + dagger(a)) / 2
        a -= np.trace(a, axis1=1, axis2=2)[:, None, None] / basis.dim * np.eye(basis.dim)
        assert np.max(np.abs(np.trace(a, axis1=1, axis2=2))) > 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = project_coefficients(a, basis)
        assert np.max(np.abs(reconstruct(c, basis) - a)) < 1e-6

    def test_small_trace_warns_relative_to_its_scale(self):
        with pytest.warns(UserWarning, match=r"^matrix has trace 1\.000e-14; identity component dropped"):
            project_coefficients(1e-14 * np.diag([1.0, 0.0, 0.0]).astype(complex), build_basis("su3"))

    def test_stack_names_the_trace_that_fails_its_own_scale(self):
        large = np.diag([1e6 + 0.1, -1e6, -0.1]).astype(complex)  # traceless up to rounding
        small = 1e-14 * np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert abs(np.trace(large)) > 1e-12 > abs(np.trace(small))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            project_coefficients(np.stack([large, small, large]), build_basis("su3"))
        assert [str(w.message) for w in caught] == [
            "matrix has trace 1.000e-14; identity component dropped by projection"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="coefficients"):
            reconstruct(np.zeros(4), build_basis("su2"))

    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
    def test_stack_is_per_row_calls(self, group):
        basis = build_basis(group)
        c = RNG.uniform(-2, 2, (50, len(basis)))
        stacked = reconstruct(c, basis)
        assert stacked.shape == (50, basis.dim, basis.dim)
        assert np.array_equal(stacked, np.array([reconstruct(row, basis) for row in c]))

    @pytest.mark.parametrize("shape", [(), (2, 5, 3), (5, 4)], ids=["0-d", "3-D", "last_axis"])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="coefficients"):
            reconstruct(np.zeros(shape), build_basis("su2"))


class TestConstraintTable:
    def test_su4_reconstruction_matches_packed_table(self):
        """Constraint coefficients on the 11 non-Dirac labels reproduce the
        packed complex form entry by entry: Omega_pm on the diagonal and the
        xi combinations off it."""
        basis = build_basis("su4")
        dirac_labels = {"s30", "s11", "s12", "s13"}
        rng = np.random.default_rng(3)
        om = {l: rng.uniform(-2, 2) for l in basis.labels if l not in dirac_labels}

        c = np.zeros(15)
        for label, v in om.items():
            c[basis.index(label)] = v
        f = reconstruct(c, basis)

        o = lambda i, j: om[f"s{i}{j}"]
        xi01 = o(3, 1) - 1j * o(3, 2) + o(0, 1) - 1j * o(0, 2)
        xi23 = -o(3, 1) + 1j * o(3, 2) + o(0, 1) - 1j * o(0, 2)
        xi13 = o(1, 0) - 1j * o(2, 0) + 1j * o(2, 3)
        xi02 = o(1, 0) - 1j * o(2, 0) - 1j * o(2, 3)
        xi03 = -o(2, 2) - 1j * o(2, 1)
        xi12 = o(2, 2) - 1j * o(2, 1)
        om_plus = o(3, 3) + o(0, 3)
        om_minus = o(0, 3) - o(3, 3)
        expected = np.array([
            [om_plus, xi01, xi02, xi03],
            [np.conj(xi01), -om_plus, xi12, xi13],
            [np.conj(xi02), np.conj(xi12), om_minus, xi23],
            [np.conj(xi03), np.conj(xi13), np.conj(xi23), -om_minus],
        ])
        assert np.max(np.abs(f - expected)) < 1e-14
