import numpy as np
import pytest

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
from spinctl.matrixcore import dagger, kron

RNG = np.random.default_rng(11)

I2, SX, SY, SZ = PAULI


def displayed_dirac_matrix(m, p):
    """The static Dirac block matrix [[m 1, -i p.sigma], [i p.sigma, -m 1]]."""
    ps = p[0] * SX + p[1] * SY + p[2] * SZ
    h = np.zeros((4, 4), dtype=complex)
    h[:2, :2] = m * I2
    h[2:, 2:] = -m * I2
    h[:2, 2:] = -1j * ps
    h[2:, :2] = 1j * ps
    return h


class TestBases:
    @pytest.mark.parametrize("group,count,norm", [("su2", 3, 2.0), ("su3", 8, 2.0), ("su4", 15, 4.0)])
    def test_counts_and_norms(self, group, count, norm):
        basis = build_basis(group)
        assert len(basis) == count
        assert np.allclose(basis.norm_constants, norm)

    @pytest.mark.parametrize("group", ["su2", "su3", "su4"])
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
        assert np.array_equal(basis.elements[basis.index("s21")], kron(SY, SX))

    def test_unknown_group(self):
        with pytest.raises(ValueError, match="unknown group"):
            build_basis("su5")

    def test_label_lookup(self):
        basis = build_basis("su2")
        assert basis.index("sy") == 1
        with pytest.raises(KeyError):
            basis.index("sw")


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
        alpha = np.stack([kron(SX, s) for s in (SX, SY, SZ)])
        other = DiracOperators(alpha=alpha, beta=kron(SZ, I2))
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
        assert np.array_equal(reconstruct(c, basis), kron(SY, SX))

    def test_warns_on_trace(self):
        basis = build_basis("su2")
        with pytest.warns(UserWarning, match="identity component"):
            project_coefficients(np.diag([1.0, 0.0]).astype(complex), basis)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            project_coefficients(np.eye(3, dtype=complex), build_basis("su2"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="coefficients"):
            reconstruct(np.zeros(4), build_basis("su2"))


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
