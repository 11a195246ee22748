"""Hermitian trace-orthogonal generator bases for su(2), su(3), su(4).

The su(2) basis is the Pauli triple, su(3) the Gell-Mann octet, and su(4)
the fifteen two-fold Pauli products sigma_i (x) sigma_j with (i, j) != (0, 0)
and sigma_0 the 2x2 identity. Elements are kept unnormalized (Tr g_k^2 = 2
for su2/su3, 4 for su4); projections divide by the stored norm constants so
that coefficient vectors are exact regardless of convention.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrixcore import as_operator, kron

__all__ = [
    "DiracOperators",
    "GeneratorBasis",
    "PAULI",
    "assemble_dirac",
    "build_basis",
    "dirac_operators",
    "gell_mann",
    "project_coefficients",
    "reconstruct",
    "verify_algebra",
]

#: sigma_0 .. sigma_3 (identity, x, y, z).
PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def gell_mann() -> np.ndarray:
    """The eight Gell-Mann matrices, Tr(l_a l_b) = 2 delta_ab."""
    l = np.zeros((8, 3, 3), dtype=complex)
    l[0, 0, 1] = l[0, 1, 0] = 1
    l[1, 0, 1] = -1j; l[1, 1, 0] = 1j
    l[2, 0, 0] = 1; l[2, 1, 1] = -1
    l[3, 0, 2] = l[3, 2, 0] = 1
    l[4, 0, 2] = -1j; l[4, 2, 0] = 1j
    l[5, 1, 2] = l[5, 2, 1] = 1
    l[6, 1, 2] = -1j; l[6, 2, 1] = 1j
    l[7] = np.diag([1, 1, -2]) / np.sqrt(3)
    return l


@dataclass(frozen=True)
class GeneratorBasis:
    """Ordered, labeled set of Hermitian trace-free matrices spanning su(N)."""

    group_id: str
    labels: tuple[str, ...]
    elements: np.ndarray       # shape (n, d, d)
    norm_constants: np.ndarray  # norm_constants[k] = Tr(g_k^2)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in {self.group_id} basis") from None


@lru_cache(maxsize=None)
def build_basis(group_id: str) -> GeneratorBasis:
    """Construct the generator basis for one of ``su2``, ``su3``, ``su4``."""
    if group_id == "su2":
        labels = ("sx", "sy", "sz")
        elements = np.stack(PAULI[1:])
    elif group_id == "su3":
        labels = tuple(f"l{k}" for k in range(1, 9))
        elements = gell_mann()
    elif group_id == "su4":
        pairs = [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)]
        labels = tuple(f"s{i}{j}" for i, j in pairs)
        elements = np.stack([kron(PAULI[i], PAULI[j]) for i, j in pairs])
    else:
        raise ValueError(f"unknown group {group_id!r}")
    elements.setflags(write=False)
    norms = np.einsum("kij,kji->k", elements, elements).real
    norms.setflags(write=False)
    return GeneratorBasis(group_id, labels, elements, norms)


def project_coefficients(a: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    """Expand a Hermitian matrix on the basis: c_k = Tr(g_k A) / Tr(g_k^2).

    The identity component is not representable; a warning is emitted if A
    carries a nonzero trace (that part is dropped).
    """
    a = as_operator(a)
    if a.shape[0] != basis.dim:
        raise ValueError(f"dimension mismatch: matrix {a.shape[0]}, basis {basis.dim}")
    tr = abs(np.trace(a))
    if tr > 1e-12:
        warnings.warn(
            f"matrix has trace {tr:.3e}; identity component dropped by projection",
            stacklevel=2,
        )
    coeffs = np.einsum("kij,ji->k", basis.elements, a) / basis.norm_constants
    return coeffs.real


def reconstruct(coeffs, basis: GeneratorBasis) -> np.ndarray:
    """Sum c_k g_k; Hermitian and traceless for real coefficients."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (len(basis),):
        raise ValueError(f"expected {len(basis)} coefficients, got shape {c.shape}")
    return np.einsum("k,kij->ij", c, basis.elements)


@dataclass(frozen=True)
class DiracOperators:
    """The four anticommuting Hermitian roots of unity alpha_j, beta.

    beta = sigma_z (x) 1 and alpha_j = sigma_y (x) sigma_j, the convention in
    which m*beta + p.alpha carries -i(p.sigma) on the upper-right block.
    """

    alpha: np.ndarray  # shape (3, 4, 4)
    beta: np.ndarray   # shape (4, 4)


def dirac_operators() -> DiracOperators:
    """Canonical Dirac operator set."""
    beta = kron(PAULI[3], PAULI[0])
    alpha = np.stack([kron(PAULI[2], PAULI[j]) for j in (1, 2, 3)])
    alpha.setflags(write=False)
    beta.setflags(write=False)
    return DiracOperators(alpha=alpha, beta=beta)


def assemble_dirac(ops: DiracOperators, m: float, p) -> np.ndarray:
    """m * beta + sum_j p_j alpha_j."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError("p must be a 3-vector")
    return m * ops.beta + np.einsum("j,jab->ab", p, ops.alpha)


def verify_algebra(ops: DiracOperators) -> dict[str, float]:
    """Max deviation of each of the 16 Clifford relations.

    Covers beta^2 = 1, alpha_j^2 = 1 (via the diagonal of the
    anticommutator table), {alpha_j, alpha_k} = 2 delta_jk and
    {beta, alpha_k} = 0.
    """
    eye = np.eye(4, dtype=complex)
    report: dict[str, float] = {}
    report["beta^2=1"] = float(np.max(np.abs(ops.beta @ ops.beta - eye)))
    names = "xyz"
    for j in range(3):
        aj = ops.alpha[j]
        report[f"alpha_{names[j]}^2=1"] = float(np.max(np.abs(aj @ aj - eye)))
    for j in range(3):
        for k in range(3):
            acomm = ops.alpha[j] @ ops.alpha[k] + ops.alpha[k] @ ops.alpha[j]
            target = 2 * eye if j == k else 0 * eye
            report[f"{{alpha_{names[j]},alpha_{names[k]}}}"] = float(
                np.max(np.abs(acomm - target))
            )
    for k in range(3):
        acomm = ops.beta @ ops.alpha[k] + ops.alpha[k] @ ops.beta
        report[f"{{beta,alpha_{names[k]}}}"] = float(np.max(np.abs(acomm)))
    return report
