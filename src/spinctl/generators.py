"""Hermitian trace-orthogonal generator bases for su(2), su(3), su(4) and their direct sums.

The su(2) basis is the Pauli triple, su(3) the Gell-Mann octet, and su(4)
the fifteen two-fold Pauli products sigma_i (x) sigma_j with (i, j) != (0, 0)
and sigma_0 the 2x2 identity. Elements are kept unnormalized (Tr g_k^2 = 2
for su2/su3, 4 for su4); projections divide by the stored norm constants so
that coefficient vectors are exact regardless of convention.

A direct sum such as ``su2+su3+su4`` is a basis like any other, with the
parts' elements as diagonal blocks in the order named and labels prefixed
by their part (``su2.sx``). It spans su(2) + su(3) + su(4), not su(9).

Each element has 2 to 4 nonzero entries, so reconstruct and
project_coefficients sum only those, through tables cached on the basis
(``entry_terms``, ``element_terms``). Each result is bitwise the dense
sum over all entries; a non-finite row gives an all-NaN result row.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .matrixcore import _exponents, as_operator

__all__ = [
    "DiracOperators",
    "GeneratorBasis",
    "PAULI",
    "assemble_dirac",
    "build_basis",
    "dirac_operators",
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


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    """Ordered, labeled set of Hermitian trace-free matrices spanning su(N) or a direct sum of them."""

    group_id: str
    labels: tuple[str, ...]
    elements: np.ndarray       # shape (n, d, d)
    norm_constants: np.ndarray  # norm_constants[k] = Tr(g_k^2)
    structure: np.ndarray       # structure[k, a, b] = -i Tr(g_k [g_a, g_b]) / Tr(g_k^2)

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

    @cached_property
    def entry_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """reconstruct's table: per entry (i, j), row-major, the k with g_k[i, j] != 0 and those values."""
        n, d = self.elements.shape[:2]
        return _sparse_terms(self.elements.reshape(n, d * d).T, np.arange(n))

    @cached_property
    def element_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """_project's table: per g_k, its nonzero g_k[i, j], row-major, and the flat index of A[j, i]."""
        n, d = self.elements.shape[:2]
        return _sparse_terms(self.elements.reshape(n, d * d), np.arange(d * d).reshape(d, d).T.ravel())


def _sparse_terms(table: np.ndarray, source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nonzero entries of the (m, p) ``table``, in column order, padded with zeros to a common count t.

    Returns the read-only (t, m) arrays of ``source[column]`` and of the entries, as _contract reads them.
    """
    idx = np.zeros((np.count_nonzero(table, axis=1).max(), len(table)), dtype=np.intp)
    vals = np.zeros(idx.shape, dtype=complex)
    for r, row in enumerate(table):
        cols = np.flatnonzero(row)
        idx[:len(cols), r], vals[:len(cols), r] = source[cols], row[cols]
    idx.setflags(write=False)
    vals.setflags(write=False)
    return idx, vals


def _contract(x: np.ndarray, terms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Sum each column of a _sparse_terms table over the last axis of ``x``: (..., p) to C-contiguous (..., m).

    One gather, one multiply and one reduce from +0 in the table's term
    order, which is the dense sum's bit for bit: a zero entry it drops
    would only add an exact zero. That fails for a non-finite entry, whose
    inf * 0 or NaN * 0 makes the dense sum NaN throughout, so a row of
    ``x`` holding one comes out all NaN, with no floating-point warning.
    """
    idx, vals = terms
    finite = np.isfinite(x).all(axis=-1)
    if finite.all():
        return np.ascontiguousarray(np.add.reduce(x[..., idx] * vals, axis=-2, initial=0j))
    out = _contract(np.where(finite[..., None], x, 0.0), terms)
    out[~finite] = np.nan
    return out


@lru_cache(maxsize=None)
def build_basis(group_id: str) -> GeneratorBasis:
    """The basis of ``su2``, ``su3``, ``su4``, or a sum of distinct ones such as ``su2+su3+su4``."""
    parts = group_id.split("+")
    if len(parts) > 1:
        if "" in parts or len(set(parts)) < len(parts):
            raise ValueError(f"group {group_id!r} has an empty or repeated part")
        blocks = [build_basis(part) for part in parts]
        labels = tuple(f"{b.group_id}.{label}" for b in blocks for label in b.labels)
        d, k, i = sum(b.dim for b in blocks), 0, 0
        elements = np.zeros((len(labels), d, d), dtype=complex)
        for b in blocks:
            elements[k:k + len(b), i:i + b.dim, i:i + b.dim] = b.elements
            k, i = k + len(b), i + b.dim
    elif group_id == "su2":
        labels = ("sx", "sy", "sz")
        elements = np.stack(PAULI[1:])
    elif group_id == "su3":
        labels = tuple(f"l{k}" for k in range(1, 9))
        elements = np.zeros((8, 3, 3), dtype=complex)  # the Gell-Mann octet
        elements[0, 0, 1] = elements[0, 1, 0] = 1
        elements[1, 0, 1] = -1j; elements[1, 1, 0] = 1j
        elements[2, 0, 0] = 1; elements[2, 1, 1] = -1
        elements[3, 0, 2] = elements[3, 2, 0] = 1
        elements[4, 0, 2] = -1j; elements[4, 2, 0] = 1j
        elements[5, 1, 2] = elements[5, 2, 1] = 1
        elements[6, 1, 2] = -1j; elements[6, 2, 1] = 1j
        elements[7] = np.diag([1, 1, -2]) / np.sqrt(3)
    elif group_id == "su4":
        pairs = [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)]
        labels = tuple(f"s{i}{j}" for i, j in pairs)
        elements = np.stack([np.kron(PAULI[i], PAULI[j]) for i, j in pairs])
    else:
        raise ValueError(f"unknown group {group_id!r}")
    elements.setflags(write=False)
    norms = np.einsum("kij,kji->k", elements, elements).real
    norms.setflags(write=False)
    prods = np.einsum("aij,bjk->abik", elements, elements)  # g_a g_b
    structure = -1j * np.einsum("kij,abji->kab", elements, prods - prods.transpose(1, 0, 2, 3))
    structure = np.ascontiguousarray((structure / norms[:, None, None]).real)
    structure.setflags(write=False)
    return GeneratorBasis(group_id, labels, elements, norms, structure)


def project_coefficients(a: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    """Expand a Hermitian matrix on the basis: c_k = Tr(g_k A) / Tr(g_k^2).

    An (n, d, d) stack gives (n, len(basis)), each row bitwise the lone
    matrix's and the dense sum over all d^2 entries. The identity
    component is not representable and is dropped, with one warning for
    the stack if some |Tr A| > 1e-12 * 2^k, 2^k that A's scale as in
    matrixcore._exponents; it names the largest such |Tr A|.
    """
    a = as_operator(a)
    if a.shape[-1] != basis.dim:
        raise ValueError(f"dimension mismatch: matrix {a.shape[-1]}, basis {basis.dim}")
    tr = np.abs(np.trace(a, axis1=-2, axis2=-1))
    bad = tr > np.ldexp(1e-12, _exponents(a, (-2, -1)))
    if bad.any():
        worst = np.max(tr, where=bad, initial=0.0)
        warnings.warn(f"matrix has trace {worst:.3e}; identity component dropped by projection", stacklevel=2)
    return _project(a, basis)


def _project(a: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    """project_coefficients' core, without its trace or finiteness test, for a (d, d) or (n, d, d) ``a`` of basis.dim.

    Sums g_k[i, j] A[j, i] over g_k's nonzero entries in row-major (i, j)
    order, bitwise the dense sum over all d^2; a matrix with a non-finite
    entry gives a NaN row.
    """
    flat = a.reshape(a.shape[:-2] + (basis.dim ** 2,))
    return (_contract(flat, basis.element_terms) / basis.norm_constants).real


def reconstruct(coeffs, basis: GeneratorBasis) -> np.ndarray:
    """Sum c_k g_k, Hermitian and traceless; an (n, len(basis)) stack of rows gives (n, d, d).

    Each entry sums only the g_k nonzero there, in increasing k, and is
    bitwise the dense sum over all k; the result is C-contiguous. A row
    with a non-finite coefficient gives an all-NaN matrix.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] != len(basis):
        raise ValueError(f"expected {len(basis)} coefficients per row, got shape {c.shape}")
    return _contract(c, basis.entry_terms).reshape(c.shape[:-1] + (basis.dim, basis.dim))


@dataclass(frozen=True, eq=False)
class DiracOperators:
    """The four anticommuting Hermitian roots of unity alpha_j, beta.

    beta = sigma_z (x) 1 and alpha_j = sigma_y (x) sigma_j, the convention in
    which m*beta + p.alpha carries -i(p.sigma) on the upper-right block.
    """

    alpha: np.ndarray  # shape (3, 4, 4)
    beta: np.ndarray   # shape (4, 4)


def dirac_operators() -> DiracOperators:
    """Canonical Dirac operator set."""
    beta = np.kron(PAULI[3], PAULI[0])
    alpha = np.stack([np.kron(PAULI[2], PAULI[j]) for j in (1, 2, 3)])
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

    Covers beta^2 = 1, alpha_j^2 = 1, {alpha_j, alpha_k} = 2 delta_jk
    (so alpha_j^2 = 1 again on its diagonal) and {beta, alpha_k} = 0, all
    read from one table of the products of (beta, alpha_x, alpha_y, alpha_z).
    """
    g = np.concatenate([ops.beta[None], ops.alpha])
    prods = g[:, None] @ g[None, :]  # prods[a, b] = g_a g_b
    eye = np.eye(4, dtype=complex)
    squares = np.max(np.abs(prods[range(4), range(4)] - eye), axis=(-2, -1)).tolist()
    target = 2 * np.eye(4)[:, :, None, None] * eye
    acomm = np.max(np.abs(prods + prods.swapaxes(0, 1) - target), axis=(-2, -1)).tolist()
    names = ("beta", "alpha_x", "alpha_y", "alpha_z")
    report = {f"{names[a]}^2=1": squares[a] for a in range(4)}
    report.update({f"{{{names[a]},{names[b]}}}": acomm[a][b] for a in (1, 2, 3) for b in (1, 2, 3)})
    report.update({f"{{beta,{names[b]}}}": acomm[0][b] for b in (1, 2, 3)})
    return report
