"""Sparse and small-dense linear algebra kernels.

This module is the computational substrate for the rest of the package:
CSR operators, the dense matrix exponential, phi-functions
of small matrices, and Gram-Schmidt orthogonalization.

Dense matrices and vectors are plain numpy arrays throughout; complex
inputs are supported everywhere.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

#: Dimension cap for dense kernels. Krylov compressions in this package stay
#: well below it; the cap guards against accidentally densifying a PDE operator.
SMALL_MATRIX_CAP = 512

#: Largest phi-function index supported by :func:`phi_dense`.
MAX_PHI_INDEX = 8

#: Relative threshold below which Gram-Schmidt declares an invariant subspace.
BREAKDOWN_RTOL = 1e-12


class DimensionMismatch(ValueError):
    pass


class SparseOperator:
    """Real sparse matrix in CSR form, optionally tagged as symmetric.

    Instances are immutable after construction and safe for concurrent reads.
    """

    __slots__ = ("n", "_csr", "symmetric", "_fingerprint")

    def __init__(self, csr: sp.csr_matrix, symmetric: bool = False):
        csr = sp.csr_matrix(csr)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"operator must be square, got {csr.shape}")
        if not np.issubdtype(csr.dtype, np.floating):
            csr = csr.astype(np.float64)
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("operator entries must be finite")
        csr.sort_indices()
        self.n = csr.shape[0]
        self._csr = csr
        self.symmetric = bool(symmetric)
        self._fingerprint = None

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def tocsr(self) -> sp.csr_matrix:
        return self._csr

    def todense(self) -> np.ndarray:
        return self._csr.toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"operator is {self.n}-dim, vector is {x.shape[0]}-dim")
        return self._csr @ x

    def norm_inf(self) -> float:
        """Infinity norm; for the symmetric operators here it bounds the spectral radius."""
        return float(abs(self._csr).sum(axis=1).max()) if self.nnz else 0.0

    @property
    def fingerprint(self) -> str:
        """Stable content hash, used to key factorization caches."""
        if self._fingerprint is None:
            h = hashlib.sha1()
            h.update(np.int64(self.n).tobytes())
            h.update(self._csr.indptr.tobytes())
            h.update(self._csr.indices.tobytes())
            h.update(self._csr.data.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def check_symmetry(self, rtol: float = 1e-12) -> bool:
        d = self._csr - self._csr.T
        scale = max(1.0, float(abs(self._csr).max()))
        return abs(d).max() <= rtol * scale if d.nnz else True

    @classmethod
    def identity(cls, n: int) -> "SparseOperator":
        return cls(sp.identity(n, format="csr"), symmetric=True)

    @classmethod
    def zeros(cls, n: int) -> "SparseOperator":
        return cls(sp.csr_matrix((n, n)), symmetric=True)

    @classmethod
    def from_dense(cls, a: np.ndarray, symmetric: bool = False) -> "SparseOperator":
        return cls(sp.csr_matrix(np.asarray(a, dtype=np.float64)), symmetric=symmetric)

    def scaled(self, factor: float) -> "SparseOperator":
        return SparseOperator(self._csr * float(factor), symmetric=self.symmetric)

    def __repr__(self):
        return f"SparseOperator(n={self.n}, nnz={self.nnz}, symmetric={self.symmetric})"


def dense_expm(z: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small dense matrix (scipy's scaling and
    squaring Pade).

    Raises
    ------
    ValueError
        If the input contains non-finite entries or the result overflows.
    """
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {z.shape}")
    if z.shape[0] == 0:
        return np.zeros((0, 0), dtype=z.dtype)
    if not np.all(np.isfinite(z)):
        raise ValueError("matrix exponential of non-finite input")
    dtype = np.complex128 if np.iscomplexobj(z) else np.float64
    r = sla.expm(z.astype(dtype))
    if not np.all(np.isfinite(r)):
        raise ValueError("overflow in the matrix exponential")
    return r


# ---------------------------------------------------------------------------
# phi-functions of small matrices.
# ---------------------------------------------------------------------------

def phi_dense(z: np.ndarray, k: int) -> np.ndarray:
    """phi_k(Z) for a small dense matrix Z.

    phi_0 = exp; higher indices come from one block-augmented exponential
    (nilpotent shift blocks appended to Z) so that no linear solves with a
    possibly singular Z are needed. The augmented matrix has dimension
    (k+1) * m for an m-by-m input.
    """
    if k < 0:
        raise ValueError("phi index must be >= 0")
    if k > MAX_PHI_INDEX:
        raise ValueError(f"phi index {k} exceeds the configured maximum {MAX_PHI_INDEX}")
    z = np.asarray(z)
    if z.ndim == 0:
        return phi_dense(z.reshape(1, 1), k)[0, 0]
    m = z.shape[0]
    if m > SMALL_MATRIX_CAP:
        raise ValueError(f"matrix dimension {m} exceeds the small-matrix cap {SMALL_MATRIX_CAP}")
    if k == 0:
        return dense_expm(z)
    return phi_dense_all(z, k)[k]


def phi_dense_all(z: np.ndarray, kmax: int) -> list[np.ndarray]:
    """[phi_0(Z), ..., phi_kmax(Z)] from a single augmented exponential."""
    z = np.asarray(z)
    m = z.shape[0]
    dtype = np.complex128 if np.iscomplexobj(z) else np.float64
    dim = m * (kmax + 1)
    w = np.zeros((dim, dim), dtype=dtype)
    w[:m, :m] = z
    eye = np.eye(m, dtype=dtype)
    for j in range(kmax):
        w[j * m:(j + 1) * m, (j + 1) * m:(j + 2) * m] = eye
    e = dense_expm(w)
    return [e[:m, j * m:(j + 1) * m].copy() for j in range(kmax + 1)]


# ---------------------------------------------------------------------------
# Orthogonalization.
# ---------------------------------------------------------------------------

class OrthResult(NamedTuple):
    v: np.ndarray | None   # None on happy breakdown
    h: np.ndarray          # projection coefficients onto the existing basis
    beta: float            # residual norm (the Hessenberg subdiagonal candidate)
    breakdown: bool


def orthogonal_extend(basis: np.ndarray, x: np.ndarray, reorth: int = 1) -> OrthResult:
    """Orthogonalize x against the columns of `basis` (classical Gram-Schmidt).

    With one reorthogonalization pass this is the usual "twice is enough"
    scheme. On exit x = basis @ h + beta * v with v unit-norm and orthogonal
    to the basis; beta below the breakdown threshold signals an invariant
    subspace and returns v as None.

    Parameters
    ----------
    basis : (n, m) array with orthonormal columns; m may be zero.
    x : length-n vector.
    reorth : number of reorthogonalization passes after the first projection.
    """
    x = np.asarray(x)
    n = x.shape[0]
    if basis.ndim != 2 or basis.shape[0] != n:
        raise DimensionMismatch("basis/vector dimension mismatch")
    m = basis.shape[1]
    norm0 = float(np.linalg.norm(x))
    w = x.astype(np.promote_types(basis.dtype, x.dtype), copy=True)
    h = np.zeros(m, dtype=w.dtype)
    for _ in range(1 + max(0, reorth)):
        if m == 0:
            break
        c = basis.conj().T @ w
        w -= basis @ c
        h += c
    beta = float(np.linalg.norm(w))
    if beta <= BREAKDOWN_RTOL * max(norm0, 1e-300):
        return OrthResult(None, h, beta, True)
    return OrthResult(w / beta, h, beta, False)
