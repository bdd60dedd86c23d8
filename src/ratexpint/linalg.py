"""Sparse and small-dense linear algebra kernels.

This module is the computational substrate for the rest of the package:
CSR operators, the dense matrix exponential, phi-functions
of small matrices, Gram-Schmidt orthogonalization, and the cap that runs
the bundled OpenBLAS on one thread.

Dense matrices and vectors are plain numpy arrays throughout; complex
vectors are supported everywhere, while a ``SparseOperator`` is real.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
import scipy.linalg as sla
import scipy.sparse as sp

#: Relative threshold below which Gram-Schmidt declares an invariant subspace.
BREAKDOWN_RTOL = 1e-12


class DimensionMismatch(ValueError):
    pass


class SparseOperator:
    """Real square sparse matrix in CSR form.

    Integer entries become float64; complex ones raise ``ValueError``, even
    with a zero imaginary part, rather than lose it in a cast. Instances are
    immutable after construction and safe for concurrent reads.
    """

    __slots__ = ("n", "_csr", "_symmetric")

    def __init__(self, csr: sp.csr_matrix):
        csr = sp.csr_matrix(csr)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"operator must be square, got {csr.shape}")
        if np.iscomplexobj(csr):
            raise ValueError(f"operator must be real, got {csr.dtype} entries")
        if not np.issubdtype(csr.dtype, np.floating):
            csr = csr.astype(np.float64)
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("operator entries must be finite")
        csr.sort_indices()
        self.n = csr.shape[0]
        self._csr = csr
        self._symmetric = None

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
    def symmetric(self) -> bool:
        """max |A - A^T| <= 1e-12 max(1, max |a_ij|), measured on first use."""
        if self._symmetric is None:
            d = self._csr - self._csr.T
            scale = max(1.0, float(abs(self._csr).max()))
            self._symmetric = bool(abs(d).max() <= 1e-12 * scale) if d.nnz else True
        return self._symmetric

    @classmethod
    def identity(cls, n: int) -> "SparseOperator":
        return cls(sp.identity(n, format="csr"))

    @classmethod
    def zeros(cls, n: int) -> "SparseOperator":
        return cls(sp.csr_matrix((n, n)))

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseOperator":
        a = np.asarray(a)
        return cls(sp.csr_matrix(a.astype(np.result_type(a, np.float64), copy=False)))

    def scaled(self, factor: float) -> "SparseOperator":
        return SparseOperator(self._csr * float(factor))

    def __repr__(self):
        return f"SparseOperator(n={self.n}, nnz={self.nnz})"


def dense_expm(z: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small dense matrix (scipy's scaling and
    squaring Pade).

    Raises
    ------
    ValueError
        If the input is not a square matrix.
    FloatingPointError
        If the input contains non-finite entries or the result overflows;
        like every numerical failure of this package, an ``ArithmeticError``.
    """
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {z.shape}")
    if z.shape[0] == 0:
        return np.zeros((0, 0), dtype=z.dtype)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("matrix exponential of non-finite input")
    dtype = np.complex128 if np.iscomplexobj(z) else np.float64
    r = sla.expm(np.asarray(z, dtype))
    if not np.all(np.isfinite(r)):
        raise FloatingPointError("overflow in the matrix exponential")
    return r


# ---------------------------------------------------------------------------
# phi-functions of small matrices.
# ---------------------------------------------------------------------------

def phi_dense_all(z: np.ndarray, kmax: int) -> list[np.ndarray]:
    """[phi_0(Z), ..., phi_kmax(Z)] for a small dense matrix Z.

    phi_0 = exp; the higher indices come from one block-augmented
    exponential (nilpotent shift blocks appended to Z) so that no linear
    solves with a possibly singular Z are needed. The augmented matrix has
    dimension (kmax+1) * m for an m-by-m input.
    """
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


def orthogonal_extend(basis: np.ndarray, x: np.ndarray) -> OrthResult:
    """Orthogonalize x against the columns of `basis` by two passes of
    classical Gram-Schmidt, the usual "twice is enough" scheme.

    On exit x = basis @ h + beta * v with v unit-norm and orthogonal to the
    basis; beta below the breakdown threshold signals an invariant subspace
    and returns v as None.

    Parameters
    ----------
    basis : (n, m) array with orthonormal columns; m may be zero. Both
        passes read it as it lies, with no transposed copy, which suits a
        column-major basis best. Only these m columns are read, so a caller
        may pass the written columns of storage whose later columns are
        unspecified.
    x : length-n vector; it is not modified.
    """
    x = np.asarray(x)
    n = x.shape[0]
    if basis.ndim != 2 or basis.shape[0] != n:
        raise DimensionMismatch("basis/vector dimension mismatch")
    m = basis.shape[1]
    norm0 = float(np.linalg.norm(x))
    w = x.astype(np.promote_types(basis.dtype, x.dtype), copy=True)
    h = np.zeros(m, dtype=w.dtype)
    for _ in range(2):
        if m == 0:
            break
        c = (w.conj() @ basis).conj()
        w -= basis @ c
        h += c
    beta = float(np.linalg.norm(w))
    if beta <= BREAKDOWN_RTOL * max(norm0, 1e-300):
        return OrthResult(None, h, beta, True)
    w /= beta
    return OrthResult(w, h, beta, False)


# ---------------------------------------------------------------------------
# OpenBLAS thread count.
# ---------------------------------------------------------------------------

@functools.cache
def _openblas_controls() -> tuple:
    """``(get_num_threads, set_num_threads)`` of each bundled OpenBLAS found:
    numpy's 64-bit-integer copy in ``numpy.libs`` and scipy's copy in
    ``scipy.libs``. Empty when neither is there, as with a numpy or scipy
    that links another BLAS. Looked up on first use, not at import."""
    controls = []
    for package, pattern, suffix in ((np, "libscipy_openblas64_*.so", "64_"),
                                     (scipy, "libscipy_openblas-*.so", "")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append((get, put))
    return tuple(controls)


# OpenBLAS keeps one thread count per process, so the cap is process-wide:
# the first holder saves the counts and sets 1, the last one restores them.
_cap_lock = threading.Lock()
_cap_depth = 0
_cap_saved: list = []   # (set_num_threads, the count to restore) per library


@contextmanager
def single_blas_thread():
    """Run the bundled OpenBLAS copies on one thread inside the block.

    The package's small dense kernels cost less than waking a second BLAS
    thread, and this is their one thread policy. It has two holders:
    :func:`~ratexpint.integrators.integrate`, for the Krylov steps (a
    projected ``expm``, an LU of a few dozen unknowns), and
    :func:`~ratexpint.poles.cf_poles`, for the SVD and the polynomial roots
    of a CF pole set, which is built before ``integrate`` starts. A pool
    woken at two threads busy-waits for about 0.1 s after its last call,
    and setting the count to 1 does not stop a worker that already spins,
    so a cap taken later cannot free the core it holds. Yields the count
    held, 1, or ``None`` when no OpenBLAS was found, in which case nothing
    changes. The caller's counts come back when the last of any nested or
    concurrent holders leaves, exceptions included.
    """
    global _cap_depth
    with _cap_lock:
        controls = _openblas_controls()
        if _cap_depth == 0:
            _cap_saved[:] = [(put, get()) for get, put in controls]
            for put, _ in _cap_saved:
                put(1)
        _cap_depth += 1
    try:
        yield 1 if controls else None
    finally:
        with _cap_lock:
            _cap_depth -= 1
            if _cap_depth == 0:
                for put, count in _cap_saved:
                    put(count)
                _cap_saved.clear()
