"""Aggregation-based algebraic multigrid preconditioner.

A deliberately small stand-in for production AMG packages: double pairwise
aggregation, smoothed-aggregation prolongators, damped-Jacobi smoothing and
a V-cycle, for the shifted systems (xi I + alpha A) of the rational Krylov
solves; with Re xi > 0 these systems are well inside its comfort zone.

Everything but the shift is built once per operator (:class:`AmgHierarchy`):
the aggregates, the real prolongators P_k, their transposes R_k, and the
real Galerkin pair M_{k+1} = R_k M_k P_k, A_{k+1} = R_k A_k P_k with
M_0 = I. A pole then only forms xi M_k + alpha A_k on each level, by
linearity the Galerkin product R (xi M + alpha A) P of the level above
(Notay, ETNA 37 (2010), on shift-independent multigrid hierarchies), its
Jacobi diagonals and the coarsest LU (:class:`AmgPreconditioner`). With
R_k = P_k^T, a complex symmetric level-0 matrix gives a complex symmetric
V-cycle, which the COCG solves of :mod:`ratexpint.solvers` rely on.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Hierarchy depth, the coarsest level included.
MAX_LEVELS = 4
#: Levels at or below this size are not coarsened further but solved by LU.
COARSE_SIZE = 600
#: Damping factor of the Jacobi smoother.
OMEGA = 0.7


def shifted_pencil(m, a, pole: complex, scale: float) -> sp.csr_matrix:
    """xi M + alpha A for real sparse M and A, in the arithmetic of xi: real
    for a pole with zero imaginary part, complex otherwise."""
    shift = pole if pole.imag != 0 else pole.real
    return (scale * a + shift * m).tocsr()


def _pairwise_aggregates(a: sp.csr_matrix) -> np.ndarray:
    """Strength-based pairwise matching, fully vectorized.

    Repeated rounds of mutual-strongest-neighbor matching; a symmetric
    deterministic jitter breaks the ties of constant-coefficient stencils
    (with exactly equal strengths no mutual pairs would form). Leftovers
    join their partner's pair, isolated nodes stay singletons.
    """
    n = a.shape[0]
    coo = a.tocoo()
    offd = coo.row != coo.col
    rows_all = coo.row[offd].astype(np.int64)
    cols_all = coo.col[offd].astype(np.int64)
    vals_all = np.abs(coo.data[offd]).astype(np.float64)
    # symmetric tie-break jitter, deterministic in the index pair
    key = (rows_all + 1.0) * (cols_all + 1.0)
    jitter = np.abs(np.sin(key * 12.9898 + (rows_all + cols_all) * 0.1))
    vals_all = vals_all * (1.0 + 1e-6 * jitter)

    agg = -np.ones(n, dtype=np.int64)
    idx = np.arange(n)
    next_agg = 0
    partner_last = -np.ones(n, dtype=np.int64)
    for _ in range(3):
        free = agg < 0
        emask = free[rows_all] & free[cols_all]
        rows, cols, vals = rows_all[emask], cols_all[emask], vals_all[emask]
        if rows.size == 0:
            break
        partner = -np.ones(n, dtype=np.int64)
        order = np.lexsort((vals, rows))
        rows_s, cols_s = rows[order], cols[order]
        last = np.r_[rows_s[1:] != rows_s[:-1], True]
        partner[rows_s[last]] = cols_s[last]
        partner_last[partner >= 0] = partner[partner >= 0]
        has = partner >= 0
        safe = np.where(has, partner, 0)
        mutual = has & (partner[safe] == idx) & (idx < safe)
        leads = idx[mutual]
        if leads.size == 0:
            break
        agg[leads] = next_agg + np.arange(leads.size)
        agg[partner[leads]] = agg[leads]
        next_agg += leads.size
    # leftovers: adopt the aggregate of their strongest neighbor if it has one
    open_nodes = idx[agg < 0]
    if open_nodes.size:
        p = partner_last[open_nodes]
        ok = (p >= 0) & (agg[np.where(p >= 0, p, 0)] >= 0)
        agg[open_nodes[ok]] = agg[p[ok]]
    rest = idx[agg < 0]
    agg[rest] = next_agg + np.arange(rest.size)
    return agg


def _tentative(agg: np.ndarray, dtype) -> sp.csr_matrix:
    """Piecewise-constant prolongator of the aggregation map ``agg``."""
    n = agg.shape[0]
    return sp.csr_matrix((np.ones(n, dtype=dtype), (np.arange(n), agg)),
                         shape=(n, int(agg.max()) + 1))


def _aggregate_level(a: sp.csr_matrix) -> tuple[np.ndarray, sp.csr_matrix]:
    """Compose two pairwise matchings (aggregates of up to 4 nodes); returns
    the aggregation map and its tentative Galerkin product P^T a P."""
    agg = np.arange(a.shape[0], dtype=np.int64)
    current = a
    for _ in range(2):
        step = _pairwise_aggregates(current.tocsr())
        agg = step[agg]
        p = _tentative(agg, current.dtype)
        current = (p.T @ a @ p).tocsr()
        if step.max() == 0:
            break
    return agg, current


def build_aggregates(matrix) -> list:
    """Aggregation maps for every level, computed once per operator.

    Matching only looks at off-diagonal strengths, which a diagonal shift
    does not touch and a positive scale does not reorder, so one hierarchy
    of aggregates serves every shifted system (xi I + alpha A) of the same
    operator. Tentative (unsmoothed) Galerkin products supply the coarse
    matrices that guide deeper levels.
    """
    a = sp.csr_matrix(matrix)
    maps = []
    while len(maps) < MAX_LEVELS - 1 and a.shape[0] > COARSE_SIZE:
        agg, coarse = _aggregate_level(a)
        if int(agg.max()) + 1 >= a.shape[0]:
            break
        maps.append(agg)
        a = coarse
    return maps


def transfer(m: sp.spmatrix, v: np.ndarray) -> np.ndarray:
    """The real sparse ``m`` applied to ``v``; a complex ``v`` is read as an
    (n, 2) real array, so both parts go through one sweep of ``m`` in real
    arithmetic, where ``m @ v`` would cast the data of ``m`` to complex on
    every call. With the product of a real and a complex number formed
    part by part, the result equals that of the complex copy of ``m``.
    """
    if v.dtype.kind != "c":
        return m @ v
    return (m @ v.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()


class AmgHierarchy:
    """The shift-independent part of the V-cycle of one real operator A,
    over the aggregation maps of :func:`build_aggregates`.

    Level k keeps the real smoothed prolongator
    P_k = (I - 2/3 D_k^{-1} A_k) T_k, T_k the tentative prolongator of its
    aggregates and D_k the diagonal of A_k (a row with a zero diagonal stays
    unsmoothed). It is stored once, as R_k = P_k^T in real CSR, and P_k is
    the CSC transpose of R_k: a prolongation then sweeps the few long rows
    of R_k rather than the many short rows of P_k, in about a third less
    time, and sums each entry in the same order. :func:`transfer` applies
    both to complex vectors. Each level also keeps its real pair
    (M_k, A_k); the last pair belongs to the coarsest level.
    """

    def __init__(self, matrix, aggregates: list):
        a = sp.csr_matrix(matrix, dtype=np.float64)
        m = sp.identity(a.shape[0], dtype=np.float64, format="csr")
        self.pairs = [(m, a)]
        self.transfers = []  # (P, R) real
        for agg in aggregates:
            diag = a.diagonal()
            dinv = np.divide(1.0, diag, out=np.zeros_like(diag), where=diag != 0)
            t = _tentative(agg, np.float64)
            p = (t - (2.0 / 3.0) * (sp.diags(dinv) @ (a @ t))).tocsr()
            r = p.T.tocsr()
            m, a = (r @ m @ p).tocsr(), (r @ a @ p).tocsr()
            self.transfers.append((r.T, r))
            self.pairs.append((m, a))


class AmgPreconditioner:
    """V-cycle preconditioner for (xi I + alpha A) over an :class:`AmgHierarchy`
    of A; :attr:`matrix` is that shifted matrix, level 0 of the cycle.

    Level k smooths with the matrix xi M_k + alpha A_k
    (:func:`shifted_pencil`): one pre- and one
    post-smoothing Jacobi sweep with damping ``OMEGA`` surround the coarse
    correction R_k / P_k, and the coarsest level is solved by sparse LU.
    The arithmetic is complex iff the pole is; the real transfers apply to
    it through :func:`transfer`. Each level keeps ``OMEGA`` times its
    inverse diagonal, and the cycle updates its vectors in place, so it
    allocates only the products it forms: at nx=256 a level-0 vector no
    longer fits in the L2 cache, and every pass over one costs time.
    """

    def __init__(self, hierarchy: AmgHierarchy, pole: complex, scale: float):
        matrices = [shifted_pencil(m, a, pole, scale) for m, a in hierarchy.pairs]
        self.matrix = matrices[0]
        self.dtype = self.matrix.dtype
        self.levels = []  # (matrix, OMEGA * inverse diagonal, P, R)
        for s, (p, r) in zip(matrices, hierarchy.transfers):
            diag = s.diagonal()
            if np.any(diag == 0):
                raise ValueError("AMG smoother requires a nonzero diagonal")
            self.levels.append((s, OMEGA * (1.0 / diag), p, r))
        self._coarse_lu = spla.splu(matrices[-1].tocsc())

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return self._coarse_lu.solve(b)
        a, wdinv, p, r = self.levels[level]
        x = wdinv * b
        residual = a @ x
        np.subtract(b, residual, out=residual)
        x += transfer(p, self._cycle(level + 1, transfer(r, residual)))
        residual = a @ x
        np.subtract(b, residual, out=residual)
        np.multiply(wdinv, residual, out=residual)
        x += residual
        return x

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle. A real hierarchy applies to a complex vector by its
        real and imaginary parts; it never drops the imaginary part."""
        b = np.asarray(b)
        if np.iscomplexobj(b) and self.dtype.kind != "c":
            return self._cycle(0, b.real) + 1j * self._cycle(0, b.imag)
        return self._cycle(0, b.astype(self.dtype, copy=False))
