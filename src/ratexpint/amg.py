"""Aggregation-based algebraic multigrid preconditioner.

A deliberately small stand-in for production AMG packages: double pairwise
aggregation with piecewise-constant transfer operators, damped-Jacobi
smoothing, and a V-cycle. It handles the complex-shifted M-matrices
(xi I + alpha A) arising from the rational Krylov solves; thanks to the
positive-real shift these systems are well inside its comfort zone.
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


def _aggregate_level(a: sp.csr_matrix) -> np.ndarray:
    """Compose two pairwise matchings (aggregates of up to 4 nodes)."""
    agg = np.arange(a.shape[0], dtype=np.int64)
    current = a
    for _ in range(2):
        step = _pairwise_aggregates(current.tocsr())
        agg = step[agg]
        p = _tentative(agg, current.dtype)
        current = (p.T @ a @ p).tocsr()
        if step.max() == 0:
            break
    return agg


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
        agg = _aggregate_level(a)
        if int(agg.max()) + 1 >= a.shape[0]:
            break
        maps.append(agg)
        p = _tentative(agg, a.dtype)
        a = (p.T @ a @ p).tocsr()
    return maps


class AmgPreconditioner:
    """V-cycle preconditioner for one sparse matrix (real or complex, with a
    nonzero diagonal) over the aggregation maps of :func:`build_aggregates`.

    Each level smooths its tentative prolongator with one damped-Jacobi
    sweep, which costs some coarse-operator fill and buys near-size-independent
    convergence on Laplacian-like systems; one pre- and one post-smoothing
    Jacobi sweep with damping ``OMEGA`` surround the coarse correction, and
    the coarsest level is solved by sparse LU.
    """

    def __init__(self, matrix, aggregates: list):
        a = sp.csr_matrix(matrix)
        self.dtype = a.dtype
        self.levels = []  # (matrix, smoothed prolongator, inverse diagonal)
        for agg in aggregates:
            diag = a.diagonal()
            if np.any(diag == 0):
                raise ValueError("AMG smoother requires a nonzero diagonal")
            p = _tentative(agg, a.dtype)
            dinv_a = sp.diags(1.0 / diag) @ a
            p = (p - (2.0 / 3.0) * (dinv_a @ p)).tocsr()
            self.levels.append((a, p, 1.0 / diag))
            a = (p.T @ a @ p).tocsr()
        self._coarse_lu = spla.splu(a.tocsc())

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return self._coarse_lu.solve(b)
        a, p, dinv = self.levels[level]
        x = OMEGA * dinv * b
        r = b - a @ x
        xc = self._cycle(level + 1, p.T @ r)
        x = x + p @ xc
        x += OMEGA * dinv * (b - a @ x)
        return x

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle. A real hierarchy applies to a complex vector by its
        real and imaginary parts; it never drops the imaginary part."""
        b = np.asarray(b)
        if np.iscomplexobj(b) and self.dtype.kind != "c":
            return self._cycle(0, b.real) + 1j * self._cycle(0, b.imag)
        return self._cycle(0, b.astype(self.dtype, copy=False))
