"""Aggregation AMG: shift-independent aggregates and hierarchy, and a
complex symmetric V-cycle."""

import numpy as np
import pytest
import scipy.sparse as sp

from ratexpint.amg import OMEGA, AmgHierarchy, AmgPreconditioner, build_aggregates
from ratexpint.problems import allen_cahn_2d, fd_laplacian_2d
from ratexpint.solvers import shifted_matrix


def _hierarchy(op):
    return AmgHierarchy(op.tocsr(), build_aggregates(op.tocsr()))


@pytest.mark.parametrize("make_op", [lambda: fd_laplacian_2d(48, 1.0, "neumann"),
                                     lambda: allen_cahn_2d(128).A],
                         ids=["fd2d-48", "ac2d-128"])
@pytest.mark.parametrize("pole,scale", [(3.0, 0.25), (2.0 + 5.0j, 0.5)])
def test_aggregates_ignore_shift_and_scale(make_op, pole, scale):
    op = make_op()
    plain = build_aggregates(op.tocsr())
    shifted = build_aggregates(shifted_matrix(op, pole, scale))
    assert len(plain) >= 1
    assert len(shifted) == len(plain)
    for a, b in zip(plain, shifted):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("pole", [2.0, 2.0 + 3.0j])
def test_vcycle_is_symmetric(pole):
    # COCG relies on a preconditioner B with v^T B w = w^T B v, the
    # unconjugated form; for a real shift this is plain symmetry, which CG needs
    op = fd_laplacian_2d(48, 1.0, "neumann")
    amg = AmgPreconditioner(_hierarchy(op), pole, 0.25)
    assert len(amg.levels) >= 1
    rng = np.random.default_rng(12)
    v, w = rng.standard_normal(op.n), rng.standard_normal(op.n)
    if isinstance(pole, complex):
        v, w = v + 1j * rng.standard_normal(op.n), w + 1j * rng.standard_normal(op.n)
    mv, mw = amg.matvec(v), amg.matvec(w)
    assert abs(v @ mw - w @ mv) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(mw)


def test_real_vcycle_applies_to_complex_vector_by_parts():
    # a real hierarchy must not drop the imaginary part of its input
    op = fd_laplacian_2d(48, 1.0, "neumann")
    amg = AmgPreconditioner(_hierarchy(op), 3.0, 0.25)
    rng = np.random.default_rng(13)
    b = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    expected = amg.matvec(b.real) + 1j * amg.matvec(b.imag)
    assert np.array_equal(amg.matvec(b), expected)


def _galerkin_vcycle(matrix, prolongators, b):
    """Reference V-cycle on the explicit Galerkin products P^T S P of the
    shifted matrix S, with dense solves on the coarsest level."""
    levels = [matrix]
    for p in prolongators:
        levels.append((p.T @ levels[-1] @ p).tocsr())

    def cycle(k, b):
        if k == len(prolongators):
            return np.linalg.solve(levels[k].toarray(), b)
        s, p = levels[k], prolongators[k]
        dinv = 1.0 / s.diagonal()
        x = OMEGA * dinv * b
        x = x + p @ cycle(k + 1, p.T @ (b - s @ x))
        return x + OMEGA * dinv * (b - s @ x)

    return cycle(0, b)


@pytest.mark.parametrize("pole,scale", [(3.0, 0.25), (2.0 + 5.0j, 0.5)])
def test_shift_independent_vcycle_matches_explicit_galerkin_products(pole, scale):
    # xi M_k + alpha A_k, with M_k and A_k built once from the real P_k, is the
    # Galerkin product of the shifted matrix through every level
    op = allen_cahn_2d(128).A
    hierarchy = _hierarchy(op)
    assert len(hierarchy.transfers) == 3
    amg = AmgPreconditioner(hierarchy, pole, scale)
    matrix = shifted_matrix(op, pole, scale)
    # one formula forms both, in the arithmetic of the pole
    assert amg.matrix.dtype == matrix.dtype == np.result_type(pole, np.float64)
    assert (amg.matrix != matrix).nnz == 0
    rng = np.random.default_rng(31)
    b = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    expected = _galerkin_vcycle(matrix, [p for p, _ in hierarchy.transfers], b)
    assert np.linalg.norm(amg.matvec(b) - expected) <= 1e-12 * np.linalg.norm(expected)


def test_zero_diagonal_rows_stay_unsmoothed():
    # rows of A with a zero diagonal keep their tentative prolongator rows;
    # the shift alone makes the smoother's diagonal nonzero there
    a = fd_laplacian_2d(30, 1.0, "neumann").tocsr().tolil()
    zero = np.arange(0, a.shape[0], 7)
    a[zero, zero] = 0.0
    a = a.tocsr()
    aggregates = build_aggregates(a)
    hierarchy = AmgHierarchy(a, aggregates)
    p, _ = hierarchy.transfers[0]
    n = a.shape[0]
    tentative = sp.csr_matrix((np.ones(n), (np.arange(n), aggregates[0])), shape=p.shape)
    assert abs(p[zero] - tentative[zero]).max() == 0
    assert abs(p - tentative).max() > 0
    assert np.all(np.isfinite(p.data))
    amg = AmgPreconditioner(hierarchy, 2.0, 0.5)
    assert np.all(np.isfinite(amg.matvec(np.ones(n))))
