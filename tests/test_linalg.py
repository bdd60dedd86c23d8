"""Core linear algebra kernels against brute-force oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ratexpint.linalg import (DimensionMismatch, SparseOperator, dense_expm,
                              orthogonal_extend, phi_dense_all)
from ratexpint.verify import taylor_expm


# ---------------------------------------------------------------------------
# SparseOperator.matvec
# ---------------------------------------------------------------------------

def test_spmv_identity():
    op = SparseOperator.identity(3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(op.matvec(x), x)


def test_spmv_tridiagonal_stencil_row():
    n = 3
    op = SparseOperator(sp.diags([[-1.0] * (n - 1), [2.0] * n, [-1.0] * (n - 1)],
                                 [-1, 0, 1]).tocsr())
    e1 = np.zeros(n)
    e1[0] = 1.0
    assert np.allclose(op.matvec(e1), [2.0, -1.0, 0.0])


def test_spmv_matches_dense_reference():
    rng = np.random.default_rng(42)
    dense = rng.standard_normal((50, 50)) * (rng.random((50, 50)) < 0.2)
    op = SparseOperator.from_dense(dense)
    x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    ref = dense @ x
    bound = 1e-13 * np.linalg.norm(dense) * np.linalg.norm(x)
    assert np.max(np.abs(op.matvec(x) - ref)) <= bound


def test_spmv_dimension_mismatch():
    op = SparseOperator.identity(4)
    with pytest.raises(DimensionMismatch):
        op.matvec(np.ones(5))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_spmv_linearity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
    op = SparseOperator.from_dense(dense)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    a, b = rng.standard_normal(2)
    lhs = op.matvec(a * x + b * y)
    rhs = a * op.matvec(x) + b * op.matvec(y)
    scale = max(np.linalg.norm(rhs), 1.0)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * scale


def test_operator_requires_finite_entries():
    bad = sp.csr_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        SparseOperator(bad)


@pytest.mark.parametrize("build", [lambda a: SparseOperator(sp.csr_matrix(a)),
                                   SparseOperator.from_dense], ids=["csr", "from_dense"])
def test_operator_rejects_complex_entries_instead_of_dropping_them(build):
    with pytest.raises(ValueError, match="must be real"):
        build(np.array([[2, 1j], [-1j, 2]]))
    # integer entries still become float64
    assert build(np.array([[2, 1], [1, 2]])).tocsr().dtype == np.float64


# ---------------------------------------------------------------------------
# dense_expm
# ---------------------------------------------------------------------------

def test_expm_zero_is_identity():
    z = np.zeros((5, 5))
    assert np.array_equal(dense_expm(z), np.eye(5))


def test_expm_diagonal():
    z = np.diag([1.0, -1.0])
    expected = np.diag([np.e, 1.0 / np.e])
    assert np.allclose(dense_expm(z), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("seed", range(6))
def test_expm_matches_taylor_series(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((8, 8))
    z *= rng.uniform(0.1, 2.0) / np.linalg.norm(z, 2)
    ref = taylor_expm(z)
    got = dense_expm(z)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("seed", range(4))
def test_expm_group_property(seed):
    rng = np.random.default_rng(100 + seed)
    z = rng.standard_normal((7, 7))
    z /= np.linalg.norm(z, 2)
    once = dense_expm(z)
    lhs = once @ once
    rhs = dense_expm(2.0 * z)
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)


def test_expm_complex_input():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    z *= 1.5 / np.linalg.norm(z, 2)
    assert np.linalg.norm(dense_expm(z) - taylor_expm(z)) <= 1e-12


def test_expm_rejects_nan():
    z = np.zeros((3, 3))
    z[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        dense_expm(z)


def test_expm_overflow_is_an_arithmetic_error():
    with pytest.raises(FloatingPointError, match="overflow"):
        dense_expm(np.array([[1000.0]]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: SparseOperator(sp.csr_matrix(np.ones((2, 3)))), ValueError,
     r"operator must be square, got \(2, 3\)"),
    (lambda: dense_expm(np.ones((2, 3))), ValueError, r"expected a square matrix, got shape \(2, 3\)"),
    (lambda: orthogonal_extend(np.eye(4)[:, :2], np.ones(3)), DimensionMismatch,
     "basis/vector dimension mismatch"),
], ids=["operator-not-square", "expm-not-square", "orthogonal-extend-mismatch"])
def test_misshapen_inputs_raise_with_their_message(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_expm_large_norm_uses_squaring():
    # norm far above the degree-13 threshold
    z = np.diag([-30.0, -3.0, 40.0])
    assert np.allclose(dense_expm(z), np.diag(np.exp([-30.0, -3.0, 40.0])), rtol=1e-12)


# ---------------------------------------------------------------------------
# phi_dense_all
# ---------------------------------------------------------------------------

def test_phi_at_zero():
    import math
    phis = phi_dense_all(np.zeros((4, 4)), 4)
    for k in range(5):
        assert np.allclose(phis[k], np.eye(4) / math.factorial(k), rtol=0, atol=1e-15)


def test_phi_scalar_value():
    val = phi_dense_all(np.array([[1.0]]), 1)[1][0, 0]
    assert abs(val - (np.e - 1.0)) <= 1e-14


@pytest.mark.parametrize("seed", range(3))
def test_phi_recurrence(seed):
    import math
    rng = np.random.default_rng(200 + seed)
    z = rng.standard_normal((6, 6))
    phis = phi_dense_all(z, 5)
    for k in range(4):
        lhs = z @ phis[k + 1]
        rhs = phis[k] - np.eye(6) / math.factorial(k)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(phis[k]), 1.0)


def test_phi_zero_index_is_expm():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((5, 5))
    assert np.allclose(phi_dense_all(z, 0)[0], dense_expm(z), rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# orthogonal_extend
# ---------------------------------------------------------------------------

def test_orthogonalize_against_empty_basis():
    basis = np.zeros((3, 0))
    res = orthogonal_extend(basis, np.array([3.0, 0.0, 0.0]))
    assert not res.breakdown
    assert res.beta == pytest.approx(3.0)
    assert np.allclose(res.v, [1.0, 0.0, 0.0])


def test_orthogonalize_duplicate_vector_breaks_down():
    v = np.array([1.0, 2.0, 2.0])
    v = v / np.linalg.norm(v)
    basis = v.reshape(-1, 1)
    res = orthogonal_extend(basis, v.copy())
    assert res.breakdown
    assert res.v is None
    assert res.beta <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_orthogonality_after_one_reorthogonalization(seed):
    rng = np.random.default_rng(300 + seed)
    basis, _ = np.linalg.qr(rng.standard_normal((100, 10)))
    x = rng.standard_normal(100)
    res = orthogonal_extend(basis, x)
    assert np.max(np.abs(basis.conj().T @ res.v)) <= 1e-12
    # reconstruction: x = basis @ h + beta * v
    recon = basis @ res.h + res.beta * res.v
    assert np.linalg.norm(recon - x) <= 1e-12 * np.linalg.norm(x)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_orthogonal_extend_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    m = int(rng.integers(0, min(n - 1, 12)))
    basis, _ = np.linalg.qr(rng.standard_normal((n, max(m, 1))))
    basis = basis[:, :m]
    x = rng.standard_normal(n)
    res = orthogonal_extend(basis, x)
    if not res.breakdown:
        assert abs(np.linalg.norm(res.v) - 1.0) <= 1e-12
        if m:
            assert np.max(np.abs(basis.conj().T @ res.v)) <= 1e-12
