"""Rational Krylov engine: augmented operators, Arnoldi relation, estimates,
adaptive expmv engines. Expected values come from dense brute-force oracles."""

import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratexpint import krylov
from ratexpint.integrators import Engine, EngineConfig, integrate
from ratexpint.krylov import (KrylovError, RationalDecomposition, SingularProjection,
                              ToleranceNotReached, _approximant_and_estimate,
                              arnoldi_relation_residual, assemble_augmented,
                              expmv_polynomial, expmv_rational, rational_arnoldi_step)
from ratexpint.linalg import SparseOperator, dense_expm, phi_dense_all
from ratexpint.poles import INF_POLE, PoleSet, builtin_pole_set, repeated_real
from ratexpint.problems import allen_cahn_2d, fd_laplacian_1d
from ratexpint.solvers import ShiftedSolver, SolverCache, SolverConfig, SolverError
from ratexpint.tableaus import tableau


def random_spd(rng, n, lam_max=20.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.0, lam_max, size=n)
    return SparseOperator.from_dense(q @ np.diag(lam) @ q.T)


def direct_solver(op):
    return ShiftedSolver(op, SolverConfig(mode="direct"))


# ---------------------------------------------------------------------------
# Augmented operator assembly.
# ---------------------------------------------------------------------------

def test_assemble_p0_acts_as_scaled_negation():
    rng = np.random.default_rng(0)
    op = random_spd(rng, 6)
    aug, ct = assemble_augmented(op, 0.7, [np.ones(6)])
    assert aug.p == 0
    assert np.array_equal(ct, np.ones(6))
    x = rng.standard_normal(6)
    assert np.array_equal(aug.apply(x), -0.7 * op.matvec(x))


def test_assemble_top_block_matches_phi_combination():
    """Dense materialization oracle for p = 1: the exponential's action must
    equal e^{-h a A} c0 + h phi_1(-h a A) c1."""
    rng = np.random.default_rng(1)
    n, h, alpha = 5, 0.3, 1.1
    op = random_spd(rng, n, lam_max=4.0)
    c0, c1 = rng.standard_normal(n), rng.standard_normal(n)
    aug, ct = assemble_augmented(op, alpha, [c0, c1])
    full = dense_expm(h * aug.dense()) @ ct
    phis = phi_dense_all(-h * alpha * op.todense(), 1)
    expected = phis[0] @ c0 + h * (phis[1] @ c1)
    assert np.linalg.norm(full[:n] - expected) <= 1e-12 * np.linalg.norm(expected)


def test_assemble_bottom_block_is_jordan_exponential():
    rng = np.random.default_rng(2)
    n, p, h = 4, 3, 0.8
    op = random_spd(rng, n, lam_max=2.0)
    cs = [rng.standard_normal(n) for _ in range(p + 1)]
    aug, ct = assemble_augmented(op, 1.0, cs)
    full = dense_expm(h * aug.dense()) @ ct
    # e^{h J_p} e_p: Taylor triangle (h^{p-1-i} / (p-1-i)!)
    expected_tail = np.array([h ** (p - 1 - i) / math.factorial(p - 1 - i)
                              for i in range(p)])
    assert np.linalg.norm(full[n:] - expected_tail) <= 1e-12 * np.linalg.norm(expected_tail)


def test_assemble_rejects_empty_payload():
    op = SparseOperator.identity(3)
    with pytest.raises(ValueError):
        assemble_augmented(op, 1.0, [])


@pytest.mark.parametrize("engine", ["rational", "polynomial"])
def test_expmv_rejects_check_cadence_below_one(engine):
    op = SparseOperator.identity(3)
    with pytest.raises(ValueError, match="check_cadence"):
        if engine == "rational":
            expmv_rational(op, 1.0, [np.ones(3)], PoleSet(()), direct_solver(op), check_cadence=0)
        else:
            expmv_polynomial(op, 1.0, [np.ones(3)], check_cadence=0)


@pytest.mark.parametrize("size", ["m_min", "m_hard"])
@pytest.mark.parametrize("engine", ["rational", "polynomial"])
def test_expmv_rejects_sizes_below_one(engine, size):
    op = SparseOperator.identity(3)
    with pytest.raises(ValueError, match=size):
        if engine == "rational":
            expmv_rational(op, 1.0, [np.ones(3)], PoleSet(()), direct_solver(op), **{size: 0})
        else:
            expmv_polynomial(op, 1.0, [np.ones(3)], **{size: 0})


@pytest.mark.parametrize("engine", ["rational", "polynomial"])
def test_expmv_rejects_infinite_tolerance(engine):
    # every estimate meets an infinite tolerance
    op = SparseOperator.identity(3)
    with pytest.raises(ValueError, match="tol"):
        if engine == "rational":
            expmv_rational(op, 1.0, [np.ones(3)], PoleSet(()), direct_solver(op), tol=float("inf"))
        else:
            expmv_polynomial(op, 1.0, [np.ones(3)], tol=float("inf"))


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
@pytest.mark.parametrize("engine", ["rational", "polynomial"])
def test_expmv_rejects_a_non_finite_scale(engine, alpha):
    # unchecked, the rational engine's LU of (xi I + alpha A) failed as a
    # SolverError and the polynomial engine's projected lu_factor raised
    # scipy's own ValueError
    op = fd_laplacian_1d(20, 1.0, "dirichlet")
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    with pytest.raises(ValueError, match="alpha must be finite"):
        if engine == "rational":
            expmv_rational(op, alpha, [np.ones(20)], builtin_pole_set("cf12"), solver)
        else:
            expmv_polynomial(op, alpha, [np.ones(20)])
    assert solver.cache.numeric_factorizations == solver.cache.built_ahead == 0


def test_assemble_rejects_mismatched_payload():
    op = SparseOperator.identity(3)
    with pytest.raises(ValueError):
        assemble_augmented(op, 1.0, [np.ones(3), np.ones(4)])


# ---------------------------------------------------------------------------
# Block back-substitution.
# ---------------------------------------------------------------------------

def test_jordan_tail_solve():
    # the tail of the block solve does not see the top block
    op = SparseOperator.identity(4)
    aug, _ = assemble_augmented(op, 1.0, [np.ones(4)] * 4)
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    pole = 2.0 + 1.0j
    rhs = np.array([1.0, -2.0, 0.5], dtype=complex)
    x = aug.solve(pole, np.r_[np.zeros(4), rhs], solver)[4:]
    p = 3
    mat = pole * np.eye(p, dtype=complex) - np.diag(np.ones(p - 1), 1)
    assert np.linalg.norm(mat @ x - pole * rhs) <= 1e-13 * np.linalg.norm(rhs)


def test_block_solve_p0_reduces_to_shifted_solve():
    # p = 0 runs the same back-substitution (of an empty tail) as any p,
    # and gives the shifted solve bit for bit
    op = fd_laplacian_1d(30, 1.0, "dirichlet")
    aug, _ = assemble_augmented(op, 0.8, [np.ones(30)])
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(30)
    for pole in (3.0, 2.0 + 1.0j, 2.0 - 1.0j):
        x_block = aug.solve(pole, rhs, direct_solver(op))
        x_ref = direct_solver(op).solve_shifted(pole, 0.8, pole * rhs)
        assert np.array_equal(x_block, x_ref)


def test_block_solve_reads_the_pair_split_from_its_right_hand_side(monkeypatch):
    # a complex pole on a real right-hand side is a pair step: the iterative
    # solve meets the split target; on complex data, or for a real pole, it
    # meets the configured one
    from ratexpint.problems import fd_laplacian_2d
    op = fd_laplacian_2d(30, 1.0, "neumann")  # n = 900: AMG has a coarse level
    cfg = SolverConfig(mode="iterative", tolerance=1e-7)
    aug, _ = assemble_augmented(op, 0.5, [np.ones(op.n)])
    rng = np.random.default_rng(24)
    real_rhs = rng.standard_normal(op.n)
    complex_rhs = real_rhs + 1j * rng.standard_normal(op.n)
    pair = builtin_pole_set("cf16_shifted").poles[0]
    assert pair.imag != 0
    for pole, rhs, split in ((pair, real_rhs, True), (pair, complex_rhs, False),
                             (4.0, real_rhs, False)):
        block = ShiftedSolver(op, cfg)
        flags = []

        def recording(*args, solve=block.solve_shifted, **kwargs):
            flags.append(kwargs.get("split", False))
            return solve(*args, **kwargs)
        monkeypatch.setattr(block, "solve_shifted", recording)
        aug.solve(pole, rhs, block)
        assert flags == [split]
        iterations = {}
        for flag in (True, False):
            ref = ShiftedSolver(op, cfg)
            ref.solve_shifted(pole, 0.5, pole * rhs, split=flag)
            iterations[flag] = ref.solve_log[0].iterations
        # a real pole's split keeps the configured target (split_tolerance),
        # so only the recorded flag tells its two solves apart
        assert (iterations[True] != iterations[False]) == (complex(pole).imag != 0)
        assert block.solve_log[0].iterations == iterations[split]


def test_block_solve_matches_dense_brute_force():
    rng = np.random.default_rng(9)
    n, p = 6, 2
    spd = rng.standard_normal((n, n))
    spd = spd @ spd.T + n * np.eye(n)
    op = SparseOperator.from_dense(spd)
    cs = [rng.standard_normal(n) for _ in range(p + 1)]
    aug, _ = assemble_augmented(op, 1.3, cs)
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    pole = 2.5 + 0.5j
    rhs = rng.standard_normal(n + p) + 1j * rng.standard_normal(n + p)
    x = aug.solve(pole, rhs, solver)
    dense = pole * np.eye(n + p) - aug.dense()
    x_ref = np.linalg.solve(dense, pole * rhs)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_block_solve_decouples_when_coupling_vanishes():
    rng = np.random.default_rng(10)
    n, p = 8, 2
    op = SparseOperator.from_dense(np.diag(rng.uniform(1, 3, n)))
    cs = [rng.standard_normal(n)] + [np.zeros(n)] * p
    aug, _ = assemble_augmented(op, 1.0, cs)
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    rhs = rng.standard_normal(n + p)
    x = aug.solve(4.0, rhs, solver)
    fact = SolverCache(op).factorization(4.0, 1.0)
    top_ref = fact.solve(4.0 * rhs[:n])
    assert np.allclose(x[:n], top_ref, atol=1e-12)


def test_block_solve_zero_pole_rejected():
    # for every payload length, p = 0 included
    op = SparseOperator.identity(4)
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    for p in (1, 0):
        aug, _ = assemble_augmented(op, 1.0, [np.ones(4)] * (p + 1))
        with pytest.raises(SolverError):
            aug.solve(0.0, np.ones(4 + p), solver)


# ---------------------------------------------------------------------------
# Rational Arnoldi steps.
# ---------------------------------------------------------------------------

def test_infinite_pole_step_is_polynomial_step():
    rng = np.random.default_rng(3)
    op = random_spd(rng, 10)
    aug, ct = assemble_augmented(op, 1.0, [rng.standard_normal(10)])
    d = RationalDecomposition(aug, ct)
    rational_arnoldi_step(d, INF_POLE)
    # K column must be the unit vector e_1
    assert d.kmat()[0, 0] == 1.0
    assert np.max(np.abs(d.kmat()[1:, 0])) == 0.0
    # x = A~ v_1 reproduced by V h + beta v_2
    x = aug.apply(d.V[:, 0])
    recon = d.V[:, :2] @ d.H[:2, 0]
    assert np.linalg.norm(x - recon) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("seed", range(3))
def test_arnoldi_relation_residual_mixed_poles(seed):
    rng = np.random.default_rng(40 + seed)
    n, p = 37, 3
    op = random_spd(rng, n)
    cs = [rng.standard_normal(n) for _ in range(p + 1)]
    aug, ct = assemble_augmented(op, 0.9, cs)
    solver = direct_solver(op)
    d = RationalDecomposition(aug, ct.astype(np.complex128))
    poles = [complex(3, 4), complex(3, -4), INF_POLE, 7.5, complex(1, -9)]
    for xi in poles:
        rational_arnoldi_step(d, xi, solver)
    assert arnoldi_relation_residual(d) <= 1e-10
    # orthonormality of the basis
    v = d.basis()
    gram = v.conj().T @ v
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-10


def test_nilpotent_operator_breaks_down_at_index():
    # A~ = [[0, C], [0, J_2]] is nilpotent of index 3 for generic C
    op = SparseOperator.zeros(4)
    rng = np.random.default_rng(5)
    cs = [rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4)]
    aug, ct = assemble_augmented(op, 1.0, cs)
    solver = direct_solver(op)
    exact = dense_expm(0.7 * aug.dense()) @ ct
    sizes = []
    for start in (ct.astype(np.complex128), ct):
        d = RationalDecomposition(aug, start)
        steps = 0
        for _ in range(6):
            if d.happy:
                break
            rational_arnoldi_step(d, 2.0 + 0.5j, solver)
            steps += 1
        assert d.happy
        assert d.m == d.nv == 3
        assert len(d.poles_used) == d.m
        sizes.append(steps)
        y, estimate = _approximant_and_estimate(d, 0.7)
        assert np.linalg.norm(d.approximant(y) - exact) <= 1e-12 * np.linalg.norm(exact)
        assert estimate == 0.0
        with pytest.raises(KrylovError):
            rational_arnoldi_step(d, INF_POLE)
    # complex: one step per pole; real: a full pair step, then a pair step
    # whose halves both break down and keep only the Re column
    assert sizes == [3, 2]
    assert d.poles_used == [2 + 0.5j, 2 - 0.5j, 2 + 0.5j]
    assert d.kmat().dtype == np.float64


def test_pair_step_matches_complex_decomposition():
    """On real data, a real decomposition with one solve per conjugate pair
    spans the space of the complex one with one solve per pole."""
    rng = np.random.default_rng(41)
    n, p = 60, 2
    op = random_spd(rng, n, lam_max=80.0)
    cs = [rng.standard_normal(n) for _ in range(p + 1)]
    aug, ct = assemble_augmented(op, 0.5, cs)
    poles = list(builtin_pole_set("cf12"))
    real_solver, complex_solver = direct_solver(op), direct_solver(op)
    d_real = RationalDecomposition(aug, ct)
    for xi in poles[::2]:
        rational_arnoldi_step(d_real, xi, real_solver)
    d_complex = RationalDecomposition(aug, ct.astype(np.complex128))
    for xi in poles:
        rational_arnoldi_step(d_complex, xi, complex_solver)
    for d in (d_real, d_complex):
        rational_arnoldi_step(d, INF_POLE)
    assert d_real.m == d_complex.m == 13
    assert d_real.poles_used == d_complex.poles_used
    assert len(real_solver.solve_log) == 6 and len(complex_solver.solve_log) == 12
    for M in (d_real.V, d_real.H, d_real.K):
        assert M.dtype == np.float64
    assert arnoldi_relation_residual(d_real) <= 1e-10
    v = d_real.basis()
    assert np.linalg.norm(v.T @ v - np.eye(v.shape[1]), 2) <= 1e-13
    for theta in (0.3, 1.0):
        (c_real, est_real), (c_complex, est_complex) = (
            _approximant_and_estimate(d, theta) for d in (d_real, d_complex))
        y_real, y_complex = d_real.approximant(c_real), d_complex.approximant(c_complex)
        assert np.linalg.norm(y_real - y_complex) <= 1e-12 * np.linalg.norm(y_complex)
        assert est_real == pytest.approx(est_complex, rel=1e-4)


def test_expmv_pair_steps_match_complex_arithmetic():
    rng = np.random.default_rng(42)
    n = 70
    op = random_spd(rng, n, lam_max=60.0)
    c0 = rng.standard_normal(n)
    poles = builtin_pole_set("cf12")
    kwargs = dict(tol=1e-10, m_min=5, check_cadence=3, theta=0.6)
    real = expmv_rational(op, 0.5, [c0], poles, direct_solver(op), **kwargs)
    cplx = expmv_rational(op, 0.5, [c0.astype(np.complex128)], poles, direct_solver(op),
                          **kwargs)
    assert real.vector.dtype == np.float64
    assert real.arnoldi_steps == cplx.arnoldi_steps
    assert real.poles_consumed == cplx.poles_consumed
    assert [m for m, _ in real.estimate_history] == [m for m, _ in cplx.estimate_history]
    assert 2 * real.solves == cplx.solves
    assert np.linalg.norm(real.vector - cplx.vector) <= 1e-12 * np.linalg.norm(cplx.vector)


def test_orthonormality_up_to_m128():
    rng = np.random.default_rng(6)
    n = 220
    op = random_spd(rng, n, lam_max=100.0)
    aug, ct = assemble_augmented(op, 1.0, [rng.standard_normal(n)])
    solver = direct_solver(op)
    d = RationalDecomposition(aug, ct.astype(np.complex128))
    poles = list(builtin_pole_set("cf12")) * 4
    for j in range(128):
        xi = poles[j] if j < len(poles) else INF_POLE
        rational_arnoldi_step(d, xi, solver)
        if d.happy:
            break
    v = d.basis()
    gram = v.conj().T @ v
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-10
    assert arnoldi_relation_residual(d) <= 1e-10


def test_estimator_tracks_true_error_on_small_instances():
    """Effectivity band on small Laplacian-like operators: at the checks the
    production schedule would perform (m >= m_min, newest step polynomial),
    the estimate stays within a factor of 100 of the true error whenever the
    latter sits in [1e-12, 1e-1]."""
    rng = np.random.default_rng(77)
    for n, lam_scale in ((120, 1.0), (150, 0.2), (90, 2.0)):
        op = SparseOperator(fd_laplacian_1d(n, float(n), "neumann").tocsr() * lam_scale)
        c0 = rng.standard_normal(n)
        aug, ct = assemble_augmented(op, 25.0, [c0])  # folded spectral radius ~ 100 lam_scale
        exact = dense_expm(aug.dense()) @ ct
        solver = direct_solver(op)
        d = RationalDecomposition(aug, ct.astype(np.complex128))
        pole_iter = iter(builtin_pole_set("cf12"))
        checked = 0
        while d.m < 30 and not d.happy:
            xi = next(pole_iter, INF_POLE)
            rational_arnoldi_step(d, xi, None if xi == INF_POLE else solver)
            if not np.isfinite(xi.real) or d.happy:
                continue
            rational_arnoldi_step(d, INF_POLE)
            if d.m < 5:
                continue
            y, est = _approximant_and_estimate(d, 1.0)
            true = np.linalg.norm(exact - d.approximant(y))
            if 1e-12 <= true <= 1e-1:
                checked += 1
                assert est <= 100.0 * true
                assert est >= true / 100.0
        assert checked >= 3


# ---------------------------------------------------------------------------
# Approximant evaluation.
# ---------------------------------------------------------------------------

def test_exactness_on_invariant_subspace():
    rng = np.random.default_rng(7)
    n = 30
    op = random_spd(rng, n, lam_max=3.0)
    # payload confined to a 4-dim invariant subspace
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([[0.5, 1.0, 1.5, 2.0], np.full(n - 4, 3.0)])
    op = SparseOperator.from_dense(q @ np.diag(lam) @ q.T)
    c0 = q[:, :4] @ rng.standard_normal(4)
    aug, ct = assemble_augmented(op, 1.0, [c0])
    solver = direct_solver(op)
    d = RationalDecomposition(aug, ct)
    for _ in range(8):
        if d.happy:
            break
        rational_arnoldi_step(d, INF_POLE)
    assert d.happy
    h = 0.7
    y, _ = _approximant_and_estimate(d, h)
    exact = dense_expm(h * aug.dense()) @ ct
    assert np.linalg.norm(d.approximant(y) - exact) <= 1e-10 * np.linalg.norm(ct)


def test_all_infinite_poles_match_polynomial_engine():
    # under the shared defaults both engines grow the same polynomial space
    # and check it at the same sizes
    rng = np.random.default_rng(8)
    n = 25
    op = random_spd(rng, n, lam_max=2.0)
    c0 = rng.standard_normal(n)
    solver = direct_solver(op)
    h = 0.9
    rep_rat = expmv_rational(op, h, [c0], PoleSet(()), solver, tol=1e-10)
    rep_poly = expmv_polynomial(op, h, [c0], tol=1e-10)
    assert [m for m, _ in rep_rat.estimate_history] \
        == [m for m, _ in rep_poly.estimate_history]
    assert np.linalg.norm(rep_rat.vector - rep_poly.vector) \
        <= 1e-12 * np.linalg.norm(rep_poly.vector)


def test_singular_projection_detected():
    rng = np.random.default_rng(30)
    op = random_spd(rng, 12, lam_max=5.0)
    aug, ct = assemble_augmented(op, 1.0, [rng.standard_normal(12)])
    solver = direct_solver(op)
    d = RationalDecomposition(aug, ct)
    for xi in (4.0, complex(2, 1), INF_POLE):
        rational_arnoldi_step(d, xi, solver)
    assert d.m == 4  # the complex pole is a pair step
    _approximant_and_estimate(d, 0.5)
    d.K[:, 1] = 0.0  # the Re column of the pair
    with pytest.raises(SingularProjection):
        _approximant_and_estimate(d, 0.5)


@pytest.mark.parametrize("order", ["real", "complex", "lower-first"])
def test_grow_hands_each_pole_step_the_next_steps_pole(order):
    # the loop owns the pole order: growing a space by _grow alone builds
    # the LUs in pairs, whichever pole of a pair comes first and whether a
    # pair is one step or two
    cf12 = builtin_pole_set("cf12")
    steps = [step[::-1] if order == "lower-first" else step for step in cf12.steps]
    op = fd_laplacian_1d(40, 1.0, "dirichlet")
    c0 = np.random.default_rng(8).standard_normal(op.n)
    aug, ct = assemble_augmented(op, 0.5, [c0 + 1j * c0 if order == "complex" else c0])
    solver = direct_solver(op)
    krylov._grow(RationalDecomposition(aug, ct), deque(steps), len(cf12), solver)
    cache = solver.cache
    assert (cache.numeric_factorizations, cache.built_ahead, cache.unused) \
        == (len(steps), len(steps) // 2, 0)


def _singular_after_infinite_step():
    """A real decomposition after the steps 4, a pair and inf, with the Re
    column of the pair zeroed so that the square K_4 is singular."""
    rng = np.random.default_rng(30)
    op = random_spd(rng, 12, lam_max=5.0)
    aug, ct = assemble_augmented(op, 1.0, [rng.standard_normal(12)])
    d = RationalDecomposition(aug, ct)
    for xi in (4.0, complex(2, 1), INF_POLE):
        rational_arnoldi_step(d, xi, direct_solver(op))
    d.K[:, 1] = 0.0
    return d


def test_infinite_step_keeps_a_singular_projection_singular():
    # after an infinite-pole step the square K_{m+1} is [[K_m, 0], [0, 1]],
    # so more polynomial steps cannot mend a singular K_m
    d = _singular_after_infinite_step()
    m = d.m
    K_m = d.kmat()[:m].copy()
    rational_arnoldi_step(d, INF_POLE)
    K_next = d.kmat()[:m + 1]
    assert np.array_equal(K_next[:m, :m], K_m)
    assert not np.any(K_next[m, :m]) and not np.any(K_next[:m, m]) and K_next[m, m] == 1.0
    sv_m = np.linalg.svd(K_m, compute_uv=False)
    sv_next = np.linalg.svd(K_next, compute_uv=False)
    assert np.allclose(np.sort(sv_next), np.sort(np.append(sv_m, 1.0)), rtol=0, atol=1e-15)


def test_singular_projection_raises_at_the_first_check():
    d = _singular_after_infinite_step()
    with pytest.raises(SingularProjection, match="at m=4"):
        krylov._adaptive_krylov(d, (), None, 0.5, 1e-8, m_min=1, cap=40,
                                check_cadence=5, history=[])
    assert d.m == 4


def test_zero_step_returns_start_vector():
    rng = np.random.default_rng(9)
    op = random_spd(rng, 12)
    aug, ct = assemble_augmented(op, 1.0, [rng.standard_normal(12)])
    d = RationalDecomposition(aug, ct)
    rational_arnoldi_step(d, INF_POLE)
    y, est = _approximant_and_estimate(d, 0.0)
    assert np.linalg.norm(d.approximant(y) - ct) <= 1e-13 * np.linalg.norm(ct)
    assert est == 0.0
    assert _approximant_and_estimate(d, 0.0, terms=3)[1] == 0.0


# ---------------------------------------------------------------------------
# Error estimate and expansion.
# ---------------------------------------------------------------------------

def _built_decomposition(rng, n=40, p=1, steps=5, lam_max=8.0):
    op = random_spd(rng, n, lam_max=lam_max)
    cs = [rng.standard_normal(n) for _ in range(p + 1)]
    aug, ct = assemble_augmented(op, 1.0, cs)
    solver = direct_solver(op)
    d = RationalDecomposition(aug, ct.astype(np.complex128))
    schedule = [complex(5, 3), complex(5, -3), 6.0, complex(2, 7), complex(2, -7)][:steps - 1]
    for xi in schedule:
        rational_arnoldi_step(d, xi, solver)
    rational_arnoldi_step(d, INF_POLE)
    return d, aug, ct


def test_estimate_zero_after_breakdown():
    op = SparseOperator.zeros(5)
    aug, ct = assemble_augmented(op, 1.0, [np.ones(5)])
    d = RationalDecomposition(aug, ct)
    rational_arnoldi_step(d, INF_POLE)
    assert d.happy
    for terms in (1, 3):
        assert _approximant_and_estimate(d, 1.0, terms)[1] == 0.0


def test_expansion_first_term_equals_estimate():
    rng = np.random.default_rng(10)
    d, _, _ = _built_decomposition(rng)
    h, m = 0.4, d.m
    # oracle: h norm(c~) h_{m+1,m} |e_m^T K_m^{-1} phi_1(hS) e_1|, S = H_m K_m^{-1}
    K = d.kmat()[:m]
    S = np.linalg.solve(K.T, d.hess()[:m].T).T
    phi1 = phi_dense_all(h * S, 1)[1][:, 0]
    gamma = np.linalg.solve(K, phi1)[m - 1]
    oracle = h * d.start_norm * d.beta_last * abs(gamma)
    assert _approximant_and_estimate(d, h)[1] == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_expansion_matches_true_error(seed):
    rng = np.random.default_rng(60 + seed)
    d, aug, ct = _built_decomposition(rng, n=40, p=seed % 3, lam_max=6.0)
    h = 0.25
    exact = dense_expm(h * aug.dense()) @ ct
    y, expansion = _approximant_and_estimate(d, h, terms=30)
    true_err = np.linalg.norm(exact - d.approximant(y))
    assert abs(expansion - true_err) <= 1e-10 * max(true_err, 1e-30) + 1e-14


@pytest.mark.parametrize("phi", [0, 1, 2, 3])
def test_phi_approximant_and_expansion_match_true_error(phi):
    """The approximant and error series of h^phi phi_phi(hB) w on a Lanczos
    basis of B = -A, the phi_p action the polynomial engine reads."""
    rng = np.random.default_rng(70 + phi)
    n, h = 40, 0.25
    op = random_spd(rng, n, lam_max=6.0)
    w = rng.standard_normal(n)
    d = RationalDecomposition(assemble_augmented(op, 1.0, [w])[0], w, lanczos=True)
    for _ in range(6):
        rational_arnoldi_step(d, INF_POLE)
    exact = h ** phi * (phi_dense_all(-h * op.todense(), phi)[phi] @ w)
    y, expansion = _approximant_and_estimate(d, h, terms=30, phi=phi)
    true_err = np.linalg.norm(exact - d.approximant(y))
    assert 1e-13 < true_err < 1e-4 * np.linalg.norm(exact)
    assert abs(expansion - true_err) <= 1e-8 * true_err


def test_expansion_partial_sums_settle():
    rng = np.random.default_rng(11)
    d, _, _ = _built_decomposition(rng, lam_max=4.0)
    partials = [_approximant_and_estimate(d, 0.3, k)[1] for k in range(1, 26)]
    diffs = np.abs(np.diff(partials))
    tail = diffs[8:]
    assert np.all(tail <= np.maximum.accumulate(diffs)[7] + 1e-300)
    assert diffs[-1] <= 1e-12 * max(partials[-1], 1e-30) + 1e-16


# ---------------------------------------------------------------------------
# Adaptive rational expmv.
# ---------------------------------------------------------------------------

def test_expmv_zero_step_returns_c0():
    rng = np.random.default_rng(12)
    n = 20
    op = random_spd(rng, n)
    c0, c1 = rng.standard_normal(n), rng.standard_normal(n)
    solver = direct_solver(op)
    rep = expmv_rational(op, 0.0, [c0, 0.0 * c1], PoleSet(()), solver, tol=1e-10,
                         m_min=2, check_cadence=1)
    assert rep.converged
    assert np.linalg.norm(rep.phi_combination - c0) <= 1e-12 * np.linalg.norm(c0)
    assert rep.estimate == 0.0


def test_expmv_matches_dense_oracle():
    rng = np.random.default_rng(13)
    n, p = 50, 2
    op = random_spd(rng, n, lam_max=40.0)
    cs = [rng.standard_normal(n) for _ in range(p + 1)]
    h = 0.6
    payload = [cs[0], h * cs[1], h * h * cs[2]]
    solver = direct_solver(op)
    rep = expmv_rational(op, h, payload, builtin_pole_set("cf12"), solver,
                         tol=1e-8, m_min=5, check_cadence=5)
    aug, ct = assemble_augmented(op, h, payload)
    oracle = dense_expm(aug.dense()) @ ct
    err = np.linalg.norm(rep.vector - oracle) / np.linalg.norm(oracle)
    assert rep.converged
    assert err <= 1e-7


def test_schedule_checks_after_every_pole_step():
    # cf12 on real data is six pair steps of two columns each. At a tol that
    # needs every pole, the estimate is checked after each pair step and the
    # polynomial step that settles it, then every check_cadence (5)
    # polynomial steps
    rng = np.random.default_rng(31)
    n = 60
    op = random_spd(rng, n, lam_max=200.0)
    c = rng.standard_normal(n)
    rep = expmv_rational(op, 1.0, [c], builtin_pole_set("cf12"), direct_solver(op), tol=1e-14)
    assert rep.converged and rep.solves == 6
    assert [m for m, _ in rep.estimate_history] == [7, 10, 13, 16, 21, 26]


def test_expmv_estimate_history_and_poles_recorded():
    rng = np.random.default_rng(14)
    n = 30
    op = random_spd(rng, n, lam_max=25.0)
    solver = direct_solver(op)
    rep = expmv_rational(op, 1.0, [rng.standard_normal(n)],
                         builtin_pole_set("cf12"), solver, tol=1e-9,
                         m_min=4, check_cadence=3)
    assert rep.converged
    assert len(rep.estimate_history) >= 1
    assert rep.estimate_history[-1][1] <= 1e-9
    assert len(rep.poles_consumed) == rep.arnoldi_steps
    assert any(not np.isfinite(xi.real) for xi in rep.poles_consumed)  # settling steps


def test_expmv_pole_exhaustion_continues_polynomially():
    rng = np.random.default_rng(15)
    n = 40
    op = random_spd(rng, n, lam_max=30.0)
    solver = direct_solver(op)
    short = PoleSet(poles=(complex(4, 2), complex(4, -2)))
    rep = expmv_rational(op, 1.0, [rng.standard_normal(n)], short, solver,
                         tol=1e-9, m_min=2, check_cadence=2, m_hard=n)
    assert rep.converged
    finite = [xi for xi in rep.poles_consumed if np.isfinite(xi.real)]
    assert len(finite) == 2
    assert rep.arnoldi_steps > 3


def test_expmv_hard_cap_raises_with_report():
    rng = np.random.default_rng(16)
    n = 60
    op = random_spd(rng, n, lam_max=500.0)
    solver = direct_solver(op)
    with pytest.raises(ToleranceNotReached) as err:
        expmv_rational(op, 1.0, [rng.standard_normal(n)], PoleSet(()), solver,
                       tol=1e-14, m_min=2, check_cadence=2, m_hard=6)
    rep = err.value.report
    assert not rep.converged
    assert rep.arnoldi_steps == 6
    assert rep.vector is not None


def test_expmv_repeated_real_poles():
    rng = np.random.default_rng(17)
    n = 45
    op = random_spd(rng, n, lam_max=60.0)
    c0 = rng.standard_normal(n)
    solver = direct_solver(op)
    tol = 1e-8
    rep = expmv_rational(op, 1.0, [c0], repeated_real(8.0, 40), solver,
                         tol=tol, m_min=5, check_cadence=5, m_hard=n)
    exact = dense_expm(-1.0 * op.todense()) @ c0
    assert rep.converged
    # the estimate bounds the absolute error, and meets tol
    err = np.linalg.norm(rep.phi_combination - exact)
    assert err <= rep.estimate <= tol


def test_expmv_repeated_real_poles_stay_real():
    """Real poles on real data keep the basis, every shifted solve and the
    result in real arithmetic."""
    from ratexpint.problems import fd_laplacian_2d
    op = fd_laplacian_2d(12, 2.0, "neumann")
    c0 = np.random.default_rng(31).standard_normal(op.n)
    solver = direct_solver(op)
    rep = expmv_rational(op, 0.5, [c0], repeated_real(3.0, 20), solver,
                         tol=1e-10, m_min=5, check_cadence=5)
    assert rep.vector.dtype == np.float64
    assert solver.solve_log and all(s.x.dtype == np.float64 for s in solver.solve_log)
    exact = dense_expm(-0.5 * op.todense()) @ c0
    assert np.linalg.norm(rep.vector - exact) <= 1e-10 * np.linalg.norm(exact)


def test_expmv_conjugate_pairs_keep_real_results_real():
    rng = np.random.default_rng(18)
    n = 35
    op = random_spd(rng, n, lam_max=50.0)
    solver = direct_solver(op)
    rep = expmv_rational(op, 0.5, [rng.standard_normal(n)],
                         builtin_pole_set("cf12"), solver, tol=1e-9,
                         m_min=4, check_cadence=1)
    assert np.max(np.abs(rep.vector.imag)) <= 1e-9 * np.linalg.norm(rep.vector)


def test_lone_complex_pole_takes_only_a_complex_payload():
    # on a real payload a lone complex pole has no real pair step; on a
    # complex one it runs in complex arithmetic and matches the oracle
    rng = np.random.default_rng(19)
    n = 40
    op = random_spd(rng, n, lam_max=30.0)
    lone = PoleSet((4 + 3j,))
    c0 = rng.standard_normal(n)
    for real_payload in (c0, np.zeros(n)):
        with pytest.raises(ValueError, match="conjugate-closed"):
            expmv_rational(op, 0.5, [real_payload], lone, direct_solver(op))
    payload = c0 + 1j * rng.standard_normal(n)
    rep = expmv_rational(op, 0.5, [payload], lone, direct_solver(op), tol=1e-9)
    oracle = dense_expm(-0.5 * op.todense()) @ payload
    assert rep.poles_consumed[0] == 4 + 3j
    assert np.linalg.norm(rep.vector - oracle) <= 1e-8 * np.linalg.norm(oracle)


# ---------------------------------------------------------------------------
# Polynomial expmv.
# ---------------------------------------------------------------------------

def test_polynomial_expmv_matches_dense_oracle():
    rng = np.random.default_rng(19)
    n, p = 50, 2
    op = random_spd(rng, n, lam_max=40.0)
    cs = [rng.standard_normal(n) for _ in range(p + 1)]
    h = 0.6
    payload = [cs[0], h * cs[1], h * h * cs[2]]
    rep = expmv_polynomial(op, h, payload, tol=1e-8, m_min=10, m_hard=64)
    aug, ct = assemble_augmented(op, h, payload)
    oracle = dense_expm(aug.dense()) @ ct
    err = np.linalg.norm(rep.vector - oracle) / np.linalg.norm(oracle)
    assert rep.converged
    assert err <= 1e-7


def test_polynomial_substepping_triggers_and_composes():
    rng = np.random.default_rng(20)
    n = 60
    op = random_spd(rng, n, lam_max=400.0)
    c0 = rng.standard_normal(n)
    rep = expmv_polynomial(op, 1.0, [c0], tol=1e-8, m_min=4, m_hard=12)
    assert rep.substeps > 1
    assert rep.arnoldi_steps <= rep.substeps * 12
    # a failed sub-step re-evaluates its basis at tau/2 instead of rebuilding
    # it, so with m_min = m_hard every accepted sub-step costs exactly m_hard steps
    full = expmv_polynomial(op, 1.0, [c0], tol=1e-8, m_min=12, m_hard=12)
    assert full.substeps > 1
    assert full.arnoldi_steps == full.substeps * 12
    # the adaptive loop at the cap only checks: every check reads m = m_hard
    assert {m for m, _ in full.estimate_history} == {12}
    exact = dense_expm(-op.todense()) @ c0
    # sub-step budgeting keeps the composed error near the target
    assert np.linalg.norm(rep.vector - exact) <= 1e-6 * max(np.linalg.norm(exact), 1.0)
    # the report sums the estimates of the accepted sub-steps, the quantity
    # held to sum tol * tau_i = tol, not just the last one
    assert rep.estimate_history[-1][1] < rep.estimate <= 1e-8


def _phi_scalar(k: int, z: np.ndarray) -> np.ndarray:
    """phi_k(z) for real z <= 0, elementwise: the Taylor series for |z| < 1,
    phi_j = (phi_{j-1} - 1/(j-1)!) / z from phi_0 = exp elsewhere."""
    out = np.empty_like(z)
    small = np.abs(z) < 1.0
    out[small] = sum(z[small] ** i / math.factorial(i + k) for i in range(30))
    big = z[~small]
    val = np.exp(big)
    for j in range(1, k + 1):
        val = (val - 1.0 / math.factorial(j - 1)) / big
    out[~small] = val
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(20, 120), decades=st.floats(1.0, 4.0),
       p=st.integers(0, 3), theta=st.sampled_from([1.0, 0.5, 1.0 / 3.0]),
       log_tol=st.floats(-12.0, -6.0), smooth=st.booleans(), symmetric=st.just(True))
@example(seed=3, n=60, decades=3.0, p=3, theta=1.0, log_tol=-10.0, smooth=False,
         symmetric=False)
def test_polynomial_expmv_matches_an_eigh_oracle(seed, n, decades, p, theta, log_tol, smooth,
                                                 symmetric):
    """sum_k theta^k phi_k(-theta A) c_k within 10 tol of an oracle built from
    eigh and scalar phi-functions. A nonsymmetric A = D S D^{-1} (S symmetric,
    D diagonal) takes the full Gram-Schmidt basis and keeps an eigh oracle."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = q @ np.diag(rng.uniform(0.0, 10.0 ** decades, n)) @ q.T
    s = (s + s.T) / 2
    scale = np.ones(n) if symmetric else np.exp(rng.uniform(-0.5, 0.5, n))
    lam, vec = np.linalg.eigh(s)
    right, left = scale[:, None] * vec, vec.T / scale   # A = right diag(lam) left
    cs = [rng.standard_normal(n) for _ in range(p + 1)]
    if smooth:
        cs = [right @ (left @ c / (1.0 + lam)) for c in cs]
    tol = 10.0 ** log_tol
    op = SparseOperator.from_dense(scale[:, None] * s / scale[None, :])
    assert op.symmetric == symmetric
    try:
        rep = expmv_polynomial(op, 1.0, cs, tol=tol, theta=theta)
    except ArithmeticError:
        return  # a typed numerical failure is allowed; any other exception fails
    oracle = sum(theta ** k * (right @ (_phi_scalar(k, -theta * lam) * (left @ c)))
                 for k, c in enumerate(cs))
    err = np.abs(rep.phi_combination - oracle).max() / max(1.0, np.abs(oracle).max())
    assert err <= 10 * tol


def _engine_bases(monkeypatch, problem) -> list:
    """Every decomposition the polynomial engine builds over one sw2 step."""
    seen = []
    adaptive = krylov._adaptive_krylov

    def spy(d, *args, **kwargs):
        seen.append(d)
        return adaptive(d, *args, **kwargs)

    monkeypatch.setattr(krylov, "_adaptive_krylov", spy)
    integrate(problem, tableau("sw2"), 0.5, 0.5, Engine(problem, EngineConfig(engine="polynomial")))
    return seen


def _above_tridiagonal(d) -> float:
    return float(np.abs(np.triu(d.hess(), 2)).max())


def test_lanczos_basis_on_a_symmetric_operator(monkeypatch):
    problem = allen_cahn_2d(64)
    bases = _engine_bases(monkeypatch, problem)
    assert bases and all(d.lanczos and d.m >= 10 for d in bases)
    for d in bases:
        V = d.basis()
        assert np.linalg.norm(V.T @ V - np.eye(d.nv), 2) <= 1e-10
        assert arnoldi_relation_residual(d) <= 1e-10
        assert _above_tridiagonal(d) == 0.0


def test_full_gram_schmidt_on_a_nonsymmetric_operator(monkeypatch):
    problem = allen_cahn_2d(64)
    scale = np.exp(np.random.default_rng(9).uniform(-0.5, 0.5, problem.A.n))
    a = SparseOperator(problem.A.tocsr().multiply(scale[:, None] / scale[None, :]).tocsr())
    bases = _engine_bases(monkeypatch, dataclasses.replace(problem, A=a))
    assert bases and not any(d.lanczos for d in bases)
    for d in bases:
        assert arnoldi_relation_residual(d) <= 1e-10
        assert _above_tridiagonal(d) > 1e-8 * np.abs(d.hess()).max()
    with pytest.raises(ValueError, match="symmetric"):
        RationalDecomposition(assemble_augmented(a, 1.0, [np.ones(a.n)])[0], np.ones(a.n),
                              lanczos=True)


def test_lanczos_basis_that_spans_the_space_breaks_down():
    # at m = n the next Lanczos vector lies in the span of the basis, so it
    # must end the space (a happy breakdown) rather than join the basis
    rng = np.random.default_rng(5)
    n, theta, tol = 25, 0.5, 4.2e-12
    op = random_spd(rng, n, lam_max=10 ** 2.68)
    cs = [rng.standard_normal(n) for _ in range(2)]
    rep = expmv_polynomial(op, 1.0, cs, tol=tol, theta=theta)
    assert rep.arnoldi_steps <= n * rep.substeps
    phis = phi_dense_all(-theta * op.todense(), 1)
    expected = phis[0] @ cs[0] + theta * (phis[1] @ cs[1])
    scale = max(1.0, np.abs(expected).max())
    assert np.abs(rep.phi_combination - expected).max() <= 10 * tol * scale


def test_lanczos_basis_takes_no_finite_pole():
    rng = np.random.default_rng(23)
    op = random_spd(rng, 20)
    aug, ct = assemble_augmented(op, 1.0, [rng.standard_normal(20)])
    d = RationalDecomposition(aug, ct, lanczos=True)
    with pytest.raises(ValueError, match="infinite poles"):
        rational_arnoldi_step(d, 2.0, direct_solver(op))


def test_polynomial_engine_on_a_zero_payload_with_a_tail():
    # the reduced vector w_p is zero, so the Taylor part is the whole value
    rng = np.random.default_rng(24)
    op = random_spd(rng, 20)
    rep = expmv_polynomial(op, 1.0, [np.zeros(20)] * 3, theta=0.5)
    assert rep.arnoldi_steps == 0 and rep.estimate == 0.0
    assert np.array_equal(rep.vector, np.concatenate([np.zeros(20), [0.5, 1.0]]))


def test_polynomial_keeps_real_dtype():
    rng = np.random.default_rng(21)
    op = random_spd(rng, 20, lam_max=5.0)
    rep = expmv_polynomial(op, 0.5, [rng.standard_normal(20)], tol=1e-8)
    assert not np.iscomplexobj(rep.vector)


def test_polynomial_substep_underflow_raises():
    rng = np.random.default_rng(22)
    op = random_spd(rng, 40, lam_max=1e9)
    with pytest.raises(KrylovError):
        expmv_polynomial(op, 1.0, [rng.standard_normal(40)],
                         tol=1e-12, m_min=2, m_hard=3)


# ---------------------------------------------------------------------------
# One contract for both engines.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("theta", [0.5, 0.3, 1.0])
@pytest.mark.parametrize("engine", ["rational", "polynomial"])
def test_engines_read_the_phi_combination_at_theta(engine, theta, p):
    """Both engines return sum_k theta^k phi_k(-theta alpha A) c_k; the
    polynomial engine's cap is small enough to force sub-steps."""
    rng = np.random.default_rng(40)
    n, alpha = 40, 1.3
    op = random_spd(rng, n, lam_max=300.0)
    cs = [rng.standard_normal(n) for _ in range(p + 1)]
    if engine == "rational":
        rep = expmv_rational(op, alpha, cs, builtin_pole_set("cf12"), direct_solver(op),
                             tol=1e-10, theta=theta)
    else:
        rep = expmv_polynomial(op, alpha, cs, tol=1e-10, m_hard=12, theta=theta)
        assert rep.substeps > 1
    phis = phi_dense_all(-theta * alpha * op.todense(), p)
    expected = sum(theta ** k * (phis[k] @ c) for k, c in enumerate(cs))
    assert np.linalg.norm(rep.phi_combination - expected) <= 1e-8 * np.linalg.norm(expected)


def test_engines_share_their_default_check_schedule():
    rng = np.random.default_rng(41)
    n = 60
    op = random_spd(rng, n, lam_max=50.0)
    c0 = rng.standard_normal(n)
    rat = expmv_rational(op, 1.0, [c0], PoleSet(()), direct_solver(op))
    poly = expmv_polynomial(op, 1.0, [c0])
    assert rat.estimate_history[0][0] == poly.estimate_history[0][0] == 5


def test_polynomial_engine_takes_the_default_cap_as_none():
    rng = np.random.default_rng(42)
    op = random_spd(rng, 30, lam_max=5.0)
    rep = expmv_polynomial(op, 1.0, [rng.standard_normal(30)], m_hard=None)
    assert rep.converged


def test_initial_capacity_is_capped_at_the_space_dimension():
    rng = np.random.default_rng(44)
    aug, ct = assemble_augmented(random_spd(rng, 10), 1.0,
                                 [rng.standard_normal(10), rng.standard_normal(10)])
    d = RationalDecomposition(aug, ct, capacity=10 ** 8)
    assert d.V.shape == (11, 12)
    assert d.H.shape == d.K.shape == (12, 11)


def test_concurrent_expmv_calls_share_cache():
    """Distinct expmv calls may run concurrently when each owns a solver
    front end; the factorization cache does the numeric work once."""
    from concurrent.futures import ThreadPoolExecutor

    from ratexpint.solvers import SolverCache

    rng = np.random.default_rng(23)
    n = 50
    op = random_spd(rng, n, lam_max=80.0)
    payloads = [rng.standard_normal(n) for _ in range(4)]
    poles = builtin_pole_set("cf12")
    cache = SolverCache(op)

    def run(c0):
        solver = ShiftedSolver(op, SolverConfig(mode="direct"), cache=cache)
        return expmv_rational(op, 0.5, [c0], poles, solver,
                              tol=1e-9, m_min=4, check_cadence=2).vector

    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(run, payloads))
    sequential = [run(c0) for c0 in payloads]
    for a, b in zip(concurrent, sequential):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
    distinct_poles = {xi for xi in poles}
    assert cache.numeric_factorizations <= len(distinct_poles)


def test_conjugate_pairs_share_factorizations():
    # cf12 is six conjugate pairs: on real data the direct path consumes all
    # twelve poles with six solves, one per pair, and six factorizations
    rng = np.random.default_rng(29)
    n = 50
    op = random_spd(rng, n, lam_max=80.0)
    poles = builtin_pole_set("cf12")
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    rep = expmv_rational(op, 0.5, [rng.standard_normal(n)], poles, solver,
                         tol=1e-12, m_min=len(poles))
    assert rep.poles_consumed[:12] == list(poles)
    assert len(solver.solve_log) == rep.solves == 6
    assert all(np.iscomplexobj(s.x) for s in solver.solve_log)
    assert solver.cache.numeric_factorizations == 6


def test_iterative_path_takes_one_solve_per_pair():
    # on real data the iterative path runs Ruhe's pair step as the direct
    # path does: one preconditioned solve per conjugate pair, made to the
    # pair's tighter target, and a result that agrees with one solve per pole
    from ratexpint.problems import fd_laplacian_2d
    op = fd_laplacian_2d(30, 1.0, "neumann")  # n = 900: AMG has a coarse level
    poles = builtin_pole_set("cf16_shifted")
    assert poles.conjugate_closed
    c0 = np.random.default_rng(43).standard_normal(op.n)

    def run(payload):
        solver = ShiftedSolver(op, SolverConfig(mode="iterative", tolerance=1e-10))
        rep = expmv_rational(op, 0.5, [payload], poles, solver, tol=1e-9, m_min=len(poles))
        assert rep.solves == len(solver.solve_log)
        return rep

    real, cplx = run(c0), run(c0.astype(np.complex128))
    assert np.isrealobj(real.vector) and np.iscomplexobj(cplx.vector)
    assert real.poles_consumed[:16] == cplx.poles_consumed[:16] == list(poles)
    assert real.solves == 8 and cplx.solves == 16
    assert real.solver_iterations < cplx.solver_iterations
    exact = dense_expm(-0.5 * op.todense()) @ c0
    scale = np.linalg.norm(exact)
    assert np.linalg.norm(real.vector - cplx.vector) <= 1e-8 * scale
    assert np.linalg.norm(real.vector - exact) <= 1e-8 * scale


def test_iterative_near_real_pair_keeps_the_imaginary_column_accurate():
    # a pair 4 +- 1e-10j splits x into Re x and Im x = O(1e-10) |x|. COCG is
    # analytic in the pole, so the error of Im x stays relative to Im x, and
    # the real pair steps agree with complex arithmetic on the direct path;
    # BiCGStab's conjugated products put an O(1e-14) |x| error into Im x,
    # and the result missed by up to 5e-5 for these payloads
    from ratexpint.problems import fd_laplacian_2d
    op = fd_laplacian_2d(30, 1.0, "dirichlet")
    poles = PoleSet((4 + 1e-10j, 4 - 1e-10j) * 4)
    for seed in range(4):
        c0 = np.random.default_rng(seed).standard_normal(op.n)
        expected = expmv_rational(op, 0.1, [c0.astype(np.complex128)], poles,
                                  direct_solver(op)).vector
        rep = expmv_rational(op, 0.1, [c0], poles, ShiftedSolver(op, SolverConfig(mode="iterative")))
        assert np.isrealobj(rep.vector)
        assert np.linalg.norm(rep.vector - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("mode, dtype", [("iterative", np.float64), ("iterative", np.complex128),
                                         ("direct", np.complex128)])
def test_complex_decompositions_check_repeated_pairs_whole(mode, dtype):
    # a complex decomposition consumes a conjugate pair whole, as a real one
    # does, so no estimate is taken on a half pair such as (xi, conj(xi), xi, inf);
    # real data on the iterative path takes the real path's pair steps
    op = fd_laplacian_1d(40, 1.0, "neumann")
    poles = PoleSet((4 + 2j, 4 - 2j) * 3)
    c0 = np.random.default_rng(47).standard_normal(op.n)

    def run(config, payload):
        return expmv_rational(op, 0.5, [payload], poles, ShiftedSolver(op, config),
                              m_min=2, check_cadence=2)

    real = run(SolverConfig(mode="direct"), c0)
    rep = run(SolverConfig(mode=mode, tolerance=1e-10), c0.astype(dtype))
    assert np.isrealobj(real.vector)
    assert np.iscomplexobj(rep.vector) == (dtype is np.complex128)
    assert rep.solves == (3 if dtype is np.float64 else 6)
    sizes = [m for m, _ in rep.estimate_history]
    assert sizes == [m for m, _ in real.estimate_history]
    assert sizes[:3] == [3, 6, 9]
    assert rep.poles_consumed[:6] == [4 + 2j, 4 - 2j, INF_POLE, 4 + 2j, 4 - 2j, INF_POLE]
