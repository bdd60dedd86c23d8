"""Rational Krylov engine: augmented operators, Arnoldi relation, estimates,
adaptive expmv engines. Expected values come from dense brute-force oracles."""

import math

import numpy as np
import pytest

from ratexpint.krylov import (KrylovError, RationalDecomposition, ToleranceNotReached,
                              arnoldi_relation_residual, assemble_augmented,
                              error_estimate, evaluate_approximant,
                              expmv_polynomial, expmv_rational,
                              full_error_expansion, rational_arnoldi_step)
from ratexpint.linalg import SparseOperator, dense_expm, phi_dense_all
from ratexpint.poles import INF_POLE, PoleSet, builtin_pole_set, repeated_real
from ratexpint.solvers import ShiftedSolver, SolverConfig


def random_spd(rng, n, lam_max=20.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.0, lam_max, size=n)
    return SparseOperator.from_dense(q @ np.diag(lam) @ q.T, symmetric=True)


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
    assert np.allclose(aug.apply(x), -0.7 * op.matvec(x))


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


def test_assemble_rejects_mismatched_payload():
    op = SparseOperator.identity(3)
    with pytest.raises(ValueError):
        assemble_augmented(op, 1.0, [np.ones(3), np.ones(4)])


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
    d = RationalDecomposition(aug, ct, dtype=np.complex128)
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
    with pytest.raises(ValueError):
        rational_arnoldi_step(RationalDecomposition(aug, ct), 2.0 + 0.5j, solver)
    d = RationalDecomposition(aug, ct, dtype=np.complex128)
    steps = 0
    for _ in range(6):
        if d.happy:
            break
        rational_arnoldi_step(d, 2.0 + 0.5j, solver)
        steps += 1
    assert d.happy
    assert steps <= 3
    with pytest.raises(KrylovError):
        rational_arnoldi_step(d, INF_POLE)


def test_orthonormality_up_to_m128():
    rng = np.random.default_rng(6)
    n = 220
    op = random_spd(rng, n, lam_max=100.0)
    aug, ct = assemble_augmented(op, 1.0, [rng.standard_normal(n)])
    solver = direct_solver(op)
    d = RationalDecomposition(aug, ct, dtype=np.complex128)
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
    from ratexpint.problems import fd_laplacian_1d
    rng = np.random.default_rng(77)
    for n, lam_scale in ((120, 1.0), (150, 0.2), (90, 2.0)):
        op = SparseOperator(fd_laplacian_1d(n, float(n), "neumann").tocsr() * lam_scale,
                            symmetric=True)
        c0 = rng.standard_normal(n)
        aug, ct = assemble_augmented(op, 25.0, [c0])  # folded spectral radius ~ 100 lam_scale
        exact = dense_expm(aug.dense()) @ ct
        solver = direct_solver(op)
        d = RationalDecomposition(aug, ct, dtype=np.complex128)
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
            approx = evaluate_approximant(d, 1.0)
            est = error_estimate(d, 1.0)
            true = np.linalg.norm(exact - approx)
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
    op = SparseOperator.from_dense(q @ np.diag(lam) @ q.T, symmetric=True)
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
    approx = evaluate_approximant(d, h)
    exact = dense_expm(h * aug.dense()) @ ct
    assert np.linalg.norm(approx - exact) <= 1e-10 * np.linalg.norm(ct)


def test_all_infinite_poles_match_polynomial_engine():
    rng = np.random.default_rng(8)
    n = 25
    op = random_spd(rng, n, lam_max=2.0)
    c0 = rng.standard_normal(n)
    solver = direct_solver(op)
    h = 0.9
    rep_rat = expmv_rational(op, h, [c0], None, solver,
                             tol=1e-10, m_min=6, check_cadence=1, m_hard=n)
    rep_poly = expmv_polynomial(op, h, [c0], tol=1e-10, m_min=6, m_max=n,
                                check_cadence=1)
    assert np.linalg.norm(rep_rat.vector - rep_poly.vector) \
        <= 1e-12 * np.linalg.norm(rep_poly.vector)


def test_singular_projection_detected():
    from ratexpint.krylov import SingularProjection
    rng = np.random.default_rng(30)
    op = random_spd(rng, 12, lam_max=5.0)
    aug, ct = assemble_augmented(op, 1.0, [rng.standard_normal(12)])
    solver = direct_solver(op)
    d = RationalDecomposition(aug, ct, dtype=np.complex128)
    for xi in (4.0, complex(2, 1), INF_POLE):
        rational_arnoldi_step(d, xi, solver)
    # K_m = I + H_m diag(1/xi_j): zero its first column through H
    d.H[:, 0] = 0.0
    d.H[0, 0] = -d.poles_used[0]
    with pytest.raises(SingularProjection):
        evaluate_approximant(d, 0.5)


def test_zero_step_returns_start_vector():
    rng = np.random.default_rng(9)
    op = random_spd(rng, 12)
    aug, ct = assemble_augmented(op, 1.0, [rng.standard_normal(12)])
    d = RationalDecomposition(aug, ct)
    rational_arnoldi_step(d, INF_POLE)
    out = evaluate_approximant(d, 0.0)
    assert np.linalg.norm(out - ct) <= 1e-13 * np.linalg.norm(ct)


# ---------------------------------------------------------------------------
# Error estimate and expansion.
# ---------------------------------------------------------------------------

def _built_decomposition(rng, n=40, p=1, steps=5, lam_max=8.0):
    op = random_spd(rng, n, lam_max=lam_max)
    cs = [rng.standard_normal(n) for _ in range(p + 1)]
    aug, ct = assemble_augmented(op, 1.0, cs)
    solver = direct_solver(op)
    d = RationalDecomposition(aug, ct, dtype=np.complex128)
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
    assert error_estimate(d, 1.0) == 0.0


def test_expansion_first_term_equals_estimate():
    rng = np.random.default_rng(10)
    d, _, _ = _built_decomposition(rng)
    est = error_estimate(d, 0.4)
    one_term = full_error_expansion(d, 0.4, terms=1)
    assert one_term == pytest.approx(est, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_expansion_matches_true_error(seed):
    rng = np.random.default_rng(60 + seed)
    d, aug, ct = _built_decomposition(rng, n=40, p=seed % 3, lam_max=6.0)
    h = 0.25
    exact = dense_expm(h * aug.dense()) @ ct
    approx = evaluate_approximant(d, h)
    true_err = np.linalg.norm(exact - approx)
    expansion = full_error_expansion(d, h, terms=30)
    assert abs(expansion - true_err) <= 1e-10 * max(true_err, 1e-30) + 1e-14


def test_expansion_partial_sums_settle():
    rng = np.random.default_rng(11)
    d, _, _ = _built_decomposition(rng, lam_max=4.0)
    _, partials = full_error_expansion(d, 0.3, terms=25, return_partials=True)
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
    rep = expmv_rational(op, 0.0, [c0, 0.0 * c1], None, solver, tol=1e-10,
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
    short = PoleSet(poles=(complex(4, 2), complex(4, -2)), kind="complex-file")
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
        expmv_rational(op, 1.0, [rng.standard_normal(n)], None, solver,
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
    rep = expmv_rational(op, 1.0, [c0], repeated_real(8.0, 40), solver,
                         tol=1e-8, m_min=5, check_cadence=5, m_hard=n)
    exact = dense_expm(-1.0 * op.todense()) @ c0
    assert rep.converged
    assert np.linalg.norm(rep.phi_combination - exact) <= 1e-7 * np.linalg.norm(exact)


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
    rep = expmv_polynomial(op, h, payload, tol=1e-8, m_min=10, m_max=64)
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
    rep = expmv_polynomial(op, 1.0, [c0], tol=1e-8, m_min=4, m_max=12)
    assert rep.substeps > 1
    assert rep.arnoldi_steps <= rep.substeps * 12
    # a failed sub-step re-evaluates its basis at theta/2 instead of rebuilding
    # it, so with m_min = m_max every accepted sub-step costs exactly m_max steps
    full = expmv_polynomial(op, 1.0, [c0], tol=1e-8, m_min=12, m_max=12)
    assert full.substeps > 1
    assert full.arnoldi_steps == full.substeps * 12
    exact = dense_expm(-op.todense()) @ c0
    # sub-step budgeting keeps the composed error near the target
    assert np.linalg.norm(rep.vector - exact) <= 1e-6 * max(np.linalg.norm(exact), 1.0)


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
                         tol=1e-12, m_min=2, m_max=3)


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
    cache = SolverCache()

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
    # cf12 is six conjugate pairs: consuming all twelve poles makes twelve
    # solves but only six factorizations
    rng = np.random.default_rng(29)
    n = 50
    op = random_spd(rng, n, lam_max=80.0)
    poles = builtin_pole_set("cf12")
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    expmv_rational(op, 0.5, [rng.standard_normal(n)], poles, solver,
                   tol=1e-12, m_min=len(poles))
    assert len(solver.solve_log) == len(poles) == 12
    assert solver.cache.numeric_factorizations == 6
