"""Shifted-system solvers: direct, iterative, cache."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ratexpint import solvers
from ratexpint.amg import build_aggregates
from ratexpint.integrators import Engine, EngineConfig, integrate
from ratexpint.linalg import SparseOperator
from ratexpint.poles import builtin_pole_set
from ratexpint.problems import (Problem, allen_cahn_2d, builtin_graph, fd_laplacian_1d,
                                fd_laplacian_2d, graph_laplacian,
                                largest_connected_component)
from ratexpint.solvers import (IterativeDivergence, ShiftedSolver, SolverCache,
                               SolverConfig, SolverError, cocg, shifted_matrix,
                               solve_iterative)
from ratexpint.tableaus import tableau


def _upwind(n):
    """One-sided first difference n (u_i - u_{i-1}): lower bidiagonal."""
    return sp.diags([np.full(n, 1.0), np.full(n - 1, -1.0)], [0, -1]) * n


# ---------------------------------------------------------------------------
# Direct path.
# ---------------------------------------------------------------------------

def test_zero_operator_solves_are_scalar_division():
    op = SparseOperator.zeros(6)
    fact = SolverCache(op).factorization(2.0, 1.0)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(6)
    assert np.allclose(fact.solve(b), b / 2.0, rtol=1e-15)


def test_direct_complex_shift_residual():
    op = fd_laplacian_1d(100, 1.0, "dirichlet")
    pole = 1.0 + 1.0j
    fact = SolverCache(op).factorization(pole, 1.0)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    x = fact.solve(b)
    matrix = shifted_matrix(op, pole, 1.0)
    assert np.linalg.norm(matrix @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_direct_manufactured_solution_real_and_complex():
    op = fd_laplacian_1d(60, 1.0, "neumann")
    rng = np.random.default_rng(2)
    for pole in (3.0, 0.5 + 2.0j):
        matrix = shifted_matrix(op, pole, 0.7)
        x_true = rng.standard_normal(60) + (1j * rng.standard_normal(60)
                                            if complex(pole).imag else 0.0)
        b = matrix @ x_true
        fact = SolverCache(op).factorization(pole, 0.7)
        x = fact.solve(b)
        assert np.linalg.norm(x - x_true) <= 1e-10 * np.linalg.norm(x_true)


def test_direct_zero_rhs():
    op = fd_laplacian_1d(10, 1.0, "dirichlet")
    fact = SolverCache(op).factorization(1.0, 1.0)
    assert np.array_equal(fact.solve(np.zeros(10)), np.zeros(10))


def test_factorization_cache_hit():
    op = fd_laplacian_1d(50, 1.0, "dirichlet")
    cache = SolverCache(op)
    f1 = cache.factorization(2.0 + 1.0j, 1.0)
    f2 = cache.factorization(2.0 + 1.0j, 1.0)
    assert f1 is f2
    assert cache.numeric_factorizations == 1
    assert cache.hits == 1


def test_cache_single_flight_under_concurrency():
    op = fd_laplacian_2d(24, 1.0, "dirichlet")
    cache = SolverCache(op)
    poles = [1.0 + k * 1.0j for k in range(4)]

    def work(i):
        return cache.factorization(poles[i % 4], 0.5)

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(work, range(32)))
    assert cache.numeric_factorizations == 4


def test_preconditioner_single_flight_under_concurrency(monkeypatch):
    # the aggregates are built under the cache's lock too: once per operator
    built = []

    def counted(matrix):
        built.append(matrix.shape)
        return build_aggregates(matrix)

    monkeypatch.setattr(solvers, "build_aggregates", counted)
    op = fd_laplacian_2d(48, 1.0, "neumann")
    cache = SolverCache(op)
    poles = [1.0 + k * 1.0j for k in range(4)]

    def work(i):
        return cache.preconditioner(poles[i % 4], 0.5, "aggregation-amg")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            entries = list(pool.map(work, range(32), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len({id(entry) for entry in entries}) == len(cache._entries) == 4
    assert cache.hits == 28
    assert built == [(48 * 48, 48 * 48)]


def test_cache_holds_one_scale(monkeypatch):
    # a new scale drops every entry of the old one; the AMG hierarchy
    # (aggregates, prolongators, real Galerkin pairs) depends on A alone and stays
    built = []

    def counted(matrix):
        built.append(matrix.shape)
        return build_aggregates(matrix)

    monkeypatch.setattr(solvers, "build_aggregates", counted)
    cache = SolverCache(fd_laplacian_2d(24, 1.0, "neumann"))
    first = cache.factorization(2.0 + 1.0j, 0.5)
    cache.factorization(3.0, 0.5)
    cache.preconditioner(4.0, 0.5, "aggregation-amg")
    hierarchy = cache._hierarchy
    assert cache.drops == 0 and len(cache._entries) == 3
    cache.factorization(2.0 + 1.0j, 0.25)
    assert cache.drops == 1 and list(cache._entries) == [(2.0 + 1.0j, 0.25)]
    cache.preconditioner(4.0, 0.25, "aggregation-amg")
    assert built == [(24 * 24, 24 * 24)]
    assert cache._hierarchy is hierarchy is not None
    assert cache.factorization(2.0 + 1.0j, 0.5) is not first
    assert cache.drops == 2 and cache.numeric_factorizations == 4 and cache.hits == 0


@pytest.mark.parametrize("name, value", [
    ("max_iterations", 0), ("tolerance", 0.0), ("tolerance", float("nan")),
    ("tolerance", 1.0), ("tolerance", 1.5), ("tolerance", float("inf"))])
def test_solver_config_rejects_settings_that_cannot_converge(name, value):
    with pytest.raises(ValueError, match=name):
        SolverConfig(mode="iterative", **{name: value})


def test_solver_rejects_cache_of_another_operator():
    # equal content is not enough: a cache serves the operator it was built for
    op_a = fd_laplacian_1d(20, 1.0, "dirichlet")
    op_b = fd_laplacian_1d(20, 1.0, "dirichlet")
    with pytest.raises(ValueError, match="another operator"):
        ShiftedSolver(op_b, SolverConfig(mode="direct"), cache=SolverCache(op_a))
    cache = SolverCache(op_a)
    assert ShiftedSolver(op_a, SolverConfig(mode="direct"), cache=cache).cache is cache


def test_singular_shift_rejected():
    # pole exactly at a negated eigenvalue of alpha*A makes xi I + alpha A singular
    op = SparseOperator.from_dense(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(SolverError):
        SolverCache(op).factorization(-2.0, 1.0)


def test_lu_nnz_counts_each_built_lu_once():
    op = fd_laplacian_2d(24, 1.0, "neumann")
    cache = SolverCache(op)
    fact = cache.factorization(2.0 + 1.0j, 0.5)
    reference = spla.splu(shifted_matrix(op, 2.0 + 1.0j, 0.5).tocsc(),
                          permc_spec="MMD_AT_PLUS_A", relax=1)
    assert cache.lu_nnz == fact.nnz == reference.nnz > 0
    cache.factorization(2.0 + 1.0j, 0.5)
    assert cache.hits == 1 and cache.lu_nnz == fact.nnz
    other = cache.factorization(3.0, 0.5)
    assert cache.lu_nnz == fact.nnz + other.nnz


def test_panel_size_leaves_the_fill_alone():
    # the six cf12 LUs of one ac2d step at nx=32 store as many entries as
    # with SuperLU's default panel size
    op = allen_cahn_2d(32).A
    cache = SolverCache(op)
    upper = [xi for xi in builtin_pole_set("cf12") if xi.imag >= 0]
    for pole in upper:
        cache.factorization(pole, 0.5)
    assert cache.numeric_factorizations == len(upper) == 6
    assert cache.lu_nnz == 138_096 == sum(
        spla.splu(shifted_matrix(op, pole, 0.5).tocsc(), permc_spec="MMD_AT_PLUS_A",
                  relax=1).nnz for pole in upper)


def _cf12_lus(op):
    """The cache holding the LU of (xi I + 0.5 A) at the first cf12 pole with
    Im xi >= 0, that LU, and a COLAMD-ordered reference LU of the same matrix."""
    pole = next(xi for xi in builtin_pole_set("cf12") if xi.imag >= 0)
    cache = SolverCache(op)
    lu = cache.factorization(pole, 0.5)._lu
    reference = spla.splu(shifted_matrix(op, pole, 0.5).tocsc(), permc_spec="COLAMD")
    return cache, lu, reference


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("name, bound", [("fd2d-64", 0.6), ("road2600", 0.65)])
def test_shifted_lu_fill_below_colamd(name, bound):
    # the shifted matrices share A's symmetric pattern, which minimum degree
    # on A^T + A orders with about 0.55-0.6x the fill of COLAMD
    op = (allen_cahn_2d(64).A if name == "fd2d-64"
          else graph_laplacian(largest_connected_component(builtin_graph("road2600"))))
    _, lu, reference = _cf12_lus(op)
    assert _fill(lu) <= bound * _fill(reference)


def test_lu_nnz_on_fd2d_below_colamd():
    # SuperLU's stored entries shrink too, against a reference padded by
    # SuperLU's default relaxed supernodes
    cache, _, reference = _cf12_lus(allen_cahn_2d(64).A)
    assert cache.lu_nnz <= 0.6 * reference.nnz


def test_graph_lu_stores_no_relaxed_supernode_padding():
    # default relaxation pads this LU to 90,686 stored entries for a fill of
    # 32,642; unrelaxed supernodes store the fill and nothing more
    op = graph_laplacian(largest_connected_component(builtin_graph("road2600")))
    cache, lu, _ = _cf12_lus(op)
    assert cache.lu_nnz == lu.nnz <= 1.1 * _fill(lu)


@pytest.mark.parametrize("name", ["diffusion+upwind", "upwind"])
def test_direct_solve_accurate_on_nonsymmetric_operators(name):
    # minimum degree orders the pattern of A^T + A; partial pivoting must
    # keep the LU accurate when A != A^T, with or without a symmetric pattern
    n = 200
    if name == "upwind":
        op = SparseOperator(_upwind(n).tocsr())
    else:
        op = SparseOperator((fd_laplacian_1d(n, 1.0, "dirichlet").tocsr()
                             + 40.0 * _upwind(n)).tocsr())
    pattern = abs(op.tocsr()) > 0
    assert not op.symmetric
    assert ((pattern != pattern.T).nnz == 0) == (name != "upwind")
    rng = np.random.default_rng(17)
    upper = [xi for xi in builtin_pole_set("cf12") if xi.imag > 0]
    for pole in (*upper, 3.0):
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = SolverCache(op).factorization(pole, 0.5).solve(b)
        matrix = shifted_matrix(op, pole, 0.5)
        residual = np.linalg.norm(matrix @ x - b)
        # normwise backward error at every pole: at the leftmost cf12 pole the
        # pure upwind system has |x| ~ 1e3 |b|, and no ordering, the natural
        # one included, gets its relative residual below about 1e-11
        assert residual <= 1e-15 * (spla.norm(matrix, 1) * np.linalg.norm(x)
                                    + np.linalg.norm(b))
        if pole in (upper[0], 3.0):
            assert residual <= 1e-12 * np.linalg.norm(b)


# ---------------------------------------------------------------------------
# Iterative path.
# ---------------------------------------------------------------------------

def test_iterative_dominant_shift_converges_fast():
    op = fd_laplacian_1d(200, 1.0, "dirichlet")  # norm ~ 1.6e5
    cfg = SolverConfig(mode="iterative", tolerance=1e-10, preconditioner="none")
    rng = np.random.default_rng(3)
    b = rng.standard_normal(200)
    info = solve_iterative(SolverCache(op), 1e9, 1.0, b, cfg)
    assert info.converged
    assert info.iterations <= 3
    assert info.residual <= 1e-10


def test_iterative_fd2d_with_amg_meets_tolerance():
    op = fd_laplacian_2d(64, 1.0, "dirichlet")
    cfg = SolverConfig(mode="iterative", tolerance=1e-7, max_iterations=200,
                       preconditioner="aggregation-amg")
    rng = np.random.default_rng(4)
    b = rng.standard_normal(64 * 64)
    info = solve_iterative(SolverCache(op), 1.0, 1.0, b, cfg)
    assert info.converged
    assert info.iterations <= 200
    assert info.residual <= 1e-7


def test_iterative_amg_complex_shift():
    op = fd_laplacian_2d(48, 1.0, "neumann")
    cfg = SolverConfig(mode="iterative", tolerance=1e-8, max_iterations=100,
                       preconditioner="aggregation-amg")
    rng = np.random.default_rng(5)
    b = rng.standard_normal(48 * 48) + 1j * rng.standard_normal(48 * 48)
    info = solve_iterative(SolverCache(op), 2.0 + 3.0j, 0.25, b, cfg)
    assert info.converged
    assert info.residual <= 1e-8


def _record_krylov_methods(monkeypatch) -> list:
    """Names of the Krylov methods that ``solve_iterative`` calls."""
    ran = []
    cocg_method = solvers.cocg

    def recorded(*args, **kwargs):
        ran.append("cocg")
        return cocg_method(*args, **kwargs)

    monkeypatch.setattr(solvers, "cocg", recorded)
    return ran


def test_iterative_mode_rejects_a_nonsymmetric_operator():
    # diffusion plus a strong upwind term: real but nonsymmetric, so COCG
    # does not apply; the iterative path refuses it up front and the direct
    # path takes it
    nx = 48
    advection = sp.kron(sp.identity(nx), _upwind(nx))
    op = SparseOperator((fd_laplacian_2d(nx, 1.0, "dirichlet").tocsr()
                         + 40.0 * advection).tocsr())
    assert not op.symmetric
    cfg = SolverConfig(mode="iterative", tolerance=1e-8, preconditioner="aggregation-amg")
    with pytest.raises(ValueError, match="use the direct solver"):
        ShiftedSolver(op, cfg)
    prob = Problem(name="advected", A=op, g=lambda t, u: np.zeros_like(u),
                   u0=np.ones(op.n), params={})
    with pytest.raises(ValueError, match="use the direct solver"):
        Engine(prob, EngineConfig(solver=cfg))
    b = np.random.default_rng(15).standard_normal(nx * nx)
    direct = ShiftedSolver(op, SolverConfig(mode="direct"))
    direct.solve_shifted(2.0, 0.25, b)
    assert direct.solve_log[0].residual <= 1e-12


def test_iterative_symmetric_operator_runs_cocg_for_any_pole(monkeypatch):
    # the operator measures its own symmetry: an operator built from a bare
    # matrix, with no tag, selects COCG for a real and for a complex pole
    ran = _record_krylov_methods(monkeypatch)
    op = SparseOperator(fd_laplacian_2d(32, 1.0, "dirichlet").tocsr())
    cfg = SolverConfig(mode="iterative", tolerance=1e-8, preconditioner="aggregation-amg")
    b = np.random.default_rng(16).standard_normal(32 * 32)
    for pole in (2.0, 2.0 + 1.0j):
        info = solve_iterative(SolverCache(op), pole, 0.25, b, cfg)
        assert info.converged and info.residual <= 1e-8
    assert ran == ["cocg", "cocg"]


def test_cocg_on_real_spd_data_is_cg():
    # scipy's cg is an independent oracle on real data, where the
    # unconjugated form of COCG is the inner product of CG
    op = fd_laplacian_2d(24, 1.0, "dirichlet")
    matrix = shifted_matrix(op, 3.0, 0.5)
    b = np.random.default_rng(18).standard_normal(op.n)
    cg_iterations = []
    expected, info = spla.cg(matrix, b, rtol=1e-10, atol=0.0, maxiter=500,
                             callback=lambda _: cg_iterations.append(1))
    x, iterations, converged = cocg(matrix, b, 1e-10, 500)
    assert info == 0 and converged
    assert x.dtype == np.float64
    assert iterations == len(cg_iterations) > 10
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_cocg_breakdown_is_not_converged():
    # S = diag(1, -1) and b = (1, 1) give p^T S p = 0 at the first step
    op = SparseOperator.from_dense(np.diag([0.0, -2.0]))
    assert op.symmetric
    b = np.ones(2)
    x, iterations, converged = cocg(shifted_matrix(op, 1.0, 1.0), b, 1e-8, 50)
    assert not converged and iterations == 0
    assert np.all(np.isfinite(x))
    solver = ShiftedSolver(op, SolverConfig(mode="iterative", preconditioner="none"))
    with pytest.raises(IterativeDivergence) as err:
        solver.solve_shifted(1.0, 1.0, b)
    assert not err.value.result.converged


def test_iterative_zero_rhs_is_free():
    op = fd_laplacian_1d(30, 1.0, "dirichlet")
    cfg = SolverConfig(mode="iterative")
    info = solve_iterative(SolverCache(op), 5.0, 1.0, np.zeros(30), cfg)
    assert info.iterations == 0
    assert np.array_equal(info.x, np.zeros(30))


def test_iterative_rejects_nonpositive_real_part():
    op = fd_laplacian_1d(20, 1.0, "dirichlet")
    cfg = SolverConfig(mode="iterative")
    with pytest.raises(SolverError):
        solve_iterative(SolverCache(op), -1.0 + 2.0j, 1.0, np.ones(20), cfg)


def test_direct_and_iterative_agree():
    # n = 1024 lies above amg.COARSE_SIZE, so the V-cycle is not an exact LU
    op = fd_laplacian_2d(32, 1.0, "dirichlet")
    pole, scale = 4.0 + 1.5j, 0.5
    rng = np.random.default_rng(6)
    b = rng.standard_normal(32 * 32)
    fact = SolverCache(op).factorization(pole, scale)
    x_direct = fact.solve(b.astype(complex))
    cfg = SolverConfig(mode="iterative", tolerance=1e-9, preconditioner="aggregation-amg",
                       max_iterations=300)
    info = solve_iterative(SolverCache(op), pole, scale, b.astype(complex), cfg)
    assert np.linalg.norm(x_direct - info.x) <= 10 * 1e-9 * np.linalg.norm(x_direct)


def test_conjugate_shift_symmetry():
    op = fd_laplacian_1d(40, 1.0, "neumann")
    rng = np.random.default_rng(7)
    b = rng.standard_normal(40)
    pole = 2.0 + 1.0j
    cache = SolverCache(op)
    x = cache.factorization(pole, 1.0).solve(b.astype(complex))
    x_bar = cache.factorization(pole.conjugate(), 1.0).solve(b.astype(complex))
    assert np.linalg.norm(x_bar - np.conj(x)) <= 1e-12 * np.linalg.norm(x)


def test_conjugate_pole_reuses_factorization():
    # real but nonsymmetric: diffusion plus a one-sided (upwind) difference,
    # so the reuse rests on A being real, not on symmetry
    n = 60
    op = SparseOperator((fd_laplacian_1d(n, 1.0, "dirichlet").tocsr() + 40.0 * _upwind(n)).tocsr())
    assert not op.symmetric
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    pole, scale = 2.0 + 3.0j, 0.4
    rng = np.random.default_rng(12)
    for b in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        solver.solve_shifted(pole, scale, b)
        x = solver.solve_shifted(pole.conjugate(), scale, b)
        matrix = shifted_matrix(op, pole.conjugate(), scale)
        assert np.linalg.norm(matrix @ x - b) <= 1e-12 * np.linalg.norm(b)
        logged = np.linalg.norm(b - (pole.conjugate() * x + scale * (op.tocsr() @ x)))
        assert solver.solve_log[-1].residual == logged / np.linalg.norm(b)
    assert solver.cache.numeric_factorizations == 1


def test_conjugate_pole_reuses_amg_preconditioner():
    op = fd_laplacian_2d(48, 1.0, "neumann")
    cache = SolverCache(op)
    solver = ShiftedSolver(op, SolverConfig(mode="iterative", tolerance=1e-8,
                                            preconditioner="aggregation-amg"), cache=cache)
    pole = next(xi for xi in builtin_pole_set("cf16_shifted") if xi.imag > 0)
    alpha = 0.25
    rng = np.random.default_rng(13)
    b = rng.standard_normal(48 * 48) + 1j * rng.standard_normal(48 * 48)
    x_bar = solver.solve_shifted(pole.conjugate(), alpha, b)
    x = solver.solve_shifted(pole, alpha, np.conj(b))
    assert np.array_equal(x_bar, np.conj(x))
    built = [k for k in cache._entries if isinstance(k, tuple) and k[-1] == "aggregation-amg"]
    assert built == [(pole, alpha, "aggregation-amg")]
    assert all(info.converged for info in solver.solve_log)


def test_cache_hits_count_only_shifted_system_reuse():
    # two poles that are not a conjugate pair build two AMG preconditioners;
    # the second one reuses the operator's aggregates, which is not a hit
    op = fd_laplacian_2d(48, 1.0, "neumann")
    solver = ShiftedSolver(op, SolverConfig(mode="iterative", tolerance=1e-8,
                                            preconditioner="aggregation-amg"))
    b = np.random.default_rng(14).standard_normal(48 * 48)
    for pole in (3.0 + 2.0j, 5.0 + 1.0j):
        solver.solve_shifted(pole, 0.25, b)
    assert solver.cache.hits == 0
    solver.solve_shifted(5.0 - 1.0j, 0.25, b)
    assert solver.cache.hits == 1
    assert all(info.converged for info in solver.solve_log)


# ---------------------------------------------------------------------------
# Front end residual logging.
# ---------------------------------------------------------------------------

def test_shifted_solver_logs_residuals():
    op = fd_laplacian_2d(16, 1.0, "neumann")
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    rng = np.random.default_rng(11)
    cases = [(2.0, rng.standard_normal(256)), (1.0 + 1.0j, rng.standard_normal(256)),
             # real pole, complex right-hand side: solved as two real halves
             (2.0, rng.standard_normal(256) + 1j * rng.standard_normal(256))]
    for pole, rhs in cases:
        solver.solve_shifted(pole, 0.5, rhs)
    assert len(solver.solve_log) == 3
    assert all(info.residual <= 1e-10 for info in solver.solve_log)


def test_inaccurate_direct_solve_raises():
    # a pole a relative 1e-12 from a negated eigenvalue: LU succeeds, but the
    # solution misses the 10x-tolerance residual bound of the iterative path
    op = fd_laplacian_1d(50, 1.0, "dirichlet")
    lam4 = np.linalg.eigvalsh(op.todense())[3]
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    rhs = np.random.default_rng(0).standard_normal(50)
    with pytest.raises(SolverError, match="inaccurate"):
        solver.solve_shifted(-lam4 * (1 - 1e-12), 1.0, rhs)
    assert solver.solve_log == []


def test_direct_solve_returning_nan_raises(monkeypatch):
    # a NaN residual fails the bound as well, so no NaN enters a Krylov basis
    monkeypatch.setattr(solvers.Factorization, "solve",
                        lambda self, rhs: np.full(rhs.shape, np.nan))
    op = fd_laplacian_2d(8, 1.0, "dirichlet")
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    with pytest.raises(SolverError, match="inaccurate"):
        solver.solve_shifted(2.0, 1.0, np.ones(64))
    assert solver.solve_log == []


@pytest.mark.parametrize("mode", ["direct", "iterative"])
def test_solve_log_keeps_diagnostics_but_no_solution(mode):
    # solve_shifted returns the full solution; its log entry keeps the
    # iterations, residual, convergence flag and dtype, with an empty x
    op = fd_laplacian_2d(30, 1.0, "neumann")
    cfg = SolverConfig(mode=mode)
    solver = ShiftedSolver(op, cfg)
    rhs = np.random.default_rng(24).standard_normal(op.n)
    pole = builtin_pole_set("cf16_shifted").poles[0]
    for xi in (pole, pole.conjugate(), 2.0):
        x = solver.solve_shifted(xi, 0.5, rhs)
        entry = solver.solve_log[-1]
        flip = xi.imag < 0
        served, b = (xi.conjugate(), np.conj(rhs)) if flip else (xi, rhs)
        if mode == "direct":
            solution = solver.cache.factorization(served, 0.5).solve(b)
            residual = np.linalg.norm(rhs - (xi * x + 0.5 * (op.tocsr() @ x)))
            expected = (0, float(residual) / np.linalg.norm(rhs), True)
        else:
            ref = solve_iterative(solver.cache, served, 0.5, b, cfg)
            solution, expected = ref.x, (ref.iterations, ref.residual, ref.converged)
            assert ref.iterations > 0
        assert np.array_equal(x, np.conj(solution) if flip else solution)
        assert x.shape == (op.n,) and x.dtype == (np.float64 if xi.imag == 0 else np.complex128)
        assert entry.x.nbytes == 0 and entry.x.dtype == x.dtype
        assert (entry.iterations, entry.residual, entry.converged) == expected
    assert len(solver.solve_log) == 3


def test_shifted_solver_iterative_divergence_carries_result():
    op = fd_laplacian_2d(32, 1.0, "dirichlet")
    solver = ShiftedSolver(op, SolverConfig(mode="iterative", tolerance=1e-12,
                                            max_iterations=2, preconditioner="none"))
    with pytest.raises(IterativeDivergence) as err:
        solver.solve_shifted(1.0, 1.0, np.ones(32 * 32))
    assert err.value.result.x.shape == (32 * 32,)
    assert err.value.result.residual > 0


# ---------------------------------------------------------------------------
# Pair solves (split into Re x and Im x).
# ---------------------------------------------------------------------------

def test_split_iterative_solve_meets_the_pair_target():
    # an iterative pair solve stops at tolerance * rho^2,
    # rho = min(|Re xi|, |Im xi|) / |xi|, and counts as converged within 10x it
    from ratexpint.amg import COARSE_SIZE
    op = fd_laplacian_2d(40, 1.0, "neumann")
    assert op.n > COARSE_SIZE
    pole = builtin_pole_set("cf16_shifted").poles[0]
    rho = min(abs(pole.real), abs(pole.imag)) / abs(pole)
    assert 0 < rho < 1
    cfg = SolverConfig(mode="iterative", tolerance=1e-7, preconditioner="aggregation-amg")
    solver = ShiftedSolver(op, cfg)
    rhs = np.random.default_rng(21).standard_normal(op.n)
    solver.solve_shifted(pole, 0.5, rhs)
    solver.solve_shifted(pole, 0.5, rhs, split=True)
    whole, split = solver.solve_log
    assert split.converged and split.residual <= 10 * cfg.tolerance * rho ** 2
    assert split.iterations > whole.iterations
    assert solvers.split_tolerance(pole, cfg.tolerance) == pytest.approx(cfg.tolerance * rho ** 2)


def test_split_leaves_a_direct_solve_unchanged():
    op = fd_laplacian_2d(40, 1.0, "neumann")
    pole = builtin_pole_set("cf16_shifted").poles[0]
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    rhs = np.random.default_rng(22).standard_normal(op.n)
    whole = solver.solve_shifted(pole, 0.5, rhs)
    split = solver.solve_shifted(pole, 0.5, rhs, split=True)
    assert np.array_equal(whole, split)
    assert solver.solve_log[0].residual == solver.solve_log[1].residual


def test_split_of_a_real_pole_keeps_the_configured_target():
    # a real pole's solution of real data is real: splitting it amplifies
    # nothing, so the split solve stops where the plain one does
    op = fd_laplacian_2d(30, 1.0, "dirichlet")
    rhs = np.random.default_rng(0).standard_normal(op.n)
    cfg = SolverConfig(mode="iterative")
    assert solvers.split_tolerance(4.0, cfg.tolerance) == cfg.tolerance
    split, whole = ShiftedSolver(op, cfg), ShiftedSolver(op, cfg)
    split.solve_shifted(4.0, 0.5, rhs, split=True)
    whole.solve_shifted(4.0, 0.5, rhs)
    assert split.solve_log[0].iterations == whole.solve_log[0].iterations


def test_split_target_of_a_near_real_pair_stops_at_rounding():
    # 4 +- 1e-6j has rho = 2.5e-7, so tolerance * rho^2 = 6e-21 lies below
    # what the iterated residual can reach: the target is floored
    op = fd_laplacian_2d(30, 1.0, "neumann")
    pole = 4.0 + 1e-6j
    cfg = SolverConfig(mode="iterative", tolerance=1e-7)
    assert solvers.split_tolerance(pole, cfg.tolerance) == solvers.SPLIT_TOLERANCE_FLOOR
    solver = ShiftedSolver(op, cfg)
    solver.solve_shifted(pole, 0.5, np.random.default_rng(23).standard_normal(op.n), split=True)
    assert solver.solve_log[0].residual <= 10 * solvers.SPLIT_TOLERANCE_FLOOR


# ---------------------------------------------------------------------------
# LUs built ahead on the worker thread.
# ---------------------------------------------------------------------------

def recorded_builds(monkeypatch, delay=0.0):
    """Record ``(pole, built on the caller's thread)`` for every shifted
    matrix the cache builds; a build on the worker first sleeps ``delay``."""
    builds = []
    build = solvers.shifted_matrix

    def recording(op, pole, scale):
        caller = threading.current_thread().name != "ratexpint-lu-ahead"
        if not caller:
            time.sleep(delay)
        builds.append((complex(pole), caller))
        return build(op, pole, scale)

    monkeypatch.setattr(solvers, "shifted_matrix", recording)
    return builds


def test_lu_built_ahead_solves_bitwise_as_one_built_by_the_caller(monkeypatch):
    builds = recorded_builds(monkeypatch)
    op = fd_laplacian_2d(32, 1.0, "neumann")
    poles = [2.0 + 1.0j, 3.0 + 2.0j, 5.0]
    b = np.random.default_rng(3).standard_normal(op.n)
    plain, ahead = SolverCache(op), SolverCache(op)
    ahead.factorization(poles[0], 0.5, poles[1])
    assert sorted(builds, key=str) == [(poles[0], True), (poles[1], False)]
    for pole, then in zip(poles, poles[1:] + [None]):
        x = ahead.factorization(pole, 0.5, then).solve(b)
        assert np.array_equal(x, plain.factorization(pole, 0.5).solve(b))
    # the next pole was built once by the worker, then once by the plain
    # cache: its lookup through the cache that built it ahead built nothing
    assert [caller for pole, caller in builds if pole == poles[1]] == [False, True]
    assert ahead.numeric_factorizations == plain.numeric_factorizations == 3
    assert ahead.lu_nnz == plain.lu_nnz
    assert (ahead.built_ahead, ahead.unused, ahead.hits) == (1, 0, 1)


def test_failed_build_ahead_raises_only_at_its_lookup():
    # -2 is a negated eigenvalue of A (see test_singular_shift_rejected)
    op = SparseOperator.from_dense(np.diag([1.0, 2.0, 3.0]))
    cache = SolverCache(op)
    # the failed build ahead is discarded, so its lookup builds it again
    # on the caller's thread and raises there, each time
    cache.factorization(1.0, 1.0, -2.0)
    assert cache.factorization(1.0, 1.0) is not None
    with pytest.raises(SolverError, match="negated eigenvalue"):
        cache.factorization(-2.0, 1.0)
    with pytest.raises(SolverError):
        cache.factorization(-2.0, 1.0)
    cache.factorization(4.0, 1.0, -2.0)
    cache.factorization(4.0, 0.5)
    assert (cache.numeric_factorizations, cache.built_ahead, cache.unused) == (3, 0, 0)


def test_new_scale_drops_the_lu_built_ahead_and_counts_it_unused(monkeypatch):
    recorded_builds(monkeypatch, delay=0.2)
    cache = SolverCache(fd_laplacian_2d(16, 1.0, "neumann"))
    threads = threading.active_count()
    cache.factorization(2.0 + 1.0j, 0.5, 3.0 + 1.0j)
    # the slower worker was joined, and its LU stored, inside the lookup
    assert threading.active_count() == threads
    assert (cache.built_ahead, cache.unused) == (1, 1)
    cache.factorization(2.0 + 1.0j, 0.25)
    assert list(cache._entries) == [(2.0 + 1.0j, 0.25)]
    assert (cache.drops, cache.numeric_factorizations, cache.built_ahead,
            cache.unused) == (1, 2, 1, 1)


def test_builds_ahead_stay_single_flight_under_concurrency(monkeypatch):
    # eight callers walk one pole order, each naming the next pole ahead:
    # every LU is still built once, on one thread or the other, and every
    # one built ahead is used
    builds = recorded_builds(monkeypatch)
    cache = SolverCache(fd_laplacian_2d(24, 1.0, "dirichlet"))
    poles = [1.0 + k * 1.0j for k in range(6)]

    def work(start):
        order = poles[start % 2:] + poles[:start % 2]
        return [cache.factorization(pole, 0.5, then)
                for pole, then in zip(order, order[1:] + [None])]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            entries = list(pool.map(work, range(16), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert sorted((pole for pole, _ in builds), key=abs) == poles
    assert all(len({id(e) for e in column}) == 1 for column in zip(*entries[::2]))
    assert cache.numeric_factorizations == len(poles) and cache.unused == 0
    assert cache.built_ahead == sum(not caller for _, caller in builds)


def test_direct_integrate_runs_at_most_one_thread_beyond_the_callers(monkeypatch):
    threads = threading.active_count()
    seen = []
    build = solvers.shifted_matrix

    def counting(op, pole, scale):
        seen.append(threading.active_count())
        return build(op, pole, scale)

    monkeypatch.setattr(solvers, "shifted_matrix", counting)
    prob = allen_cahn_2d(32)
    engine = Engine(prob, EngineConfig(solver=SolverConfig(mode="direct")))
    integrate(prob, tableau("sw2"), 0.5, 1.0, engine)
    assert engine.solver.cache.built_ahead == 2
    assert max(seen) == threads + 1 and threading.active_count() == threads

    # the caller's second build, the third LU, fails while the fourth is
    # built ahead: the lookup joins the worker before the error leaves it
    on_caller = []

    def failing(op, pole, scale):
        if threading.current_thread() is threading.main_thread():
            on_caller.append(pole)
            if len(on_caller) == 2:
                raise SolverError("injected")
        return counting(op, pole, scale)

    monkeypatch.setattr(solvers, "shifted_matrix", failing)
    engine = Engine(prob, EngineConfig(solver=SolverConfig(mode="direct")))
    with pytest.raises(SolverError, match="injected"):
        integrate(prob, tableau("sw2"), 0.5, 1.0, engine)
    cache = engine.solver.cache
    assert (cache.numeric_factorizations, cache.built_ahead, cache.unused) == (2, 2, 1)
    assert threading.active_count() == threads
