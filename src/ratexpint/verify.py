"""Built-in oracle suite.

Each check recomputes its expected values from an independent brute-force
route (Taylor series, dense exponentials, closed-form eigenvalues) and
compares the production path against them. The CLI ``verify`` subcommand
runs the whole table; the acceptance tests reuse the same functions with
their stated tolerances.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .integrators import Engine, EngineConfig, integrate, stage_to_expmv
from .krylov import (RationalDecomposition, _approximant_and_estimate, _grow,
                     assemble_augmented, dense_expm, expmv_rational)
from .linalg import SparseOperator, phi_dense_all
from .poles import PoleSet, builtin_pole_set
from .problems import Problem, fd_laplacian_1d, fd_laplacian_2d
from .solvers import ShiftedSolver, SolverConfig
from .tableaus import tableau


@dataclass
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    seconds: float
    detail: str = ""

    def row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status:4s}  {self.name:44s} measured={self.measured:10.3e} "
                f"threshold={self.threshold:9.2e}  ({self.seconds:5.1f}s) {self.detail}")


# ---------------------------------------------------------------------------
# Dense exponential vs. truncated Taylor series.
# ---------------------------------------------------------------------------

def taylor_expm(z: np.ndarray, terms: int = 60) -> np.ndarray:
    out = np.eye(z.shape[0], dtype=np.result_type(z.dtype, np.float64))
    term = out.copy()
    for k in range(1, terms + 1):
        term = term @ z / k
        out = out + term
    return out


def check_expm_series(instances: int = 20, seed: int = 101) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        z = rng.standard_normal((8, 8))
        z *= 2.0 / max(np.linalg.norm(z, 2), 1e-12) * rng.uniform(0.2, 1.0)
        ref = taylor_expm(z)
        got = dense_expm(z)
        worst = max(worst, float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
    return CheckResult("dense expm vs 60-term Taylor series", worst, 1e-12,
                       worst <= 1e-12, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Augmented-operator identity: expmv output vs phi_dense_all combination.
# ---------------------------------------------------------------------------

def random_spd_operator(rng, n: int, lam_max: float = 50.0,
                        semi: bool = False) -> SparseOperator:
    """Random symmetric positive (semi-)definite operator.

    ``semi=True`` pins the smallest eigenvalue at zero, matching the
    Laplacian-like operators this package integrates (their kernel keeps
    e^{-hA}u from collapsing to rounding level, which relative-error
    comparisons rely on).
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.0, lam_max, size=n)
    if semi:
        lam[0] = 0.0
    return SparseOperator.from_dense(q @ np.diag(lam) @ q.T)


def check_phi_combination_identity(instances: int = 50, seed: int = 202,
                                   tol: float = 1e-9) -> CheckResult:
    """expmv at scale alpha and time h against the brute-force sum of
    h^k phi_k(-h alpha A) c_k."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    poles = builtin_pole_set("cf12")
    worst = 0.0
    for i in range(instances):
        n = int(rng.integers(8, 61))
        p = int(i % 4)
        alpha = float(rng.uniform(0.2, 2.0))
        h = float(rng.uniform(0.05, 1.0))
        op = random_spd_operator(rng, n, semi=True)
        cs = [rng.standard_normal(n) for _ in range(p + 1)]
        solver = ShiftedSolver(op, SolverConfig(mode="direct"))
        rep = expmv_rational(op, alpha, cs, poles, solver, tol=1e-12, m_min=4,
                             check_cadence=2, m_hard=n + p, theta=h)
        phis = phi_dense_all(-h * alpha * op.todense(), p)
        ref = sum(h ** k * (phis[k] @ cs[k]) for k in range(p + 1))
        err = np.linalg.norm(rep.phi_combination - ref) / max(np.linalg.norm(ref), 1e-300)
        worst = max(worst, float(err))
    return CheckResult("phi-combination identity (expmv vs phi_dense_all)", worst, tol,
                       worst <= tol, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Error-expansion validation.
# ---------------------------------------------------------------------------

def check_error_expansion(instances: int = 20, seed: int = 303,
                          terms: int = 30, tol: float = 1e-8) -> CheckResult:
    """Truncated error series vs explicitly computed approximation error,
    on real payloads. Each decomposition grows through the engine's own
    rule (:func:`~ratexpint.krylov._grow`) to the schedule's length and is
    settled by one polynomial step: the conjugate pair is one real pair
    step, as the engine takes it."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    schedule = PoleSet((complex(6.0, 2.0), complex(6.0, -2.0), complex(4.0)))
    worst = 0.0
    for i in range(instances):
        n = int(rng.integers(20, 55))
        p = int(i % 3)
        op = random_spd_operator(rng, n, lam_max=8.0)
        h = float(rng.uniform(0.1, 0.3))
        cs = [rng.standard_normal(n) for _ in range(p + 1)]
        aug, ct = assemble_augmented(op, 1.0, cs)
        solver = ShiftedSolver(op, SolverConfig(mode="direct"))
        d = RationalDecomposition(aug, ct)
        _grow(d, deque(schedule.steps), len(schedule), solver)
        exact = dense_expm(h * aug.dense()) @ ct
        y, expansion = _approximant_and_estimate(d, h, terms)
        true_err = float(np.linalg.norm(exact - d.approximant(y)))
        worst = max(worst, float(abs(expansion - true_err) / max(true_err, 1e-300)))
    return CheckResult(f"error expansion ({terms} terms) vs true error", worst, tol,
                       worst <= tol, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Estimator effectivity on the three scaled-spectrum test matrices.
# ---------------------------------------------------------------------------

def scaled_spectrum_matrices() -> dict[str, SparseOperator]:
    """Three 900-dim operators rescaled to spectrum [1, 1000]: 1D and 2D
    second-difference matrices and an equispaced diagonal."""
    out = {}
    t1 = fd_laplacian_1d(900, 900.0, "dirichlet").tocsr()  # h_x = 1
    k = np.arange(1, 901)
    lam = 2.0 - 2.0 * np.cos(k * np.pi / 901.0)
    out["laplace1d"] = _rescaled(t1, lam.min(), lam.max())
    t2 = fd_laplacian_2d(30, 30.0, "dirichlet").tocsr()
    k = np.arange(1, 31)
    lam1 = 2.0 - 2.0 * np.cos(k * np.pi / 31.0)
    out["laplace2d"] = _rescaled(t2, 2 * lam1.min(), 2 * lam1.max())
    diag = sp.diags(np.arange(1.0, 901.0)).tocsr()
    out["equispaced"] = _rescaled(diag, 1.0, 900.0)
    return out


def _rescaled(mat: sp.csr_matrix, lam_min: float, lam_max: float) -> SparseOperator:
    a = 999.0 / (lam_max - lam_min)
    b = 1.0 - a * lam_min
    return SparseOperator((a * mat + b * sp.identity(mat.shape[0], format="csr")).tocsr())


def estimator_study(op: SparseOperator, h: float, c0: np.ndarray,
                    pole_set: PoleSet, m_cap: int = 40,
                    solver: Optional[ShiftedSolver] = None) -> list[tuple[int, float, float]]:
    """(m, estimate, true error) along the adaptive schedule.

    The step size is the operator scale, as in the update stage of a step
    (theta = 1). The decomposition takes the payload's arithmetic and grows
    through the engine's own rule (:func:`~ratexpint.krylov._grow`) by one
    step per point: the next step of :attr:`~ratexpint.poles.PoleSet.steps`,
    settled by a polynomial step so the estimate is evaluated under its
    stated convention, and a polynomial step once they are consumed. On a
    real payload a conjugate pair is one pair step. The points are the
    checks of the adaptive loop at ``m_min = 1`` and ``check_cadence = 1``,
    recorded until m reaches ``m_cap`` or a happy breakdown.
    The truth is the dense-exponential oracle applied to the augmented
    matrix.
    """
    aug, ct = assemble_augmented(op, h, [c0])
    exact = dense_expm(aug.dense()) @ ct
    if solver is None:
        solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    d = RationalDecomposition(aug, ct)
    pending = deque(pole_set.steps)
    points = []
    while d.m < m_cap and not d.happy:
        _grow(d, pending, d.m + 1, solver)
        y, est = _approximant_and_estimate(d, 1.0)
        points.append((d.m, est, float(np.linalg.norm(exact - d.approximant(y)))))
    return points


def check_estimator_effectivity(band: float = 100.0, floor: float = 1e-12,
                                ceiling: float = 1e-1, target: float = 1e-10,
                                m_cap: int = 40) -> list[CheckResult]:
    """Estimate-vs-truth study for both step-size/payload settings."""
    poles = builtin_pole_set("cf12")
    rng = np.random.default_rng(404)
    results = []
    mats = scaled_spectrum_matrices()
    for name, op in mats.items():
        n = op.n
        settings = {
            "h=1, uniform payload": (1.0, np.full(n, 1.0 / 30.0)),
            "h=0.01, complex payload": (0.01, rng.uniform(0, 1, n) + 1j * rng.uniform(0, 1, n)),
        }
        for label, (h, c0) in settings.items():
            t0 = time.perf_counter()
            pts = estimator_study(op, h, c0, poles, m_cap=m_cap)
            worst_ratio = 1.0
            in_band = 0
            for _, est, true in pts:
                if floor <= true <= ceiling:
                    in_band += 1
                    ratio = max(est / true, true / est) if est > 0 else np.inf
                    worst_ratio = max(worst_ratio, float(ratio))
            converged = any(est <= target and true <= target for _, est, true in pts)
            secs = time.perf_counter() - t0
            ok = worst_ratio <= band and converged and in_band > 0
            results.append(CheckResult(
                f"estimator effectivity: {name}, {label}", worst_ratio, band, ok, secs,
                detail=f"points={in_band} reached_target={converged}"))
    return results


# ---------------------------------------------------------------------------
# Tableau sanity.
# ---------------------------------------------------------------------------

def check_tableau_consistency() -> list[CheckResult]:
    """Tableau sanity: update weights at z = 0 sum to 1 for every method,
    and the assembled second stage of etd3rk reproduces the dense
    phi-function oracle."""
    results = []
    for name in ("sw2", "etd3rk", "krogstad4"):
        t0 = time.perf_counter()
        err = abs(tableau(name).update_weights_at_zero() - 1.0)
        results.append(CheckResult(f"tableau weights at zero: {name}", err, 1e-13,
                                   err <= 1e-13, time.perf_counter() - t0))

    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    n, h = 20, 0.37
    op = random_spd_operator(rng, n, lam_max=6.0)
    u = rng.standard_normal(n)
    g1 = rng.standard_normal(n)
    tab = tableau("etd3rk")
    alpha, theta, cs = stage_to_expmv(tab, 2, h, u, [g1])
    aug, ct = assemble_augmented(op, alpha, cs)
    value = (dense_expm(theta * aug.dense()) @ ct)[:n]
    phis = phi_dense_all(-(h / 2) * op.todense(), 1)
    expected = phis[0] @ u + (h / 2) * (phis[1] @ g1)
    err = float(np.linalg.norm(value - expected) / np.linalg.norm(expected))
    results.append(CheckResult("etd3rk stage-2 payload vs phi oracle", err, 1e-11,
                               err <= 1e-11, time.perf_counter() - t0))
    return results


# ---------------------------------------------------------------------------
# Linear exactness of the integrators.
# ---------------------------------------------------------------------------

def check_linear_exactness(seed: int = 505, tol: float = 1e-8) -> list[CheckResult]:
    """With g = 0 every integrator must reproduce e^{-T A} u0 exactly up to
    engine tolerance: 10 * tol * steps in the 2-norm. The reference comes from
    the eigendecomposition of the symmetric A, V diag(e^{-T lambda}) V^T u0,
    so it shares no kernel with the dense exponential of the engines."""
    rng = np.random.default_rng(seed)
    n = 48
    op = random_spd_operator(rng, n, lam_max=30.0)
    u0 = rng.standard_normal(n)
    T, h = 1.0, 0.25
    steps = int(round(T / h))
    lam, vec = np.linalg.eigh(op.todense())
    ref = vec @ (np.exp(-T * lam) * (vec.T @ u0))

    def zero_g(t, u):
        return np.zeros_like(u)

    problem = Problem(name="linear", A=op, g=zero_g, u0=u0, params={})
    poles = builtin_pole_set("cf12")
    results = []
    for engine_name in ("rational", "polynomial"):
        for method in ("sw2", "etd3rk", "krogstad4"):
            t0 = time.perf_counter()
            cfg = EngineConfig(engine=engine_name, tol=tol,
                               poles=poles if engine_name == "rational" else None,
                               solver=SolverConfig(mode="direct"),
                               m_hard=n)
            eng = Engine(problem, cfg)
            traj = integrate(problem, tableau(method), h, T, eng)
            err = float(np.linalg.norm(traj.final_state - ref))
            bound = 10.0 * tol * steps
            results.append(CheckResult(
                f"linear exactness: {method}/{engine_name}", err, bound,
                err <= bound, time.perf_counter() - t0))
    return results


# ---------------------------------------------------------------------------
# Suite driver.
# ---------------------------------------------------------------------------

#: The suite, in the order ``verify`` prints it: each check with the name of
#: the FAIL row it becomes if it raises (a pole set that cannot be built,
#: say), so that one crashing check does not stop the rest. A check returns
#: one result or a list of them.
CHECKS = (
    ("dense expm vs 60-term Taylor series", check_expm_series),
    ("phi-combination identity (expmv vs phi_dense_all)", check_phi_combination_identity),
    ("error expansion (30 terms) vs true error", check_error_expansion),
    ("tableau consistency", check_tableau_consistency),
    ("estimator effectivity", check_estimator_effectivity),
    ("linear exactness", check_linear_exactness),
)


def run_all(verbose_print: Optional[Callable[[str], None]] = None) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name, check in CHECKS:
        try:
            out = check()
        except Exception as exc:
            out = CheckResult(name, float("inf"), 0.0, False, 0.0,
                              detail=f"{type(exc).__name__}: {exc}")
        for result in out if isinstance(out, list) else [out]:
            results.append(result)
            if verbose_print:
                verbose_print(result.row())
    return results
