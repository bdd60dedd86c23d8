"""Exponential Runge-Kutta time stepping.

Each stage and the final update are a linear combination of phi-function
actions; :func:`stage_to_expmv` maps each onto the step's operator scale
alpha = h, the stage's time theta = c_j and a payload [c_0, ..., c_p] whose
engine value is sum_k theta^k phi_k(-theta alpha A) c_k. A stage at node 0
has no coefficients, so its value is the step's start state: a step makes
one engine call per nonzero node plus one for the update. Every shifted
system of a step is (xi I + h A): the stages of a step share their LUs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .krylov import (DEFAULT_CHECK_CADENCE, DEFAULT_M_MIN, DEFAULT_TOL, ExpmvReport,
                     check_settings, expmv_polynomial, expmv_rational)
from .linalg import single_blas_thread
from .poles import PoleSet, builtin_pole_set
from .problems import Problem
from .solvers import ShiftedSolver, SolverConfig, check_iterative_pole
from .tableaus import Tableau

ENGINES = ("rational", "polynomial")


@dataclass
class EngineConfig:
    """Which expmv engine to use and how to drive it; both engines read the
    same settings with the same defaults. A rational engine given no poles
    uses ``cf16_shifted`` with the iterative solver (every real part
    positive) and ``cf12`` with the direct one. Its pole set must be
    conjugate-closed, so that real problems run in real arithmetic. The
    polynomial engine takes no poles and no solver settings.

    The error estimate is checked at ``m_min``, after every pole step while
    pole steps remain, then every ``check_cadence`` polynomial steps (see
    :func:`~ratexpint.krylov.expmv_rational`)."""

    engine: str = "rational"
    tol: float = DEFAULT_TOL
    m_min: int = DEFAULT_M_MIN
    check_cadence: int = DEFAULT_CHECK_CADENCE
    m_hard: Optional[int] = None
    poles: Optional[PoleSet] = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        check_settings(self.tol, self.m_min, self.check_cadence, self.m_hard)
        if self.engine == "polynomial" and (self.poles is not None
                                            or self.solver != SolverConfig()):
            raise ValueError("the polynomial engine takes no poles or solver settings")
        if self.engine == "rational" and self.poles is None:
            self.poles = builtin_pole_set(
                "cf16_shifted" if self.solver.mode == "iterative" else "cf12")
        if self.engine == "rational" and not self.poles.conjugate_closed:
            raise ValueError(f"pole set {self.poles.name or list(self.poles)} is not "
                             "conjugate-closed with adjacent pairs")
        if self.engine == "rational" and self.solver.mode == "iterative":
            for pole in self.poles:
                check_iterative_pole(pole, ValueError)


class Engine:
    """Binds an engine configuration to one problem operator.

    Owns the shifted-system solver (and through it the factorization cache),
    so repeated calls across stages and time steps reuse numeric work.
    """

    def __init__(self, problem: Problem, config: EngineConfig):
        self.problem = problem
        self.config = config
        self.solver = ShiftedSolver(problem.A, config.solver)

    def expmv(self, alpha: float, theta: float, c_vectors: list) -> ExpmvReport:
        """sum_k theta^k phi_k(-theta alpha A) c_k for
        ``c_vectors = [c_0, ..., c_p]``.

        Runs at the caller's BLAS thread count; only :func:`integrate` caps
        it at one thread (see :func:`~ratexpint.linalg.single_blas_thread`).
        """
        cfg = self.config
        settings = dict(tol=cfg.tol, m_min=cfg.m_min, check_cadence=cfg.check_cadence,
                        m_hard=cfg.m_hard, theta=theta)
        if cfg.engine == "rational":
            return expmv_rational(self.problem.A, alpha, c_vectors, cfg.poles, self.solver,
                                  **settings)
        return expmv_polynomial(self.problem.A, alpha, c_vectors, **settings)


def stage_to_expmv(tab: Tableau, stage: int, h: float, u: np.ndarray,
                   g_values: list) -> tuple[float, float, list]:
    """Operator scale, time and payload ``(alpha, theta, [c_0, ..., c_p])``
    of one stage (or the update).

    Stage j reads U_j = e^{-c_j h A} u + h sum_k a_{jk}(-h A) G_k with
    a_{jk} = sum_l beta_{jkl} phi_l(-c_j h A). That is the engine value
    sum_l theta^l phi_l(-theta alpha A) c_l with alpha = h, theta = c_j,
    c_0 = u and c_l = h sum_k beta_{jkl} G_k / theta^l, summed over the
    nonzero beta_{jkl}; trailing all-zero c_l are dropped. ``stage = 0``
    assembles the final update (theta = 1).
    """
    if stage == 0:
        node = 1.0
        row = tab.update_coeffs
    else:
        node = tab.c[stage - 1]
        row = tab.stage_coeffs.get(stage, {})
    combos = {}
    for k, terms in row.items():
        for l, coeff in terms.items():
            if coeff != 0.0:
                combos[l] = combos.get(l, 0.0) + coeff * g_values[k - 1]
    c_vectors = [u] + [h * combos[l] / node ** l if l in combos else np.zeros_like(u)
                       for l in range(1, max(combos, default=0) + 1)]
    while len(c_vectors) > 1 and not np.any(c_vectors[-1]):
        c_vectors.pop()
    return h, node, c_vectors


def step(problem: Problem, tab: Tableau, u: np.ndarray, t: float, h: float,
         engine: Engine) -> tuple[np.ndarray, list]:
    """One full exponential Runge-Kutta step from t to t + h.

    The engine's pole set is conjugate-closed (see :class:`EngineConfig`),
    so on real data it computes every stage and the update in real
    arithmetic on either solver path, and ``step`` returns them as they
    are. A reaction value that is complex or not finite raises.

    Runs at the caller's BLAS thread count; only :func:`integrate` caps it
    at one thread.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"step size must be positive and finite, got {h}")
    reports: list[ExpmvReport] = []
    g_values: list[np.ndarray] = []

    def value(stage: int) -> np.ndarray:
        rep = engine.expmv(*stage_to_expmv(tab, stage, h, u, g_values))
        reports.append(rep)
        return rep.phi_combination

    for j in range(1, tab.stages + 1):
        node = tab.c[j - 1]
        u_stage = value(j) if node != 0.0 else u
        g_val = problem.g(t + node * h, u_stage)
        if np.iscomplexobj(g_val):
            raise ValueError(f"complex reaction value at stage {j}, t={t + node * h:.6g}")
        if not np.all(np.isfinite(g_val)):
            raise NumericalBlowup(
                f"non-finite reaction value at stage {j}, t={t + node * h:.6g}",
                t + node * h, np.asarray(u_stage))
        g_values.append(g_val)
    return value(0), reports


@dataclass
class StepSummary:
    t: float
    h: float
    expmv_calls: int
    arnoldi_steps: int
    #: shifted solves made: one per conjugate pair, on either solver path
    shifted_solves: int
    solver_iterations: int
    max_estimate: float
    max_residual: float
    substeps: int


@dataclass
class Trajectory:
    """Snapshots at a configurable stride and per-step summaries (end times ``steps[i].t``)."""

    snapshots: list = field(default_factory=list)
    snapshot_times: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    wall_time: float = 0.0
    #: OpenBLAS threads held during the run; ``None`` when no OpenBLAS was found
    blas_threads: Optional[int] = None

    @property
    def final_state(self) -> np.ndarray:
        return self.snapshots[-1]

    def average_krylov_iterations(self) -> float:
        calls = sum(s.expmv_calls for s in self.steps)
        return sum(s.arnoldi_steps for s in self.steps) / calls if calls else 0.0

    def max_residual(self) -> float:
        return max((s.max_residual for s in self.steps), default=0.0)


class NumericalBlowup(ArithmeticError):
    """A non-finite reaction value or state; ``t`` and ``state`` hold the
    time and the state it was found at. Like every numerical failure of
    this package it is an ``ArithmeticError``."""

    def __init__(self, message, t, state):
        super().__init__(message)
        self.t = t
        self.state = state


def check_time_grid(h: float, T: float, snapshot_stride: int = 0) -> None:
    """Reject a time grid that :func:`integrate` cannot run as asked."""
    if not (0 < T < np.inf and 0 < h < np.inf):
        raise ValueError(f"T and h must each be positive and finite, got T={T}, h={h}")
    if snapshot_stride < 0:
        raise ValueError(f"snapshot_stride must be at least 0, got {snapshot_stride}")


def integrate(problem: Problem, tab: Tableau, h: float, T: float,
              engine: Engine, u0: Optional[np.ndarray] = None,
              snapshot_stride: int = 0) -> Trajectory:
    """Fixed-step time loop over [0, T]; the last step is shortened when h
    does not divide T exactly. A remainder within rounding of h runs as a
    full step h, and the final time is exactly T.

    ``snapshot_stride = k`` stores every k-th state (0: only initial and
    final). Aborts with a diagnostic snapshot on non-finite state. The
    initial state (``u0``, by default ``problem.u0``) must be a finite real
    vector of shape (n,); anything else raises ``ValueError``, and so does
    an ``engine`` bound to another operator than ``problem.A``.

    The whole call runs the bundled OpenBLAS on one thread and restores the
    caller's thread counts on return or raise
    (:func:`~ratexpint.linalg.single_blas_thread`); ``blas_threads`` of the
    result records the count held.
    """
    check_time_grid(h, T, snapshot_stride)
    if engine.problem.A is not problem.A:
        raise ValueError("the engine belongs to another operator")
    u = np.asarray(problem.u0 if u0 is None else u0)
    shape = (problem.A.n,)
    if np.iscomplexobj(u) or u.shape != shape or not np.all(np.isfinite(u)):
        raise ValueError(f"initial state must be a finite real vector of shape {shape}, "
                         f"got {u.dtype} of shape {u.shape}")
    u = np.array(u, dtype=np.float64, copy=True)
    traj = Trajectory()
    traj.snapshots.append(u.copy())
    traj.snapshot_times.append(0.0)
    t = 0.0
    t_start = time.perf_counter()
    slack = 1e-12 * T
    with single_blas_thread() as traj.blas_threads:
        while t < T - slack:
            h_step = min(h, T - t)
            if h - h_step <= slack:
                h_step = h
            u_next, reports = step(problem, tab, u, t, h_step, engine)
            if not np.all(np.isfinite(u_next)):
                raise NumericalBlowup(
                    f"non-finite state after step at t={t + h_step:.6g}", t + h_step, u_next)
            t = T if T - (t + h_step) <= slack else t + h_step
            u = u_next
            traj.steps.append(StepSummary(
                t=t, h=h_step, expmv_calls=len(reports),
                arnoldi_steps=sum(r.arnoldi_steps for r in reports),
                shifted_solves=sum(r.solves for r in reports),
                solver_iterations=sum(r.solver_iterations for r in reports),
                max_estimate=max((r.estimate for r in reports), default=0.0),
                max_residual=max((r.solver_residual_max for r in reports), default=0.0),
                substeps=sum(r.substeps for r in reports)))
            if snapshot_stride and len(traj.steps) % snapshot_stride == 0 and t < T - slack:
                traj.snapshots.append(u.copy())
                traj.snapshot_times.append(t)
    traj.snapshots.append(u.copy())
    traj.snapshot_times.append(t)
    traj.wall_time = time.perf_counter() - t_start
    return traj
