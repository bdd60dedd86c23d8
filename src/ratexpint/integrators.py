"""Exponential Runge-Kutta time stepping.

Each stage and the final update are a linear combination of phi-function
actions; both map onto a single evaluation of e^{h' A~} c~ against the
augmented operator, so one step of an s-stage method costs at most s
engine calls (stages with zero nodes are free).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .krylov import (POLYNOMIAL_DEFAULTS, RATIONAL_DEFAULTS, ExpmvReport,
                     expmv_polynomial, expmv_rational)
from .poles import PoleSet
from .problems import Problem
from .solvers import ShiftedSolver, SolverConfig
from .tableaus import Tableau

ENGINES = ("rational", "polynomial")


@dataclass
class ExpmvInput:
    """Payload of one engine call: step h' and vectors [c_0, ..., c_p]."""

    h: float
    c_vectors: list

    @property
    def p(self) -> int:
        return len(self.c_vectors) - 1


@dataclass
class EngineConfig:
    """Which expmv engine to use and how to drive it."""

    engine: str = "rational"
    tol: float = RATIONAL_DEFAULTS["tol"]
    m_min: Optional[int] = None
    m_max: Optional[int] = None
    check_cadence: int = RATIONAL_DEFAULTS["check_cadence"]
    poles: Optional[PoleSet] = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    m_hard: Optional[int] = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")

    def resolved_m_min(self) -> int:
        if self.m_min is not None:
            return self.m_min
        return RATIONAL_DEFAULTS["m_min"] if self.engine == "rational" \
            else POLYNOMIAL_DEFAULTS["m_min"]

    def resolved_m_max(self) -> int:
        if self.m_max is not None:
            return self.m_max
        if self.engine == "polynomial":
            return POLYNOMIAL_DEFAULTS["m_max"]
        if self.poles is None:
            return 0
        # repeated-real sets lean on many poles, complex files on few
        return len(self.poles)


class Engine:
    """Binds an engine configuration to one problem operator.

    Owns the shifted-system solver (and through it the factorization cache),
    so repeated calls across stages and time steps reuse numeric work.
    """

    def __init__(self, problem: Problem, config: EngineConfig):
        self.problem = problem
        self.config = config
        self.solver = ShiftedSolver(problem.A, config.solver)

    def expmv(self, inp: ExpmvInput) -> ExpmvReport:
        cfg = self.config
        if cfg.engine == "rational":
            return expmv_rational(
                self.problem.A, 1.0, inp.c_vectors, inp.h,
                pole_set=cfg.poles, solver=self.solver, tol=cfg.tol,
                m_min=cfg.resolved_m_min(), m_max=cfg.resolved_m_max(),
                check_cadence=cfg.check_cadence, m_hard=cfg.m_hard)
        return expmv_polynomial(
            self.problem.A, 1.0, inp.c_vectors, inp.h, tol=cfg.tol,
            m_min=cfg.resolved_m_min(), m_max=cfg.resolved_m_max(),
            check_cadence=cfg.check_cadence)


def stage_to_expmv(tab: Tableau, stage: int, h: float, u: np.ndarray,
                   g_values: list) -> ExpmvInput:
    """Assemble the engine payload for one stage (or the update).

    Stage j reads U_j = e^{-c_j h A} u + h sum_k a_{jk}(-h A) G_k with
    a_{jk} = sum_l beta phi_l(-c_j h A); rescaling by powers of c_j h turns
    this into one phi-combination at step h' = c_j h:
    c_l = sum_k beta_{jkl} G_k / (c_j^l h^{l-1}). ``stage = 0`` assembles the
    final update (h' = h).
    """
    if stage == 0:
        node = 1.0
        row = tab.update_coeffs
    else:
        node = tab.c[stage - 1]
        row = tab.stage_coeffs.get(stage, {})
        if row and node == 0.0:
            raise ValueError(f"stage {stage} has zero node but nonzero coefficients")
    h_eff = node * h
    max_l = 0
    for terms in row.values():
        if terms:
            max_l = max(max_l, max(terms))
    combos = {}
    for k, terms in row.items():
        g = g_values[k - 1]
        for l, coeff in terms.items():
            if coeff == 0.0:
                continue
            contrib = coeff * g
            combos[l] = combos.get(l, 0.0) + contrib
    c_vectors = [u]
    for l in range(1, max_l + 1):
        if l in combos:
            c_vectors.append(combos[l] / (node ** l * h ** (l - 1)))
        else:
            c_vectors.append(np.zeros_like(u))
    while len(c_vectors) > 1 and not np.any(c_vectors[-1]):
        c_vectors.pop()
    return ExpmvInput(h=h_eff, c_vectors=c_vectors)


def step(problem: Problem, tab: Tableau, u: np.ndarray, t: float, h: float,
         engine: Engine) -> tuple[np.ndarray, list]:
    """One full exponential Runge-Kutta step from t to t + h.

    For real problem data the stage values are kept real: with
    conjugate-closed pole sets the exact results are real and only a
    rounding-level imaginary residue is discarded.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    real_data = not np.iscomplexobj(u)
    reports: list[ExpmvReport] = []
    g_values: list[np.ndarray] = []
    for j in range(1, tab.stages + 1):
        node = tab.c[j - 1]
        if j == 1 or (node == 0.0 and not tab.stage_coeffs.get(j)):
            u_stage = u
        else:
            inp = stage_to_expmv(tab, j, h, u, g_values)
            rep = engine.expmv(inp)
            reports.append(rep)
            u_stage = rep.phi_combination
            if real_data and np.iscomplexobj(u_stage):
                u_stage = u_stage.real
        g_val = problem.g(t + node * h, u_stage)
        if not np.all(np.isfinite(g_val)):
            raise NumericalBlowup(
                f"non-finite reaction value at stage {j}, t={t + node * h:.6g}",
                t + node * h, np.asarray(u_stage))
        g_values.append(g_val)
    inp = stage_to_expmv(tab, 0, h, u, g_values)
    rep = engine.expmv(inp)
    reports.append(rep)
    u_next = rep.phi_combination
    if real_data and np.iscomplexobj(u_next):
        u_next = u_next.real
    return u_next, reports


@dataclass
class StepSummary:
    t: float
    h: float
    expmv_calls: int
    arnoldi_steps: int
    solver_iterations: int
    max_estimate: float
    max_residual: float
    substeps: int


@dataclass
class Trajectory:
    """Time points, snapshots at a configurable stride, per-step summaries."""

    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    snapshot_times: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def final_state(self) -> np.ndarray:
        return self.snapshots[-1]

    def total_expmv_calls(self) -> int:
        return sum(s.expmv_calls for s in self.steps)

    def total_arnoldi_steps(self) -> int:
        return sum(s.arnoldi_steps for s in self.steps)

    def total_solver_iterations(self) -> int:
        return sum(s.solver_iterations for s in self.steps)

    def average_krylov_iterations(self) -> float:
        calls = self.total_expmv_calls()
        return self.total_arnoldi_steps() / calls if calls else 0.0

    def max_residual(self) -> float:
        return max((s.max_residual for s in self.steps), default=0.0)


class NumericalBlowup(RuntimeError):
    def __init__(self, message, t, state):
        super().__init__(message)
        self.t = t
        self.state = state


def integrate(problem: Problem, tab: Tableau, h: float, T: float,
              engine: Engine, u0: Optional[np.ndarray] = None,
              snapshot_stride: int = 0) -> Trajectory:
    """Fixed-step time loop over [0, T]; the last step is shortened when h
    does not divide T exactly. A remainder within rounding of h runs as a
    full step h, and the final time is exactly T.

    ``snapshot_stride = k`` stores every k-th state (0: only initial and
    final). Aborts with a diagnostic snapshot on non-finite state.
    """
    if T <= 0 or h <= 0:
        raise ValueError("T and h must be positive")
    u = np.array(problem.u0 if u0 is None else u0, dtype=np.float64, copy=True)
    traj = Trajectory()
    traj.times.append(0.0)
    traj.snapshots.append(u.copy())
    traj.snapshot_times.append(0.0)
    t = 0.0
    idx = 0
    t_start = time.perf_counter()
    slack = 1e-12 * T
    while t < T - slack:
        h_step = min(h, T - t)
        if h - h_step <= slack:
            h_step = h
        u_next, reports = step(problem, tab, u, t, h_step, engine)
        u_next = np.asarray(u_next)
        if np.iscomplexobj(u_next):
            u_next = u_next.real.copy()
        if not np.all(np.isfinite(u_next)):
            raise NumericalBlowup(
                f"non-finite state after step at t={t + h_step:.6g}", t + h_step, u_next)
        t = T if T - (t + h_step) <= slack else t + h_step
        idx += 1
        u = u_next
        traj.times.append(t)
        traj.steps.append(StepSummary(
            t=t, h=h_step, expmv_calls=len(reports),
            arnoldi_steps=sum(r.arnoldi_steps for r in reports),
            solver_iterations=sum(sum(r.solver_iterations) for r in reports),
            max_estimate=max((r.estimate for r in reports), default=0.0),
            max_residual=max((r.solver_residual_max for r in reports), default=0.0),
            substeps=sum(r.substeps for r in reports)))
        if snapshot_stride and idx % snapshot_stride == 0 and t < T - slack:
            traj.snapshots.append(u.copy())
            traj.snapshot_times.append(t)
    traj.snapshots.append(u.copy())
    traj.snapshot_times.append(t)
    traj.wall_time = time.perf_counter() - t_start
    return traj
