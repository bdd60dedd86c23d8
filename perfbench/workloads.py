"""The benchmark's workloads: one cell of the solver grid each.

Every workload runs ``integrate`` end to end on one problem with one engine
configuration. Inputs come from the seed alone: the graph workload draws its
initial data through ``allen_cahn_graph(seed=...)``; the ``ac2d-*`` workloads
add a seeded smooth perturbation (see ``smooth_perturbation``) to the default
``ac2d`` initial data and hand it to ``integrate(u0=...)``.

All ``ac2d-*`` cells use nx=128 (n=16,384). nx=256 does not fit the time a
benchmark run may take: one ``ac2d-direct`` call there takes about 17 s and
peaks at about 2.5 GB, before its reference is computed.

Each workload also names its reference: the same tableau and step size with a
*different* engine at ``REFERENCE_TOL``, so the gate does not compare the
engine with itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ratexpint import (Engine, EngineConfig, SolverConfig, allen_cahn_2d,
                       allen_cahn_graph, builtin_graph, builtin_pole_set,
                       largest_connected_component, tableau)

#: Engine tolerance of every timed run (the package default).
TOL = 1e-8
#: Engine tolerance of the untimed reference solution.
REFERENCE_TOL = 1e-12
#: Amplitude of the seeded perturbation added to the ac2d initial data.
AC2D_PERTURBATION = 1e-3
#: Highest cosine mode per direction in that perturbation.
AC2D_MODES = 3
#: Grid points per direction of the ac2d cells.
AC2D_NX = 128


@dataclass
class Cell:
    """Everything one ``integrate`` call of a workload needs."""

    problem: object
    tableau: object
    h: float
    T: float
    config: EngineConfig
    reference_config: Callable[[], EngineConfig]
    u0: Optional[np.ndarray]

    def engine(self) -> Engine:
        return Engine(self.problem, self.config)

    def reference_engine(self) -> Engine:
        return Engine(self.problem, self.reference_config())


def rational(poles: str, solver: SolverConfig, tol: float = TOL) -> EngineConfig:
    return EngineConfig(engine="rational", tol=tol, poles=builtin_pole_set(poles),
                        solver=solver)


def direct(tol: float = TOL) -> EngineConfig:
    return rational("cf12", SolverConfig(mode="direct"), tol)


def amg(tol: float = TOL) -> EngineConfig:
    return rational("cf16_shifted", SolverConfig(mode="iterative", tolerance=1e-7,
                                                 preconditioner="aggregation-amg"), tol)


def polynomial(tol: float = TOL) -> EngineConfig:
    return EngineConfig(engine="polynomial", tol=tol)


def smooth_perturbation(coords: np.ndarray, length: float, seed: int) -> np.ndarray:
    """A seeded sum of the lowest Neumann cosine modes on the centred square
    of side ``length``, max-norm at most ``AC2D_PERTURBATION``.

    Smooth on purpose: white noise of the same size adds high-frequency
    content that the polynomial engine must resolve, so it would change
    which work ``ac2d-poly`` does (m and sub-steps), not just its input.
    """
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-1.0, 1.0, (AC2D_MODES + 1, AC2D_MODES + 1))
    k = np.arange(AC2D_MODES + 1) * np.pi / length
    x, y = coords[:, 0] + length / 2, coords[:, 1] + length / 2
    modes = np.cos(np.outer(x, k)) @ coef * np.cos(np.outer(y, k))
    return AC2D_PERTURBATION / coef.size * modes.sum(axis=1)


def ac2d(config: Callable[..., EngineConfig], reference: Callable[..., EngineConfig],
         nx: int = AC2D_NX) -> Callable[[int], Cell]:
    def build(seed: int) -> Cell:
        problem = allen_cahn_2d(nx, eps2=0.1)
        u0 = problem.u0 + smooth_perturbation(problem.coords, problem.params["L"], seed)
        return Cell(problem, tableau("sw2"), 0.5, 1.0, config(),
                    lambda: reference(REFERENCE_TOL), u0)
    return build


def _graph_krogstad4(seed: int) -> Cell:
    graph = largest_connected_component(builtin_graph("road2600"))
    problem = allen_cahn_graph(graph, eps=0.05, diffusion=5e3, seed=seed)
    return Cell(problem, tableau("krogstad4"), 0.05, 1.0, direct(),
                lambda: polynomial(REFERENCE_TOL), None)


#: name -> function(seed) -> Cell. The reasons for each choice are in
#: BENCHMARK.json ("why") and perfbench/baseline.json.
WORKLOADS: dict[str, Callable[[int], Cell]] = {
    "ac2d-direct": ac2d(direct, polynomial),
    "ac2d-amg": ac2d(amg, polynomial),
    "ac2d-poly": ac2d(polynomial, direct),
    "graph-krogstad4": _graph_krogstad4,
}
