"""Exact work counts of small integrate cells.

Each cell runs ``integrate`` end to end and pins what it did: Arnoldi
steps, LUs, shifted solves, COCG iterations, sub-steps, LUs built ahead,
LUs built ahead and never used, and factorization-cache hits, plus two
seeded projections of the final state. A refactor that should move no
number fails here when it moves one; a change that means to move them
updates these values and says why. The five cells take about half a
second together.
"""

import numpy as np
import pytest

from ratexpint import (Engine, EngineConfig, PoleSet, SolverConfig, allen_cahn_2d,
                       allen_cahn_graph, builtin_graph, builtin_pole_set,
                       largest_connected_component, tableau)
from ratexpint.integrators import integrate


def _cf12_lower_first() -> PoleSet:
    """``cf12`` with each conjugate pair listed lower pole first, so the pole
    handed ahead to each LU lookup is a lower one."""
    cf12 = builtin_pole_set("cf12")
    return PoleSet(tuple(xi for step in cf12.steps for xi in reversed(step)),
                   name="cf12-lower-first")


def _ac2d():
    return allen_cahn_2d(32), "sw2", 0.5, 1.0


def _graph():
    graph = largest_connected_component(builtin_graph("road2600"))
    return allen_cahn_graph(graph, eps=0.05, diffusion=5e3, seed=7), "krogstad4", 0.05, 0.2


#: cell -> (problem builder, engine config builder, counts, projections).
#: counts: Arnoldi steps, LUs, solves, COCG iterations, sub-steps,
#: built_ahead, unused, cache hits.
_DIRECT_COUNTS = (34, 4, 14, 0, 4, 2, 0, 10)
_AC2D_DIRECT = (-12.972062478683949, -1.4418432291926226)
CELLS = {
    "ac2d-direct": (_ac2d, lambda: EngineConfig(poles=builtin_pole_set("cf12")),
                    _DIRECT_COUNTS, _AC2D_DIRECT),
    "ac2d-amg": (_ac2d, lambda: EngineConfig(poles=builtin_pole_set("cf16_shifted"),
                                             solver=SolverConfig(mode="iterative")),
                 (34, 0, 14, 142, 4, 0, 0, 10), (-12.97206247903453, -1.4418432285822194)),
    "ac2d-poly": (_ac2d, lambda: EngineConfig(engine="polynomial"),
                  (50, 0, 0, 0, 4, 0, 0, 0), (-12.972062478669782, -1.441843229289275)),
    "ac2d-lower-first": (_ac2d, lambda: EngineConfig(poles=_cf12_lower_first()),
                         _DIRECT_COUNTS, _AC2D_DIRECT),
    "graph-krogstad4": (_graph, lambda: EngineConfig(poles=builtin_pole_set("cf12")),
                        (269, 6, 87, 0, 16, 3, 0, 81), (-67.94785715954578, 23.507888676748813)),
}


@pytest.mark.parametrize("cell", list(CELLS))
def test_cell_counts_and_final_state(cell):
    build, config, counts, projections = CELLS[cell]
    problem, tab, h, T = build()
    engine = Engine(problem, config())
    traj = integrate(problem, tableau(tab), h, T, engine)
    cache = engine.solver.cache
    steps = traj.steps
    assert (sum(s.arnoldi_steps for s in steps), cache.numeric_factorizations,
            sum(s.shifted_solves for s in steps), sum(s.solver_iterations for s in steps),
            sum(s.substeps for s in steps), cache.built_ahead, cache.unused,
            cache.hits) == counts
    probes = np.random.default_rng(0).standard_normal((2, problem.A.n))
    assert list(probes @ traj.final_state) == pytest.approx(projections, rel=1e-12, abs=0)
