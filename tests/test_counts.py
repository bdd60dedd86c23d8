"""Exact work counts of small integrate cells and of the benchmark's workloads.

Each cell runs ``integrate`` end to end and pins what it did: Arnoldi
steps, LUs, shifted solves, COCG iterations, sub-steps, LUs built ahead,
LUs built ahead and never used, and factorization-cache hits, plus two
seeded projections of the final state. A refactor that should move no
number fails here when it moves one; a change that means to move them
updates these values and says why. The six small cells take about half a
second together, and the four workloads of ``perfbench/workloads.py`` at
seed 7, read from that file as it is, about a second.
"""

import functools
import importlib.util
import sys
from pathlib import Path

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


def _ac2d_quarter_steps():
    return allen_cahn_2d(16), "sw2", 0.25, 0.5


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
    # the estimate stops at the third cf12 pair: the fourth LU, built ahead
    # with the third, is never used and not counted as a factorization
    "ac2d-quarter-steps": (_ac2d_quarter_steps, EngineConfig, (27, 3, 12, 0, 4, 2, 1, 9),
                           (0.08700355131560422, -2.0718699568631402)),
    "graph-krogstad4": (_graph, lambda: EngineConfig(poles=builtin_pole_set("cf12")),
                        (269, 6, 87, 0, 16, 3, 0, 81), (-67.94785715954578, 23.507888676748813)),
}

#: perfbench workload -> (counts, projections) of its timed call at seed 7.
WORKLOADS = {
    "ac2d-direct": ((40, 4, 16, 0, 4, 2, 0, 12), (24.47140032851285, 6.4953897174451685)),
    "ac2d-amg": ((40, 0, 16, 242, 4, 0, 0, 12), (24.47140033086681, 6.495389713680614)),
    "ac2d-poly": ((295, 0, 0, 0, 4, 0, 0, 0), (24.471400330178252, 6.49538971524035)),
    "graph-krogstad4": ((1155, 6, 425, 0, 80, 3, 0, 419),
                        (-73.40077899715874, 110.10016373004129)),
}


@functools.cache
def _load_workloads():
    """``perfbench/workloads.py``, imported by its path and left unchanged."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _assert_counts_and_projections(problem, engine, traj, counts, projections):
    cache = engine.solver.cache
    steps = traj.steps
    assert (sum(s.arnoldi_steps for s in steps), cache.numeric_factorizations,
            sum(s.shifted_solves for s in steps), sum(s.solver_iterations for s in steps),
            sum(s.substeps for s in steps), cache.built_ahead, cache.unused,
            cache.hits) == counts
    probes = np.random.default_rng(0).standard_normal((2, problem.A.n))
    assert list(probes @ traj.final_state) == pytest.approx(projections, rel=1e-12, abs=0)


@pytest.mark.parametrize("cell", list(CELLS))
def test_cell_counts_and_final_state(cell):
    build, config, counts, projections = CELLS[cell]
    problem, tab, h, T = build()
    engine = Engine(problem, config())
    traj = integrate(problem, tableau(tab), h, T, engine)
    _assert_counts_and_projections(problem, engine, traj, counts, projections)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_counts_and_final_state_at_seed_7(name):
    cell = _load_workloads()[name](7)
    engine = cell.engine()
    traj = integrate(cell.problem, cell.tableau, cell.h, cell.T, engine, u0=cell.u0)
    _assert_counts_and_projections(cell.problem, engine, traj, *WORKLOADS[name])
