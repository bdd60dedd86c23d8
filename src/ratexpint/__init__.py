"""Exponential Runge-Kutta integrators for stiff semi-linear ODE systems
u' = -A u + g(t, u), with the phi-function combinations of every stage
evaluated through an adaptive rational Krylov approximation of the matrix
exponential action."""

from .integrators import Engine, EngineConfig, Trajectory, integrate, step
from .krylov import (AugmentedOperator, ExpmvReport, RationalDecomposition, assemble_augmented,
                     expmv_polynomial, expmv_rational, rational_arnoldi_step)
from .linalg import SparseOperator, dense_expm, orthogonal_extend
from .poles import PoleSet, builtin_pole_set, load_poles, repeated_real
from .problems import (Graph, Problem, allen_cahn_2d, allen_cahn_graph, builtin_graph,
                       fd_laplacian_1d, fd_laplacian_2d, gierer_meinhardt_2d,
                       graph_laplacian, largest_connected_component)
from .solvers import Factorization, ShiftedSolver, SolverCache, SolverConfig, solve_iterative
from .tableaus import Tableau, tableau

__version__ = "0.1.0"
