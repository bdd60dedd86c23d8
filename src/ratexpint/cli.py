"""Command-line front end.

Subcommands: ``run`` (one simulation, trajectory CSV + run report),
``bench`` (size x engine sweeps as CSV), ``verify`` (built-in oracle
suite), ``poles validate`` and ``graph info``. Exit codes: 0 success,
1 verification failure, 2 configuration error, 3 numerical failure;
:func:`main` alone maps failures to codes 2 and 3.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import verify as verify_mod
from .integrators import ENGINES, Engine, EngineConfig, Trajectory, check_time_grid, integrate
from .krylov import DEFAULT_CHECK_CADENCE, DEFAULT_M_MIN, DEFAULT_STEPS_PAST_POLES, DEFAULT_TOL
from .poles import PoleSet, builtin_pole_set, load_poles, repeated_real, validate
from .problems import (Graph, Problem, allen_cahn_2d, allen_cahn_graph, builtin_graph,
                       gierer_meinhardt_2d, largest_connected_component,
                       load_edge_list, load_matrix_market_adjacency)
from .solvers import PRECONDITIONERS, SolverConfig
from .tableaus import Tableau, available, tableau

PROBLEMS = ("ac2d", "gm2d", "ac-graph")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config file + flags.
# ---------------------------------------------------------------------------

def read_config_file(path: Path) -> dict[str, str]:
    """``key = value`` lines, ``#`` comments; ``-`` in a key reads as ``_``.
    An empty value counts as unset and is left out."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            if value.strip():
                out[key.strip().replace("-", "_")] = value.strip()
    return out


def config_flags(path: Path) -> list[str]:
    """A config file as ``run``/``bench`` flags: ``key = value`` becomes
    ``--key=value``, so argparse types and checks file values like flags.
    The one switch, ``graph_one_based``, becomes ``--graph-one-based`` when
    its value is true/1/yes and is left out otherwise."""
    flags = []
    for key, value in read_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        if key != "graph_one_based":
            flags.append(f"{flag}={value}")
        elif value.lower() in ("true", "1", "yes"):
            flags.append(flag)
    return flags


#: Gierer-Meinhardt model parameters, passed to ``gierer_meinhardt_2d`` by name.
GM_PARAMETERS = ("D_a", "D_h", "p", "mu", "pprime", "nu")

#: The settings each problem reads; the run report lists no other problem's.
PROBLEM_SETTINGS = {
    "ac2d": ("nx", "bc", "eps2"),
    "gm2d": ("nx", "bc", "seed", *GM_PARAMETERS),
    "ac-graph": ("graph_file", "graph_one_based", "eps", "diffusion", "seed"),
}


def _add_run_flags(p: argparse.ArgumentParser):
    """The settings of one cell. Flags with a ``None`` default are passed on
    only when given, so the library's signature defaults apply."""
    p.add_argument("--config", type=Path,
                   help="file of 'key = value' lines naming these flags; "
                        "flags on the command line win")
    p.add_argument("--problem", choices=PROBLEMS, default="ac2d")
    p.add_argument("--nx", type=int, default=64, help="grid points per direction (FD problems)")
    p.add_argument("--graph-file", default="builtin:road2600",
                   help="edge list or MatrixMarket file, or builtin:<name>")
    p.add_argument("--graph-one-based", action="store_true")
    p.add_argument("--bc", choices=("dirichlet", "neumann", "periodic"))
    p.add_argument("--eps2", type=float, help="interface parameter squared (ac2d)")
    p.add_argument("--eps", type=float, help="interface parameter (ac-graph)")
    p.add_argument("--diffusion", type=float, default=5e3, help="graph diffusion constant D")
    for name in GM_PARAMETERS:
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=float,
                       help="Gierer-Meinhardt model parameter (gm2d)")
    p.add_argument("--integrator", default="sw2", help=f"one of: {', '.join(available())}")
    p.add_argument("--engine", choices=ENGINES)
    p.add_argument("--poles", help="pole file path or builtin:<name>")
    p.add_argument("--repeated-pole", type=float, help="single repeated real pole value")
    p.add_argument("--repeated-count", type=int, default=72,
                   help="length of the repeated pole set")
    p.add_argument("--solver", choices=("direct", "iterative"))
    p.add_argument("--solver-tol", type=float)
    p.add_argument("--solver-maxiter", type=int)
    p.add_argument("--preconditioner", choices=PRECONDITIONERS)
    p.add_argument("--h", type=float, default=0.5, help="time step size")
    p.add_argument("--T", type=float, default=1.0, help="final time")
    p.add_argument("--tol", type=float, help=f"expmv tolerance (default {DEFAULT_TOL:g})")
    p.add_argument("--m-min", type=int,
                   help=f"subspace size of the first estimate check (default {DEFAULT_M_MIN})")
    p.add_argument("--m-hard", type=int, help="largest subspace of one decomposition (default "
                   f"{DEFAULT_STEPS_PAST_POLES} steps past the finite poles)")
    p.add_argument("--check-cadence", type=int,
                   help="polynomial steps between estimate checks, which also follow "
                   f"every pole step (default {DEFAULT_CHECK_CADENCE})")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--snapshots", type=int, default=0,
                   help="snapshot stride (0: first and last state only)")


def _kwargs(args: argparse.Namespace, *names: str, **renamed: str) -> dict:
    """Keyword arguments from the flags that are set: each of ``names``
    under its own name, and ``renamed`` as ``parameter=flag``."""
    pairs = [(name, name) for name in names] + list(renamed.items())
    return {param: getattr(args, flag) for param, flag in pairs
            if getattr(args, flag) is not None}


def build_problem(args: argparse.Namespace) -> Problem:
    if args.problem == "ac2d":
        return allen_cahn_2d(args.nx, **_kwargs(args, "eps2", "bc"))
    if args.problem == "gm2d":
        return gierer_meinhardt_2d(args.nx, **_kwargs(args, "bc", "seed", *GM_PARAMETERS))
    g = largest_connected_component(load_graph_spec(args.graph_file, args.graph_one_based))
    return allen_cahn_graph(g, diffusion=args.diffusion, **_kwargs(args, "eps", "seed"))


def load_graph_spec(spec, one_based: bool = False) -> Graph:
    """``builtin:<name>``, a MatrixMarket adjacency (.mtx/.mm) or an edge list."""
    spec = str(spec)
    if spec.startswith("builtin:"):
        return builtin_graph(spec.split(":", 1)[1])
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"graph file not found: {path}")
    if path.suffix in (".mtx", ".mm"):
        return load_matrix_market_adjacency(path)
    return load_edge_list(path, one_based=one_based)


def build_pole_set(args: argparse.Namespace) -> Optional[PoleSet]:
    """The pole set the flags name; ``None`` leaves the choice to
    :class:`EngineConfig`."""
    if args.repeated_pole is not None:
        return repeated_real(args.repeated_pole, args.repeated_count)
    return load_pole_spec(args.poles) if args.poles is not None else None


def load_pole_spec(spec) -> PoleSet:
    """``builtin:<name>`` or a pole file."""
    spec = str(spec)
    if spec.startswith("builtin:"):
        return builtin_pole_set(spec.split(":", 1)[1])
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"pole file not found: {path}")
    return load_poles(path)


#: Flags that only the rational engine reads.
RATIONAL_ONLY_FLAGS = ("poles", "repeated_pole", "solver", "solver_tol", "solver_maxiter",
                       "preconditioner")


def build_engine_config(args: argparse.Namespace) -> EngineConfig:
    if args.engine == "polynomial":
        given = ["--" + flag.replace("_", "-") for flag in RATIONAL_ONLY_FLAGS
                 if getattr(args, flag) is not None]
        if given:
            raise ConfigError(f"the polynomial engine takes no {', '.join(given)}")
    solver_cfg = SolverConfig(**_kwargs(args, "preconditioner", mode="solver",
                                        tolerance="solver_tol",
                                        max_iterations="solver_maxiter"))
    return EngineConfig(solver=solver_cfg, poles=build_pole_set(args), **_kwargs(
        args, "engine", "tol", "m_min", "m_hard", "check_cadence"))


def _setup(args: argparse.Namespace) -> tuple[Problem, Tableau, Engine]:
    """The problem, method and engine of one cell."""
    check_time_grid(args.h, args.T, args.snapshots)
    problem = build_problem(args)
    return problem, tableau(args.integrator), Engine(problem, build_engine_config(args))


# ---------------------------------------------------------------------------
# Outputs.
# ---------------------------------------------------------------------------

def state_checksum(u: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(u).tobytes()).hexdigest()[:16]


def write_trajectory_csv(path: Path, traj: Trajectory, max_columns: int = 10000):
    """Snapshot rows: ``t`` then the full state; above ``max_columns``
    entries the state is stride-sampled and 2-norm/min/max columns are
    prepended so the full-resolution signal is not silently lost."""
    n = traj.snapshots[0].shape[0]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if n <= max_columns:
            writer.writerow(["t"] + [f"u{i}" for i in range(n)])
            for t, u in zip(traj.snapshot_times, traj.snapshots):
                writer.writerow([f"{t!r}"] + [f"{float(v)!r}" for v in u])
        else:
            stride = int(np.ceil(n / max_columns))
            idx = np.arange(0, n, stride)
            writer.writerow(["t", "norm2", "min", "max"] + [f"u{i}" for i in idx])
            for t, u in zip(traj.snapshot_times, traj.snapshots):
                writer.writerow([f"{t!r}", f"{float(np.linalg.norm(u))!r}",
                                 f"{float(u.min())!r}", f"{float(u.max())!r}"]
                                + [f"{float(v)!r}" for v in u[idx]])


#: The statistics of one run, in the order the run report and ``bench`` write them.
RUN_RECORD = ("steps", "expmv_calls", "arnoldi_steps", "avg_krylov_iterations", "substeps",
              "max_estimate", "shifted_solves", "solver_iterations", "max_solver_residual",
              "numeric_factorizations", "lu_nnz", "lu_built_ahead", "lu_unused", "cache_hits",
              "cache_drops", "blas_threads", "wall_time_s", "final_checksum")


def run_record(traj: Trajectory, engine: Engine) -> dict[str, str]:
    """What a run did, named by :data:`RUN_RECORD` and formatted as the run
    report and ``bench`` write it. ``wall_time_s`` is :func:`integrate`'s own."""
    steps, cache = traj.steps, engine.solver.cache
    threads = "unchanged (no OpenBLAS found)" if traj.blas_threads is None \
        else traj.blas_threads
    values = (len(steps), sum(s.expmv_calls for s in steps),
              sum(s.arnoldi_steps for s in steps), f"{traj.average_krylov_iterations():.4f}",
              sum(s.substeps for s in steps),
              f"{max((s.max_estimate for s in steps), default=0.0):.6e}",
              sum(s.shifted_solves for s in steps), sum(s.solver_iterations for s in steps),
              f"{traj.max_residual():.6e}", cache.numeric_factorizations, cache.lu_nnz,
              cache.built_ahead, cache.unused, cache.hits, cache.drops, threads,
              f"{traj.wall_time:.4f}", state_checksum(traj.final_state))
    return {name: str(value) for name, value in zip(RUN_RECORD, values)}


def write_run_report(path: Path, args: argparse.Namespace, record: dict[str, str],
                     engine: Engine):
    """Every setting the run read that has a value, defaults included, with
    the engine, pole set and solver mode the engine resolved; then the run's
    ``record`` (:func:`run_record`). Another problem's settings are left
    out, and so is ``repeated_count`` without ``repeated_pole``."""
    config = engine.config
    unread = {"command", "func"}.union(*PROBLEM_SETTINGS.values())
    unread -= set(PROBLEM_SETTINGS[args.problem])
    if args.repeated_pole is None:
        unread.add("repeated_count")
    settings = {key: value for key, value in vars(args).items()
                if value is not None and key not in unread}
    settings["engine"] = config.engine
    settings["poles"] = "none" if config.poles is None else config.poles.name
    settings["solver"] = config.solver.mode if config.engine == "rational" else "none"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# run report\n")
        for key in sorted(settings):
            fh.write(f"{key} = {settings[key]}\n")
        for key, value in record.items():
            fh.write(f"{key} = {value}\n")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

#: What :func:`main` reports as exit 2; an ``ArithmeticError``, the root of
#: every numerical failure, is exit 3, and ``bench`` records either as a
#: cell's error. ``ConfigError`` and ``PoleFileError`` subclass ``ValueError``;
#: an unknown integrator, pole set or graph name raises ``ValueError`` itself.
CONFIG_ERRORS = (OSError, ValueError)


def cmd_run(args) -> int:
    problem, tab, engine = _setup(args)  # before mkdir: a bad setting writes nothing
    args.out.mkdir(parents=True, exist_ok=True)
    traj = integrate(problem, tab, args.h, args.T, engine, snapshot_stride=args.snapshots)
    record = run_record(traj, engine)
    traj_path = args.out / f"{problem.name}-{tab.name}-trajectory.csv"
    report_path = args.out / f"{problem.name}-{tab.name}-report.txt"
    write_trajectory_csv(traj_path, traj)
    write_run_report(report_path, args, record, engine)
    print(f"wrote {traj_path}")
    print(f"wrote {report_path}")
    print(f"final_checksum = {record['final_checksum']}")
    return EXIT_OK


#: One row per cell: the cell, the statistics ``run`` reports, the cell's error.
BENCH_HEADER = ["problem", "nx", "n", "engine", "integrator", "h", *RUN_RECORD, "error"]


def cmd_bench(args) -> int:
    out_path = args.out / "bench.csv"
    tableau(args.integrator)  # a bad name fails the sweep, not each cell
    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    # a graph has no grid size: one cell per engine, with nx left empty
    sizes = args.sizes if "nx" in PROBLEM_SETTINGS[args.problem] else [None]
    for nx in sizes:
        for engine_name in args.engines:
            cell = argparse.Namespace(**{**vars(args), "nx": nx, "engine": engine_name})
            if engine_name == "polynomial":
                for flag in RATIONAL_ONLY_FLAGS:
                    setattr(cell, flag, None)
            n = ""
            try:
                problem, tab, engine = _setup(cell)
                n = problem.n
                traj = integrate(problem, tab, cell.h, cell.T, engine)
                rows.append([cell.problem, nx, n, engine_name, tab.name, cell.h,
                             *run_record(traj, engine).values(), ""])
            except (ArithmeticError, *CONFIG_ERRORS) as exc:  # recorded; the sweep goes on
                rows.append([cell.problem, nx, n, engine_name, cell.integrator, cell.h,
                             *[""] * len(RUN_RECORD), str(exc)])
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_HEADER)
        writer.writerows(rows)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    results = verify_mod.run_all(verbose_print=print)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed "
          f"in {time.perf_counter() - t0:.1f}s")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def cmd_poles_validate(args) -> int:
    ps = load_pole_spec(args.poles)
    print(f"poles: {len(ps)} (conjugate_closed={ps.conjugate_closed})")
    for i, xi in enumerate(ps):
        print(f"  {i:3d}: {xi.real:+.6e} {xi.imag:+.6e}i")
    warnings = validate(ps, lam_max=args.lam_max, scale=args.scale)
    for w in warnings:
        print("warning:", w)
    print(f"{len(warnings)} warnings against spectrum bound {args.lam_max:g} "
          f"(scale {args.scale:g})")
    return EXIT_OK


def cmd_graph_info(args) -> int:
    g = load_graph_spec(args.graph_file, args.graph_one_based)
    lcc = largest_connected_component(g)
    degrees = np.asarray(g.adjacency.sum(axis=1)).ravel()
    print(f"nodes = {g.n}")
    print(f"edges = {g.num_edges}")
    print(f"largest_component = {lcc.n}")
    print(f"max_weighted_degree = {degrees.max():.6g}")
    print(f"mean_weighted_degree = {degrees.mean():.6g}")
    print(f"coordinates = {'yes' if g.coords is not None else 'no'}")
    return EXIT_OK


def _names(text: str) -> list[str]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return names


def _engines(text: str) -> list[str]:
    names = _names(text)
    for name in names:
        if name not in ENGINES:
            raise argparse.ArgumentTypeError(
                f"unknown engine {name!r}; expected one of {', '.join(ENGINES)}")
    return names


def _sizes(text: str) -> list[int]:
    return [int(s) for s in _names(text)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ratexpint",
        description="Exponential Runge-Kutta integration of stiff semi-linear ODEs "
                    "with adaptive rational Krylov exponential actions.")
    sub = parser.add_subparsers(dest="command", required=True)

    # No abbreviations: a config key must name its flag in full.
    p_run = sub.add_parser("run", help="run one simulation", allow_abbrev=False)
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="benchmark sweep over sizes x engines",
                             allow_abbrev=False)
    _add_run_flags(p_bench)
    p_bench.add_argument("--sizes", type=_sizes, default="64,128",
                         help="comma-separated nx list; a graph problem runs once")
    p_bench.add_argument("--engines", type=_engines, default=",".join(ENGINES),
                         help="comma-separated engine list")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="run the built-in oracle suite")
    p_verify.set_defaults(func=cmd_verify)

    p_poles = sub.add_parser("poles", help="pole set utilities")
    poles_sub = p_poles.add_subparsers(dest="poles_command", required=True)
    p_pv = poles_sub.add_parser("validate", help="load a pole file and check it "
                                                 "against a spectrum bound")
    p_pv.add_argument("poles", help="pole file path or builtin:<name>")
    p_pv.add_argument("--lam-max", type=float, default=1e6)
    p_pv.add_argument("--scale", type=float, default=1.0)
    p_pv.set_defaults(func=cmd_poles_validate)

    p_graph = sub.add_parser("graph", help="graph utilities")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_gi = graph_sub.add_parser("info", help="summarize a graph file")
    p_gi.add_argument("graph_file")
    p_gi.add_argument("--graph-one-based", action="store_true")
    p_gi.set_defaults(func=cmd_graph_info)

    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # File flags go right after the subcommand, so command-line flags win.
            i = argv.index(args.command) + 1
            args = parser.parse_args(argv[:i] + config_flags(args.config) + argv[i:])
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
