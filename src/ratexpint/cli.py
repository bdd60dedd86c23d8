"""Command-line front end.

Subcommands: ``run`` (one simulation, trajectory CSV + run report),
``bench`` (size x engine sweeps as CSV), ``verify`` (built-in oracle
suite), ``poles validate`` and ``graph info``. Exit codes: 0 success,
1 verification failure, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .integrators import (ENGINES, Engine, EngineConfig, NumericalBlowup, Trajectory,
                          integrate)
from .krylov import KrylovError, ToleranceNotReached
from .poles import PoleFileError, PoleSet, builtin_pole_set, load_poles, repeated_real, validate
from .problems import (Graph, Problem, allen_cahn_2d, allen_cahn_graph, builtin_graph,
                       gierer_meinhardt_2d, largest_connected_component,
                       load_edge_list, load_matrix_market_adjacency)
from .solvers import (PRECONDITIONERS, IterativeDivergence, SolverCache, SolverConfig,
                      SolverError)
from .tableaus import TableauError, available, tableau

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
    """``key = value`` lines, ``#`` comments; flags override file values.
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


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, help="config file; flags override its values")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--nx", type=int, help="grid points per direction (FD problems)")
    p.add_argument("--graph-file", help="edge list or MatrixMarket file, or builtin:<name>")
    p.add_argument("--graph-one-based", action="store_true", default=None)
    p.add_argument("--bc", choices=("dirichlet", "neumann", "periodic"))
    p.add_argument("--eps2", type=float, help="interface parameter squared (ac2d)")
    p.add_argument("--eps", type=float, help="interface parameter (ac-graph)")
    p.add_argument("--diffusion", type=float, help="graph diffusion constant D")
    p.add_argument("--integrator", help=f"one of: {', '.join(available())}")
    p.add_argument("--engine", choices=ENGINES)
    p.add_argument("--poles", help="pole file path or builtin:<name>")
    p.add_argument("--repeated-pole", type=float, help="single repeated real pole value")
    p.add_argument("--repeated-count", type=int, help="length of the repeated pole set")
    p.add_argument("--solver", choices=("direct", "iterative"))
    p.add_argument("--solver-tol", type=float)
    p.add_argument("--solver-maxiter", type=int)
    p.add_argument("--preconditioner", choices=PRECONDITIONERS)
    p.add_argument("--h", type=float, help="time step size")
    p.add_argument("--T", type=float, help="final time")
    p.add_argument("--tol", type=float, help="expmv tolerance")
    p.add_argument("--m-min", type=int)
    p.add_argument("--m-max", type=int)
    p.add_argument("--check-cadence", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path, help="output directory (default: .)")
    p.add_argument("--snapshots", type=int, help="snapshot stride (0, the default: ends only)")


def _merge_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        cfg.update(read_config_file(args.config))
    for key, value in vars(args).items():
        if key in ("config", "func") or value is None:
            continue
        cfg[key] = value
    return cfg


# Only values with no library default, or a different one; every other key
# is passed on only when set, so the library signatures supply the rest.
# Flags have no argparse defaults, so that a flag left out never overrides
# the config file.
_DEFAULTS = {"problem": "ac2d", "nx": 64, "diffusion": 5e3, "integrator": "sw2",
             "h": 0.5, "T": 1.0, "repeated_count": 72}


def _get(cfg: dict, key: str, cast=None):
    value = cfg.get(key, _DEFAULTS.get(key))
    if value is None or cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc


def _given(cfg: dict, casts: dict, rename: dict | None = None) -> dict:
    """Keyword arguments for the keys of ``casts`` that ``cfg`` sets, cast and
    renamed by ``rename``; unset keys are left out."""
    return {(rename or {}).get(key, key): _get(cfg, key, cast)
            for key, cast in casts.items() if key in cfg}


def build_problem(cfg: dict) -> Problem:
    kind = _get(cfg, "problem")
    if kind == "ac2d":
        return allen_cahn_2d(_get(cfg, "nx", int), **_given(cfg, {"eps2": float, "bc": str}))
    if kind == "gm2d":
        casts = {"bc": str, "seed": int,  # the model parameters are config-file keys
                 "D_a": float, "D_h": float, "p": float, "mu": float, "pprime": float,
                 "nu": float}
        return gierer_meinhardt_2d(_get(cfg, "nx", int), **_given(cfg, casts))
    if kind == "ac-graph":
        g = load_graph_spec(cfg.get("graph_file", "builtin:road2600"),
                            str(cfg.get("graph_one_based")).lower() in ("true", "1", "yes"))
        g = largest_connected_component(g)
        return allen_cahn_graph(g, diffusion=_get(cfg, "diffusion", float),
                                **_given(cfg, {"eps": float, "seed": int}))
    raise ConfigError(f"unknown problem {kind!r}; expected one of {PROBLEMS}")


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


def build_pole_set(cfg: dict, mode: str) -> PoleSet:
    if cfg.get("repeated_pole") is not None:
        return repeated_real(_get(cfg, "repeated_pole", float),
                             _get(cfg, "repeated_count", int))
    spec = cfg.get("poles")
    if spec is None:
        spec = "builtin:cf16_shifted" if mode == "iterative" else "builtin:cf12"
    return load_pole_spec(spec)


def load_pole_spec(spec) -> PoleSet:
    """``builtin:<name>`` or a pole file."""
    spec = str(spec)
    if spec.startswith("builtin:"):
        return builtin_pole_set(spec.split(":", 1)[1])
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"pole file not found: {path}")
    return load_poles(path)


def build_engine_config(cfg: dict) -> EngineConfig:
    solver_cfg = SolverConfig(**_given(
        cfg, {"solver": str, "solver_tol": float, "solver_maxiter": int, "preconditioner": str},
        rename={"solver": "mode", "solver_tol": "tolerance", "solver_maxiter": "max_iterations"}))
    engine_cfg = EngineConfig(solver=solver_cfg, **_given(
        cfg, {"engine": str, "tol": float, "m_min": int, "m_max": int, "check_cadence": int}))
    if engine_cfg.engine == "rational":
        engine_cfg.poles = build_pole_set(cfg, solver_cfg.mode)
    return engine_cfg


def _integrator(cfg: dict):
    name = _get(cfg, "integrator")
    try:
        return tableau(name)
    except TableauError as exc:
        raise ConfigError(str(exc)) from exc


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


def write_run_report(path: Path, cfg: dict, traj: Trajectory, checksum: str,
                     cache: SolverCache):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# run report\n")
        for key in sorted(cfg):
            fh.write(f"{key} = {cfg[key]}\n")
        fh.write(f"steps = {len(traj.steps)}\n")
        fh.write(f"expmv_calls = {traj.total_expmv_calls()}\n")
        fh.write(f"arnoldi_steps = {traj.total_arnoldi_steps()}\n")
        fh.write(f"avg_krylov_iterations = {traj.average_krylov_iterations():.4f}\n")
        fh.write(f"solver_iterations = {traj.total_solver_iterations()}\n")
        fh.write(f"max_solver_residual = {traj.max_residual():.6e}\n")
        fh.write(f"max_imag_discarded = {traj.max_imag_discarded():.6e}\n")
        fh.write(f"numeric_factorizations = {cache.numeric_factorizations}\n")
        fh.write(f"cache_hits = {cache.hits}\n")
        fh.write(f"wall_time_s = {traj.wall_time:.4f}\n")
        fh.write(f"final_checksum = {checksum}\n")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        cfg = _merge_config(args)
        problem = build_problem(cfg)
        tab = _integrator(cfg)
        engine_cfg = build_engine_config(cfg)
        h = _get(cfg, "h", float)
        T = _get(cfg, "T", float)
        if h is None or T is None or h <= 0 or T <= 0:
            raise ConfigError("h and T must be positive")
        snapshot_stride = _get(cfg, "snapshots", int) or 0
        out_dir = Path(cfg.get("out", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, PoleFileError, FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        engine = Engine(problem, engine_cfg)
        traj = integrate(problem, tab, h, T, engine, snapshot_stride=snapshot_stride)
    except (NumericalBlowup, ToleranceNotReached, KrylovError,
            IterativeDivergence, SolverError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    checksum = state_checksum(traj.final_state)
    traj_path = out_dir / f"{problem.name}-{tab.name}-trajectory.csv"
    report_path = out_dir / f"{problem.name}-{tab.name}-report.txt"
    write_trajectory_csv(traj_path, traj)
    write_run_report(report_path, cfg, traj, checksum, engine.solver.cache)
    print(f"wrote {traj_path}")
    print(f"wrote {report_path}")
    print(f"final_checksum = {checksum}")
    return EXIT_OK


BENCH_HEADER = ["problem", "nx", "n", "engine", "integrator", "h",
                "avg_krylov_iterations", "total_expmv_calls", "wall_time_s",
                "solver_iterations", "max_solver_residual", "final_checksum", "error"]


def cmd_bench(args) -> int:
    try:
        cfg = _merge_config(args)
        sizes = [int(s) for s in str(cfg.get("sizes", "64,128")).split(",") if s]
        engines = [e.strip() for e in str(cfg.get("engines", ",".join(ENGINES))).split(",") if e]
        tab = _integrator(cfg)
        out_path = Path(cfg.get("out", ".")) / "bench.csv"
        out_path.parent.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows = []
    for nx in sizes:
        cell_cfg = dict(cfg)
        cell_cfg["nx"] = nx
        try:
            problem = build_problem(cell_cfg)
        except (ConfigError, ValueError) as exc:
            for engine_name in engines:
                rows.append([_get(cfg, "problem"), nx, "", engine_name,
                             tab.name, _get(cfg, "h"), "", "", "", "", "", "", str(exc)])
            continue
        for engine_name in engines:
            cell = dict(cell_cfg)
            cell["engine"] = engine_name
            try:
                engine_cfg = build_engine_config(cell)
                engine = Engine(problem, engine_cfg)
                h = _get(cell, "h", float)
                T = _get(cell, "T", float)
                t0 = time.perf_counter()
                traj = integrate(problem, tab, h, T, engine)
                wall = time.perf_counter() - t0
                rows.append([
                    _get(cell, "problem"), nx, problem.n, engine_name, tab.name, h,
                    f"{traj.average_krylov_iterations():.4f}", traj.total_expmv_calls(),
                    f"{wall:.4f}", traj.total_solver_iterations(),
                    f"{traj.max_residual():.3e}", state_checksum(traj.final_state), ""])
            except Exception as exc:  # per-cell failures recorded, sweep continues
                rows.append([_get(cell, "problem"), nx, problem.n, engine_name,
                             tab.name, _get(cell, "h"), "", "", "", "", "", "", str(exc)])
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
    try:
        ps = load_pole_spec(args.poles)
    except (ConfigError, PoleFileError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"poles: {len(ps)} ({ps.kind}, convention {ps.convention}, "
          f"conjugate_closed={ps.conjugate_closed})")
    for i, xi in enumerate(ps):
        print(f"  {i:3d}: {xi.real:+.6e} {xi.imag:+.6e}i")
    warnings = validate(ps, lam_max=args.lam_max, scale=args.scale)
    for w in warnings:
        print("warning:", w)
    print(f"{len(warnings)} warnings against spectrum bound {args.lam_max:g} "
          f"(scale {args.scale:g})")
    return EXIT_OK


def cmd_graph_info(args) -> int:
    try:
        g = load_graph_spec(args.graph_file, args.graph_one_based)
    except (FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    lcc = largest_connected_component(g)
    degrees = np.asarray(g.adjacency().sum(axis=1)).ravel()
    print(f"nodes = {g.n}")
    print(f"edges = {g.num_edges}")
    print(f"largest_component = {lcc.n}")
    print(f"max_weighted_degree = {degrees.max():.6g}")
    print(f"mean_weighted_degree = {degrees.mean():.6g}")
    print(f"coordinates = {'yes' if g.coords is not None else 'no'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ratexpint",
        description="Exponential Runge-Kutta integration of stiff semi-linear ODEs "
                    "with adaptive rational Krylov exponential actions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="benchmark sweep over sizes x engines")
    _add_run_flags(p_bench)
    p_bench.add_argument("--sizes", help="comma-separated nx list", default=None)
    p_bench.add_argument("--engines", help="comma-separated engine list", default=None)
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
