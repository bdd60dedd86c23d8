"""Benchmark of ``ratexpint.integrate`` on four solver regimes.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ac2d-direct --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/selftest.py

A run starts fresh worker processes (``worker.py``) one after another until
``--seconds`` have passed. Each worker pays a user's set-up (imports, problem
assembly, pole loading, ``Engine`` construction) and then runs ``integrate``.
Fresh processes, because on a shared host one process often runs uniformly
faster or slower than the next, because the resident set grows over calls in
one process, and because a user's run pays the first call.

``--trace 0`` reports the end-to-end metrics with tracing off: ``wall_s``,
the wall time of the ``integrate`` call; ``setup_s``, the time from starting
a worker to its first ``integrate`` call; and ``peak_rss_mb``, the worker's
peak resident memory. Each is the median over the run's workers.
``--trace 1`` alternates traced and untraced workers and reports the
per-layer metrics of ``LAYER_METRICS``: the median over the traced workers,
and ``trace.overhead_s``, the traced minus the untraced median wall time.

Every ``integrate`` call is gated: each step's error estimate must meet the
engine tolerance, each shifted solve's relative residual must be at most
``MAX_RESIDUAL``, and the final state must lie within ``MAX_DEVIATION`` of an
untimed reference computed with a different engine. A call that misses the
gate, raises a numerical error or loses its worker counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record, with
the environment and every sample, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Largest relative residual of any shifted solve (acceptance criterion 7).
MAX_RESIDUAL = 1e-6
#: Largest max-norm deviation of the final state from the reference,
#: relative to max(1, |u_ref|_inf) (the agreement limit of criterion 7).
MAX_DEVIATION = 1e-6

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Per-layer metrics of the traced workers. ``*_s`` are self times (span time
#: minus child spans), except ``krylov.expmv_s``, which is the whole time
#: spent inside ``Engine.expmv``.
LAYER_METRICS = {
    "solvers.setup_s": "s",           # LU factorizations and preconditioner set-up
    "solvers.factorizations": "count",
    "solvers.precond_builds": "count",
    "solvers.lookups": "count",       # base of hit_ratio
    "solvers.cache_hits": "count",
    "solvers.hit_ratio": "ratio",
    "solvers.solve_s": "s",           # shifted solves, set-up and V-cycles excluded
    "solvers.solves": "count",
    "solvers.iterations": "count",
    "solvers.iters_per_solve": "count",
    "solvers.residual_max": "rel",
    "solvers.retained_mb": "MiB",     # solution vectors held in ShiftedSolver.solve_log
    "amg.setup_s": "s",
    "amg.builds": "count",
    "amg.aggregate_s": "s",
    "amg.vcycles": "count",
    "amg.vcycle_s": "s",
    "linalg.orth_s": "s",
    "linalg.orth_calls": "count",
    "linalg.orth_bytes": "B",         # computed from basis shape x passes x itemsize
    "linalg.expm_s": "s",
    "linalg.expm_calls": "count",
    "linalg.expm_dim_avg": "count",
    "linalg.matvec_s": "s",
    "linalg.matvec_calls": "count",
    "krylov.expmv_s": "s",
    "krylov.project_s": "s",          # projected matrix, approximant and estimate
    "krylov.arnoldi_steps": "count",
    "krylov.m_avg": "count",
    "krylov.apply_s": "s",
    "krylov.substeps": "count",
    "krylov.estimate_max": "rel",
    "integrators.steps": "count",
    "integrators.expmv_calls": "count",
    "integrators.stage_s": "s",
    "integrators.final_dev": "rel",
    "problems.assemble_s": "s",
    "problems.reaction_s": "s",
    "problems.reaction_calls": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def configure() -> None:
    """Cap BLAS/OpenMP threads and import the package from this checkout.

    Must run before numpy is imported. Raises ``SystemExit`` when the
    checkout holds no package source.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    if not (SRC / "ratexpint" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC}; run from the root of a full checkout")
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import ratexpint
    if Path(ratexpint.__file__).resolve().parent != (SRC / "ratexpint").resolve():
        raise SystemExit(f"imported ratexpint from {ratexpint.__file__}, not from {SRC}")


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc(), "thread_cap": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "platform": platform.platform(), "commit": git_commit()}


# ---------------------------------------------------------------------------
# Correctness gate.
# ---------------------------------------------------------------------------

def numerical_errors() -> tuple:
    import numpy as np
    from ratexpint.integrators import NumericalBlowup
    from ratexpint.krylov import KrylovError
    from ratexpint.solvers import SolverError
    return (NumericalBlowup, KrylovError, SolverError, ArithmeticError, np.linalg.LinAlgError)


def deviation(u, u_ref) -> float:
    import numpy as np
    return float(np.max(np.abs(u - u_ref)) / max(1.0, float(np.max(np.abs(u_ref)))))


def gate(steps: list, final_state, tol: float, u_ref) -> list[str]:
    """Reasons an ``integrate`` call fails the gate; empty when it passes.

    ``steps`` holds (t, max_estimate, max_residual) per step."""
    reasons = []
    for t, estimate, residual in steps:
        if not estimate <= tol:
            reasons.append(f"step t={t:.6g}: estimate {estimate:.3e} > tol {tol:.1e}")
        if not residual <= MAX_RESIDUAL:
            reasons.append(f"step t={t:.6g}: solve residual {residual:.3e} > {MAX_RESIDUAL:.0e}")
    dev = deviation(final_state, u_ref)
    if not dev <= MAX_DEVIATION:
        reasons.append(f"final state deviates {dev:.3e} from the reference (> {MAX_DEVIATION:.0e})")
    return reasons


def reference_state(cell):
    """Final state of the untimed reference, or None if it fails."""
    from ratexpint import integrate
    try:
        return integrate(cell.problem, cell.tableau, cell.h, cell.T, cell.reference_engine(),
                         u0=cell.u0).final_state
    except numerical_errors() as exc:
        print(f"reference failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# Inside one worker process.
# ---------------------------------------------------------------------------

def run_integrate(cell, engine, traced: bool) -> dict:
    """One ``integrate`` call: its wall time, per-step gate inputs and final
    state or its error, the process's peak RSS right after it and, when
    traced, its layer metrics and spans."""
    from ratexpint import integrate
    from tracing import Tracer

    sample = {"traced": traced, "error": None, "steps": [], "state": None,
              "layers": None, "spans": None}
    t0 = time.perf_counter()
    try:
        if traced:
            with Tracer() as tracer:
                traj = tracer.root(integrate, tracer.problem(cell.problem), cell.tableau,
                                   cell.h, cell.T, engine, u0=cell.u0)
        else:
            traj = integrate(cell.problem, cell.tableau, cell.h, cell.T, engine, u0=cell.u0)
    except numerical_errors() as exc:
        sample["error"] = f"{type(exc).__name__}: {exc}"
    sample["wall_s"] = time.perf_counter() - t0
    sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if sample["error"] is None:
        sample["steps"] = [(s.t, s.max_estimate, s.max_residual) for s in traj.steps]
        sample["state"] = traj.final_state
        if traced:
            sample["layers"] = layer_metrics(tracer, engine, traj)
            sample["spans"] = tracer.dump()
    return sample


def layer_metrics(tracer, engine, traj) -> dict:
    """Per-layer metrics of one traced ``integrate`` call (all but
    ``integrators.final_dev``, which needs the reference, and the two that
    compare calls or processes)."""
    spans = tracer.summary()

    def self_s(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def count(*names):
        return sum(spans[n]["count"] for n in names if n in spans)

    def detail(*names):
        return [d for n in names if n in spans for d in spans[n]["detail"]]

    lookups = count("solvers.factorization", "solvers.preconditioner")
    hits = lookups - len(set(detail("solvers.factorization"))) \
        - len(set(detail("solvers.preconditioner")))
    log = engine.solver.solve_log
    iterations = sum(info.iterations for info in log)
    dims = detail("linalg.expm")
    steps = traj.steps
    return {
        "solvers.setup_s": self_s("solvers.factorization", "solvers.preconditioner"),
        "solvers.factorizations": engine.solver.cache.numeric_factorizations,
        "solvers.precond_builds": len(set(detail("solvers.preconditioner"))),
        "solvers.lookups": lookups,
        "solvers.cache_hits": hits,
        "solvers.hit_ratio": hits / lookups if lookups else 0.0,
        "solvers.solve_s": self_s("solvers.solve_shifted", "solvers.solve_iterative"),
        "solvers.solves": count("solvers.solve_shifted"),
        "solvers.iterations": iterations,
        "solvers.iters_per_solve": iterations / len(log) if log else 0.0,
        "solvers.residual_max": max((info.residual for info in log), default=0.0),
        "solvers.retained_mb": sum(info.x.nbytes for info in log) / 2**20,
        "amg.setup_s": self_s("amg.build"),
        "amg.builds": count("amg.build"),
        "amg.aggregate_s": self_s("amg.aggregate"),
        "amg.vcycles": count("amg.vcycle"),
        "amg.vcycle_s": self_s("amg.vcycle"),
        "linalg.orth_s": self_s("linalg.orth"),
        "linalg.orth_calls": count("linalg.orth"),
        "linalg.orth_bytes": sum(detail("linalg.orth")),
        "linalg.expm_s": self_s("linalg.expm"),
        "linalg.expm_calls": count("linalg.expm"),
        "linalg.expm_dim_avg": sum(dims) / len(dims) if dims else 0.0,
        "linalg.matvec_s": self_s("linalg.matvec"),
        "linalg.matvec_calls": count("linalg.matvec"),
        "krylov.expmv_s": spans["krylov.expmv"]["total_s"],
        "krylov.project_s": self_s("krylov.project"),
        "krylov.arnoldi_steps": count("krylov.arnoldi_step"),
        "krylov.m_avg": traj.average_krylov_iterations(),
        "krylov.apply_s": self_s("krylov.apply"),
        "krylov.substeps": sum(s.substeps for s in steps),
        "krylov.estimate_max": max(s.max_estimate for s in steps),
        "integrators.steps": len(steps),
        "integrators.expmv_calls": count("krylov.expmv"),
        "integrators.stage_s": self_s("integrators.stage"),
        "problems.reaction_s": self_s("problems.reaction"),
        "problems.reaction_calls": count("problems.reaction"),
        "trace.coverage": tracer.coverage(),
    }


# ---------------------------------------------------------------------------
# The parent: workers, reference, gate, metrics.
# ---------------------------------------------------------------------------

def spawn_worker(name: str, seed: int, traced: bool) -> dict:
    """Run one worker; its sample, with ``setup_s`` timed from its start to
    ``ready``. A worker that dies yields a failed sample."""
    import numpy as np

    OUT.mkdir(exist_ok=True)
    state = OUT / f"{name}-seed{seed}-state.npy"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), name, str(seed),
                           str(int(traced)), str(state)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    if proc.returncode != 0 or first.strip() != "ready":
        return {"setup_s": None, "assemble_s": None, "sample": {
            "traced": traced, "wall_s": None, "state": None, "steps": [], "layers": None,
            "error": f"worker exited with code {proc.returncode}"}}
    worker = json.loads(rest.strip().splitlines()[-1])
    if worker["sample"]["error"] is None:
        worker["sample"]["state"] = np.load(state)
        state.unlink()
    worker["setup_s"] = setup_s
    return worker


def summarize(workers: list[dict], tol: float, u_ref, trace: bool) -> dict:
    """Gate every sample against ``u_ref`` (None: the reference failed) and
    reduce the workers to the metrics of ``END_TO_END`` or ``LAYER_METRICS``."""
    samples = [w["sample"] for w in workers]
    for s in samples:
        if s["error"] is not None:
            s["reasons"] = [s["error"]]
        elif u_ref is None:
            s["reasons"] = ["no reference"]
        else:
            s["reasons"] = gate(s["steps"], s["state"], tol, u_ref)
    passed = [s for s in samples if not s["reasons"]]
    untraced = [s for s in passed if not s["traced"]]
    traced = [s for s in passed if s["traced"]]
    result = {
        "attempted": len(samples), "failed": len(samples) - len(passed),
        "failures": [{"sample": i, "reasons": s["reasons"]}
                     for i, s in enumerate(samples) if s["reasons"]],
        "samples": [{k: s.get(k) for k in ("traced", "wall_s", "peak_rss_mb", "error")}
                    | {"checksum": checksum(s["state"]) if s["state"] is not None else None}
                    for s in samples],
        "setup_s": [w["setup_s"] for w in workers if w["setup_s"] is not None],
        "wall_s": [s["wall_s"] for s in untraced],
        "metrics": {},
    }
    metrics = result["metrics"]
    if not trace:
        if untraced:
            metrics["wall_s"] = statistics.median(result["wall_s"])
            metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in untraced)
        if result["setup_s"]:
            metrics["setup_s"] = statistics.median(result["setup_s"])
    elif traced and untraced:
        for s in traced:
            s["layers"]["integrators.final_dev"] = deviation(s["state"], u_ref)
        metrics.update({k: statistics.median(s["layers"][k] for s in traced)
                        for k in traced[0]["layers"]})
        metrics["trace.overhead_s"] = statistics.median(s["wall_s"] for s in traced) \
            - statistics.median(result["wall_s"])
        metrics["problems.assemble_s"] = statistics.median(
            w["assemble_s"] for w in workers if w["assemble_s"] is not None)
    return result


def checksum(u) -> str:
    import hashlib
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(u).tobytes()).hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Workers one after another until ``seconds`` have passed (at least one;
    with ``trace``, traced and untraced workers alternate, at least one of
    each), then the reference, which is never timed."""
    from workloads import WORKLOADS

    workers = []
    start = time.perf_counter()
    while len(workers) < 1 + trace or time.perf_counter() - start < seconds:
        workers.append(spawn_worker(name, seed, traced=trace and len(workers) % 2 == 0))
    cell = WORKLOADS[name](seed)
    return summarize(workers, cell.config.tol, reference_state(cell), trace)


def report(name: str, seed: int, seconds: float, trace: bool, result: dict, env: dict) -> dict:
    """Print the human summary and write the full record; return the result line."""
    units = LAYER_METRICS if trace else END_TO_END
    metrics = result["metrics"]
    correct = result["failed"] == 0 and set(metrics) == set(units)
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for f in result["failures"]:
        print(f"  failed sample {f['sample']}: {'; '.join(f['reasons'])}")
    counts = {"wall_s": len(result["wall_s"]), "setup_s": len(result["setup_s"]),
              "peak_rss_mb": len(result["wall_s"])}
    for key, unit in units.items():
        if key in metrics:
            n = f"  (median of {counts[key]})" if key in counts else ""
            print(f"  {key:26s} {metrics[key]:.6g} {unit}{n}")
        else:
            print(f"  {key:26s} missing")
    print("  env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": float(metrics[k]), "unit": u}
                        for k, u in units.items() if k in metrics}}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        line = json.loads(lines[-1])
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        for key, metric in line["metrics"].items():
            total["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    configure()
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    env = environment()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, args.seed, args.seconds, bool(args.trace),
                            result, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
