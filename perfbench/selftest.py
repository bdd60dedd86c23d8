"""Self-test of the benchmark harness on tiny cells (ac2d nx=32, each engine).

Checks that one real worker process reports its set-up time and sample; that
a run emits every named metric with its unit; that a traced run followed by
an untraced one in the same process leaves no wrapper installed and gives the
same final checksum; and that a wrong reference, or a call that raises a
numerical error, is counted as a failed run.

Usage (from the root of a checkout): python3 perfbench/selftest.py
Exits with 0 when every check passes, 1 otherwise.
"""

import contextlib
import io
import json
import math
import sys

import run

run.configure()

from ratexpint import EngineConfig  # noqa: E402
from tracing import ENTRY_POINTS  # noqa: E402
from workloads import REFERENCE_TOL, ac2d, amg, direct, polynomial  # noqa: E402

TINY_NX = 32
CELLS = {
    "rational-direct": ac2d(direct, polynomial, nx=TINY_NX),
    "rational-amg": ac2d(amg, polynomial, nx=TINY_NX),
    "polynomial": ac2d(polynomial, direct, nx=TINY_NX),
}

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def line_of(name: str, trace: bool, result: dict) -> dict:
    """The benchmark's result line for ``result`` (its summary print muted)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return run.report(f"selftest-{name}", 0, 0.0, trace, result, {})


def emits_every_metric(line: dict, units: dict) -> bool:
    metrics = line["metrics"]
    return set(metrics) == set(units) and all(
        m["unit"] == units[k] and math.isfinite(m["value"]) for k, m in metrics.items())


def in_process_worker(cell, traced: bool, setup_s: float) -> dict:
    """What ``run.spawn_worker`` returns, from a call in this process."""
    return {"setup_s": setup_s, "assemble_s": 0.0,
            "sample": run.run_integrate(cell, cell.engine(), traced)}


def main() -> int:
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in ENTRY_POINTS]
    spawned = run.spawn_worker("ac2d-poly", 0, traced=False)
    setup_s = spawned["setup_s"]
    check(setup_s is not None and spawned["sample"]["error"] is None
          and spawned["sample"]["state"] is not None,
          "a worker process reports its set-up time, a sample and a final state")

    for name, build in CELLS.items():
        cell = build(0)
        tol = cell.config.tol
        u_ref = run.reference_state(cell)
        traced = in_process_worker(cell, True, setup_s)
        plain = in_process_worker(cell, False, setup_s)

        line = line_of(name, True, run.summarize([traced, plain], tol, u_ref, True))
        check(line["correct"] and emits_every_metric(line, run.LAYER_METRICS),
              f"{name}: traced run is correct and emits all {len(run.LAYER_METRICS)} "
              "layer metrics with their units")
        line = line_of(name, False, run.summarize([plain], tol, u_ref, False))
        check(line["correct"] and emits_every_metric(line, run.END_TO_END),
              f"{name}: untraced run is correct and emits {sorted(run.END_TO_END)}")
        check(all(vars(owner)[attr] is fn for owner, attr, fn in originals),
              f"{name}: no wrapper left installed after the traced run")
        sums = {run.checksum(w["sample"]["state"]) for w in (traced, plain)}
        check(len(sums) == 1, f"{name}: traced and untraced calls give one final checksum")

        wrong = run.summarize([plain], tol, u_ref + 1e-3, False)
        check(wrong["failed"] == wrong["attempted"] >= 1
              and not line_of(name, False, wrong)["correct"],
              f"{name}: a wrong reference counts the call as failed")

    cell = CELLS["rational-direct"](0)
    cell.config = EngineConfig(engine="rational", tol=REFERENCE_TOL, poles=cell.config.poles,
                               solver=cell.config.solver, m_hard=2)
    raising = run.summarize([in_process_worker(cell, False, setup_s)], cell.config.tol,
                            run.reference_state(cell), False)
    check(raising["failed"] == raising["attempted"] == 1
          and raising["failures"][0]["reasons"][0].startswith("ToleranceNotReached"),
          "a call that raises a numerical error counts as failed")

    print(json.dumps({"selftest_failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
