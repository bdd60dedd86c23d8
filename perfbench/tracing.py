"""Outside-in tracing of one ``integrate`` call.

``Tracer`` wraps the public entry points of each module where the caller
looks them up (a module global, or a class attribute shared by every
instance), records one span per call, and puts every original back on exit.
Spans carry name, start, end, parent index and one number of call-specific
detail; they stay in memory until the caller writes them out.

A span's self time is its duration minus the durations of its direct
children. Calls are sequential, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

from ratexpint import amg, integrators, krylov, linalg, solvers


def _orth_bytes(args, kwargs, result):
    """Computed, not measured: each Gram-Schmidt pass streams the basis twice
    (projection, then update), and there are 1 + reorth passes."""
    basis = args[0]
    reorth = kwargs.get("reorth", args[2] if len(args) > 2 else 1)
    return basis.nbytes * 2 * (1 + max(0, reorth))


def _expm_dim(args, kwargs, result):
    return args[0].shape[0]


def _entry_identity(args, kwargs, result):
    """Identity of a returned cache entry: new for a build, repeated for a hit."""
    return id(result)


#: (owner, attribute, span name, detail). Owners are the modules or classes
#: through which the package itself looks each entry point up. The private
#: ``_approximant_and_estimate`` is the only way to time the projected
#: exponential and error estimate, a phase of its own.
ENTRY_POINTS = [
    (integrators.Engine, "expmv", "krylov.expmv", None),
    (integrators, "stage_to_expmv", "integrators.stage", None),
    (krylov, "rational_arnoldi_step", "krylov.arnoldi_step", None),
    (krylov, "_approximant_and_estimate", "krylov.project", None),
    (krylov, "orthogonal_extend", "linalg.orth", _orth_bytes),
    (krylov, "dense_expm", "linalg.expm", _expm_dim),
    (krylov.AugmentedOperator, "apply", "krylov.apply", None),
    (linalg.SparseOperator, "matvec", "linalg.matvec", None),
    (solvers.ShiftedSolver, "solve_shifted", "solvers.solve_shifted", None),
    (solvers, "solve_iterative", "solvers.solve_iterative", None),
    (solvers.SolverCache, "factorization", "solvers.factorization", _entry_identity),
    (solvers.SolverCache, "preconditioner", "solvers.preconditioner", _entry_identity),
    (solvers, "build_aggregates", "amg.aggregate", None),
    (amg, "build_aggregates", "amg.aggregate", None),
    (amg.AmgPreconditioner, "__init__", "amg.build", None),
    (amg.AmgPreconditioner, "matvec", "amg.vcycle", None),
]


class Tracer:
    """Install with ``with Tracer() as tr:``; wrap the problem with
    :meth:`problem`; time the root call with :meth:`root`."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, detail]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, name, detail in ENTRY_POINTS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, detail))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def problem(self, problem):
        """A copy of ``problem`` whose reaction ``g`` is traced."""
        return dataclasses.replace(problem, g=self._wrap(problem.g, "problems.reaction", None))

    def _wrap(self, fn, name, detail):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if detail is not None:
                record[4] = detail(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span ``integrate``."""
        return self._wrap(fn, "integrate", None)(*args, **kwargs)

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: count, total and self seconds, and the details."""
        out = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "detail": []})
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, detail) in enumerate(self.spans):
            entry = out[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            if detail is not None:
                entry["detail"].append(detail)
        return dict(out)

    def coverage(self) -> float:
        """Share of the root span covered by its direct children."""
        roots = [i for i, s in enumerate(self.spans) if s[0] == "integrate"]
        if not roots:
            return 0.0
        r = roots[-1]
        wall = self.spans[r][2] - self.spans[r][1]
        covered = sum(s[2] - s[1] for s in self.spans if s[3] == r)
        return covered / wall if wall > 0 else 0.0

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "detail": d}
                for n, s, e, p, d in self.spans]
