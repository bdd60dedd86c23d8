"""Shifted linear system solvers.

Every finite-pole rational Krylov step needs one solve with
(xi I + alpha A) for a complex pole xi and a positive operator scale alpha.
The integrators use one scale, alpha = h, for every stage of a step, so
poles repeat across Krylov iterations, stages and steps of equal size, and
a ``SolverCache`` bound to one operator keeps its direct factorizations
(and iterative preconditioners) per pole for the current scale:
``SolverCache(op).factorization(pole, scale).solve(b)``. A new scale drops
them all. A and alpha are
real, so (conj(xi) I + alpha A) = conj(xi I + alpha A): a pole with
Im xi < 0 is served by the factorization or preconditioner of conj(xi)
through conjugation, and a conjugate pair costs one setup. On real data
the Krylov engine makes one solve per pair on either path: a pair solve
is split into its real and imaginary parts, so on the iterative path it
stops at the tighter target of :func:`split_tolerance`. Every shifted
matrix has the sparsity pattern of A, which is symmetric for the
operators of this package, so its LU is ordered by minimum degree on the
pattern of A^T + A (SuperLU's partial pivoting keeps it accurate when A
is not symmetric), without relaxed supernodes and with a panel size of 1.
On a sparse graph Laplacian SuperLU's default relaxation pads the factors
with explicit zeros to about 2.8 times their fill, while on a 5-point grid
it saves only a few percent. The panel size leaves the fill unchanged, but
SuperLU's default panels only cost these thin supernodes time: a ``cf12``
LU at nx=128 took about 40 instead of 56 ms. One lock, held across
each lookup and build, makes a cache safe to share between threads; the
operator's AMG hierarchy (:class:`~ratexpint.amg.AmgHierarchy`, everything
but the shift) sits beside its table.

On the direct path the LUs are built two at a time. An LU depends only on
A, alpha and its pole, and SuperLU releases the GIL while it factors. The
Krylov loop hands each solve the pole of the next step it will take
(``ahead`` of :meth:`ShiftedSolver.solve_shifted`), so a lookup that
misses pole xi also builds the LU of that next step on one worker thread
while it factors xi on the caller's thread, and joins the worker before
it returns. A scale's LUs are thus built in pairs, (1, 2), (3, 4), ...,
and the results are bit-identical, because an LU does not depend on the
thread that builds it. The solver keeps no pole order of its own. The
iterative path builds nothing ahead: an AMG build holds the GIL for most
of its time.

Iterative solves take symmetric operators only, as every problem builder
makes; a nonsymmetric one belongs on the direct path. They run
preconditioned COCG (van der Vorst & Melissen, IEEE Trans. Magn. 26
(1990)) under aggregation AMG (or no preconditioner) for any pole:
(xi I + alpha A) and its V-cycle are complex symmetric, and one iteration
costs one operator apply and one V-cycle.
"""

from __future__ import annotations

import threading
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .amg import AmgHierarchy, AmgPreconditioner, build_aggregates, shifted_pencil
from .linalg import SparseOperator

PRECONDITIONERS = ("none", "aggregation-amg")

#: Lowest relative residual target of a split solve. A near-real pair such
#: as 4 +- 1e-6j asks for tolerance * rho^2 ~ 6e-21, below what an iterated
#: residual can reach; at this floor its solve still converges, with a true
#: residual within 10x of it.
SPLIT_TOLERANCE_FLOOR = 1e-14


class SolverError(ArithmeticError):
    """A shifted system was not solved: a failed or inaccurate
    factorization, an unconverged iterative solve, or a pole the path
    cannot take. Like every numerical failure of this package it is an
    ``ArithmeticError``."""


class IterativeDivergence(SolverError):
    """Raised when callers insist on a converged solve that was not reached."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


@dataclass
class SolverConfig:
    mode: str = "direct"                 # "direct" | "iterative"
    # relative residual target of iterative solves, in (0, 1); an iterative
    # pair solve (split into Re and Im parts) targets
    # tolerance * rho^2 instead, rho = min(|Re xi|, |Im xi|) / |xi|
    # (see split_tolerance); a solve whose residual exceeds 10x its
    # target raises
    tolerance: float = 1e-7
    # cap on the COCG iterations of one solve (one V-cycle each)
    max_iterations: int = 400
    # "none" | "aggregation-amg"
    preconditioner: str = "aggregation-amg"

    def __post_init__(self):
        if self.mode not in ("direct", "iterative"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if not 0 < self.tolerance < 1:
            # a zero vector meets a relative residual of 1
            raise ValueError(f"solver tolerance must lie in (0, 1), got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(
                f"solver max_iterations must be at least 1, got {self.max_iterations}")
        if self.preconditioner not in PRECONDITIONERS:
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass
class SolveInfo:
    """One shifted solve: its solution ``x``, the iterations it took (0 on
    the direct path), its relative residual and whether it converged.

    What :func:`solve_iterative` returns, and the ``result`` of an
    :class:`IterativeDivergence`, hold the full solution. An entry of
    :attr:`ShiftedSolver.solve_log` holds an empty ``x`` of the solution's
    dtype instead, so the log costs no solution vector per solve.
    """

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool = True


def shifted_matrix(op: SparseOperator, pole: complex, scale: float) -> sp.csr_matrix:
    """(xi I + alpha A) as a sparse matrix: :func:`~ratexpint.amg.shifted_pencil`
    with M = I, so its dtype is complex iff the pole is."""
    return shifted_pencil(sp.identity(op.n, format="csr"), op.tocsr(), pole, scale)


class Factorization:
    """Sparse LU of one shifted system, reusable across right-hand sides.

    SuperLU orders it by minimum degree on the pattern of A^T + A, with
    relaxed supernodes off (``relax=1``) and a panel size of 1: the
    default panel size leaves the fill as it is (664,094 entries
    for a ``cf12`` pole at ac2d nx=128, 32,642 on ``road2600``) but took
    1.3 to 1.4 times as long on both.
    """

    __slots__ = ("_lu", "n", "dtype")

    def __init__(self, matrix: sp.csr_matrix, pole: complex):
        self.n = matrix.shape[0]
        self.dtype = matrix.dtype
        try:
            self._lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1,
                                 panel_size=1)
        except RuntimeError as exc:
            raise SolverError(
                f"factorization of (xi I + alpha A) failed for pole {pole}: {exc}; "
                "the pole may coincide with a negated eigenvalue") from exc

    @property
    def nnz(self) -> int:
        """Entries SuperLU stores for L and U. Relaxed supernodes are off,
        so no explicit zeros pad them and this is the fill, nnz of ``L``
        plus ``U``; those two are not read here, because reading them
        attaches a CSC copy of both factors to the LU for good."""
        return self._lu.nnz

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.shape[0] != self.n:
            raise ValueError("right-hand side dimension mismatch")
        if np.iscomplexobj(rhs) and not np.issubdtype(self.dtype, np.complexfloating):
            return self._lu.solve(np.ascontiguousarray(rhs.real)) \
                + 1j * self._lu.solve(np.ascontiguousarray(rhs.imag))
        return self._lu.solve(rhs.astype(self.dtype, copy=False))


def _build_into(out: list, op: SparseOperator, pole: complex, scale: float) -> None:
    """Append the LU of (xi I + alpha A) to ``out``: the body of the worker
    thread of :meth:`SolverCache.factorization`. A failed build appends
    nothing; the lookup of its pole builds it again and raises there."""
    with suppress(Exception):
        out.append(Factorization(shifted_matrix(op, pole, scale), pole))


class SolverCache:
    """Per-process cache of everything the shifted systems of one operator
    need.

    One table holds LU factorizations (keyed by ``(xi, alpha)``) and
    preconditioners (keyed by ``(xi, alpha, kind)``) of one scale alpha: a
    lookup at another scale first drops every entry, because the
    integrators change scale only with the step size. The operator's AMG
    hierarchy (aggregates, prolongators and the real Galerkin pairs) depends
    on A alone; it sits beside the table, is built on first use and
    survives the drops, so a preconditioner build only shifts its levels.
    One lock is held across each lookup and build, so concurrent requests
    for the same key perform the numeric work exactly once (and requests
    for other keys wait meanwhile).
    :meth:`ShiftedSolver.solve_shifted` asks only for poles with Im xi >= 0;
    the conjugate pole reuses that entry, so ``numeric_factorizations`` counts
    one per conjugate pair, and ``lu_nnz`` sums :attr:`Factorization.nnz`
    over the LUs built. ``hits`` counts reused table entries and ``drops``
    the tables dropped for a new scale.

    A lookup of :meth:`factorization` that misses and names an ``ahead``
    pole whose LU is absent builds that LU too, on one worker thread named
    ``ratexpint-lu-ahead``, while the caller's thread factors the missed
    pole. It joins the worker and stores both LUs before it returns or
    raises, so the table holds only finished entries and no thread
    outlives the lookup. A build ahead that fails is discarded: the lookup
    of its pole builds it again on the caller's thread and raises there.
    ``numeric_factorizations`` and ``lu_nnz`` count an LU built ahead when
    a lookup first returns it (not a hit), so they count the LUs that
    solves asked for. ``built_ahead`` counts the LUs that the worker built,
    and ``unused`` those of them that no lookup has returned, dropped ones
    included.
    """

    def __init__(self, op: SparseOperator):
        self.op = op
        self._lock = threading.Lock()
        self._entries: dict = {}
        self._unclaimed: set = set()  # keys of LUs built ahead, not yet returned
        self._scale: Optional[float] = None
        self._hierarchy: Optional[AmgHierarchy] = None
        self.numeric_factorizations = 0
        self.lu_nnz = 0
        self.built_ahead = 0
        self.unused = 0
        self.hits = 0
        self.drops = 0

    def _lookup(self, key, build):
        with self._lock:
            scale = key[1]
            if scale != self._scale:
                if self._entries:
                    self._entries.clear()
                    self._unclaimed.clear()
                    self.drops += 1
                self._scale = scale
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = build()
            elif key in self._unclaimed:
                self._unclaimed.remove(key)
                self.unused -= 1
                self._count(entry)
            else:
                self.hits += 1
            return entry

    def _count(self, fact: Factorization) -> None:
        self.numeric_factorizations += 1
        self.lu_nnz += fact.nnz

    def factorization(self, pole: complex, scale: float,
                      ahead: Optional[complex] = None) -> Factorization:
        """LU of (xi I + alpha A), ordered by minimum degree on the pattern
        of A^T + A. If the lookup misses, the LU of (``ahead`` I + alpha A)
        is built meanwhile on a worker thread (see :class:`SolverCache`)."""
        pole, scale = complex(pole), float(scale)
        key = (complex(ahead), scale) if ahead is not None and ahead != pole else None

        def build():
            built, worker = [], None
            if key is not None and key not in self._entries:
                worker = threading.Thread(target=_build_into, args=(built, self.op, *key),
                                          name="ratexpint-lu-ahead")
                worker.start()
            try:
                fact = Factorization(shifted_matrix(self.op, pole, scale), pole)
            finally:
                if worker is not None:
                    worker.join()
                if built:
                    self._entries[key] = built[0]
                    self._unclaimed.add(key)
                    self.built_ahead += 1
                    self.unused += 1
            self._count(fact)
            return fact

        return self._lookup((pole, scale), build)

    def preconditioner(self, pole: complex, scale: float, kind: str) -> tuple:
        """``(matrix, M)``: the assembled (xi I + alpha A) and its
        :class:`~ratexpint.amg.AmgPreconditioner`, whose ``matvec`` (one
        V-cycle) :func:`cocg` calls; ``M`` is ``None`` for ``kind`` "none".

        The AMG hierarchy is built once per operator and shared by all its
        shifted systems (see :class:`~ratexpint.amg.AmgHierarchy`).
        """
        pole, scale = complex(pole), float(scale)

        def build():
            if kind == "none":
                return shifted_matrix(self.op, pole, scale), None
            if self._hierarchy is None:
                a = self.op.tocsr()
                self._hierarchy = AmgHierarchy(a, build_aggregates(a))
            amg = AmgPreconditioner(self._hierarchy, pole, scale)
            return amg.matrix, amg

        return self._lookup((pole, scale, kind), build)


def check_iterative_pole(pole: complex, error: type = SolverError) -> None:
    """Raise ``error`` unless Re(xi) > 0: indefinite shifts belong on the direct path."""
    if complex(pole).real <= 0:
        raise error(
            f"iterative path requires Re(pole) > 0, got {pole}; use the direct solver")


def split_tolerance(pole: complex, tolerance: float) -> float:
    """Relative residual target of an iterative solve whose solution is
    split into its real and imaginary parts (a conjugate pair step).

    The target is tolerance * rho^2, rho = min(|Re xi|, |Im xi|) / |xi|,
    but at least ``SPLIT_TOLERANCE_FLOOR``: the nearer xi lies to either
    axis, the more the split amplifies the solve's error in one of the two
    parts. A real pole gives a real solution on real data, so its split
    amplifies nothing and its target is ``tolerance`` itself. The exponent
    is calibrated, not derived: on ac2d at nx=64 with ``cf16_shifted`` (rho
    from 0.061 to 0.63), rho^2 kept the pair path at least as accurate as
    one solve per pole at ``tolerance``, with and without AMG, where rho
    alone did not (Simoncini & Szyld, SISC 25
    (2003), set each inexact solve's tolerance by what the outer Krylov
    method needs from it).
    """
    pole = complex(pole)
    if pole.imag == 0:
        return tolerance
    rho = min(abs(pole.real), abs(pole.imag)) / abs(pole)
    return max(tolerance * rho ** 2, SPLIT_TOLERANCE_FLOOR)


def cocg(matrix, rhs: np.ndarray, tolerance: float, max_iterations: int,
         precond=None) -> tuple:
    """Preconditioned conjugate orthogonal CG for a complex symmetric
    ``matrix`` and preconditioner (van der Vorst & Melissen, IEEE Trans.
    Magn. 26 (1990)): CG with the unconjugated form r^T z, so on real
    data it is CG. Returns ``(x, iterations, converged)``; it stops when
    the updated residual is at most ``tolerance * |rhs|``, and a breakdown
    (p^T A p = 0 or r^T z = 0) returns ``converged=False``.
    """
    apply = (lambda v: v) if precond is None else precond.matvec
    threshold = tolerance * np.linalg.norm(rhs)
    x = np.zeros_like(rhs, dtype=np.result_type(matrix.dtype, rhs.dtype))
    r = rhs.astype(x.dtype)
    z = apply(r)
    rho = r @ z
    p = z.copy()
    work = np.empty_like(x)
    for iteration in range(1, max_iterations + 1):
        q = matrix @ p
        pq = p @ q
        if rho == 0 or pq == 0:
            return x, iteration - 1, False
        step = rho / pq
        x += np.multiply(step, p, out=work)
        r -= np.multiply(step, q, out=work)
        if np.linalg.norm(r) <= threshold:
            return x, iteration, True
        z = apply(r)
        rho, rho_old = r @ z, rho
        np.multiply(rho / rho_old, p, out=p)
        p += z
    return x, max_iterations, False


def solve_iterative(cache: SolverCache, pole: complex, scale: float, rhs: np.ndarray,
                    cfg: SolverConfig, tolerance: Optional[float] = None) -> SolveInfo:
    """Preconditioned Krylov solve of (xi I + alpha A) x = rhs, where A is
    ``cache.op``, to the relative residual ``tolerance`` (by default
    ``cfg.tolerance``); it counts as converged iff its true residual is at
    most ten times that target.

    It runs :func:`cocg`, for any pole: A is symmetric (see
    :class:`ShiftedSolver`), so the system and its AMG V-cycle are complex
    symmetric (real symmetric for a real pole). Requires Re(xi) > 0;
    indefinite shifts belong on the direct path. Non-convergence returns
    the last iterate with ``converged=False``.
    """
    pole = complex(pole)
    check_iterative_pole(pole)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return SolveInfo(np.zeros_like(rhs), 0, 0.0, True)
    matrix, precond = cache.preconditioner(pole, scale, cfg.preconditioner)
    tolerance = cfg.tolerance if tolerance is None else tolerance
    x, iterations, done = cocg(matrix, rhs, tolerance, cfg.max_iterations, precond)
    residual = float(np.linalg.norm(rhs - matrix @ x)) / bnorm
    converged = done and residual <= tolerance * 10
    return SolveInfo(x=x, iterations=iterations, residual=residual, converged=converged)


class ShiftedSolver:
    """Front end used by the Krylov engine: solves against one operator
    under varying poles and scales, tracking per-solve residuals. A shared
    ``cache`` must belong to the same operator. The iterative mode takes
    only a symmetric operator; the direct mode takes any.

    ``solve_log`` gets one :class:`SolveInfo` per successful solve, with
    its iterations, residual and convergence flag; its ``x`` is empty and
    keeps only the solution's dtype. So a long run holds no solution
    vectors, but the log itself still grows by one entry, about 290 bytes,
    per solve.
    """

    def __init__(self, op: SparseOperator, config: Optional[SolverConfig] = None,
                 cache: Optional[SolverCache] = None):
        if cache is not None and cache.op is not op:
            raise ValueError("the solver cache belongs to another operator")
        self.op = op
        self.config = config or SolverConfig()
        if self.config.mode == "iterative" and not op.symmetric:
            raise ValueError("the iterative solver takes only symmetric operators; "
                             "use the direct solver")
        self.cache = cache if cache is not None else SolverCache(op)
        self.solve_log: list[SolveInfo] = []

    def solve_shifted(self, pole: complex, scale: float, rhs: np.ndarray,
                      split: bool = False, ahead: Optional[complex] = None) -> np.ndarray:
        """Solve (xi I + alpha A) x = rhs, log the solve's diagnostics
        (not x, see :class:`ShiftedSolver`) and return x.

        A pole with Im xi < 0 is served by the factorization or
        preconditioner of conj(xi): x = conj(solve_conj(xi)(conj(rhs))), exact
        because A and alpha are real. Only the setup is shared. The residual
        is measured on the served system, before the one conjugation of x;
        conjugation is exact, so it is also the residual of the pole asked
        for, and a raised :class:`IterativeDivergence` holds the solution
        for that pole.

        ``split`` says that the caller splits x into Re x and Im x (one
        solve for a conjugate pair); an iterative solve then stops at
        :func:`split_tolerance` instead of the configured tolerance. A
        direct solve is the same either way.

        ``ahead`` is the pole that the caller will solve with next, if it
        knows. It is served by its upper pole as ``pole`` is, and a direct
        lookup that misses builds that LU meanwhile on a worker thread (see
        :class:`SolverCache`). An iterative solve ignores it.
        """
        flip = pole.imag < 0
        served = pole.conjugate() if flip else pole
        b = np.conj(rhs) if flip else rhs
        if self.config.mode == "direct":
            if ahead is not None and ahead.imag < 0:
                ahead = ahead.conjugate()
            x = self.cache.factorization(served, scale, ahead).solve(b)
            bnorm = float(np.linalg.norm(b))
            res = 0.0
            if bnorm > 0:
                # one SpMV on the CSR itself, so operator-application
                # counts see only Krylov steps
                ax = self.op.tocsr() @ x
                res = float(np.linalg.norm(b - (served * x + scale * ax))) / bnorm
            if not res <= 10 * self.config.tolerance:  # NaN fails too
                raise SolverError(
                    f"direct solve for pole {pole} is inaccurate: relative residual "
                    f"{res:.3e} exceeds {10 * self.config.tolerance:.1e}")
            info = SolveInfo(x=x, iterations=0, residual=res, converged=True)
        else:
            tolerance = split_tolerance(pole, self.config.tolerance) if split else None
            info = solve_iterative(self.cache, served, scale, b, self.config, tolerance)
        if flip:
            info.x = np.conj(info.x)
        if not info.converged:
            raise IterativeDivergence(
                f"iterative solve for pole {pole} stalled at residual {info.residual:.3e} "
                f"after {info.iterations} iterations", info)
        self.solve_log.append(replace(info, x=np.empty(0, info.x.dtype)))
        return info.x
