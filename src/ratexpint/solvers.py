"""Shifted linear system solvers.

Every finite-pole rational Krylov step needs one solve with
(xi I + alpha A) for a complex pole xi and a positive operator scale alpha.
Poles and scales repeat across Krylov iterations and time steps, so direct
factorizations (and iterative preconditioners) are cached per
(pole, scale, operator) key. A and alpha are real, so
(conj(xi) I + alpha A) = conj(xi I + alpha A): a pole with Im xi < 0 is served
by the factorization or preconditioner of conj(xi) through conjugation, and a
conjugate pair costs one setup. Each pole of the pair still makes its own
solve. The block solve of the augmented operator back-substitutes its small
Jordan tail first.

Iterative solves use aggregation AMG (or no preconditioner) with CG iff the
pole is real and the operator symmetric, BiCGStab otherwise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .amg import AmgPreconditioner, build_aggregates
from .linalg import SparseOperator

PRECONDITIONERS = ("none", "aggregation-amg")


class SolverError(RuntimeError):
    pass


class IterativeDivergence(SolverError):
    """Raised when callers insist on a converged solve that was not reached."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class ShiftedSystemKey:
    """Identity of one shifted system (xi I + alpha A)."""

    pole: complex
    scale: float
    operator_id: str

    @classmethod
    def make(cls, op: SparseOperator, pole: complex, scale: float) -> "ShiftedSystemKey":
        return cls(pole=complex(pole), scale=float(scale), operator_id=op.fingerprint)


@dataclass
class SolverConfig:
    mode: str = "direct"                 # "direct" | "iterative"
    # relative residual target of iterative solves; a solve of either mode
    # whose residual exceeds 10x this raises
    tolerance: float = 1e-7
    max_iterations: int = 400
    # "none" | "aggregation-amg"; iterative solves use CG iff the pole is
    # real and the operator symmetric, BiCGStab otherwise
    preconditioner: str = "aggregation-amg"

    def __post_init__(self):
        if self.mode not in ("direct", "iterative"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.tolerance <= 0:
            raise ValueError("solver tolerance must be positive")
        if self.preconditioner not in PRECONDITIONERS:
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass
class SolveInfo:
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool = True


def shifted_matrix(op: SparseOperator, pole: complex, scale: float) -> sp.csr_matrix:
    """(xi I + alpha A) as a sparse matrix; complex dtype iff the pole is complex."""
    pole = complex(pole)
    dtype = np.complex128 if pole.imag != 0 else np.float64
    shift = pole if pole.imag != 0 else pole.real
    a = op.tocsr().astype(dtype) * scale
    return (a + sp.identity(op.n, format="csr", dtype=dtype) * shift).tocsr()


class Factorization:
    """Sparse LU of one shifted system, reusable across right-hand sides."""

    __slots__ = ("key", "_lu", "n", "dtype")

    def __init__(self, key: ShiftedSystemKey, matrix: sp.csr_matrix):
        self.key = key
        self.n = matrix.shape[0]
        self.dtype = matrix.dtype
        try:
            self._lu = spla.splu(matrix.tocsc(), permc_spec="COLAMD")
        except RuntimeError as exc:
            raise SolverError(
                f"factorization of (xi I + alpha A) failed for pole {key.pole}: {exc}; "
                "the pole may coincide with a negated eigenvalue") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.shape[0] != self.n:
            raise ValueError("right-hand side dimension mismatch")
        if np.iscomplexobj(rhs) and not np.issubdtype(self.dtype, np.complexfloating):
            return self._lu.solve(np.ascontiguousarray(rhs.real)) \
                + 1j * self._lu.solve(np.ascontiguousarray(rhs.imag))
        return self._lu.solve(rhs.astype(self.dtype, copy=False))


class SolverCache:
    """Per-process cache of everything the shifted systems of one run need.

    One table holds LU factorizations (keyed by ``ShiftedSystemKey``),
    preconditioners (keyed by ``(key, kind)``) and AMG aggregates (keyed by
    ``("aggregates", fingerprint)``). Lookups are synchronized and
    single-flight: concurrent requests for the same key perform the numeric
    work exactly once. There is no eviction.
    :meth:`ShiftedSolver.solve_shifted` asks only for keys with Im xi >= 0;
    the conjugate pole reuses that entry, so ``numeric_factorizations`` counts
    one per conjugate pair. ``hits`` counts reused factorizations and
    preconditioners, not aggregate lookups.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict = {}
        self._building: dict = {}
        self.numeric_factorizations = 0
        self.hits = 0

    def _single_flight(self, key, build, count_hit: bool = True):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += count_hit
                return entry
            gate = self._building.setdefault(key, threading.Lock())
        with gate:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self.hits += count_hit
                    return entry
            entry = build()
            with self._lock:
                self._entries[key] = entry
                self._building.pop(key, None)
            return entry

    def factorization(self, op: SparseOperator, key: ShiftedSystemKey) -> Factorization:
        """LU of (xi I + alpha A) with a COLAMD fill-reducing ordering."""
        def build():
            fact = Factorization(key, shifted_matrix(op, key.pole, key.scale))
            with self._lock:
                self.numeric_factorizations += 1
            return fact

        return self._single_flight(key, build)

    def preconditioner(self, op: SparseOperator, key: ShiftedSystemKey, kind: str) -> tuple:
        """``(matrix, M)``: the assembled (xi I + alpha A) and its AMG V-cycle
        as a ``LinearOperator`` (``None`` for ``kind`` "none").

        AMG aggregates are built once per operator and shared by all its
        shifted systems (see :func:`build_aggregates`).
        """
        def build():
            matrix = shifted_matrix(op, key.pole, key.scale)
            if kind == "none":
                return matrix, None
            aggregates = self._single_flight(("aggregates", op.fingerprint),
                                             lambda: build_aggregates(op.tocsr()),
                                             count_hit=False)
            apply = AmgPreconditioner(matrix, aggregates).matvec
            return matrix, spla.LinearOperator(matrix.shape, matvec=apply, dtype=matrix.dtype)

        return self._single_flight((key, kind), build)


def solve_iterative(op: SparseOperator, key: ShiftedSystemKey, rhs: np.ndarray,
                    cfg: SolverConfig, cache: Optional[SolverCache] = None) -> SolveInfo:
    """Preconditioned Krylov solve of (xi I + alpha A) x = rhs.

    CG iff the pole is real and ``op.symmetric`` (the system and its AMG
    V-cycle are then symmetric positive definite), BiCGStab otherwise.
    Requires Re(xi) > 0; indefinite shifts belong on the direct path.
    Non-convergence returns the best iterate with ``converged=False``.
    """
    if complex(key.pole).real <= 0:
        raise SolverError(
            f"iterative path requires Re(pole) > 0, got {key.pole}; use the direct solver")
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return SolveInfo(np.zeros_like(rhs), 0, 0.0, True)
    cache = cache if cache is not None else SolverCache()
    matrix, precond = cache.preconditioner(op, key, cfg.preconditioner)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    method = spla.cg if complex(key.pole).imag == 0 and op.symmetric else spla.bicgstab
    x, info = method(matrix, rhs, rtol=cfg.tolerance, atol=0.0,
                     maxiter=cfg.max_iterations, M=precond, callback=count)
    residual = float(np.linalg.norm(rhs - matrix @ x)) / bnorm
    converged = info == 0 and residual <= cfg.tolerance * 10
    return SolveInfo(x=x, iterations=iterations, residual=residual, converged=converged)


class ShiftedSolver:
    """Front end used by the Krylov engine: solves against one operator
    under varying poles and scales, tracking per-solve residuals.
    """

    def __init__(self, op: SparseOperator, config: Optional[SolverConfig] = None,
                 cache: Optional[SolverCache] = None):
        self.op = op
        self.config = config or SolverConfig()
        self.cache = cache if cache is not None else SolverCache()
        self.solve_log: list[SolveInfo] = []

    def solve_shifted(self, pole: complex, scale: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (xi I + alpha A) x = rhs and log the residual.

        A pole with Im xi < 0 is served by the factorization or
        preconditioner of conj(xi): x = conj(solve_conj(xi)(conj(rhs))), exact
        because A and alpha are real. Only the setup is shared; each pole
        still makes its own solve. The logged residual is that of the pole
        actually asked for (for iterative solves, conjugation leaves it
        unchanged).
        """
        flip = pole.imag < 0
        key = ShiftedSystemKey.make(self.op, pole.conjugate() if flip else pole, scale)
        b = np.conj(rhs) if flip else rhs
        if self.config.mode == "direct":
            x = self.cache.factorization(self.op, key).solve(b)
            if flip:
                x = np.conj(x)
            bnorm = float(np.linalg.norm(rhs))
            res = 0.0
            if bnorm > 0:
                # one SpMV on the CSR itself, so operator-application
                # counts see only Krylov steps
                ax = self.op.tocsr() @ x
                res = float(np.linalg.norm(rhs - (pole * x + scale * ax))) / bnorm
            if res > 10 * self.config.tolerance:
                raise SolverError(
                    f"direct solve for pole {pole} is inaccurate: relative residual "
                    f"{res:.3e} exceeds {10 * self.config.tolerance:.1e}")
            info = SolveInfo(x=x, iterations=0, residual=res, converged=True)
        else:
            info = solve_iterative(self.op, key, b, self.config, self.cache)
            if flip:
                info.x = np.conj(info.x)
            if not info.converged:
                raise IterativeDivergence(
                    f"iterative solve for pole {pole} stalled at residual {info.residual:.3e} "
                    f"after {info.iterations} iterations", info)
        self.solve_log.append(info)
        return info.x

    def solve_block(self, aug, pole: complex, rhs: np.ndarray) -> np.ndarray:
        """Solve (xi I - A~) x = xi * rhs for the augmented operator ``aug``.

        ``aug`` carries the sparse top block -alpha A, the dense coupling
        block C and an implicit Jordan tail of size p. The tail system
        (xi I_p - J_p) x_tail = xi * rhs_tail is upper bidiagonal (diagonal
        xi, superdiagonal -1) and is back-substituted first; C x_tail then
        joins the right-hand side of one shifted solve for the top block.
        For p = 0 this is one shifted solve with right-hand side xi * rhs.
        """
        n, p = aug.n, aug.p
        if rhs.shape[0] != n + p:
            raise ValueError(f"expected right-hand side of length {n + p}, got {rhs.shape[0]}")
        if p == 0:
            return self.solve_shifted(pole, aug.alpha, pole * rhs)
        if pole == 0:
            raise SolverError("pole 0 is singular on the augmented system")
        tail = rhs[n:]
        x_tail = np.zeros(p, dtype=np.result_type(tail.dtype, np.asarray(pole).dtype, np.float64))
        x_tail[p - 1] = tail[p - 1]
        for i in range(p - 2, -1, -1):
            x_tail[i] = tail[i] + x_tail[i + 1] / pole
        x_top = self.solve_shifted(pole, aug.alpha, pole * rhs[:n] + aug.C @ x_tail)
        return np.concatenate([x_top, x_tail])
