"""Rational Krylov approximation of the action of the matrix exponential.

The central objects: an implicitly stored augmented operator whose
exponential action evaluates a whole linear combination of phi-functions in
one go, a rational Arnoldi decomposition extended one pole at a time, the
a-posteriori error estimate that drives subspace adaptivity, and the two
``expmv`` engines (rational with pole sets, polynomial with sub-stepping)
used by the exponential integrators. Both engines take one operator scale
alpha and a ready payload [c_0, ..., c_p] and return
sum_k phi_k(-alpha A) c_k, the top block of e^{A~(alpha)} c~.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla

from .linalg import SparseOperator, dense_expm, orthogonal_extend
from .poles import INF_POLE, PoleSet, is_conjugate, is_infinite
from .solvers import ShiftedSolver

#: Default tolerance and estimate-check cadence of both engines.
DEFAULT_TOL = 1e-8
DEFAULT_CHECK_CADENCE = 5

#: Sub-step sizes below this fraction of the requested step abort the
#: polynomial engine.
SUBSTEP_UNDERFLOW = 1e-12


class KrylovError(RuntimeError):
    pass


class SingularProjection(KrylovError):
    """The square projected system K_m is singular; extend with a polynomial
    step and retry."""


class ToleranceNotReached(KrylovError):
    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Augmented operator.
# ---------------------------------------------------------------------------

@dataclass
class AugmentedOperator:
    """Block upper-triangular operator [[-alpha A, C], [0, J_p]].

    J_p is the nilpotent upper Jordan block of size p; C holds the
    phi-combination payload columns in reversed order [c_p, ..., c_1]. The
    operator is applied matrix-free: the (n+p)^2 matrix is never formed
    except by :meth:`dense` for small oracles. Its spectrum is the spectrum
    of -alpha A together with the eigenvalue 0 of multiplicity p.
    """

    op: SparseOperator
    alpha: float
    C: np.ndarray  # (n, p)

    @property
    def n(self) -> int:
        return self.op.n

    @property
    def p(self) -> int:
        return self.C.shape[1]

    @property
    def dim(self) -> int:
        return self.n + self.p

    def apply(self, x: np.ndarray) -> np.ndarray:
        n, p = self.n, self.p
        top = -self.alpha * self.op.matvec(x[:n])
        if p:
            top = top + self.C @ x[n:]
        out = np.zeros(self.dim, dtype=np.result_type(top.dtype, x.dtype))
        out[:n] = top
        if p > 1:
            out[n:n + p - 1] = x[n + 1:]
        return out

    def norm_bound(self) -> float:
        """Cheap upper bound on the 2-norm, for term-decay heuristics."""
        bound = abs(self.alpha) * self.op.norm_inf()
        if self.p:
            bound += float(np.abs(self.C).max(initial=0.0)) * self.p + 1.0
        return bound

    def dense(self) -> np.ndarray:
        n, p = self.n, self.p
        dtype = np.result_type(self.C.dtype, np.float64) if p else np.float64
        a = np.zeros((n + p, n + p), dtype=dtype)
        a[:n, :n] = -self.alpha * self.op.todense()
        if p:
            a[:n, n:] = self.C
            for j in range(p - 1):
                a[n + j, n + j + 1] = 1.0
        return a


def assemble_augmented(op: SparseOperator, alpha: float,
                       c_vectors: Sequence[np.ndarray]) -> tuple[AugmentedOperator, np.ndarray]:
    """Build the augmented operator and start vector for payload [c_0, ..., c_p].

    The start vector is (c_0; e_p) with e_p the last unit vector of the
    Jordan tail; the exponential action then satisfies
    e^{t A~}(c_0; e_p) = (sum_k t^k phi_k(-t alpha A) c_k; e^{t J_p} e_p),
    so at t = 1 the top block is sum_k phi_k(-alpha A) c_k.
    """
    if len(c_vectors) == 0:
        raise ValueError("need at least the c_0 payload vector")
    n = op.n
    for k, c in enumerate(c_vectors):
        if np.shape(c)[0] != n:
            raise ValueError(f"payload c_{k} has length {np.shape(c)[0]}, expected {n}")
    p = len(c_vectors) - 1
    dtype = np.result_type(np.float64, *(np.asarray(c).dtype for c in c_vectors))
    C = np.zeros((n, p), dtype=dtype)
    for k in range(1, p + 1):
        C[:, p - k] = c_vectors[k]  # column order [c_p, ..., c_1]
    aug = AugmentedOperator(op=op, alpha=float(alpha), C=C)
    c_tilde = np.zeros(n + p, dtype=dtype)
    c_tilde[:n] = c_vectors[0]
    if p:
        c_tilde[n + p - 1] = 1.0
    return aug, c_tilde


# ---------------------------------------------------------------------------
# Rational Arnoldi decomposition.
# ---------------------------------------------------------------------------

class RationalDecomposition:
    """Growing rational Arnoldi decomposition A~ V K = V H.

    After m steps the basis has m+1 orthonormal columns (m on happy
    breakdown), H is (m+1) x m upper Hessenberg, and the consumed poles are
    recorded per step. Only V, H and the poles are stored: K is derived from
    them as K_m = I + H_m diag(1/xi_j), with 1/inf = 0 (:meth:`kmat`).

    The arithmetic is fixed here, once, and is complex iff the payload or a
    pole is complex: by default ``dtype`` follows the start vector and the
    payload, and complex poles need ``dtype=np.complex128`` (``expmv_rational``
    picks it). A real decomposition takes real poles only, which keeps the
    basis, the shifted solves and the result real. The decomposition mutates
    in place; it is confined to one expmv call and never shared.
    """

    def __init__(self, aug: AugmentedOperator, c_tilde: np.ndarray,
                 capacity: int = 40, dtype=None):
        self.aug = aug
        norm = float(np.linalg.norm(c_tilde))
        if norm == 0:
            raise ValueError("start vector is zero")
        self.start_norm = norm
        data_dtype = np.result_type(c_tilde.dtype, aug.C.dtype, np.float64)
        dtype = data_dtype if dtype is None else np.dtype(dtype)
        if dtype.kind != "c" and data_dtype.kind == "c":
            raise ValueError(f"complex data needs a complex decomposition, got {dtype}")
        capacity = max(4, capacity)
        self.V = np.zeros((aug.dim, capacity + 1), dtype=dtype)
        self.V[:, 0] = c_tilde / norm
        self.H = np.zeros((capacity + 1, capacity), dtype=dtype)
        self.m = 0
        self.nv = 1
        self.poles_used: list[complex] = []
        self.happy = False

    @property
    def dim(self) -> int:
        return self.aug.dim

    @property
    def beta_last(self) -> float:
        return 0.0 if self.m == 0 else abs(self.H[self.m, self.m - 1])

    def basis(self) -> np.ndarray:
        return self.V[:, :self.nv]

    def hess(self) -> np.ndarray:
        return self.H[:self.m + 1, :self.m]

    def kmat(self) -> np.ndarray:
        """K_m = I + H_m diag(1/xi_j), (m+1) x m, with 1/inf = 0."""
        inv = [0.0 if is_infinite(xi) else 1.0 / xi for xi in self.poles_used]
        return self.hess() * np.asarray(inv, dtype=self.H.dtype) + np.eye(self.m + 1, self.m)

    def _ensure_capacity(self, m_new: int):
        cap = self.H.shape[1]
        if m_new <= cap:
            return
        new_cap = max(2 * cap, m_new)
        V = np.zeros((self.dim, new_cap + 1), dtype=self.V.dtype)
        V[:, :self.V.shape[1]] = self.V
        H = np.zeros((new_cap + 1, new_cap), dtype=self.H.dtype)
        H[:self.H.shape[0], :self.H.shape[1]] = self.H
        self.V, self.H = V, H


def rational_arnoldi_step(d: RationalDecomposition, pole: complex,
                          solver: Optional[ShiftedSolver] = None) -> RationalDecomposition:
    """Extend the decomposition by one step with the given pole.

    An infinite pole is a polynomial step (one operator application); a
    finite pole additionally solves the shifted block system. A pole with
    zero imaginary part is passed on as a float, so that on real data its
    solve stays real; a complex pole needs a complex decomposition. Only the
    column j of H is written: column j of K follows from it and the pole
    (see :meth:`RationalDecomposition.kmat`). The continuation vector is the
    newest basis vector. On happy breakdown the decomposition is flagged and
    must not be extended further.
    """
    if d.happy:
        raise KrylovError("decomposition reached an invariant subspace; cannot extend")
    finite = not is_infinite(pole)
    if finite:
        pole = complex(pole)
        if pole.imag == 0:
            pole = pole.real
        elif not np.iscomplexobj(d.V):
            raise ValueError(f"complex pole {pole} given to a real decomposition; "
                             "construct it with dtype=np.complex128")
        if solver is None:
            raise ValueError("finite poles require a shifted-system solver")
    else:
        pole = INF_POLE
    d._ensure_capacity(d.m + 1)

    b = d.aug.apply(d.V[:, d.nv - 1])
    x = solver.solve_block(d.aug, pole, b) if finite else b

    j = d.m
    res = orthogonal_extend(d.V[:, :d.nv], x, reorth=1)
    d.H[:d.nv, j] = res.h
    if res.breakdown:
        d.happy = True
    else:
        d.H[d.nv, j] = res.beta
        d.V[:, d.nv] = res.v
        d.nv += 1
    d.m += 1
    d.poles_used.append(pole)
    return d


def arnoldi_relation_residual(d: RationalDecomposition) -> float:
    """Frobenius residual of A~ V K - V H, normalized; test/diagnostic helper."""
    if d.m == 0:
        return 0.0
    V = d.basis()
    K = d.kmat()[:d.nv, :]
    H = d.hess()[:d.nv, :]
    AVK = np.column_stack([d.aug.apply(col) for col in (V @ K).T])
    num = np.linalg.norm(AVK - V @ H)
    den = max(d.aug.norm_bound(), 1.0) * max(np.linalg.norm(K), 1.0)
    return float(num / den)


def _projected_matrix(d: RationalDecomposition):
    """S = H_m K_m^{-1}, the compression of A~ onto the subspace, and the LU
    of K_m^T it comes from; K_m u = w is then ``lu_solve(lu, w, trans=1)``.

    K_m = I + H_m diag(1/xi_j) is the square part of :meth:`~RationalDecomposition.kmat`.
    """
    import warnings

    if d.m == 0:
        raise KrylovError("empty decomposition")
    m = d.m
    with warnings.catch_warnings():
        # singularity is detected from the pivots below and raised as our own
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu = sla.lu_factor(d.kmat()[:m].T)
    diag = np.abs(np.diag(lu[0]))
    if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
        raise SingularProjection(
            "projected system K_m is singular; append a polynomial step and retry")
    return sla.lu_solve(lu, d.H[:m, :m].T).T, lu


def _bordered_expm(S: np.ndarray, h: float, terms: int) -> np.ndarray:
    """e^{hW} for W = [[S, e_1, 0], [0, J_terms]], J the nilpotent Jordan block.

    The top-left m x m block is e^{hS}; the m x terms block right of it holds
    the columns h^k phi_k(hS) e_1, k = 1..terms.
    """
    m = S.shape[0]
    W = np.zeros((m + terms, m + terms), dtype=S.dtype)
    W[:m, :m] = S
    W[0, m] = 1.0
    tail = np.arange(m, m + terms - 1)
    W[tail, tail + 1] = 1.0
    return dense_expm(h * W)


def _approximant_and_estimate(d: RationalDecomposition, h: float):
    """One factorization of K_m and one dense exponential serving both the
    approximant and the estimate.

    The exponential of the (m+1)-dimensional bordered matrix [[S, e_1], [0, 0]]
    holds e^{hS} in its top-left block and h phi_1(hS) e_1 in its last
    column, the ingredient of the error estimate.
    """
    m = d.m
    S, lu = _projected_matrix(d)
    E = _bordered_expm(S, h, 1)
    y = d.start_norm * (d.V[:, :m] @ E[:m, 0])
    beta = d.beta_last
    if beta == 0.0 or h == 0.0:
        return y, 0.0
    u = sla.lu_solve(lu, E[:m, m] / h, trans=1)
    estimate = h * d.start_norm * beta * abs(u[m - 1])
    return y, float(estimate)


def evaluate_approximant(d: RationalDecomposition, h: float) -> np.ndarray:
    """norm(c~) V_m e^{h H_m K_m^{-1}} e_1, the subspace approximation of
    e^{h A~} c~."""
    y, _ = _approximant_and_estimate(d, h)
    return y


def error_estimate(d: RationalDecomposition, h: float) -> float:
    """Leading-term a-posteriori estimate of the 2-norm approximation error.

    h * norm(c~) * h_{m+1,m} * |e_m^* K_m^{-1} phi_1(h H_m K_m^{-1}) e_1|;
    zero after happy breakdown. Derived under the convention that the newest
    step used an infinite pole, which the adaptive loop enforces before
    checking.
    """
    _, est = _approximant_and_estimate(d, h)
    return est


def full_error_expansion(d: RationalDecomposition, h: float, terms: int,
                         return_partials: bool = False):
    """Truncated error series: the estimate's higher-order siblings.

    Accumulates sum_k e_m^* K_m^{-1} phi_k(h S) e_1 (h A~)^{k-1} v_{m+1}
    for k = 1..terms and returns its 2-norm times h norm(c~) h_{m+1,m}.
    With one term this reduces to :func:`error_estimate`.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    beta = d.beta_last
    if beta == 0.0:
        return (0.0, [0.0] * terms) if return_partials else 0.0
    m = d.m
    S, lu = _projected_matrix(d)
    cols = _bordered_expm(S, h, terms)[:m, m:]  # columns h^k phi_k(hS) e_1
    scale = h ** -np.arange(1, terms + 1)
    gammas = sla.lu_solve(lu, cols * scale[np.newaxis, :], trans=1)[m - 1, :]
    z = d.V[:, m]
    acc = np.zeros_like(z)
    prefactor = h * d.start_norm * beta
    partials = []
    for k in range(terms):
        acc = acc + gammas[k] * z
        partials.append(prefactor * float(np.linalg.norm(acc)))
        if k + 1 < terms:
            z = h * d.aug.apply(z)
    result = partials[-1]
    return (result, partials) if return_partials else result


# ---------------------------------------------------------------------------
# Adaptive expmv engines.
# ---------------------------------------------------------------------------

@dataclass
class ExpmvReport:
    """Result and diagnostics of one exponential-action evaluation."""

    vector: np.ndarray
    n: int
    estimate: float
    converged: bool
    breakdown: bool = False
    estimate_history: list = field(default_factory=list)
    poles_consumed: list = field(default_factory=list)
    substeps: int = 1
    arnoldi_steps: int = 0
    solver_iterations: int = 0
    solver_residual_max: float = 0.0

    @property
    def phi_combination(self) -> np.ndarray:
        """Top block: the requested linear combination of phi-function actions."""
        return self.vector[:self.n]


def _adaptive_krylov(d: RationalDecomposition, poles: Sequence[complex],
                     solver: Optional[ShiftedSolver], theta: float, tol: float,
                     m_min: int, cap: int, check_cadence: int, history: list):
    """Grow ``d`` until the estimate of e^{theta A~} c~ meets ``tol``.

    Finite poles are consumed in order, then polynomial steps follow. The
    estimate is checked at ``m_min`` and every ``check_cadence`` steps after
    it, each time after a polynomial step settles the newest pole (finishing
    a conjugate pair first, so that conjugate-closed sets keep real data
    real). A singular projection is retried after one more polynomial step.
    Every check is appended to ``history`` as (m, estimate).

    Returns (value, estimate, converged); not converged means the subspace
    reached ``cap`` first.
    """
    cap = min(cap, d.dim)
    target = max(1, min(m_min, cap))
    ptr = 0

    def grow():
        nonlocal ptr
        if ptr < len(poles):
            ptr += 1
            rational_arnoldi_step(d, poles[ptr - 1], solver)
        else:
            rational_arnoldi_step(d, INF_POLE)

    while True:
        while d.m < target and not d.happy:
            grow()
        last = d.poles_used[-1]
        if not d.happy and not is_infinite(last):
            if last.imag != 0 and ptr < len(poles) and is_conjugate(poles[ptr], last):
                grow()
            if not d.happy:
                rational_arnoldi_step(d, INF_POLE)
        while True:
            try:
                value, estimate = _approximant_and_estimate(d, theta)
                break
            except SingularProjection:
                if d.m >= cap or d.happy:
                    raise
                rational_arnoldi_step(d, INF_POLE)
        history.append((d.m, estimate))
        if estimate <= tol:
            return value, estimate, True
        if d.m >= cap:
            return value, estimate, False
        target = min(d.m + check_cadence, cap)


def expmv_rational(op: SparseOperator, alpha: float, c_vectors: Sequence[np.ndarray],
                   pole_set: Optional[PoleSet], solver: Optional[ShiftedSolver],
                   tol: float = DEFAULT_TOL, m_min: int = 5, m_max: Optional[int] = None,
                   check_cadence: int = DEFAULT_CHECK_CADENCE,
                   m_hard: Optional[int] = None) -> ExpmvReport:
    """Adaptive rational Krylov evaluation of sum_k phi_k(-alpha A) c_k.

    This is the top block of e^{A~(alpha)} c~, so every shifted solve is
    (xi I + alpha A), the scaling the pole sets are fitted for. Finite poles
    are consumed in order (truncated at ``m_max``, by default all of them);
    after exhaustion the subspace keeps growing with polynomial steps until
    the error estimate meets ``tol``. The estimate is only evaluated every
    ``check_cadence`` iterations past ``m_min``, and a polynomial step is
    inserted before each check when the newest step used a finite pole
    (completing a conjugate pair first so that conjugate-closed sets keep
    real data real).

    Raises
    ------
    ToleranceNotReached
        If the hard subspace cap is hit first; the partial result rides on
        the exception's ``report``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    aug, c_tilde = assemble_augmented(op, alpha, c_vectors)

    finite_poles = list(pole_set) if pole_set is not None else []
    if m_max is None:
        m_max = len(finite_poles)
    finite_poles = finite_poles[:m_max]
    if m_hard is None:
        m_hard = max(m_max + 128, 64)

    complex_data = np.iscomplexobj(c_tilde) or any(p.imag != 0 for p in finite_poles)
    dtype = np.complex128 if complex_data else np.float64
    d = RationalDecomposition(aug, c_tilde, capacity=min(max(2 * m_min, m_max + 8, 40), m_hard),
                              dtype=dtype)

    log_start = len(solver.solve_log) if solver is not None else 0
    history: list[tuple[int, float]] = []
    result, estimate, converged = _adaptive_krylov(
        d, finite_poles, solver, 1.0, tol, m_min, m_hard, check_cadence, history)
    solves = solver.solve_log[log_start:] if solver is not None else []

    report = ExpmvReport(
        vector=result, n=op.n, estimate=estimate,
        converged=converged, breakdown=d.happy, estimate_history=history,
        poles_consumed=list(d.poles_used), substeps=1, arnoldi_steps=d.m,
        solver_iterations=sum(s.iterations for s in solves),
        solver_residual_max=max((s.residual for s in solves), default=0.0),
    )
    if not converged:
        raise ToleranceNotReached(
            f"error estimate {estimate:.3e} above tolerance {tol:.3e} "
            f"at the hard subspace cap m={d.m}", report)
    return report


def expmv_polynomial(op: SparseOperator, alpha: float, c_vectors: Sequence[np.ndarray],
                     tol: float = DEFAULT_TOL, m_min: int = 10, m_max: int = 128,
                     check_cadence: int = DEFAULT_CHECK_CADENCE) -> ExpmvReport:
    """Polynomial Krylov evaluation of sum_k phi_k(-alpha A) c_k with time
    sub-stepping.

    Runs the adaptive loop with no finite poles (all poles at infinity),
    checking the estimate against the proportional budget tol * theta. If
    the subspace cap is reached first, the sub-step theta is halved and the
    same basis re-evaluated, since the Krylov space does not depend on
    theta; the accepted segments compose e^{A~} = prod e^{theta_i A~}.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    aug, c_tilde = assemble_augmented(op, alpha, c_vectors)

    history: list[tuple[int, float]] = []
    w = c_tilde
    done = 0.0
    theta = 1.0
    substeps = 0
    total_steps = 0
    breakdown = False

    while done < 1.0 - 1e-15:
        theta = min(theta, 1.0 - done)
        d = RationalDecomposition(aug, w, capacity=m_max)
        w, estimate, converged = _adaptive_krylov(
            d, [], None, theta, tol * theta, m_min, m_max, check_cadence, history)
        while not converged:
            theta /= 2.0
            if theta < SUBSTEP_UNDERFLOW:
                raise KrylovError(f"sub-step underflow: theta={theta:.3e}")
            w, estimate = _approximant_and_estimate(d, theta)
            history.append((d.m, estimate))
            converged = estimate <= tol * theta
        total_steps += d.m
        breakdown = breakdown or d.happy
        done += theta
        substeps += 1

    return ExpmvReport(
        vector=w, n=op.n, estimate=estimate,
        converged=True, breakdown=breakdown, estimate_history=history,
        poles_consumed=[], substeps=substeps, arnoldi_steps=total_steps,
    )
