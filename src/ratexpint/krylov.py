"""Rational Krylov approximation of the action of the matrix exponential.

The central objects: an implicitly stored augmented operator whose
exponential action evaluates a whole linear combination of phi-functions in
one go, a rational Arnoldi decomposition extended one pole or one
conjugate pair at a time, the a-posteriori error estimate that drives
subspace adaptivity, and the two ``expmv`` engines (rational with pole
sets; polynomial with sub-stepping, on one reduced vector of the plain
operator) used by the exponential integrators.
Both engines take one operator scale alpha, a time theta and a ready
payload [c_0, ..., c_p] and return
sum_k theta^k phi_k(-theta alpha A) c_k, the top block of
e^{theta A~(alpha)} c~. The integrators pass alpha = h and theta = c_j, so
all stages of a step build one rational Krylov space family with the same
shifted systems (xi I + h A) and read it at their own time points.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla

from .linalg import SparseOperator, dense_expm, orthogonal_extend
from .poles import INF_POLE, PoleSet, is_infinite
from .solvers import ShiftedSolver, SolverError

#: Defaults of both engines; the cap m_hard is len(poles) + DEFAULT_STEPS_PAST_POLES,
#: and every Krylov basis starts with room for DEFAULT_STEPS_PAST_POLES steps.
#: The check cadence spaces only the estimate checks that follow polynomial
#: steps: while pole steps remain, the estimate is checked after each one.
DEFAULT_TOL = 1e-8
DEFAULT_M_MIN = 5
DEFAULT_CHECK_CADENCE = 5
DEFAULT_STEPS_PAST_POLES = 128

#: Sub-step sizes below this fraction of the requested step abort the
#: polynomial engine.
SUBSTEP_UNDERFLOW = 1e-12

#: Largest estimated loss of orthogonality a Lanczos basis vector may carry
#: before it is orthogonalized against the whole basis. The estimates read
#: about 100x the measured loss on the ac2d and graph payloads, whose bases
#: then keep ||V^H V - I||_2 below 1e-10.
LANCZOS_ORTHOGONALITY = 1e-9

#: Share of a polynomial sub-step's budget tol * tau that the rounding of its
#: reduced vector may take; a sub-step over it runs on A~ instead.
REDUCTION_ROUNDING_SHARE = 0.25

_EPS = np.finfo(float).eps


class KrylovError(ArithmeticError):
    """The Krylov engine failed: a singular projection, an estimate stuck at
    the subspace cap or a sub-step underflow. Like every numerical failure
    of this package it is an ``ArithmeticError``."""


class SingularProjection(KrylovError):
    """The square projected system K_m is singular. More steps cannot mend
    it: a check follows an infinite-pole step, and each further one appends
    a unit row and column to K_m, so the adaptive loop raises this at the
    first singular check."""


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
        top = self.op.matvec(x[:n])
        top *= -self.alpha
        if not p:
            return top
        top = top + self.C @ x[n:]
        out = np.zeros(self.dim, dtype=np.result_type(top.dtype, x.dtype))
        out[:n] = top
        if p > 1:
            out[n:n + p - 1] = x[n + 1:]
        return out

    def solve(self, pole: complex, rhs: np.ndarray, solver: ShiftedSolver,
              ahead: Optional[complex] = None) -> np.ndarray:
        """Solve (xi I - A~) x = xi * rhs, for any payload length p.

        The tail system (xi I_p - J_p) x_tail = xi * rhs_tail is upper
        bidiagonal (diagonal xi, superdiagonal -1) and is back-substituted
        first (empty for p = 0); C x_tail then joins the right-hand side of
        one shifted solve (xi I + alpha A) for the top block. A complex pole
        on a real ``rhs`` is a pair step, split into Re x and Im x, so that
        solve is made with ``split=True``. ``ahead`` is the pole of the next
        solve, if known, and goes to the shifted solve as it is (see
        :meth:`~ratexpint.solvers.ShiftedSolver.solve_shifted`). Pole 0 raises
        :class:`SolverError`.
        """
        n, p = self.n, self.p
        if rhs.shape[0] != n + p:
            raise ValueError(f"expected right-hand side of length {n + p}, got {rhs.shape[0]}")
        if pole == 0:
            raise SolverError("pole 0 is singular on the augmented system")
        tail = rhs[n:]
        x_tail = np.zeros(p, dtype=np.result_type(tail.dtype, np.asarray(pole).dtype, np.float64))
        carry = 0.0
        for i in range(p - 1, -1, -1):
            x_tail[i] = carry = tail[i] + carry / pole
        split = complex(pole).imag != 0 and not np.iscomplexobj(rhs)
        x_top = solver.solve_shifted(pole, self.alpha, pole * rhs[:n] + self.C @ x_tail,
                                     split=split, ahead=ahead)
        return np.concatenate([x_top, x_tail])

    def norm_bound(self) -> float:
        """Cheap upper bound on the 2-norm; scales :func:`arnoldi_relation_residual`."""
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

    A payload vector whose 2-norm is not finite (it overflows, say) raises
    ``FloatingPointError`` naming it, before a shifted solve or a projected
    exponential meets its rounding.
    """
    if len(c_vectors) == 0:
        raise ValueError("need at least the c_0 payload vector")
    n = op.n
    for k, c in enumerate(c_vectors):
        if np.shape(c)[0] != n:
            raise ValueError(f"payload c_{k} has length {np.shape(c)[0]}, expected {n}")
        norm = float(np.linalg.norm(c))
        if not math.isfinite(norm):
            raise FloatingPointError(f"payload c_{k} has a non-finite 2-norm ({norm})")
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
    breakdown), H and K are (m+1) x m upper Hessenberg, and the consumed
    poles are recorded per column. Each step writes its own columns of H and
    K: a single pole xi gives K[:, j] = e_j + H[:, j] / xi, with 1/inf = 0
    (:meth:`kmat` is a slice).

    The arithmetic is fixed here, once, by the data: it is complex iff the
    start vector or the payload is. A complex decomposition takes any pole and
    makes one solve per pole. A real decomposition takes real poles one at a
    time and a complex pole xi as the conjugate pair (xi, conj(xi)): one
    solve x for xi adds the columns Re x and Im x (Ruhe's real variant), so
    the basis, H, K and the result stay real. V is column-major, so each
    basis vector is contiguous and Gram-Schmidt reads the basis in place.
    The decomposition mutates in place; it is confined to one expmv call and
    never shared. A zero start vector raises ``ValueError``, and one whose
    2-norm is not finite (it overflows, say) ``FloatingPointError``:
    normalized by inf it would read as zero, and its first step as a happy
    breakdown.

    With ``lanczos`` set, every step is polynomial and each new vector is
    orthogonalized, twice, against the two newest basis vectors only, so H
    is tridiagonal and Gram-Schmidt costs O(n) per step instead of O(mn).
    That needs a symmetric operator: a plain, symmetric A with no payload
    tail (p = 0). The vectors then stay orthogonal only to about the
    accuracy the exponential needs (Druskin, Greenbaum & Knizhnerman,
    SISC 19 (1998)).

    The basis is read only by :meth:`approximant`, which lifts the projected
    coefficients of :func:`_approximant_and_estimate` to the full vector;
    the adaptive loop does so once per call, for the value it returns.
    The storage starts at ``capacity`` steps, by default
    ``DEFAULT_STEPS_PAST_POLES``, at most the dimension of the space, and
    doubles whenever a step needs more; the engines pass no size. Only the
    first ``nv`` columns of ``V`` are ever written or read: the storage past
    them comes from :func:`_new_basis` unfilled, so it costs no resident
    memory until a step writes it, and its values are unspecified. H and K
    are zero-filled, so a decomposition that has taken only infinite poles
    (``polynomial``) has K_m = I exactly, and
    :func:`_approximant_and_estimate` projects onto H_m directly.
    """

    def __init__(self, aug: AugmentedOperator, c_tilde: np.ndarray,
                 capacity: int = DEFAULT_STEPS_PAST_POLES, lanczos: bool = False):
        if lanczos and (aug.p or not aug.op.symmetric):
            raise ValueError("a Lanczos basis needs a symmetric operator with no payload tail")
        self.aug = aug
        self.lanczos = lanczos
        norm = float(np.linalg.norm(c_tilde))
        if norm == 0:
            raise ValueError("start vector is zero")
        if not math.isfinite(norm):
            raise FloatingPointError(f"start vector has a non-finite 2-norm ({norm})")
        self.start_norm = norm
        dtype = np.result_type(c_tilde.dtype, aug.C.dtype, np.float64)
        capacity = max(4, min(capacity, aug.dim))
        self.V = _new_basis(aug.dim, capacity + 1, dtype)
        self.V[:, 0] = c_tilde / norm
        self.H = np.zeros((capacity + 1, capacity), dtype=dtype)
        self.K = np.zeros((capacity + 1, capacity), dtype=dtype)
        self.m = 0
        self.nv = 1
        self.poles_used: list[complex] = []
        #: True while every step has taken an infinite pole, so that K_m = I
        self.polynomial = True
        #: Lanczos only: estimates of v_k^H v for the two newest basis vectors v
        self.omega = (np.zeros(0), np.ones(1))

    @property
    def dim(self) -> int:
        return self.aug.dim

    @property
    def happy(self) -> bool:
        """True after a happy breakdown: the basis has m columns, not m+1,
        and spans an invariant subspace."""
        return self.nv == self.m

    @property
    def real(self) -> bool:
        """True iff the arithmetic is real, so a complex pole is a pair step."""
        return not np.iscomplexobj(self.V)

    @property
    def beta_last(self) -> float:
        return 0.0 if self.m == 0 else abs(self.H[self.m, self.m - 1])

    def basis(self) -> np.ndarray:
        return self.V[:, :self.nv]

    def hess(self) -> np.ndarray:
        return self.H[:self.m + 1, :self.m]

    def kmat(self) -> np.ndarray:
        """K_m, (m+1) x m."""
        return self.K[:self.m + 1, :self.m]

    def approximant(self, y: np.ndarray) -> np.ndarray:
        """norm(c~) V_m y: the vector whose coefficients in the first m
        basis vectors are ``y``."""
        return self.start_norm * (self.V[:, :self.m] @ y)

    def _ensure_capacity(self, m_new: int):
        cap = self.H.shape[1]
        if m_new <= cap:
            return
        new_cap = max(2 * cap, m_new)
        V = _new_basis(self.dim, new_cap + 1, self.V.dtype)
        V[:, :self.nv] = self.V[:, :self.nv]
        self.V = V
        # zero-filled, as H and K start
        self.H, self.K = (np.pad(M, ((0, new_cap - cap),) * 2) for M in (self.H, self.K))


def _new_basis(rows: int, cols: int, dtype) -> np.ndarray:
    """Column-major storage for a basis of ``cols`` columns, left unfilled:
    a :class:`RationalDecomposition` writes each column before it reads it."""
    return np.empty((rows, cols), dtype=dtype, order="F")


def rational_arnoldi_step(d: RationalDecomposition, pole: complex,
                          solver: Optional[ShiftedSolver] = None,
                          ahead: Optional[complex] = None) -> RationalDecomposition:
    """Extend the decomposition by one step with the given pole, or by a
    pair step on a real decomposition given a complex pole.

    An infinite pole is a polynomial step (one operator application); a
    finite pole additionally solves the shifted block system. A pole with
    zero imaginary part is passed on as a float, so that on real data its
    solve stays real. The continuation vector is the newest basis vector.
    ``ahead``, the first pole of the step that will follow, if any, is
    passed on to the solve (:meth:`AugmentedOperator.solve`).

    On a real decomposition a complex pole xi stands for the pair
    (xi, conj(xi)), both recorded in ``poles_used``: the one solve x for xi
    adds Re x, then Im x, and with h^ = H[:, j] + i H[:, j+1] the two
    columns of K are e_j + Re(h^/xi) and Im(h^/xi). The same space in
    complex arithmetic takes two solves (Ruhe, SISC 19 (1998); Berljafa &
    Guttel, SIMAX 36 (2015)). Its right-hand side is real, so it is a split
    solve (:meth:`AugmentedOperator.solve`): an iterative one meets the
    tighter target of :func:`~ratexpint.solvers.split_tolerance`. If both halves break down,
    only the Re column is kept, so that K_m stays square. The adaptive loop
    (:func:`_grow`) passes a pair step of :attr:`~ratexpint.poles.PoleSet.steps`
    here as its first pole on a real decomposition, and pole by pole on a
    complex one.

    After a happy breakdown (:attr:`RationalDecomposition.happy`) the
    decomposition must not be extended further.
    """
    if d.happy:
        raise KrylovError("decomposition reached an invariant subspace; cannot extend")
    finite = not is_infinite(pole)
    if finite and d.lanczos:
        raise ValueError("a Lanczos basis takes only infinite poles")
    if finite:
        pole = complex(pole)
        if pole.imag == 0:
            pole = pole.real
        if solver is None:
            raise ValueError("finite poles require a shifted-system solver")
        d.polynomial = False
    else:
        pole = INF_POLE
    pair = finite and pole.imag != 0 and d.real
    d._ensure_capacity(d.m + 1 + pair)

    b = d.aug.apply(d.V[:, d.nv - 1])
    x = d.aug.solve(pole, b, solver, ahead) if finite else b

    j = d.m
    if pair:
        nv = d.nv
        _extend(d, x.real, j)
        _extend(d, x.imag, j + 1)
        hx = (d.H[:, j] + 1j * d.H[:, j + 1]) / pole
        d.K[:, j] = hx.real
        d.K[j, j] += 1.0
        if d.nv > nv:
            d.K[:, j + 1] = hx.imag
            d.poles_used += [pole, pole.conjugate()]
            d.m += 2
        else:  # both halves broke down: keep the Re column, so K_m stays square
            d.H[:, j + 1] = 0.0
            d.poles_used.append(pole)
            d.m += 1
        return d

    _extend(d, x, j)
    if finite:
        d.K[:, j] = d.H[:, j] * (1.0 / pole)
    d.K[j, j] += 1.0
    d.m += 1
    d.poles_used.append(pole)
    return d


def _extend(d: RationalDecomposition, x: np.ndarray, j: int) -> None:
    """Orthogonalize ``x`` against the basis into column j of H and append
    the new basis vector, unless it breaks down. A Lanczos decomposition
    orthogonalizes against its two newest basis vectors only."""
    first = max(d.nv - 2, 0) if d.lanczos else 0
    res = orthogonal_extend(d.V[:, first:d.nv], x)
    d.H[first:d.nv, j] = res.h
    if not res.breakdown:
        v = res.v
        if d.lanczos and (_orthogonality_loss(d, j, res.beta) > LANCZOS_ORTHOGONALITY
                          or d.nv == d.dim):
            full = orthogonal_extend(d.V[:, :d.nv], v)
            if full.breakdown:  # v lies in the span of the basis
                return
            v = full.v
            d.omega[1][:-1] = _EPS
        d.H[d.nv, j] = res.beta
        d.V[:, d.nv] = v
        d.nv += 1


def _orthogonality_loss(d: RationalDecomposition, j: int, beta: float) -> float:
    """Largest estimate of |v_k^H v| over the older basis vectors v_k, k < j - 1,
    for the new Lanczos vector v with subdiagonal ``beta``, by Simon's
    recurrence (Math. Comp. 42 (1984)), which reads only H. The estimates of
    the two newest vectors are kept on ``d.omega`` for the next step."""
    prev, cur = d.omega
    alpha = d.H.diagonal()[:j + 1].real
    sub = d.H.diagonal(-1)[:j].real  # sub[k] = beta_{k+1}
    new = np.full(j + 2, _EPS)
    new[-1] = 1.0
    if j >= 2:
        k = j - 1  # the older vectors v_0, ..., v_{k-1}
        t = sub[:k] * cur[1:k + 1] + (alpha[:k] - alpha[j]) * cur[:k] - sub[j - 1] * prev[:k]
        t[1:] += sub[:j - 2] * cur[:j - 2]
        rounding = _EPS * (np.abs(alpha).max() + 2.0 * sub.max())
        new[:j - 1] = (t + np.copysign(rounding, t)) / beta
    d.omega = (cur, new)
    return float(np.abs(new[:j - 1]).max(initial=0.0))


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


def _approximant_and_estimate(d: RationalDecomposition, h: float, terms: int = 1,
                              phi: int = 0):
    """(coefficients, estimate) of h^phi phi_phi(h A~) c~ from one LU of
    K_m^T and one dense exponential; phi = 0 reads e^{h A~} c~. Only
    projected quantities are formed: the basis is read for the estimate's
    newest vector v_{m+1}, and the approximant is left to
    :meth:`RationalDecomposition.approximant` of the coefficients.

    With S = H_m K_m^{-1} the compression of A~ onto the subspace (K_m the
    square part of :meth:`~RationalDecomposition.kmat`), the coefficients
    are y = h^phi phi_phi(hS) e_1, a view into the dense exponential, so
    the approximant is norm(c~) V_m y; the estimate is
    h norm(c~) h_{m+1,m} ||sum_{k<=terms} gamma_k (h A~)^{k-1} v_{m+1}||,
    gamma_k = h^phi e_m^T K_m^{-1} phi_{phi+k}(hS) e_1. One term is the
    leading-term a-posteriori estimate that drives the adaptive loop; more
    terms give the truncated error series. Both come from e^{hW},
    W = [[S, e_1, 0], [0, J]] with J the nilpotent Jordan block of size
    phi + ``terms``: its top-left block is e^{hS} and the columns right of
    it are h^k phi_k(hS) e_1. The estimate is derived under the convention
    that the newest step used an infinite pole, which the adaptive loop
    enforces before checking; it is zero after happy breakdown and at h = 0.

    A decomposition that has taken only infinite poles has K_m = I exactly
    (:attr:`RationalDecomposition.polynomial`), so S = H_m and the solves
    with K_m are skipped; the LU of I is exact, so the result is the same.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    m = d.m
    if m == 0:
        raise KrylovError("empty decomposition")
    if d.polynomial:
        S = d.H[:m, :m]
    else:
        # LAPACK's getrf/getrs, which lu_factor/lu_solve wrap: no warning
        # for an exactly singular K_m, whose pivots are read here instead
        getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (d.K,))
        lu, piv, _ = getrf(d.kmat()[:m].T)
        diag = np.abs(np.diag(lu))
        if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
            raise SingularProjection(f"projected system K_m is singular at m={m}")
        S = getrs(lu, piv, d.H[:m, :m].T)[0].T
    size = m + phi + terms
    W = np.zeros((size, size), dtype=S.dtype)
    W[:m, :m] = S
    W[0, m] = 1.0
    tail = np.arange(m, size - 1)
    W[tail, tail + 1] = 1.0
    E = dense_expm(h * W)
    y = E[:m, m + phi - 1 if phi else 0]
    beta = d.beta_last
    if beta == 0.0 or h == 0.0:
        return y, 0.0
    powers = h ** np.arange(1, terms + 1)
    if d.polynomial:  # row m-1 of K_m^{-1} E is row m-1 of E
        gammas = E[m - 1, m + phi:] / powers
    else:  # lu factors K_m^T, so trans=1 solves with K_m
        gammas = getrs(lu, piv, E[:m, m + phi:] / powers, trans=1)[0][m - 1]
    z = d.V[:, m]
    acc = gammas[0] * z
    for gamma in gammas[1:]:
        z = h * d.aug.apply(z)
        acc = acc + gamma * z
    return y, float(h * d.start_norm * beta * np.linalg.norm(acc))


# ---------------------------------------------------------------------------
# Adaptive expmv engines.
# ---------------------------------------------------------------------------

def check_settings(tol: float, m_min: int, check_cadence: int, m_hard: Optional[int]) -> None:
    """Reject loop settings that cannot converge or accept any answer."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    for name, value in (("m_min", m_min), ("check_cadence", check_cadence), ("m_hard", m_hard)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _engine_input(op: SparseOperator, alpha: float, c_vectors: Sequence[np.ndarray],
                  poles: PoleSet, tol: float, m_min: int, check_cadence: int,
                  m_hard: Optional[int]) -> tuple[AugmentedOperator, np.ndarray, int]:
    """What both engines check and build first: the settings, the augmented
    operator and start vector, and the cap m_hard, by default
    len(poles) + ``DEFAULT_STEPS_PAST_POLES`` (the polynomial engine has no
    poles). A real payload needs a conjugate-closed pole set, and the scale
    alpha must be finite."""
    check_settings(tol, m_min, check_cadence, m_hard)
    if not np.isfinite(alpha):
        raise ValueError(f"operator scale alpha must be finite, got {alpha}")
    aug, c_tilde = assemble_augmented(op, alpha, c_vectors)
    if not (np.iscomplexobj(c_tilde) or poles.conjugate_closed):
        raise ValueError("a real payload takes only a conjugate-closed pole set; "
                         "give a lone complex pole a complex payload")
    return aug, c_tilde, len(poles) + DEFAULT_STEPS_PAST_POLES if m_hard is None else m_hard


@dataclass
class ExpmvReport:
    """Result and diagnostics of one exponential-action evaluation."""

    vector: np.ndarray
    n: int
    estimate: float
    converged: bool
    estimate_history: list = field(default_factory=list)
    poles_consumed: list = field(default_factory=list)
    substeps: int = 1
    arnoldi_steps: int = 0
    #: shifted solves made; on a real decomposition one per conjugate pair
    solves: int = 0
    solver_iterations: int = 0
    solver_residual_max: float = 0.0

    @property
    def phi_combination(self) -> np.ndarray:
        """Top block: the requested linear combination of phi-function actions."""
        return self.vector[:self.n]


def _grow(d: RationalDecomposition, pending: deque, target: int,
          solver: Optional[ShiftedSolver]) -> None:
    """Grow ``d`` to at least ``target`` steps, then settle it for a check.

    Pole steps are taken from the front of ``pending`` (see
    :attr:`~ratexpint.poles.PoleSet.steps`), each one whole, and polynomial
    steps once it is empty. A conjugate pair is one pair step with its first
    pole on a real ``d`` and two single steps on a complex one, the second
    skipped after a happy breakdown. Each pole step hands its solves the
    first pole of the step after it, so that the direct path can build that
    LU meanwhile (:meth:`~ratexpint.solvers.ShiftedSolver.solve_shifted`).
    If the newest pole is finite, one polynomial step follows, so that the
    estimate of :func:`_approximant_and_estimate` holds under its stated
    convention.
    """
    while d.m < target and not d.happy:
        step = pending.popleft() if pending else (INF_POLE,)
        ahead = pending[0][0] if pending else None
        for pole in step[:1] if d.real else step:
            if not d.happy:
                rational_arnoldi_step(d, pole, solver, ahead)
    if not d.happy and not is_infinite(d.poles_used[-1]):
        rational_arnoldi_step(d, INF_POLE)


def _adaptive_krylov(d: RationalDecomposition, steps: Sequence[tuple],
                     solver: Optional[ShiftedSolver], theta: float, tol: float,
                     m_min: int, cap: int, check_cadence: int, history: list,
                     phi: int = 0):
    """Grow ``d`` until the estimate of theta^phi phi_phi(theta A~) c~
    (for phi = 0, e^{theta A~} c~) meets ``tol``.

    The pole steps ``steps`` are consumed in order by :func:`_grow`, then
    polynomial steps follow. The estimate is checked at ``m_min``, then
    after every pole step while pole steps remain (a conjugate pair is one
    step), then every ``check_cadence`` polynomial steps; :func:`_grow`
    settles a finite newest pole before each check. A check forms only
    projected quantities (:func:`_approximant_and_estimate`), and the basis
    is read once, for the value returned. A singular projection raises
    :class:`SingularProjection` at once (see there). Every check is appended
    to ``history`` as (m, estimate).

    Returns (value, estimate, converged); not converged means the subspace
    reached ``cap`` first.
    """
    cap = min(cap, d.dim)
    target = max(1, min(m_min, cap))
    pending = deque(steps)
    while True:
        _grow(d, pending, target, solver)
        y, estimate = _approximant_and_estimate(d, theta, phi=phi)
        history.append((d.m, estimate))
        if estimate <= tol or d.m >= cap:
            return d.approximant(y), estimate, estimate <= tol
        target = min(d.m + (1 if pending else check_cadence), cap)


def expmv_rational(op: SparseOperator, alpha: float, c_vectors: Sequence[np.ndarray],
                   poles: PoleSet, solver: ShiftedSolver, *,
                   tol: float = DEFAULT_TOL, m_min: int = DEFAULT_M_MIN,
                   check_cadence: int = DEFAULT_CHECK_CADENCE,
                   m_hard: Optional[int] = None, theta: float = 1.0) -> ExpmvReport:
    """Adaptive rational Krylov evaluation of
    sum_k theta^k phi_k(-theta alpha A) c_k.

    This is the top block of e^{theta A~(alpha)} c~, so every shifted solve
    is (xi I + alpha A) whatever theta is: calls that share alpha share
    their factorizations. The estimate is that of the time point theta
    (Goeckler & Grimm, SIMAX 35 (2014), for a fixed rational Krylov space
    read at several times). The steps of ``poles`` are consumed in
    order, a conjugate pair always whole; after them the subspace keeps
    growing with polynomial steps until the error estimate meets ``tol``.
    An empty ``PoleSet(())`` makes every step polynomial, and ``solver``
    then makes no solve. The estimate is first evaluated at ``m_min``,
    then after every pole step, so a pole set that meets ``tol`` early
    stops before its last, costly shifted systems are set up, and every
    ``check_cadence`` steps once the poles are consumed. Checks fall
    between steps, and a polynomial step is inserted before each check
    when the newest step used a finite pole (:func:`_adaptive_krylov`).
    A pair and that polynomial step may carry the subspace up to two
    steps past the cap ``m_hard``, by default len(poles) + 128.

    The decomposition takes the payload's arithmetic, on either solver
    path. A real payload needs a conjugate-closed pole set: each conjugate
    pair is then one pair step with one solve (see
    :func:`rational_arnoldi_step`), which an iterative solver makes to the
    pair's tighter target (:func:`~ratexpint.solvers.split_tolerance`). A
    complex payload takes any pole set, a lone complex pole included, and
    each pole makes its own solve. A zero payload gives the zero vector
    with estimate 0, no Arnoldi step and no solve. On the direct path the
    LUs are built two at a time, in the order the loop takes the steps of
    ``poles``: a lookup that misses a pole's LU also builds the LU of the
    next step's pole on a worker thread, which it joins before it returns
    or raises (:meth:`~ratexpint.solvers.ShiftedSolver.solve_shifted`).

    Raises
    ------
    ValueError
        If ``solver`` belongs to another operator than ``op``, or if the
        payload is real and the pole set is not conjugate-closed.
    SingularProjection
        If the projected system K_m is singular at a check.
    ToleranceNotReached
        If the hard subspace cap is hit first; the partial result rides on
        the exception's ``report``.
    """
    if solver.op is not op:
        raise ValueError("the shifted solver belongs to another operator")
    aug, c_tilde, m_hard = _engine_input(op, alpha, c_vectors, poles, tol, m_min,
                                         check_cadence, m_hard)
    if not np.any(c_tilde):  # the action on zero is zero: no step, no solve
        return ExpmvReport(vector=np.zeros_like(c_tilde), n=op.n, estimate=0.0, converged=True)

    d = RationalDecomposition(aug, c_tilde)

    log_start = len(solver.solve_log)
    history: list[tuple[int, float]] = []
    result, estimate, converged = _adaptive_krylov(
        d, poles.steps, solver, theta, tol, m_min, m_hard, check_cadence, history)
    solves = solver.solve_log[log_start:]

    report = ExpmvReport(
        vector=result, n=op.n, estimate=estimate,
        converged=converged, estimate_history=history,
        poles_consumed=list(d.poles_used), substeps=1, arnoldi_steps=d.m,
        solves=len(solves), solver_iterations=sum(s.iterations for s in solves),
        solver_residual_max=max((s.residual for s in solves), default=0.0),
    )
    if not converged:
        raise ToleranceNotReached(
            f"error estimate {estimate:.3e} above tolerance {tol:.3e} "
            f"at the subspace cap m_hard={m_hard} (m={d.m})", report)
    return report


def expmv_polynomial(op: SparseOperator, alpha: float, c_vectors: Sequence[np.ndarray], *,
                     tol: float = DEFAULT_TOL, m_min: int = DEFAULT_M_MIN,
                     check_cadence: int = DEFAULT_CHECK_CADENCE,
                     m_hard: Optional[int] = None, theta: float = 1.0) -> ExpmvReport:
    """Polynomial Krylov evaluation of sum_k theta^k phi_k(-theta alpha A) c_k
    with time sub-stepping, built as phipm builds it (Niesen & Wright, ACM
    TOMS 38 (2012)).

    With B = -alpha A, each sub-step of length s first reduces its payload
    to one vector of the plain operator: w_0 = c_0 and w_j = B w_{j-1} + c_j,
    p operator applies. Then sum_k s^k phi_k(sB) c_k = s^p phi_p(sB) w_p
    + sum_{j<p} s^j / j! w_j, and only the phi_p action is approximated, in
    the Krylov space of B from w_p, by the adaptive loop with no finite
    poles. On a symmetric A that basis is built by Lanczos (each vector
    orthogonalized against the two newest, see :class:`RationalDecomposition`);
    otherwise by full two-pass classical Gram-Schmidt. With no pole steps the
    estimate is checked at ``m_min`` and then every ``check_cadence`` steps.

    On rough data the terms s^j / j! w_j grow like (s ||B||)^j and cancel
    in the sum. A sub-step whose rounding floor,
    eps * max_{1<=j<p} s^j / j! ||w_j||, exceeds ``REDUCTION_ROUNDING_SHARE``
    of its budget runs instead as before the reduction: the adaptive loop
    reads e^{s A~} of the augmented state, with a full Gram-Schmidt basis.

    The sub-step clock tau runs over fractions of theta, s = tau * theta,
    and each sub-step checks its estimate against the proportional budget
    tol * tau. If the subspace cap ``m_hard`` (by default 128, the rational
    engine's default with no poles) is reached first, tau is halved and the
    adaptive loop checks the same basis again, since w_p and the Krylov
    space do not depend on tau. The accepted sub-steps compose
    e^{theta A~} = prod e^{tau_i theta A~}: a sub-step that starts once a
    fraction t of theta is done takes c_0 = the state reached so far and
    c_k = C J^{k-1} y, with y = e^{t theta J} e_p the exact Jordan tail.
    The reported estimate is the sum over the accepted sub-steps, the
    quantity held to sum tol * tau_i = tol, and the vector is
    e^{theta A~} c~ with that exact tail appended.
    """
    aug, c_tilde, m_hard = _engine_input(op, alpha, c_vectors, PoleSet(()), tol, m_min,
                                         check_cadence, m_hard)
    if not np.any(c_tilde):  # the action on zero is zero: no step, no solve
        return ExpmvReport(vector=np.zeros_like(c_tilde), n=op.n, estimate=0.0, converged=True)

    n, p, C = aug.n, aug.p, aug.C
    plain = AugmentedOperator(op=op, alpha=aug.alpha, C=C[:, :0])  # B, no tail
    history: list[tuple[int, float]] = []
    u = c_tilde[:n]
    estimate = 0.0
    done = 0.0
    tau = 1.0
    sizes: list[int] = []  # subspace size of each accepted sub-step

    while done < 1.0 - 1e-15:
        tau = min(tau, 1.0 - done)
        y = _jordan_tail(done * theta, p)
        w = [u]
        for k in range(1, p + 1):
            w.append(plain.apply(w[-1]) + C[:, :p - k + 1] @ y[k - 1:])
        floor = max((_EPS * (tau * theta) ** j / math.factorial(j) * np.linalg.norm(w[j])
                     for j in range(1, p)), default=0.0)
        if floor > REDUCTION_ROUNDING_SHARE * tol * tau:
            d = RationalDecomposition(aug, np.concatenate([u, y]))
            phi, taylor = 0, []
        elif np.any(w[p]):
            d = RationalDecomposition(plain, w[p], lanczos=op.symmetric)
            phi, taylor = p, w[:p]
        else:  # no phi_p term: the Taylor part is exact over what is left of theta
            d, taylor, tau = None, w[:p], 1.0 - done
            top, sub_estimate = np.zeros_like(u), 0.0
        while d is not None:
            # at the cap, with a polynomial newest step, this call only checks
            top, sub_estimate, converged = _adaptive_krylov(
                d, (), None, tau * theta, tol * tau, m_min, m_hard, check_cadence,
                history, phi=phi)
            if converged:
                break
            tau /= 2.0
            if tau < SUBSTEP_UNDERFLOW:
                raise KrylovError(f"sub-step underflow: tau={tau:.3e}")
        sizes.append(0 if d is None else d.m)
        u = top[:n]
        for j, w_j in enumerate(taylor):
            u = u + (tau * theta) ** j / math.factorial(j) * w_j
        estimate += sub_estimate
        done += tau

    return ExpmvReport(vector=np.concatenate([u, _jordan_tail(theta, p)]), n=n,
                       estimate=estimate, converged=True, estimate_history=history,
                       substeps=len(sizes), arnoldi_steps=sum(sizes))


def _jordan_tail(t: float, p: int) -> np.ndarray:
    """e^{t J_p} e_p: entry i is t^(p-1-i) / (p-1-i)!."""
    return np.array([t ** (p - 1 - i) / math.factorial(p - 1 - i) for i in range(p)])
