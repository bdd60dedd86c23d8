"""Pole sets for the rational Krylov engine.

Poles are stored in the convention used by the shifted solves: the engine
approximates e^z on the negative real semi-axis, so well-conditioned pole
sets have positive real parts and every finite pole xi turns into one
shifted system (xi I + alpha A). Files declaring the opposite sign
convention are flipped on load.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

INF_POLE = complex(math.inf, 0.0)

_CONVENTIONS = ("positive-real", "negative-real")

#: Matching tolerance when pairing a complex pole with its conjugate.
CONJUGATE_MATCH_TOL = 1e-12


class PoleFileError(ValueError):
    pass


def is_infinite(xi: complex) -> bool:
    return math.isinf(xi.real) or math.isinf(xi.imag)


@dataclass(frozen=True)
class PoleSet:
    """Ordered list of finite, nonzero poles in the positive-real convention;
    a zero or non-finite pole raises ``ValueError``.

    :attr:`steps` groups the poles as the adaptive loop consumes them.
    Sets meant for real data are conjugate-closed with pairs adjacent (see
    :attr:`conjugate_closed`). ``name`` says where the set came from, for
    reports; it takes no part in comparisons.
    """

    poles: tuple
    name: str = field(default="", compare=False)

    def __post_init__(self):
        for xi in self.poles:
            if xi == 0:
                raise ValueError("pole sets must not contain 0")
            if is_infinite(xi):
                raise ValueError("infinite poles are implicit; do not list them")
            if not cmath.isfinite(xi):
                raise ValueError(f"poles must be finite, got {xi}")

    @functools.cached_property
    def steps(self) -> tuple:
        """The poles in order, grouped into steps: a complex pole and its
        conjugate next to it, in either order, form one pair step
        (xi, conj(xi)); every other pole is a step (xi,) of its own."""
        steps, i = [], 0
        while i < len(self.poles):
            xi = self.poles[i]
            size = 2 if (xi.imag != 0 and i + 1 < len(self.poles)
                         and is_conjugate(xi, self.poles[i + 1])) else 1
            steps.append(self.poles[i:i + size])
            i += size
        return tuple(steps)

    @property
    def conjugate_closed(self) -> bool:
        """True iff every complex pole has its conjugate next to it, that is,
        no step is a lone complex pole."""
        return all(len(step) == 2 or step[0].imag == 0 for step in self.steps)

    def __len__(self):
        return len(self.poles)

    def __iter__(self):
        return iter(self.poles)


def is_conjugate(a: complex, b: complex, tol: float = CONJUGATE_MATCH_TOL) -> bool:
    """True iff ``a`` is the conjugate of ``b`` to ``tol`` relative to
    max(|a|, |b|, 1)."""
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b.conjugate()) <= tol * scale


def repeated_real(value: float, count: int) -> PoleSet:
    """Shift-and-invert pole set: one real value repeated `count` times."""
    if value == 0:
        raise ValueError("the repeated pole must be nonzero")
    if count < 1:
        raise ValueError("need at least one pole")
    return PoleSet(poles=tuple(complex(value, 0.0) for _ in range(count)),
                   name=f"repeated_real({value}, {count})")


def load_poles(path) -> PoleSet:
    """Load a pole file.

    Format: one ``re im`` float pair per line; ``#`` lines are comments, and
    a ``# convention=positive-real|negative-real`` header declares the sign
    convention (negative-real files are flipped on load). A malformed line,
    an empty file, an unknown convention and a set that :class:`PoleSet`
    rejects raise PoleFileError. A set that is not conjugate-closed loads:
    only a run on real data needs closure, and it rejects such a set there
    (``EngineConfig``, ``expmv_rational``).
    """
    convention = "positive-real"
    poles: list[complex] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep and key.strip() == "convention":
                    convention = value.strip()
                continue
            parts = line.split()
            if len(parts) != 2:
                raise PoleFileError(f"{path}:{lineno}: expected 're im', got {line!r}")
            try:
                re, im = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise PoleFileError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(re) and math.isfinite(im)):
                raise PoleFileError(f"{path}:{lineno}: poles must be finite")
            poles.append(complex(re, im))
    if not poles:
        raise PoleFileError(f"{path}: no poles found")
    if convention not in _CONVENTIONS:
        raise PoleFileError(f"{path}: unknown convention {convention!r}")
    if convention == "negative-real":
        poles = [-xi for xi in poles]
    try:
        return PoleSet(poles=tuple(poles), name=str(path))
    except ValueError as exc:
        raise PoleFileError(f"{path}: {exc}") from exc


def cf_poles(n: int) -> tuple[tuple[complex, ...], float]:
    """Poles of the type-(n,n) Caratheodory-Fejer approximation of e^x on
    (-inf, 0], and its CF error level sigma_n.

    The semi-axis is transplanted to [-1, 1] by x = 9 (t-1)/(t+1); the
    singular vector of the Chebyshev-coefficient Hankel matrix carries the
    denominator, whose roots outside the unit disk map to the poles
    (Trefethen, Weideman & Schmelzer, BIT 46 (2006)). sigma_n decays like
    9.28903^-n. Conjugate pairs are adjacent, upper pole first, sorted by
    |Im| then Re so the strongest poles are consumed first.

    Raises RuntimeError where the construction loses the exterior roots
    (n >= 17 at this resolution).
    """
    scl, k, nf = 9.0, 75, 1024
    t = np.cos(2.0 * np.pi * np.arange(nf) / nf)
    c = np.real(np.fft.fft(np.exp(scl * (t - 1.0) / (t + 1.0 + 1e-16)))) / nf
    _, s, vh = np.linalg.svd(sla.hankel(c[1:k + 1]))
    zr = np.roots(vh[n, :].conj())
    roots = zr[np.abs(zr) > 1.0]
    if len(roots) != n:
        raise RuntimeError(f"expected {n} exterior roots, found {len(roots)}")
    # The denominator is real, so its roots come in exact conjugate pairs.
    upper = sorted((complex(p) for p in scl * ((roots - 1.0) / (roots + 1.0)) ** 2
                    if p.imag >= 0), key=lambda p: (abs(p.imag), p.real))
    poles = tuple(q for p in upper for q in ((p, p.conjugate()) if p.imag else (p,)))
    return poles, float(s[n])


#: Built-in set name -> CF degree. ``cf12`` has two conjugate pairs with
#: negative real parts (direct solver); ``cf16_shifted`` is translated right
#: by the integer sigma = ceil(1 - min Re) so every real part is positive
#: (iterative solver). The translation multiplies the attainable accuracy by
#: e^sigma, which the four extra poles more than buy back.
_BUILTIN_DEGREES = {"cf12": 12, "cf16_shifted": 16}


@functools.cache
def builtin_pole_set(name: str) -> PoleSet:
    """One of the built-in CF pole sets (``cf12``, ``cf16_shifted``),
    computed on first use and cached."""
    if name not in _BUILTIN_DEGREES:
        raise ValueError(f"no built-in pole set {name!r}; available: "
                         f"{', '.join(_BUILTIN_DEGREES)}")
    poles, _ = cf_poles(_BUILTIN_DEGREES[name])
    if name.endswith("_shifted"):
        sigma = float(math.ceil(1.0 - min(p.real for p in poles)))
        poles = tuple(p + sigma for p in poles)
    return PoleSet(poles=poles, name=f"builtin:{name}")


def validate(ps: PoleSet, lam_max: float, scale: float = 1.0) -> list[str]:
    """Diagnostics only: warn about poles close to the negated operator spectrum.

    The augmented operator's spectrum sits in [-lam_max * scale, 0]; a pole
    within 1e-8 * lam_max of that segment makes the shifted system nearly
    singular.
    """
    warnings = []
    segment_lo = -abs(lam_max) * abs(scale)
    threshold = 1e-8 * abs(lam_max)
    for idx, xi in enumerate(ps.poles):
        re = min(max(xi.real, segment_lo), 0.0)
        dist = abs(xi - complex(re, 0.0))
        if dist <= threshold:
            warnings.append(
                f"pole {idx} = {xi} lies within {dist:.3e} of the spectrum segment "
                f"[{segment_lo:.3e}, 0] (threshold {threshold:.3e})")
    return warnings
