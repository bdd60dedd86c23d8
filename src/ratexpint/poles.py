"""Pole sets for the rational Krylov engine.

Poles are stored in the convention used by the shifted solves: the engine
approximates e^z on the negative real semi-axis, so well-conditioned pole
sets have positive real parts and every finite pole xi turns into one
shifted system (xi I + alpha A). Files declaring the opposite sign
convention are flipped on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

INF_POLE = complex(math.inf, 0.0)

_CONVENTIONS = ("positive-real", "negative-real")

#: Matching tolerance when verifying conjugate closure of a loaded set.
CONJUGATE_MATCH_TOL = 1e-12


class PoleFileError(ValueError):
    pass


def is_infinite(xi: complex) -> bool:
    return math.isinf(xi.real) or math.isinf(xi.imag)


@dataclass(frozen=True)
class PoleSet:
    """Ordered list of finite, nonzero poles in the positive-real convention.

    Sets meant for real data are conjugate-closed with pairs adjacent (see
    :attr:`conjugate_closed`).
    """

    poles: tuple

    def __post_init__(self):
        for xi in self.poles:
            if xi == 0:
                raise ValueError("pole sets must not contain 0")
            if is_infinite(xi):
                raise ValueError("infinite poles are implicit; do not list them")

    @property
    def conjugate_closed(self) -> bool:
        return check_conjugate_closure(self.poles)

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
    return PoleSet(poles=tuple(complex(value, 0.0) for _ in range(count)))


def check_conjugate_closure(poles: Sequence[complex], tol: float = CONJUGATE_MATCH_TOL) -> bool:
    """True iff every strictly complex pole has an adjacent conjugate partner."""
    i = 0
    poles = list(poles)
    while i < len(poles):
        xi = poles[i]
        if xi.imag == 0:
            i += 1
            continue
        if i + 1 < len(poles) and is_conjugate(xi, poles[i + 1]):
            i += 2
            continue
        return False
    return True


def load_poles(path, allow_open: bool = False) -> PoleSet:
    """Load a pole file.

    Format: one ``re im`` float pair per line; ``#`` lines are comments, and
    a ``# convention=positive-real|negative-real`` header declares the sign
    convention (negative-real files are flipped on load). Sets that are not
    conjugate-closed are rejected unless ``allow_open``; any defect,
    including a set that :class:`PoleSet` rejects, raises PoleFileError.
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
    if not allow_open and not check_conjugate_closure(poles):
        raise PoleFileError(
            f"{path}: pole list is not conjugate-closed with adjacent pairs; "
            "pass allow_open=True only if this is intentional")
    try:
        return PoleSet(poles=tuple(poles))
    except ValueError as exc:
        raise PoleFileError(f"{path}: {exc}") from exc


def save_poles(ps: PoleSet, path) -> None:
    """Write a pole file that round-trips bit-exactly (repr float formatting)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# convention=positive-real\n")
        for xi in ps.poles:
            fh.write(f"{xi.real!r} {xi.imag!r}\n")


def builtin_pole_set(name: str) -> PoleSet:
    """Load one of the packaged pole fixtures (``cf12``, ``cf16_shifted``)."""
    from importlib import resources

    resource = resources.files("ratexpint").joinpath(f"data/poles/{name}.poles")
    if not resource.is_file():
        available = [p.name[:-6] for p in resources.files("ratexpint").joinpath("data/poles").iterdir()
                     if p.name.endswith(".poles")]
        raise FileNotFoundError(
            f"no packaged pole set {name!r}; available: {', '.join(sorted(available))}")
    with resources.as_file(resource) as path:
        return load_poles(path)


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
