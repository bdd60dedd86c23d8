"""Exponential Runge-Kutta tableaus.

Coefficients live in a data-driven registry file so transcription slips are
fixable without code changes; the empirical-order tests are the
certification gate. Each coefficient entry expands to
``value * phi_<index>(-c_j h A)`` (stage rows) or ``value * phi_<index>(-h A)``
(update row).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

REGISTRY_RESOURCE = "tableaus.txt"


class TableauError(ValueError):
    pass


@dataclass(frozen=True)
class Tableau:
    """One explicit exponential Runge-Kutta method.

    ``stage_coeffs[j][k][l]`` is the coefficient of phi_l(-c_j h A) applied
    to G_k inside stage j; ``update_coeffs[j][l]`` the coefficient of
    phi_l(-h A) applied to G_j in the final update. Indices are 1-based to
    match the usual tableau notation.
    """

    name: str
    stages: int
    stiff_order: int
    c: tuple
    stage_coeffs: dict
    update_coeffs: dict

    def __post_init__(self):
        if self.stages < 1:
            raise TableauError("need at least one stage")
        if len(self.c) != self.stages:
            raise TableauError("node count must match stage count")
        if self.c[0] != 0.0:
            raise TableauError("first node must be 0")
        for j, row in self.stage_coeffs.items():
            if not 2 <= j <= self.stages:
                raise TableauError(f"stage index {j} out of range")
            for k in row:
                if k >= j:
                    raise TableauError(
                        f"stage coupling a[{j},{k}] is not strictly lower triangular")
        for j in self.update_coeffs:
            if not 1 <= j <= self.stages:
                raise TableauError(f"update index {j} out of range")

    def update_weights_at_zero(self) -> float:
        """sum_j b_j(0); equals 1 for any consistent method (phi_k(0) = 1/k!)."""
        import math
        total = 0.0
        for terms in self.update_coeffs.values():
            for l, coeff in terms.items():
                total += coeff / math.factorial(l)
        return total

    def expmv_calls_per_step(self) -> int:
        """Stages with nonzero coupling plus the final update."""
        return sum(1 for j in range(2, self.stages + 1)
                   if self.stage_coeffs.get(j)) + 1


def exponential_euler() -> Tableau:
    """Single-stage method u_{i+1} = e^{-hA} u + h phi_1(-hA) g(t, u)."""
    return Tableau(name="euler1", stages=1, stiff_order=1, c=(0.0,),
                   stage_coeffs={}, update_coeffs={1: {1: 1.0}})


def _parse_value(token: str) -> float:
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise TableauError(f"bad coefficient value {token!r}") from exc


def parse_registry(text: str) -> dict[str, Tableau]:
    """Parse the registry format; see the packaged ``tableaus.txt`` header."""
    methods: dict[str, Tableau] = {}
    current: Optional[dict] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "method":
                if current is not None:
                    raise TableauError(f"line {lineno}: nested method block")
                if len(parts) != 6 or parts[2] != "stages" or parts[4] != "stiff_order":
                    raise TableauError(f"line {lineno}: malformed method header")
                current = {"name": parts[1], "stages": int(parts[3]),
                           "order": int(parts[5]), "c": {}, "a": {}, "b": {}}
            elif parts[0] == "c":
                j = int(parts[1])
                current["c"][j] = _parse_value(parts[2])
            elif parts[0] == "a":
                j, k, l = int(parts[1]), int(parts[2]), int(parts[3])
                current["a"].setdefault(j, {}).setdefault(k, {})[l] = _parse_value(parts[4])
            elif parts[0] == "b":
                j, l = int(parts[1]), int(parts[2])
                current["b"].setdefault(j, {})[l] = _parse_value(parts[3])
            elif parts[0] == "end":
                s = current["stages"]
                c = tuple(current["c"].get(j, None) for j in range(1, s + 1))
                if any(v is None for v in c):
                    raise TableauError(f"method {current['name']}: missing node")
                methods[current["name"]] = Tableau(
                    name=current["name"], stages=s, stiff_order=current["order"],
                    c=c, stage_coeffs=current["a"], update_coeffs=current["b"])
                current = None
            else:
                raise TableauError(f"line {lineno}: unknown record {parts[0]!r}")
        except (TypeError, AttributeError, IndexError, ValueError) as exc:
            raise TableauError(f"line {lineno}: {exc}") from exc
    if current is not None:
        raise TableauError("unterminated method block")
    return methods


_cache: Optional[dict[str, Tableau]] = None


def _registry() -> dict[str, Tableau]:
    global _cache
    if _cache is None:
        text = resources.files("ratexpint.data").joinpath(REGISTRY_RESOURCE).read_text()
        _cache = parse_registry(text)
    return _cache


def tableau(name: str) -> Tableau:
    """Look up a registered method by name."""
    reg = _registry()
    if name not in reg:
        raise TableauError(
            f"unknown integrator {name!r}; available: {', '.join(sorted(reg))}")
    return reg[name]


def available() -> tuple[str, ...]:
    return tuple(sorted(_registry()))
