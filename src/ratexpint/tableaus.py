"""Exponential Runge-Kutta tableaus.

The methods are stated here as literals; the empirical-order tests are the
certification gate. Each coefficient entry expands to
``value * phi_<index>(-c_j h A)`` (stage rows) or ``value * phi_<index>(-h A)``
(update row). Sources: ETD3RK from Cox & Matthews, J. Comput. Phys. 176
(2002); the fourth-order method from Krogstad, J. Comput. Phys. 203 (2005).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tableau:
    """One explicit exponential Runge-Kutta method.

    ``stage_coeffs[j][k][l]`` is the coefficient of phi_l(-c_j h A) applied
    to G_k inside stage j; ``update_coeffs[j][l]`` the coefficient of
    phi_l(-h A) applied to G_j in the final update. Indices are 1-based to
    match the usual tableau notation.
    """

    name: str
    c: tuple
    stage_coeffs: dict
    update_coeffs: dict

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError("need at least one stage")
        if self.c[0] != 0.0:
            raise ValueError("first node must be 0")
        for j, row in self.stage_coeffs.items():
            if not 2 <= j <= self.stages:
                raise ValueError(f"stage index {j} out of range")
            if row and self.c[j - 1] == 0.0:
                raise ValueError(f"stage {j} has zero node but nonzero coefficients")
            for k in row:
                if k >= j:
                    raise ValueError(
                        f"stage coupling a[{j},{k}] is not strictly lower triangular")
        for j in self.update_coeffs:
            if not 1 <= j <= self.stages:
                raise ValueError(f"update index {j} out of range")

    @property
    def stages(self) -> int:
        return len(self.c)

    def update_weights_at_zero(self) -> float:
        """sum_j b_j(0); equals 1 for any consistent method (phi_k(0) = 1/k!)."""
        total = 0.0
        for terms in self.update_coeffs.values():
            for l, coeff in terms.items():
                total += coeff / math.factorial(l)
        return total

    def expmv_calls_per_step(self) -> int:
        """Engine calls of one step: one per nonzero node, plus the update
        (a stage at node 0 has no coefficients and is the step's start state)."""
        return sum(1 for node in self.c if node != 0.0) + 1


METHODS: dict[str, Tableau] = {
    "sw2": Tableau(
        "sw2", c=(0.0, 0.5),
        stage_coeffs={2: {1: {1: 0.5}}},
        update_coeffs={1: {1: 1.0, 2: -2.0}, 2: {2: 2.0}}),
    "etd3rk": Tableau(
        "etd3rk", c=(0.0, 0.5, 1.0),
        stage_coeffs={2: {1: {1: 0.5}}, 3: {1: {1: -1.0}, 2: {1: 2.0}}},
        update_coeffs={1: {1: 1.0, 2: -3.0, 3: 4.0}, 2: {2: 4.0, 3: -8.0},
                       3: {2: -1.0, 3: 4.0}}),
    "krogstad4": Tableau(
        "krogstad4", c=(0.0, 0.5, 0.5, 1.0),
        stage_coeffs={2: {1: {1: 0.5}}, 3: {1: {1: 0.5, 2: -1.0}, 2: {2: 1.0}},
                      4: {1: {1: 1.0, 2: -2.0}, 3: {2: 2.0}}},
        update_coeffs={1: {1: 1.0, 2: -3.0, 3: 4.0}, 2: {2: 2.0, 3: -4.0},
                       3: {2: 2.0, 3: -4.0}, 4: {2: -1.0, 3: 4.0}}),
}


def tableau(name: str) -> Tableau:
    """Look up a method by name."""
    if name not in METHODS:
        raise ValueError(
            f"unknown integrator {name!r}; available: {', '.join(available())}")
    return METHODS[name]


def available() -> tuple[str, ...]:
    return tuple(sorted(METHODS))
