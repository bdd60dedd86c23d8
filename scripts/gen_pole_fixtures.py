#!/usr/bin/env python3
"""Generate the packaged pole fixtures.

Two sets, both for approximating e^x on the negative real semi-axis
(equivalently e^{-x} on [0, inf), sign-flipped):

* ``cf12.poles``      - poles of the type-(12,12) Caratheodory-Fejer best
  approximation, computed by the classic Hankel-SVD construction on the
  transplanted unit disk. Two conjugate pairs have negative real parts, so
  this set belongs on the direct solver path.
* ``cf16_shifted.poles`` - type-(16,16) CF poles translated right by an
  integer sigma so every real part is positive (iterative-solver friendly).
  The translation multiplies the attainable accuracy by e^sigma, which the
  four extra poles more than buy back.

Both sets are certified here by running the package's own rational Krylov
engine against diagonal operators with spectra spanning [0, 1e3]..[0, 1e8]
and comparing to the exact exponential; generation aborts if the plateau is
worse than 1e-8.
"""

import pathlib
import sys

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ratexpint.krylov import expmv_rational
from ratexpint.linalg import SparseOperator
from ratexpint.poles import PoleSet, save_poles
from ratexpint.solvers import ShiftedSolver, SolverConfig

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "ratexpint" / "data" / "poles"


def cf_poles(n: int, K: int = 75, nf: int = 1024, scl: float = 9.0):
    """Type-(n,n) CF approximation poles for e^x on (-inf, 0].

    The semi-axis is transplanted to [-1, 1] by x = scl (t-1)/(t+1); the
    singular vector of the Chebyshev-coefficient Hankel matrix carries the
    denominator, whose roots outside the unit disk map to the poles.
    """
    w = np.exp(2j * np.pi * np.arange(nf) / nf)
    t = w.real
    F = np.exp(scl * (t - 1.0) / (t + 1.0 + 1e-16))
    c = np.real(np.fft.fft(F)) / nf
    H = sla.hankel(c[1:K + 1])
    _, S, Vh = np.linalg.svd(H)
    v = Vh[n, :].conj()
    zr = np.roots(v)
    roots = zr[np.abs(zr) > 1.0]
    if len(roots) != n:
        raise RuntimeError(f"expected {n} exterior roots, found {len(roots)}")
    poles = scl * ((roots - 1.0) / (roots + 1.0)) ** 2
    return poles, float(S[n])


def order_pairs(poles):
    """Conjugate pairs adjacent (positive imaginary part first), sorted by
    |Im| then Re so the strongest poles are consumed first."""
    poles = list(poles)
    pairs, used = [], [False] * len(poles)
    for i, p in enumerate(poles):
        if used[i]:
            continue
        used[i] = True
        match = None
        for j in range(i + 1, len(poles)):
            if not used[j] and abs(poles[j] - np.conj(p)) < 1e-8 * max(1.0, abs(p)):
                match = j
                break
        if match is None:
            pairs.append((p,))
        else:
            used[match] = True
            a, b = (p, poles[match]) if p.imag >= 0 else (poles[match], p)
            pairs.append((a, b))
    pairs.sort(key=lambda t: (abs(t[0].imag), t[0].real))
    return [complex(x) for t in pairs for x in t]


def certify(poles, spectrum_max, tol=1e-8, n=1500):
    lam = np.concatenate([[0.0], np.geomspace(spectrum_max * 1e-9, spectrum_max, n - 1)])
    op = SparseOperator(sp.diags(lam).tocsr())
    rng = np.random.default_rng(7)
    c0 = rng.standard_normal(n)
    c0 /= np.linalg.norm(c0)
    exact = np.exp(-lam) * c0
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    ps = PoleSet(poles=tuple(poles))
    rep = expmv_rational(op, 1.0, [c0], ps, solver,
                         tol=tol, m_min=4, m_max=len(poles), check_cadence=2)
    err = np.linalg.norm(rep.phi_combination - exact) / np.linalg.norm(exact)
    return rep.arnoldi_steps, err


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    p12, level12 = cf_poles(12)
    p12 = order_pairs(p12)
    print(f"cf12: CF error level {level12:.3e}")
    for s in (1e3, 1e6, 1e8):
        m, err = certify(p12, s)
        print(f"  certify on [0,{s:g}]: m={m} rel_err={err:.2e}")
        assert err <= 1e-8, "cf12 certification failed"
    save_poles(PoleSet(poles=tuple(p12)), OUT_DIR / "cf12.poles")

    p16, level16 = cf_poles(16)
    sigma = float(np.ceil(-min(p.real for p in p16) + 1.0))
    p16s = order_pairs(np.asarray(p16) + sigma)
    assert min(p.real for p in p16s) > 0
    print(f"cf16_shifted: CF error level {level16:.3e}, shift {sigma}, "
          f"shifted level {level16 * np.exp(sigma):.3e}, min Re {min(p.real for p in p16s):.3f}")
    for s in (1e3, 1e6, 1e8):
        m, err = certify(p16s, s)
        print(f"  certify on [0,{s:g}]: m={m} rel_err={err:.2e}")
        assert err <= 1e-8, "cf16_shifted certification failed"
    save_poles(PoleSet(poles=tuple(p16s)), OUT_DIR / "cf16_shifted.poles")
    print("wrote", OUT_DIR / "cf12.poles")
    print("wrote", OUT_DIR / "cf16_shifted.poles")


if __name__ == "__main__":
    main()
