"""Pole sets: construction, file round-trips, validation, the built-in CF sets."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ratexpint.krylov import expmv_rational
from ratexpint.linalg import SparseOperator
from ratexpint.poles import (PoleFileError, PoleSet, builtin_pole_set, cf_poles,
                             is_conjugate, load_poles, repeated_real, validate)
from ratexpint.problems import fd_laplacian_1d
from ratexpint.solvers import ShiftedSolver, SolverConfig


def write_poles(path, poles):
    """A pole file in repr float formatting, which round-trips bit-exactly."""
    path.write_text("".join(f"{xi.real!r} {xi.imag!r}\n" for xi in poles))


def test_repeated_real_basic():
    ps = repeated_real(-3.14e5, 500)
    assert len(ps) == 500
    assert all(xi == complex(-3.14e5, 0.0) for xi in ps)


def test_repeated_real_paper_style_small_value():
    ps = repeated_real(-1.0 / 20.0, 3)
    assert ps.poles[0] == complex(-0.05, 0.0)


def test_repeated_real_singleton():
    assert len(repeated_real(2.0, 1)) == 1


def test_zero_pole_rejected_everywhere():
    with pytest.raises(ValueError):
        repeated_real(0.0, 4)
    with pytest.raises(ValueError):
        PoleSet(poles=(0.0 + 0.0j,))


def test_non_finite_pole_rejected():
    # a NaN pole would reach the solver and fail there as a numerical error
    for bad in (complex("nan"), complex(4.0, float("nan")), complex(float("inf"), 1.0)):
        with pytest.raises(ValueError, match="finite|implicit"):
            PoleSet(poles=(4 + 2j, 4 - 2j, bad))
    with pytest.raises(ValueError, match="finite"):
        repeated_real(float("nan"), 4)


def test_conjugate_closure_check():
    assert PoleSet((1 + 2j, 1 - 2j, 3 + 0j)).conjugate_closed
    assert not PoleSet((1 + 2j, 3 + 0j)).conjugate_closed
    assert not PoleSet((1 + 2j, 2 - 2j)).conjugate_closed
    # a PoleSet derives the flag from its poles
    assert PoleSet(poles=(4 + 3j,)).conjugate_closed is False
    assert PoleSet(poles=(4 + 3j, 4 - 3j)).conjugate_closed is True


def test_steps_group_adjacent_conjugate_pairs():
    assert PoleSet((4 + 2j, 4 - 2j) * 2).steps == ((4 + 2j, 4 - 2j), (4 + 2j, 4 - 2j))
    # either order is a pair; a real pole repeated is not
    assert PoleSet((4 - 2j, 4 + 2j, 3, 3)).steps == ((4 - 2j, 4 + 2j), (3,), (3,))
    # a pair lost to an earlier partner leaves a lone complex step
    assert PoleSet((4 + 2j, 4 - 2j, 4 - 2j)).steps == ((4 + 2j, 4 - 2j), (4 - 2j,))


_REAL_POLE = st.sampled_from([-2.0, 1.0, 4.0]).map(complex)
_COMPLEX_POLE = st.builds(complex, st.sampled_from([-2.0, 1.0, 4.0]),
                          st.sampled_from([-2.0, 1.0, 2.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    _REAL_POLE.map(lambda xi: (xi,)),
    _COMPLEX_POLE.map(lambda xi: (xi, xi.conjugate())),
    _COMPLEX_POLE.map(lambda xi: (xi,))), max_size=8))
def test_steps_property(chunks):
    # chunks of real poles, conjugate pairs in either order and lone complex poles
    poles = tuple(xi for chunk in chunks for xi in chunk)
    ps = PoleSet(poles)
    assert tuple(xi for step in ps.steps for xi in step) == poles
    assert all(len(step) in (1, 2) for step in ps.steps)
    for step in ps.steps:
        if len(step) == 2:
            assert step[0].imag != 0 and is_conjugate(step[0], step[1])
    lone = any(len(step) == 1 and step[0].imag != 0 for step in ps.steps)
    assert ps.conjugate_closed is not lone
    if all(len(chunk) == 2 or chunk[0].imag == 0 for chunk in chunks):
        # built from whole pairs and real poles only: the walk finds the same grouping
        assert ps.steps == tuple(chunks)
        assert ps.conjugate_closed


def test_load_rejects_open_set(tmp_path):
    path = tmp_path / "open.poles"
    path.write_text("# convention=positive-real\n1.0 2.0\n3.0 0.0\n")
    with pytest.raises(PoleFileError, match="not conjugate-closed"):
        load_poles(path)


def test_load_accepts_closed_set(tmp_path):
    path = tmp_path / "closed.poles"
    path.write_text("1.0 2.0\n1.0 -2.0\n3.0 0.0\n")
    ps = load_poles(path)
    assert len(ps) == 3
    assert ps.conjugate_closed


def test_sign_convention_flip(tmp_path):
    path = tmp_path / "neg.poles"
    path.write_text("# convention=negative-real\n-1.0 2.0\n-1.0 -2.0\n")
    ps = load_poles(path)
    assert ps.poles[0] == 1.0 - 2.0j


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    vals = rng.standard_normal(6) * 10.0 ** rng.integers(-8, 8, 6)
    poles = []
    for re, im in zip(vals[:3], vals[3:]):
        poles += [complex(re, abs(im)), complex(re, -abs(im))]
    path = tmp_path / "rt.poles"
    write_poles(path, poles)
    assert load_poles(path).poles == tuple(poles)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
       st.floats(min_value=0.0, max_value=1e30, allow_nan=False))
def test_round_trip_property(tmp_path_factory, re, im):
    if re == 0.0 and im == 0.0:
        return
    path = tmp_path_factory.mktemp("poles") / "p.poles"
    poles = (complex(re, im), complex(re, -im)) if im else (complex(re, 0.0),)
    write_poles(path, poles)
    assert load_poles(path).poles == poles


def test_validate_warns_near_spectrum():
    ps = PoleSet(poles=(complex(-500.0, 0.0),))
    warnings = validate(ps, lam_max=1000.0, scale=1.0)
    assert len(warnings) == 1
    assert "pole 0" in warnings[0]


def test_validate_silent_for_safe_poles():
    ps = builtin_pole_set("cf16_shifted")
    assert validate(ps, lam_max=1e6) == []


def test_validate_flags_pole_just_off_axis():
    ps = PoleSet(poles=(complex(-10.0, 1e-6),))
    # distance 1e-6 from the segment, threshold 1e-8 * 1000 = 1e-5
    assert len(validate(ps, lam_max=1000.0)) == 1


def test_builtin_cf12_properties():
    ps = builtin_pole_set("cf12")
    assert len(ps) == 12
    assert ps.conjugate_closed
    assert all(len(step) == 2 for step in ps.steps)  # six conjugate pairs
    # rational best-approximation sets straddle the imaginary axis
    assert any(xi.real < 0 for xi in ps)
    assert any(xi.real > 0 for xi in ps)


def test_builtin_cf16_shifted_is_iterative_safe():
    ps = builtin_pole_set("cf16_shifted")
    assert len(ps) == 16
    assert all(xi.real > 0 for xi in ps)


def test_unknown_builtin():
    with pytest.raises(ValueError, match="'nope'; available: cf12, cf16_shifted"):
        builtin_pole_set("nope")


def test_builtin_sets_are_computed_once():
    assert builtin_pole_set("cf12") is builtin_pole_set("cf12")


@pytest.mark.parametrize("n", [6, 8, 10, 12, 14])
def test_cf_error_level_decays_at_the_cf_rate(n):
    """sigma_n ~ 9.28903^-n, so two degrees buy a factor of about 86.3."""
    poles, level = cf_poles(n)
    assert len(poles) == n
    assert PoleSet(poles).conjugate_closed
    assert 80.0 <= level / cf_poles(n + 2)[1] <= 92.0


def test_cf_construction_limit():
    with pytest.raises(RuntimeError, match="expected 18 exterior roots"):
        cf_poles(18)


@pytest.mark.parametrize("spectrum_max", [1e3, 1e6, 1e8])
@pytest.mark.parametrize("name", ["cf12", "cf16_shifted"])
def test_builtin_set_certified_on_wide_spectra(name, spectrum_max):
    """The rational engine with each built-in set reproduces e^{-D} c0 to
    1e-8 for diagonal D with spectrum {0} and 1e-9*s..s, up to s = 1e8."""
    n = 1500
    lam = np.concatenate([[0.0], np.geomspace(spectrum_max * 1e-9, spectrum_max, n - 1)])
    op = SparseOperator(sp.diags(lam).tocsr())
    c0 = np.random.default_rng(7).standard_normal(n)
    c0 /= np.linalg.norm(c0)
    exact = np.exp(-lam) * c0
    ps = builtin_pole_set(name)
    if name == "cf16_shifted":
        assert min(xi.real for xi in ps) > 0
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    rep = expmv_rational(op, 1.0, [c0], ps, solver,
                         tol=1e-8, m_min=4, check_cadence=2)
    err = np.linalg.norm(rep.phi_combination - exact) / np.linalg.norm(exact)
    assert err <= 1e-8


def test_cf12_drives_engine_below_tolerance_quickly():
    """The set's purpose: tolerance 1e-8 within 14 iterations on a
    1D second-difference matrix with spectrum scaled to [1, 1000]."""
    op_raw = fd_laplacian_1d(900, 900.0, "dirichlet")
    k = np.arange(1, 901)
    lam = 2.0 - 2.0 * np.cos(k * np.pi / 901.0)
    a = 999.0 / (lam.max() - lam.min())
    b = 1.0 - a * lam.min()
    op = SparseOperator((a * op_raw.tocsr()
                         + b * sp.identity(900, format="csr")).tocsr())
    c0 = np.full(900, 1.0 / 30.0)
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    rep = expmv_rational(op, 1.0, [c0], builtin_pole_set("cf12"), solver,
                         tol=1e-8, m_min=12, check_cadence=1)
    assert rep.converged
    assert rep.arnoldi_steps <= 14
    assert rep.estimate <= 1e-8


def test_conjugate_closed_set_keeps_real_data_real():
    rng = np.random.default_rng(13)
    op = fd_laplacian_1d(80, 1.0, "neumann")
    c0 = rng.standard_normal(80)
    solver = ShiftedSolver(op, SolverConfig(mode="direct"))
    rep = expmv_rational(op, 1e-3, [c0], builtin_pole_set("cf12"), solver,
                         tol=1e-10, m_min=4, check_cadence=2)
    out = rep.vector
    # one solve per conjugate pair keeps the arithmetic real
    assert out.dtype == np.float64
    # in complex arithmetic, the same set leaves only a rounding-level
    # imaginary part
    cplx = expmv_rational(op, 1e-3, [c0.astype(np.complex128)], builtin_pole_set("cf12"),
                          ShiftedSolver(op, SolverConfig(mode="direct")),
                          tol=1e-10, m_min=4, check_cadence=2).vector
    assert np.max(np.abs(cplx.imag)) <= 1e-9 * np.linalg.norm(cplx)
    assert np.linalg.norm(out - cplx.real) <= 1e-12 * np.linalg.norm(out)
