"""The oracle suite behind the verify subcommand, including fault injection."""

import numpy as np
import pytest

import ratexpint.tableaus as tableaus_mod
from ratexpint import verify
from ratexpint.krylov import ToleranceNotReached, expmv_rational
from ratexpint.poles import builtin_pole_set
from ratexpint.problems import fd_laplacian_1d
from ratexpint.solvers import ShiftedSolver, SolverConfig
from ratexpint.tableaus import Tableau


def test_run_all_green():
    results = verify.run_all()
    assert results
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_corrupted_tableau_names_the_failing_check(monkeypatch):
    # poison the etd3rk stage-2 coefficient
    etd = tableaus_mod.METHODS["etd3rk"]
    monkeypatch.setitem(tableaus_mod.METHODS, "etd3rk", Tableau(
        name="etd3rk", c=etd.c, stage_coeffs={**etd.stage_coeffs, 2: {1: {1: 0.75}}},
        update_coeffs=etd.update_coeffs))
    results = verify.check_tableau_consistency()
    failing = [r for r in results if not r.passed]
    assert failing
    assert any("etd3rk stage-2" in r.name for r in failing)


def test_raising_check_fails_with_its_message(monkeypatch):
    import ratexpint.verify as v

    def broken(name):
        raise RuntimeError(f"cannot build pole set {name!r}")

    monkeypatch.setattr(v, "builtin_pole_set", broken)
    results = v.run_all()
    failing = [r for r in results if not r.passed]
    assert failing
    assert any("RuntimeError: cannot build pole set 'cf12'" in r.detail for r in failing)


def test_scaled_spectrum_matrices_have_unit_interval():
    mats = verify.scaled_spectrum_matrices()
    assert set(mats) == {"laplace1d", "laplace2d", "equispaced"}
    for name, op in mats.items():
        eigs = np.linalg.eigvalsh(op.todense())
        assert eigs.min() == pytest.approx(1.0, abs=1e-6), name
        assert eigs.max() == pytest.approx(1000.0, rel=1e-9), name


def test_taylor_oracle_is_independent_reference():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((5, 5)) * 0.3
    ref = verify.taylor_expm(z, terms=60)
    # crude independent sanity: series of the trace identity det(e^Z) = e^tr(Z)
    assert np.linalg.det(ref) == pytest.approx(np.exp(np.trace(z)), rel=1e-10)


@pytest.mark.parametrize("payload", ["real", "complex"])
def test_estimator_study_checks_where_the_engine_checks(payload):
    """The study's points are the checks of the adaptive loop at m_min = 1
    and check_cadence = 1: the oracle and the engine grow one schedule."""
    n, h, m_cap = 160, 0.5, 30
    op = verify._rescaled(fd_laplacian_1d(n, float(n), "dirichlet").tocsr(), 0.0, 4.0)
    rng = np.random.default_rng(35)
    c0 = rng.uniform(0, 1, n)
    if payload == "complex":
        c0 = c0 + 1j * rng.uniform(0, 1, n)
    poles = builtin_pole_set("cf12")
    points = verify.estimator_study(op, h, c0, poles, m_cap=m_cap)
    with pytest.raises(ToleranceNotReached) as err:
        expmv_rational(op, h, [c0], poles, ShiftedSolver(op, SolverConfig(mode="direct")),
                       tol=1e-300, m_min=1, check_cadence=1, m_hard=m_cap)
    history = err.value.report.estimate_history
    assert [m for m, _ in history] == [m for m, _, _ in points]
    assert len(history) > len(poles.steps)  # past the pole steps, into polynomial ones
    for (_, engine_estimate), (_, study_estimate, _) in zip(history, points):
        assert engine_estimate == pytest.approx(study_estimate, rel=1e-12)
