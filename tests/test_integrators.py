"""Exponential Runge-Kutta stepping: tableaus, stage assembly, time loop."""

import ctypes
import dataclasses
import gc
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

from ratexpint import linalg
from ratexpint.integrators import (Engine, EngineConfig, NumericalBlowup,
                                   integrate, stage_to_expmv, step)
from ratexpint.krylov import assemble_augmented, dense_expm
from ratexpint.linalg import SparseOperator, phi_dense_all
from ratexpint.poles import PoleSet, builtin_pole_set, cf_poles
from ratexpint.problems import (Problem, allen_cahn_2d, fd_laplacian_2d, gierer_meinhardt_2d,
                                reaction_allen_cahn)
from ratexpint.solvers import SolverCache, SolverConfig
from ratexpint.tableaus import Tableau, available, tableau
from ratexpint.verify import random_spd_operator


def linear_problem(op, u0):
    return Problem(name="lin", A=op, g=lambda t, u: np.zeros_like(u),
                   u0=u0, params={})


def rational_config(**kw):
    kw.setdefault("poles", builtin_pole_set("cf12"))
    kw.setdefault("solver", SolverConfig(mode="direct"))
    return EngineConfig(engine="rational", **kw)


# ---------------------------------------------------------------------------
# Tableaus.
# ---------------------------------------------------------------------------

def test_available_methods():
    assert set(available()) == {"sw2", "etd3rk", "krogstad4"}


def test_unknown_method_lists_names():
    with pytest.raises(ValueError) as err:
        tableau("etd3kr")
    msg = str(err.value)
    for name in ("sw2", "etd3rk", "krogstad4"):
        assert name in msg


def test_etd3rk_coefficients():
    tab = tableau("etd3rk")
    assert tab.stages == 3
    assert tab.c == (0.0, 0.5, 1.0)
    assert tab.stage_coeffs[2] == {1: {1: 0.5}}
    assert tab.stage_coeffs[3] == {1: {1: -1.0}, 2: {1: 2.0}}
    # update row: b1 = phi1 - 3 phi2 + 4 phi3, b2 = 4 phi2 - 8 phi3, b3 = -phi2 + 4 phi3
    assert tab.update_coeffs[1] == {1: 1.0, 2: -3.0, 3: 4.0}
    assert tab.update_coeffs[2] == {2: 4.0, 3: -8.0}
    assert tab.update_coeffs[3] == {2: -1.0, 3: 4.0}
    # phi_1 appears only in b_1
    phi1_row = [tab.update_coeffs.get(j, {}).get(1, 0.0) for j in (1, 2, 3)]
    assert phi1_row == [1.0, 0.0, 0.0]


def test_sw2_coefficients():
    tab = tableau("sw2")
    assert tab.stages == 2
    assert tab.c == (0.0, 0.5)
    assert tab.stage_coeffs == {2: {1: {1: 0.5}}}
    # b1 = phi1 - 2 phi2, b2 = 2 phi2
    assert tab.update_coeffs == {1: {1: 1.0, 2: -2.0}, 2: {2: 2.0}}


def test_krogstad4_coefficients():
    tab = tableau("krogstad4")
    assert tab.stages == 4
    assert tab.c == (0.0, 0.5, 0.5, 1.0)
    assert tab.stage_coeffs == {
        2: {1: {1: 0.5}},
        3: {1: {1: 0.5, 2: -1.0}, 2: {2: 1.0}},
        4: {1: {1: 1.0, 2: -2.0}, 3: {2: 2.0}},
    }
    # b1 = phi1 - 3 phi2 + 4 phi3, b2 = b3 = 2 phi2 - 4 phi3, b4 = -phi2 + 4 phi3
    assert tab.update_coeffs == {
        1: {1: 1.0, 2: -3.0, 3: 4.0},
        2: {2: 2.0, 3: -4.0},
        3: {2: 2.0, 3: -4.0},
        4: {2: -1.0, 3: 4.0},
    }


@pytest.mark.parametrize("name", ("sw2", "etd3rk", "krogstad4"))
def test_update_weights_sum_to_one(name):
    # evaluating the update row at z = 0 must reproduce phi_1(0) = 1
    assert tableau(name).update_weights_at_zero() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name,calls", (("sw2", 2), ("etd3rk", 3), ("krogstad4", 4)))
def test_engine_calls_per_step(name, calls):
    assert tableau(name).expmv_calls_per_step() == calls


def test_tableau_rejects_upper_triangular_coupling():
    with pytest.raises(ValueError):
        Tableau(name="bad", c=(0.0, 0.5), stage_coeffs={2: {2: {1: 1.0}}},
                update_coeffs={1: {1: 1.0}})


def test_tableau_rejects_nonzero_first_node():
    with pytest.raises(ValueError):
        Tableau(name="bad", c=(0.5,), stage_coeffs={}, update_coeffs={1: {1: 1.0}})


@pytest.mark.parametrize("c, stage_coeffs, update_coeffs, message", [
    ((), {}, {}, "need at least one stage"),
    ((0.0, 0.5), {3: {1: {1: 1.0}}}, {1: {1: 1.0}}, "stage index 3 out of range"),
    ((0.0,), {}, {2: {1: 1.0}}, "update index 2 out of range"),
], ids=["no-stage", "stage-index", "update-index"])
def test_tableau_rejects_indices_out_of_range(c, stage_coeffs, update_coeffs, message):
    with pytest.raises(ValueError, match=message):
        Tableau(name="bad", c=c, stage_coeffs=stage_coeffs, update_coeffs=update_coeffs)


# ---------------------------------------------------------------------------
# Stage assembly.
# ---------------------------------------------------------------------------

def test_exponential_euler_stage_payload():
    # u_{i+1} = e^{-hA} u + h phi_1(-hA) g(t, u)
    tab = Tableau(name="euler1", c=(0.0,), stage_coeffs={}, update_coeffs={1: {1: 1.0}})
    rng = np.random.default_rng(0)
    u = rng.standard_normal(7)
    g = rng.standard_normal(7)
    alpha, theta, cs = stage_to_expmv(tab, 0, 0.1, u, [g])
    assert alpha == pytest.approx(0.1) and theta == 1.0
    assert len(cs) - 1 == 1
    assert np.array_equal(cs[0], u)
    assert np.allclose(cs[1], 0.1 * g)


def phi_oracle(op, alpha, theta, cs):
    """sum_k theta^k phi_k(-theta alpha A) c_k from the dense phi-functions."""
    phis = phi_dense_all(-theta * alpha * op.todense(), len(cs) - 1)
    return sum(theta ** k * (phis[k] @ c) for k, c in enumerate(cs))


def test_etd3rk_stage2_matches_phi_oracle():
    """Assembled stage-2 payload must evaluate to
    e^{-(h/2)A} u + (h/2) phi_1(-(h/2)A) G_1."""
    rng = np.random.default_rng(1)
    n, h = 20, 0.37
    op = random_spd_operator(rng, n, lam_max=6.0)
    u = rng.standard_normal(n)
    g1 = rng.standard_normal(n)
    tab = tableau("etd3rk")
    alpha, theta, cs = stage_to_expmv(tab, 2, h, u, [g1])
    assert alpha == h and theta == 0.5
    # h times the (1/2) phi_1 coefficient, over theta
    assert np.allclose(cs[1], (h / 2) * g1 / theta)
    # evaluate the payload through the dense oracle
    aug, ct = assemble_augmented(op, alpha, cs)
    value = (dense_expm(theta * aug.dense()) @ ct)[:n]
    phis = phi_dense_all(-(h / 2) * op.todense(), 1)
    expected = phis[0] @ u + (h / 2) * (phis[1] @ g1)
    assert np.linalg.norm(value - expected) <= 1e-11 * np.linalg.norm(expected)
    oracle = phi_oracle(op, alpha, theta, cs)
    assert np.linalg.norm(oracle - expected) <= 1e-11 * np.linalg.norm(expected)


@pytest.mark.parametrize("name,stage", [(name, stage) for name in ("sw2", "etd3rk", "krogstad4")
                                        for stage in range(tableau(name).stages + 1)])
def test_stage_payloads_match_phi_oracle(name, stage):
    """Every stage (and the update, stage 0) evaluates to
    e^{-c_j h A} u + h sum_k sum_l beta_jkl phi_l(-c_j h A) G_k."""
    rng = np.random.default_rng(6)
    n, h = 20, 0.37
    op = random_spd_operator(rng, n, lam_max=6.0)
    tab = tableau(name)
    u = rng.standard_normal(n)
    g_values = [rng.standard_normal(n) for _ in range(tab.stages)]
    if stage == 0:
        node, row = 1.0, tab.update_coeffs
    else:
        node, row = tab.c[stage - 1], tab.stage_coeffs.get(stage, {})
        g_values = g_values[:stage - 1]
    alpha, theta, cs = stage_to_expmv(tab, stage, h, u, g_values)
    # one operator scale per step; the stage reads it at its node
    assert alpha == h and theta == node
    aug, ct = assemble_augmented(op, alpha, cs)
    value = (dense_expm(theta * aug.dense()) @ ct)[:n]
    phis = phi_dense_all(-node * h * op.todense(), 3)
    expected = phis[0] @ u
    for k, terms in row.items():
        for l, beta in terms.items():
            expected = expected + h * beta * (phis[l] @ g_values[k - 1])
    assert np.linalg.norm(value - expected) <= 1e-11 * np.linalg.norm(expected)
    oracle = phi_oracle(op, alpha, theta, cs)
    assert np.linalg.norm(oracle - expected) <= 1e-11 * np.linalg.norm(expected)


def test_zero_reaction_gives_p0_payloads():
    tab = tableau("krogstad4")
    rng = np.random.default_rng(2)
    u = rng.standard_normal(9)
    zeros = [np.zeros(9)] * 3
    for stage in (2, 3, 4):
        alpha, theta, cs = stage_to_expmv(tab, stage, 0.2, u, zeros[:stage - 1])
        assert alpha == 0.2 and theta == tab.c[stage - 1]
        assert len(cs) - 1 == 0
        assert np.array_equal(cs[0], u)


def test_zero_node_with_coefficients_rejected():
    # a stage at node 0 is the step's start state; coefficients there would
    # never be read, so the tableau rejects them when it is built
    with pytest.raises(ValueError, match="zero node"):
        Tableau(name="weird", c=(0.0, 0.0),
                stage_coeffs={2: {1: {1: 1.0}}}, update_coeffs={1: {1: 1.0}})


# ---------------------------------------------------------------------------
# Stepping.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c, stage_coeffs", [
    ((0.0, 0.5), {}),                       # no coupling, nonzero node: one call
    ((0.0, 0.0, 1.0), {3: {2: {1: 1.0}}}),  # zero node j >= 2: no call
])
def test_step_calls_the_engine_once_per_nonzero_node_plus_the_update(c, stage_coeffs):
    tab = Tableau("t", c=c, stage_coeffs=stage_coeffs, update_coeffs={1: {1: 1.0}})
    rng = np.random.default_rng(5)
    n = 12
    op = random_spd_operator(rng, n, lam_max=6.0)
    prob = linear_problem(op, rng.standard_normal(n))
    eng = Engine(prob, rational_config(tol=1e-10, m_hard=n))
    _, reports = step(prob, tab, prob.u0, 0.0, 0.5, eng)
    assert len(reports) == tab.expmv_calls_per_step() == 2


@pytest.mark.parametrize("name", ("sw2", "etd3rk", "krogstad4"))
def test_homogeneous_step_is_exact_propagation(name):
    rng = np.random.default_rng(3)
    n = 24
    op = random_spd_operator(rng, n, lam_max=15.0)
    u0 = rng.standard_normal(n)
    prob = linear_problem(op, u0)
    eng = Engine(prob, rational_config(tol=1e-10, m_hard=n))
    h = 0.5
    u1, reports = step(prob, tableau(name), u0, 0.0, h, eng)
    exact = dense_expm(-h * op.todense()) @ u0
    assert np.linalg.norm(u1 - exact) <= 1e-8 * np.linalg.norm(exact)
    assert len(reports) == tableau(name).expmv_calls_per_step()


def test_scalar_relaxation_against_closed_form():
    # u' = -u + 1, u(0) = 0 has solution 1 - e^{-t}
    op = SparseOperator.identity(1)
    prob = Problem(name="scalar", A=op, g=lambda t, u: np.ones(1),
                   u0=np.zeros(1), params={})
    eng = Engine(prob, rational_config(tol=1e-12, m_hard=1))
    h = 0.1
    u1, _ = step(prob, tableau("etd3rk"), np.zeros(1), 0.0, h, eng)
    assert abs(u1[0] - (1.0 - np.exp(-h))) <= 1e-6


def test_engine_equivalence_on_small_problem():
    rng = np.random.default_rng(4)
    n = 30
    op = random_spd_operator(rng, n, lam_max=12.0)
    u0 = rng.standard_normal(n)
    prob = Problem(name="cubic", A=op, g=lambda t, u: u - u ** 3,
                   u0=u0, params={})
    tol = 1e-9
    tab = tableau("etd3rk")
    u_rat, _ = step(prob, tab, u0, 0.0, 0.3,
                    Engine(prob, rational_config(tol=tol, m_hard=n)))
    u_pol, _ = step(prob, tab, u0, 0.0, 0.3,
                    Engine(prob, EngineConfig(engine="polynomial", tol=tol)))
    assert np.linalg.norm(u_rat - u_pol) <= 20 * tol * max(np.linalg.norm(u_pol), 1.0)


@pytest.mark.parametrize("settings", [
    {"check_cadence": 0}, {"check_cadence": -3}, {"tol": 0.0}, {"tol": float("nan")},
    {"tol": float("inf")}, {"m_min": 0}, {"m_hard": 0},
    {"solver": SolverConfig(mode="iterative"), "poles": builtin_pole_set("cf12")},
    {"engine": "krylov"}])
def test_engine_config_rejects_settings_that_cannot_converge(settings):
    # a cadence below 1 re-checks the same subspace forever; the iterative
    # solver cannot take the cf12 poles with negative real parts, and without
    # this check fails only once the adaptive loop reaches one of them
    with pytest.raises(ValueError, match=next(iter(settings))):
        EngineConfig(**settings)


def test_polynomial_engine_caps_every_decomposition_at_m_hard():
    # at the cap the polynomial engine halves its sub-step; uncapped, this
    # payload grows one decomposition to m=50
    prob = allen_cahn_2d(32)
    eng = Engine(prob, EngineConfig(engine="polynomial", m_hard=12))
    rep = eng.expmv(0.5, 1.0, [np.random.default_rng(0).standard_normal(prob.n)])
    assert rep.substeps > 1
    assert max(m for m, _ in rep.estimate_history) <= 12


def test_stages_of_a_step_share_their_factorizations():
    # sw2's stage at node 1/2 and its update solve at the one scale h, and
    # the estimate, checked after every pole step, stops by the fourth cf12
    # conjugate pair: four LUs serve both steps, with no drop
    prob = allen_cahn_2d(32)
    eng = Engine(prob, rational_config())
    traj = integrate(prob, tableau("sw2"), 0.5, 1.0, eng)
    assert len(traj.steps) == 2
    assert eng.solver.cache.numeric_factorizations == 4
    assert eng.solver.cache.drops == 0


def test_solver_cache_holds_the_current_step_size_only(monkeypatch):
    # h = 0.3 up to T = 1 ends with a step of 0.1: its new scale drops the
    # four LUs of the scale 0.3 instead of holding both sets
    held = []
    lookup = SolverCache._lookup

    def recording(self, key, build):
        entry = lookup(self, key, build)
        held.append(len(self._entries))
        return entry

    monkeypatch.setattr(SolverCache, "_lookup", recording)
    prob = allen_cahn_2d(32)
    eng = Engine(prob, rational_config())
    integrate(prob, tableau("sw2"), 0.3, 1.0, eng)
    cache = eng.solver.cache
    assert cache.drops == 1
    assert max(held) == 4 < cache.numeric_factorizations


@pytest.mark.parametrize("settings", [
    {"poles": builtin_pole_set("cf12")}, {"solver": SolverConfig(mode="iterative")}],
    ids=["poles", "solver"])
def test_polynomial_engine_rejects_rational_settings(settings):
    # the polynomial engine reads neither, so taking them would report
    # settings that had no effect
    with pytest.raises(ValueError, match="polynomial engine takes no poles or solver"):
        EngineConfig(engine="polynomial", **settings)


def test_default_pole_set_follows_solver_mode():
    assert EngineConfig().poles == builtin_pole_set("cf12")
    iterative = EngineConfig(solver=SolverConfig(mode="iterative"))
    assert iterative.poles == builtin_pole_set("cf16_shifted")
    assert EngineConfig(engine="polynomial").poles is None


# ---------------------------------------------------------------------------
# Time loop.
# ---------------------------------------------------------------------------

def test_open_pole_set_is_a_configuration_error():
    # a lone complex pole, or a pair split by another pole, would make the
    # stage values of a real problem complex
    for poles in ((4 + 3j,), (4 + 3j, 2.0, 4 - 3j)):
        for mode in ("direct", "iterative"):
            with pytest.raises(ValueError, match="not conjugate-closed"):
                EngineConfig(engine="rational", poles=PoleSet(poles),
                             solver=SolverConfig(mode=mode))


def test_real_problems_run_in_float64_on_every_engine_path():
    prob = allen_cahn_2d(16)
    for cfg in (rational_config(), EngineConfig(solver=SolverConfig(mode="iterative")),
                EngineConfig(engine="polynomial")):
        traj = integrate(prob, tableau("sw2"), 0.5, 1.0, Engine(prob, cfg))
        assert traj.final_state.dtype == np.float64


def test_complex_reaction_value_names_stage_and_time():
    # real arithmetic leaves the reaction as the one source of complex data;
    # from t = 0.25 on this one returns a complex value
    prob = allen_cahn_2d(8)
    prob = dataclasses.replace(prob, g=lambda t, u, g=prob.g: g(t, u) * (1j if t >= 0.25 else 1))
    with pytest.raises(ValueError, match="complex reaction value at stage 1, t=0.25"):
        integrate(prob, tableau("sw2"), 0.25, 0.5, Engine(prob, rational_config()))


def test_nonsymmetric_operator_on_the_direct_path_matches_the_polynomial_engine():
    # diffusion plus a strong upwind term: the direct path takes operators
    # that are not symmetric, in real arithmetic
    nx, tol = 16, 1e-8
    upwind = sp.diags([np.full(nx, 1.0), np.full(nx - 1, -1.0)], [0, -1]) * nx
    op = SparseOperator((fd_laplacian_2d(nx, 1.0, "dirichlet").tocsr()
                         + 40.0 * sp.kron(sp.identity(nx), upwind)).tocsr())
    assert not op.symmetric
    u0 = np.random.default_rng(3).uniform(-1.0, 1.0, op.n)
    prob = Problem(name="advected", A=op, g=lambda t, u: reaction_allen_cahn(u),
                   u0=u0, params={})

    def run(cfg):
        return integrate(prob, tableau("sw2"), 0.005, 0.02, Engine(prob, cfg)).final_state

    direct = run(rational_config(tol=tol))
    polynomial = run(EngineConfig(engine="polynomial", tol=tol))
    assert direct.dtype == np.float64
    assert np.linalg.norm(direct - polynomial) <= 10 * tol * np.linalg.norm(polynomial)


def test_single_step_integrate_equals_step():
    rng = np.random.default_rng(5)
    n = 16
    op = random_spd_operator(rng, n, lam_max=8.0)
    u0 = rng.standard_normal(n)
    prob = Problem(name="cubic", A=op, g=lambda t, u: u - u ** 3,
                   u0=u0, params={})
    tab = tableau("sw2")
    h = 0.25
    eng1 = Engine(prob, rational_config(tol=1e-10, m_hard=n))
    u_step, _ = step(prob, tab, u0, 0.0, h, eng1)
    eng2 = Engine(prob, rational_config(tol=1e-10, m_hard=n))
    traj = integrate(prob, tab, h, h, eng2)
    assert np.allclose(traj.final_state, u_step, atol=1e-14)
    assert len(traj.steps) == 1


def test_last_step_shortened():
    rng = np.random.default_rng(6)
    n = 10
    op = random_spd_operator(rng, n, lam_max=4.0)
    prob = linear_problem(op, rng.standard_normal(n))
    eng = Engine(prob, rational_config(tol=1e-10, m_hard=n))
    traj = integrate(prob, tableau("sw2"), 0.4, 1.0, eng)
    assert len(traj.steps) == 3
    assert traj.steps[-1].h == pytest.approx(0.2)
    assert traj.steps[-1].t == pytest.approx(1.0)


def test_remainder_within_rounding_is_a_full_step():
    rng = np.random.default_rng(6)
    n = 10
    op = random_spd_operator(rng, n, lam_max=4.0)
    prob = linear_problem(op, rng.standard_normal(n))
    eng = Engine(prob, rational_config(tol=1e-10, m_hard=n))
    traj = integrate(prob, tableau("sw2"), 0.05, 1.0, eng)
    assert len(traj.steps) == 20
    assert all(s.h == 0.05 for s in traj.steps)
    assert traj.steps[-1].t == 1.0


@pytest.mark.parametrize("h, T", [(0.5, float("inf")), (float("inf"), 1.0),
                                  (0.5, float("nan")), (0.0, 1.0)])
def test_integrate_rejects_non_finite_or_non_positive_h_and_T(h, T):
    # T = inf made the loop bound NaN, so no step ran and the initial state
    # came back as the final one
    rng = np.random.default_rng(6)
    n = 10
    prob = linear_problem(random_spd_operator(rng, n, lam_max=4.0), rng.standard_normal(n))
    eng = Engine(prob, rational_config(tol=1e-10, m_hard=n))
    with pytest.raises(ValueError, match="positive and finite"):
        integrate(prob, tableau("sw2"), h, T, eng)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), -0.5])
@pytest.mark.parametrize("engine", ["rational", "polynomial"])
def test_step_rejects_a_non_finite_or_non_positive_h(engine, h):
    # a NaN or infinite h is a configuration error (exit 2), not a failed
    # factorization (SolverError, exit 3) or scipy's complaint about NaNs
    rng = np.random.default_rng(6)
    n = 10
    prob = linear_problem(random_spd_operator(rng, n, lam_max=4.0), rng.standard_normal(n))
    config = rational_config() if engine == "rational" else EngineConfig(engine="polynomial")
    with pytest.raises(ValueError, match="positive and finite"):
        step(prob, tableau("sw2"), prob.u0, 0.0, h, Engine(prob, config))


def test_integrate_rejects_negative_snapshot_stride():
    # unchecked, idx % -1 == 0 stores every step
    rng = np.random.default_rng(6)
    n = 10
    prob = linear_problem(random_spd_operator(rng, n, lam_max=4.0), rng.standard_normal(n))
    eng = Engine(prob, rational_config(tol=1e-10, m_hard=n))
    with pytest.raises(ValueError, match="snapshot_stride"):
        integrate(prob, tableau("sw2"), 0.5, 1.0, eng, snapshot_stride=-1)


def test_complex_initial_state_rejected():
    rng = np.random.default_rng(6)
    n = 10
    op = random_spd_operator(rng, n, lam_max=4.0)
    prob = linear_problem(op, rng.standard_normal(n))
    eng = Engine(prob, rational_config(tol=1e-10, m_hard=n))
    with pytest.raises(ValueError, match="real"):
        integrate(prob, tableau("sw2"), 0.5, 1.0, eng, u0=prob.u0 + 1e-3j)


@pytest.mark.parametrize("bad", ["column", "short", "nan"])
def test_malformed_initial_state_rejected(bad):
    # unchecked, the (64, 1) state failed inside numpy's broadcasting, the
    # length-10 one as a payload-length error and the NaN one as a
    # NumericalBlowup at stage 1, a numerical failure
    prob = allen_cahn_2d(8)
    u0 = {"column": prob.u0[:, None], "short": prob.u0[:10],
          "nan": np.where(np.arange(prob.A.n) == 3, np.nan, prob.u0)}[bad]
    eng = Engine(prob, rational_config())
    with pytest.raises(ValueError, match=r"finite real vector of shape \(64,\)"):
        integrate(prob, tableau("sw2"), 0.5, 1.0, eng, u0=u0)


def test_integrate_rejects_an_engine_built_on_another_operator():
    # unchecked, the engine stepped e^{-hA} of its own operator: with
    # eps2 = 0.1 instead of 1 the final state was off by 5.8e-5 in max-abs
    prob = allen_cahn_2d(16, eps2=1.0)
    eng = Engine(allen_cahn_2d(16, eps2=0.1), EngineConfig())
    with pytest.raises(ValueError, match="the engine belongs to another operator"):
        integrate(prob, tableau("sw2"), 0.5, 1.0, eng)


def test_linear_exactness_over_partition():
    rng = np.random.default_rng(7)
    n = 40
    op = random_spd_operator(rng, n, lam_max=25.0)
    u0 = rng.standard_normal(n)
    prob = linear_problem(op, u0)
    tol = 1e-9
    T, h = 1.0, 0.125
    steps = 8
    exact = dense_expm(-T * op.todense()) @ u0
    for engine in ("rational", "polynomial"):
        cfg = rational_config(tol=tol, m_hard=n) if engine == "rational" \
            else EngineConfig(engine="polynomial", tol=tol)
        traj = integrate(prob, tableau("etd3rk"), h, T, Engine(prob, cfg))
        err = np.linalg.norm(traj.final_state - exact)
        assert err <= 10 * tol * steps


def test_allen_cahn_dynamics_stay_bounded():
    prob = allen_cahn_2d(24, eps2=0.1)
    eng = Engine(prob, rational_config(tol=1e-8))
    traj = integrate(prob, tableau("sw2"), 0.05, 0.25, eng, snapshot_stride=2)
    for snap in traj.snapshots:
        assert np.all(np.isfinite(snap))
        assert np.max(np.abs(snap)) <= 1.5


def test_iterative_pair_steps_discard_nothing_and_match_the_direct_path():
    # cf16_shifted is conjugate-closed, so the iterative path runs in real
    # arithmetic with one solve per pair at the pair target; its final state
    # stays within the engine tol of the direct path, with AMG and without
    prob = allen_cahn_2d(64, eps2=0.1, length=2.0, bc="neumann")
    poles = builtin_pole_set("cf16_shifted")
    tol = 1e-8

    def run(solver):
        cfg = EngineConfig(engine="rational", tol=tol, poles=poles, solver=solver)
        return integrate(prob, tableau("sw2"), 0.5, 1.0, Engine(prob, cfg))

    direct = run(SolverConfig(mode="direct")).final_state
    for preconditioner in ("aggregation-amg", "none"):
        traj = run(SolverConfig(mode="iterative", tolerance=1e-7,
                                preconditioner=preconditioner))
        assert traj.final_state.dtype == np.float64
        assert np.abs(traj.final_state - direct).max() <= tol


def test_gierer_meinhardt_dynamics_stay_positive():
    prob = gierer_meinhardt_2d(12, D_a=0.005, D_h=0.5, p=16.0, mu=16.0,
                               pprime=16.0, nu=16.0, seed=4)
    eng = Engine(prob, rational_config(tol=1e-8))
    traj = integrate(prob, tableau("etd3rk"), 0.01, 0.1, eng)
    final = traj.final_state
    assert np.all(np.isfinite(final))
    assert final.min() > 0.0


def test_blowup_aborts_with_diagnostic():
    op = SparseOperator.identity(4)
    prob = Problem(name="explode", A=op, g=lambda t, u: np.full(4, np.nan),
                   u0=np.zeros(4), params={})
    eng = Engine(prob, rational_config(tol=1e-8, m_hard=4))
    with pytest.raises(NumericalBlowup) as err:
        integrate(prob, tableau("sw2"), 0.1, 0.5, eng)
    assert err.value.t == pytest.approx(0.0)  # reaction blows up at the first stage
    assert err.value.state.shape == (4,)


def test_non_finite_state_after_a_step_raises_blowup():
    # the reaction stays finite and the engine returns inf: only the check
    # at the end of the step sees it
    prob = linear_problem(SparseOperator.identity(4), np.ones(4))
    engine = SimpleNamespace(problem=prob, expmv=lambda alpha, theta, c_vectors:
                             SimpleNamespace(phi_combination=np.full(4, np.inf)))
    euler = Tableau(name="euler1", c=(0.0,), stage_coeffs={}, update_coeffs={1: {1: 1.0}})
    with pytest.raises(NumericalBlowup, match="non-finite state after step at t=0.5") as err:
        integrate(prob, euler, 0.5, 1.0, engine)
    assert err.value.t == 0.5 and np.isinf(err.value.state).all()


@pytest.mark.parametrize("config", [
    EngineConfig(), EngineConfig(solver=SolverConfig(mode="iterative")),
    EngineConfig(engine="polynomial")], ids=["direct", "iterative", "polynomial"])
def test_zero_state_is_a_steady_state(config):
    # g(0) = 0 for Allen-Cahn, so every payload is zero: the engines return
    # zero with no Arnoldi step and no solve
    prob = allen_cahn_2d(16)
    traj = integrate(prob, tableau("sw2"), 0.5, 1.0, Engine(prob, config), u0=np.zeros(256))
    assert not np.any(traj.final_state)
    assert all(s.arnoldi_steps == 0 and s.shifted_solves == 0 for s in traj.steps)


def test_snapshot_stride():
    rng = np.random.default_rng(8)
    n = 8
    op = random_spd_operator(rng, n, lam_max=3.0)
    prob = linear_problem(op, rng.standard_normal(n))
    eng = Engine(prob, rational_config(tol=1e-8, m_hard=n))
    traj = integrate(prob, tableau("sw2"), 0.1, 1.0, eng, snapshot_stride=3)
    # initial, t=0.3, 0.6, 0.9, final
    assert len(traj.snapshots) == 5
    assert traj.snapshot_times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])


def test_memory_held_by_an_engine_stays_flat_over_long_runs():
    # the engine outlives its runs and reuses its LUs: after a 60-step run
    # it may hold a few bytes of diagnostics per solve, but no solution
    # vector (n * 16 bytes for the complex solve of a conjugate pair)
    prob = allen_cahn_2d(32, eps2=0.1, bc="neumann")
    eng = Engine(prob, rational_config())
    h = 0.05

    def held_after(steps):
        traj = integrate(prob, tableau("sw2"), h, steps * h, eng)
        solves = sum(s.shifted_solves for s in traj.steps)
        del traj
        gc.collect()
        return solves, tracemalloc.get_traced_memory()[0]

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        _, held_10 = held_after(10)
        solves_60, held_60 = held_after(60)
    finally:
        if started:
            tracemalloc.stop()
    assert solves_60 >= 60
    assert held_60 - held_10 < 0.1 * solves_60 * prob.A.n * 16


# ---------------------------------------------------------------------------
# OpenBLAS thread cap.
# ---------------------------------------------------------------------------

def openblas_thread_functions():
    """(get, set) thread-count functions of each bundled OpenBLAS, looked up
    here by ctypes rather than through the library under test."""
    found = []
    for package, pattern, suffix in ((np, "libscipy_openblas64_*.so", "64_"),
                                     (scipy, "libscipy_openblas-*.so", "")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in libs.glob(pattern):
            lib = ctypes.CDLL(str(path))
            found.append((getattr(lib, "scipy_openblas_get_num_threads" + suffix),
                          getattr(lib, "scipy_openblas_set_num_threads" + suffix)))
    return found


@pytest.fixture
def blas_counts():
    """Sets every bundled OpenBLAS to 2 threads, yields a function that
    reads the counts, and restores the counts found."""
    functions = openblas_thread_functions()
    if not functions:
        pytest.skip("no bundled OpenBLAS")
    saved = [get() for get, _ in functions]
    for _, put in functions:
        put(2)
    yield lambda: [get() for get, _ in functions]
    for (_, put), count in zip(functions, saved):
        put(count)


def integrate_blas_problem(g):
    rng = np.random.default_rng(12)
    prob = Problem(name="blas", A=random_spd_operator(rng, 8, lam_max=5.0), g=g,
                   u0=rng.standard_normal(8), params={})
    return integrate(prob, tableau("sw2"), 0.25, 0.5,
                     Engine(prob, rational_config(tol=1e-8, m_hard=8)))


def test_integrate_holds_one_blas_thread_and_restores_the_callers(blas_counts):
    seen = []

    def g(t, u):
        seen.append(blas_counts())
        return np.zeros_like(u)

    traj = integrate_blas_problem(g)
    assert seen and all(counts == [1] * len(counts) for counts in seen)
    assert traj.blas_threads == 1
    assert blas_counts() == [2] * len(seen[0])


def test_blas_threads_restored_after_blowup(blas_counts):
    seen = []

    def g(t, u):
        seen.append(blas_counts())
        return np.full_like(u, np.nan)

    with pytest.raises(NumericalBlowup):
        integrate_blas_problem(g)
    assert seen and all(counts == [1] * len(counts) for counts in seen)
    assert blas_counts() == [2] * len(seen[0])


def test_nested_integrate_keeps_the_cap_until_the_outer_call_returns(blas_counts):
    after_inner = []

    def outer_g(t, u):
        if not after_inner:
            integrate_blas_problem(lambda t, u: np.zeros_like(u))
            after_inner.append(blas_counts())
        return np.zeros_like(u)

    integrate_blas_problem(outer_g)
    assert after_inner[0] == [1] * len(after_inner[0])
    assert blas_counts() == [2] * len(after_inner[0])


@pytest.mark.parametrize("n", [12, 16, 18])
def test_cf_poles_hold_one_blas_thread_and_restore_the_callers(blas_counts, monkeypatch, n):
    # a pool woken at 2 threads would spin on into the integrate that follows
    seen = []

    def recording(function):
        def wrapped(*args, **kwargs):
            seen.append(blas_counts())
            return function(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
    monkeypatch.setattr(np, "roots", recording(np.roots))
    if n > 16:  # the construction loses the exterior roots
        with pytest.raises(RuntimeError):
            cf_poles(n)
    else:
        cf_poles(n)
    assert len(seen) == 2 and all(counts == [1] * len(counts) for counts in seen)
    assert blas_counts() == [2] * len(seen[0])


def test_concurrent_integrate_calls_restore_the_callers_count(blas_counts):
    # first in, first out: a call that saved and restored counts on its own
    # would have the second call save the first one's 1 and restore it last
    a_inside, b_inside, a_done = threading.Event(), threading.Event(), threading.Event()
    seen, errors = {}, []

    def run(name, g, after=None):
        try:
            integrate_blas_problem(g)
            seen[name] = blas_counts()
            if after is not None:
                after.set()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def a_g(t, u):
        a_inside.set()
        b_inside.wait(10)
        return np.zeros_like(u)

    def b_g(t, u):
        b_inside.set()
        a_done.wait(10)
        return np.zeros_like(u)

    a = threading.Thread(target=run, args=("a", a_g, a_done))
    b = threading.Thread(target=run, args=("b", b_g))
    a.start()
    assert a_inside.wait(10)
    b.start()
    a.join(30)
    b.join(30)
    assert not a.is_alive() and not b.is_alive() and not errors
    ones = [1] * len(blas_counts())
    assert seen["a"] == ones  # b still holds the cap
    assert blas_counts() == [2] * len(ones)


def test_integrate_without_openblas_changes_nothing(blas_counts, monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_controls", lambda: ())
    seen = []

    def g(t, u):
        seen.append(blas_counts())
        return np.zeros_like(u)

    traj = integrate_blas_problem(g)
    assert traj.blas_threads is None
    assert all(counts == [2] * len(counts) for counts in seen)
    assert np.all(np.isfinite(traj.final_state))
