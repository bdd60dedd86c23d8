"""Acceptance criteria.

Each test prints one PASS/FAIL line with the measured quantities and its
stated tolerance. Accuracy claims are checked against brute-force oracles;
iteration and runtime claims are asserted as scaling properties (absolute
counts depend on pole files and hardware).
"""

import time

import numpy as np
import pytest

from ratexpint import verify
from ratexpint.cli import main as cli_main
from ratexpint.integrators import Engine, EngineConfig, integrate
from ratexpint.poles import builtin_pole_set
from ratexpint.problems import allen_cahn_2d, allen_cahn_graph, builtin_graph
from ratexpint.solvers import SolverCache, SolverConfig, solve_iterative
from ratexpint.tableaus import tableau


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    return passed


# ---------------------------------------------------------------------------
# Criterion 1: estimator effectivity on the scaled-spectrum matrices.
# ---------------------------------------------------------------------------

def test_criterion_1_estimator_effectivity():
    t0 = time.perf_counter()
    results = verify.check_estimator_effectivity(band=100.0, floor=1e-12,
                                                 ceiling=1e-1, target=1e-10, m_cap=40)
    elapsed = time.perf_counter() - t0
    worst = max(r.measured for r in results)
    ok = all(r.passed for r in results) and elapsed <= 60.0
    assert _report(1, ok, f"6 studies, worst effectivity ratio {worst:.1f} "
                          f"(band 100), all curves < 1e-10 by m<=40, {elapsed:.1f}s (limit 60)")


# ---------------------------------------------------------------------------
# Criterion 2: truncated error expansion matches the true error.
# ---------------------------------------------------------------------------

def test_criterion_2_error_expansion():
    t0 = time.perf_counter()
    result = verify.check_error_expansion(instances=20, terms=30, tol=1e-8)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed <= 30.0
    assert _report(2, ok, f"20 instances, worst relative mismatch {result.measured:.2e} "
                          f"(tol 1e-8), {elapsed:.1f}s (limit 30)")


# ---------------------------------------------------------------------------
# Criterion 3: expmv equals the phi-combination identity.
# ---------------------------------------------------------------------------

def test_criterion_3_phi_combination_identity():
    t0 = time.perf_counter()
    result = verify.check_phi_combination_identity(instances=50, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed <= 30.0
    assert _report(3, ok, f"50 instances p in 0..3, worst relative error "
                          f"{result.measured:.2e} (tol 1e-9), {elapsed:.1f}s (limit 30)")


# ---------------------------------------------------------------------------
# Criterion 4: empirical convergence orders on 2D Allen-Cahn.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def eoc_data():
    t0 = time.perf_counter()
    prob = allen_cahn_2d(50, eps2=0.1, length=2.0, bc="neumann")
    ref_engine = Engine(prob, EngineConfig(engine="polynomial", tol=1e-12))
    ref = integrate(prob, tableau("krogstad4"), 2.0 ** -10, 1.0, ref_engine)
    uref = ref.final_state
    hs = [2.0 ** -k for k in range(1, 7)]
    poles = builtin_pole_set("cf12")
    out = {}
    residuals = []
    for method in ("sw2", "etd3rk", "krogstad4"):
        errs = []
        for h in hs:
            cfg = EngineConfig(engine="rational", tol=1e-10, poles=poles,
                               solver=SolverConfig(mode="direct"))
            eng = Engine(prob, cfg)
            traj = integrate(prob, tableau(method), h, 1.0, eng)
            errs.append(float(np.max(np.abs(traj.final_state - uref))))
            residuals.append(traj.max_residual())
        slope = float(np.polyfit(np.log2(hs), np.log2(errs), 1)[0])
        out[method] = (slope, errs)
    out["elapsed"] = time.perf_counter() - t0
    out["residuals"] = residuals
    return out


def test_criterion_4_convergence_orders(eoc_data):
    nominal = {"sw2": 2.0, "etd3rk": 3.0, "krogstad4": 4.0}
    details = []
    ok = eoc_data["elapsed"] <= 600.0
    for method, order in nominal.items():
        slope, _ = eoc_data[method]
        details.append(f"{method}={slope:.2f} (nominal {order:.0f})")
        ok = ok and abs(slope - order) <= 0.4
    assert _report(4, ok, "least-squares EOC slopes " + ", ".join(details)
                   + f", tolerance +-0.4, {eoc_data['elapsed']:.0f}s (limit 600)")


# ---------------------------------------------------------------------------
# Criteria 5-6: iteration flatness vs growth and runtime scaling.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_data():
    poles = builtin_pole_set("cf16_shifted")
    sw2 = tableau("sw2")
    data = {"rational": {}, "polynomial": {}, "residuals": []}
    t0 = time.perf_counter()
    for nx in (64, 128, 256):
        prob = allen_cahn_2d(nx, eps2=0.1, length=2.0, bc="neumann")
        cfg = EngineConfig(engine="rational", tol=1e-8, poles=poles,
                           solver=SolverConfig(mode="iterative", tolerance=1e-7,
                                               preconditioner="aggregation-amg"))
        eng = Engine(prob, cfg)
        t1 = time.perf_counter()
        traj = integrate(prob, sw2, 0.5, 1.0, eng)
        wall = time.perf_counter() - t1
        data["rational"][nx] = (traj.average_krylov_iterations(), wall)
        data["residuals"].append(traj.max_residual())

        cfgp = EngineConfig(engine="polynomial", tol=1e-8)
        engp = Engine(prob, cfgp)
        trajp = integrate(prob, sw2, 0.5, 1.0, engp)
        data["polynomial"][nx] = (trajp.average_krylov_iterations(), 0.0)
    data["elapsed"] = time.perf_counter() - t0
    return data


def test_criterion_5_iteration_flatness_vs_growth(sweep_data):
    rat = [sweep_data["rational"][nx][0] for nx in (64, 128, 256)]
    pol = [sweep_data["polynomial"][nx][0] for nx in (64, 128, 256)]
    flat = max(rat) <= 1.5 * min(rat)
    growing = pol[0] < pol[1] < pol[2]
    separated = pol[2] >= 3.0 * rat[2]
    ok = flat and growing and separated and sweep_data["elapsed"] <= 900.0
    assert _report(5, ok,
                   f"rational avg iters {['%.1f' % r for r in rat]} (max/min "
                   f"{max(rat) / min(rat):.2f} <= 1.5), polynomial "
                   f"{['%.1f' % p for p in pol]} strictly increasing, ratio at nx=256 "
                   f"{pol[2] / rat[2]:.1f}x >= 3x, {sweep_data['elapsed']:.0f}s (limit 900)")


def test_criterion_6_near_linear_runtime_scaling(sweep_data):
    walls = [sweep_data["rational"][nx][1] for nx in (64, 128, 256)]
    r1 = walls[1] / walls[0]
    r2 = walls[2] / walls[1]
    ok = r1 <= 6.0 and r2 <= 6.0
    assert _report(6, ok, f"rational iterative wall times "
                          f"{['%.1fs' % w for w in walls]}; growth per 4x size: "
                          f"{r1:.2f}x and {r2:.2f}x (limit 6x)")


def test_criterion_7_solver_contract(eoc_data, sweep_data):
    worst = max(eoc_data["residuals"] + sweep_data["residuals"])
    # spot check: direct and iterative paths agree on one sweep system
    prob = allen_cahn_2d(64)
    pole, scale = builtin_pole_set("cf16_shifted").poles[0], 0.25
    rng = np.random.default_rng(99)
    b = rng.standard_normal(prob.n).astype(complex)
    cache = SolverCache(prob.A)
    x_direct = cache.factorization(pole, scale).solve(b)
    info = solve_iterative(cache, pole, scale, b,
                           SolverConfig(mode="iterative", tolerance=1e-8,
                                        preconditioner="aggregation-amg"))
    agreement = float(np.linalg.norm(x_direct - info.x) / np.linalg.norm(x_direct))
    ok = worst <= 1e-6 and agreement <= 1e-6
    assert _report(7, ok, f"worst relative solve residual across criteria 4-6: "
                          f"{worst:.2e} (limit 1e-6); direct-vs-iterative agreement "
                          f"{agreement:.2e} (limit 1e-6)")


# ---------------------------------------------------------------------------
# Criterion 8: linear exactness for all integrators and engines.
# ---------------------------------------------------------------------------

def test_criterion_8_linear_exactness():
    results = verify.check_linear_exactness(tol=1e-8)
    worst = max(r.measured for r in results)
    bound = results[0].threshold
    ok = all(r.passed for r in results)
    assert _report(8, ok, f"6 integrator/engine combinations, worst error {worst:.2e} "
                          f"(bound {bound:.1e} = 10 x tol x steps)")


# ---------------------------------------------------------------------------
# Criterion 9: graph Allen-Cahn end to end.
# ---------------------------------------------------------------------------

def test_criterion_9_graph_end_to_end():
    t0 = time.perf_counter()
    g = builtin_graph("road2600")
    prob = allen_cahn_graph(g, eps=0.05, diffusion=5e3, seed=11)
    tol = 1e-8
    cfg = EngineConfig(engine="rational", tol=tol, poles=builtin_pole_set("cf12"),
                       solver=SolverConfig(mode="direct"))
    eng = Engine(prob, cfg)
    traj = integrate(prob, tableau("krogstad4"), 0.05, 1.0, eng)
    elapsed = time.perf_counter() - t0
    u = traj.final_state
    bounded = np.all(np.isfinite(u)) and float(np.max(np.abs(u))) <= 1.5
    est_ok = all(s.max_estimate <= tol for s in traj.steps)
    ok = bounded and est_ok and elapsed <= 300.0
    assert _report(9, ok, f"{g.n}-node road graph, 20 steps of krogstad4, "
                          f"max|u|={np.max(np.abs(u)):.3f} (<=1.5), max estimate "
                          f"{max(s.max_estimate for s in traj.steps):.2e} (<= {tol:g}), "
                          f"{elapsed:.0f}s (limit 300)")


# ---------------------------------------------------------------------------
# Criterion 10: the verify subcommand is green.
# ---------------------------------------------------------------------------

def test_criterion_10_verify_subcommand():
    t0 = time.perf_counter()
    code = cli_main(["verify"])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed <= 120.0
    assert _report(10, ok, f"exit code {code}, {elapsed:.0f}s (limit 120)")
