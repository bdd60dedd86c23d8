"""Command-line interface: exit codes, determinism, output schemas."""

import csv

import numpy as np
import pytest

from ratexpint import cli, linalg
from ratexpint.cli import BENCH_HEADER, CONFIG_ERRORS, RUN_RECORD, main, read_config_file
from ratexpint.integrators import ENGINES, NumericalBlowup
from ratexpint.krylov import KrylovError, SingularProjection, ToleranceNotReached
from ratexpint.solvers import IterativeDivergence, ShiftedSolver, SolverError


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_outputs_and_exits_zero(tmp_path, capsys, monkeypatch):
    # rational engine, direct solver, default cf12 poles
    consumed = set()
    calls = 0
    solve_shifted = ShiftedSolver.solve_shifted

    def recording(self, pole, scale, rhs, **kwargs):
        nonlocal calls
        calls += 1
        consumed.add((complex(pole), float(scale)))
        return solve_shifted(self, pole, scale, rhs, **kwargs)

    monkeypatch.setattr(ShiftedSolver, "solve_shifted", recording)
    trajectories = []
    integrate = cli.integrate

    def recording_integrate(*args, **kwargs):
        trajectories.append(integrate(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(cli, "integrate", recording_integrate)
    code = run_cli("run", "--problem", "ac2d", "--nx", "16", "--integrator", "sw2",
                   "--engine", "rational", "--h", "0.25", "--T", "0.5",
                   "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "final_checksum" in out
    csvs = list(tmp_path.glob("*-trajectory.csv"))
    reports = list(tmp_path.glob("*-report.txt"))
    assert len(csvs) == 1 and len(reports) == 1
    with open(csvs[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t"] + [f"u{i}" for i in range(16 * 16)]
    assert len(rows) == 3  # header + initial + final snapshot
    report = reports[0].read_text()
    assert "final_checksum" in report
    assert "avg_krylov_iterations" in report
    fields = dict(line.split(" = ", 1) for line in report.splitlines()[1:])
    assert int(fields["cache_hits"]) > 0
    # cf12 is conjugate-closed: the direct path solves only the upper pole
    # of each pair, once per pair, and runs in real arithmetic
    assert [traj.final_state.dtype for traj in trajectories] == [np.float64]
    assert consumed and all(pole.imag > 0 for pole, _ in consumed)
    assert int(fields["numeric_factorizations"]) == len(consumed)
    assert int(fields["shifted_solves"]) == calls
    assert int(fields["lu_nnz"]) > 0
    assert fields["blas_threads"] == ("1" if linalg._openblas_controls()
                                      else "unchanged (no OpenBLAS found)")
    # what the engine resolved, and two equal steps keep one scale
    assert (fields["engine"], fields["poles"], fields["solver"]) == (
        "rational", "builtin:cf12", "direct")
    assert fields["cache_drops"] == "0"
    # the rational engine makes one sub-step per call
    assert fields["substeps"] == fields["expmv_calls"]


def test_run_report_counts_no_lu_on_iterative_path(tmp_path):
    code = run_cli("run", "--problem", "ac2d", "--nx", "16", "--solver", "iterative",
                   "--h", "0.5", "--T", "0.5", "--out", str(tmp_path))
    assert code == 0
    report = next(tmp_path.glob("*-report.txt")).read_text()
    assert "\nnumeric_factorizations = 0\nlu_nnz = 0\n" in report


@pytest.mark.parametrize("flags, resolved", [
    ((), ("rational", "builtin:cf12", "direct")),
    (("--solver", "iterative"), ("rational", "builtin:cf16_shifted", "iterative")),
    (("--engine", "polynomial"), ("polynomial", "none", "none")),
    (("--repeated-pole", "10"), ("rational", "repeated_real(10.0, 72)", "direct"))],
    ids=["default", "iterative", "polynomial", "repeated"])
def test_run_report_names_the_resolved_engine_poles_and_solver(tmp_path, flags, resolved):
    code = run_cli("run", "--problem", "ac2d", "--nx", "16", "--h", "0.5", "--T", "0.5",
                   *flags, "--out", str(tmp_path))
    assert code == 0
    report = next(tmp_path.glob("*-report.txt")).read_text()
    lines = report.splitlines()[1:]
    fields = dict(line.split(" = ", 1) for line in lines)
    assert len(fields) == len(lines)  # no setting is listed twice
    assert (fields["engine"], fields["poles"], fields["solver"]) == resolved


def test_run_report_counts_cache_drops(tmp_path):
    # the last step of 0.1 brings a new operator scale
    code = run_cli("run", "--problem", "ac2d", "--nx", "16", "--h", "0.3", "--T", "1",
                   "--out", str(tmp_path))
    assert code == 0
    report = next(tmp_path.glob("*-report.txt")).read_text()
    assert "\ncache_drops = 1\n" in report


def test_run_report_counts_substeps_and_the_largest_estimate(tmp_path):
    # a cap of 6 makes the polynomial engine sub-step on the nx=24 state; at
    # nx=16 the Krylov space of the reduced payload is invariant at m = 5
    code = run_cli("run", "--problem", "ac2d", "--nx", "24", "--engine", "polynomial",
                   "--m-hard", "6", "--h", "0.5", "--T", "0.5", "--out", str(tmp_path))
    assert code == 0
    report = next(tmp_path.glob("*-report.txt")).read_text()
    fields = dict(line.split(" = ", 1) for line in report.splitlines()[1:])
    assert int(fields["substeps"]) > int(fields["expmv_calls"]) == 2
    assert 0.0 < float(fields["max_estimate"]) <= 1e-8


def test_run_spec_shape_repeated_pole(tmp_path):
    # nx=32 / sw2 / repeated-real poles / direct solver: trajectory carries
    # one column per state entry plus t
    code = run_cli("run", "--problem", "ac2d", "--nx", "32", "--integrator", "sw2",
                   "--engine", "rational", "--repeated-pole", "40.0",
                   "--repeated-count", "60", "--solver", "direct",
                   "--h", "0.5", "--T", "1.0", "--snapshots", "1",
                   "--out", str(tmp_path))
    assert code == 0
    with open(next(tmp_path.glob("*-trajectory.csv"))) as fh:
        rows = list(csv.reader(fh))
    assert len(rows[0]) == 32 * 32 + 1
    assert len(rows) == 1 + 3  # header + initial + one intermediate + final


def test_large_state_trajectory_is_strided(tmp_path):
    import numpy as np
    from ratexpint.cli import write_trajectory_csv
    from ratexpint.integrators import Trajectory
    traj = Trajectory()
    traj.snapshot_times = [0.0, 1.0]
    traj.snapshots = [np.zeros(30000), np.ones(30000)]
    path = tmp_path / "big.csv"
    write_trajectory_csv(path, traj, max_columns=10000)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["t", "norm2", "min", "max"]
    assert len(rows[0]) == 4 + 10000


def test_run_is_deterministic(tmp_path, capsys):
    args = ("run", "--problem", "gm2d", "--nx", "10", "--integrator", "etd3rk",
            "--engine", "rational", "--h", "0.1", "--T", "0.2", "--seed", "7",
            "--solver", "direct")
    run_cli(*args, "--out", str(tmp_path / "a"))
    first = capsys.readouterr().out
    run_cli(*args, "--out", str(tmp_path / "b"))
    second = capsys.readouterr().out
    line = [ln for ln in first.splitlines() if ln.startswith("final_checksum")]
    line2 = [ln for ln in second.splitlines() if ln.startswith("final_checksum")]
    assert line == line2


def test_run_bad_integrator_lists_names(tmp_path, capsys):
    code = run_cli("run", "--problem", "ac2d", "--nx", "8", "--integrator", "edt3rk",
                   "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    for name in ("sw2", "etd3rk", "krogstad4"):
        assert name in err


def test_run_missing_pole_file(tmp_path, capsys):
    code = run_cli("run", "--problem", "ac2d", "--nx", "8", "--integrator", "sw2",
                   "--poles", str(tmp_path / "missing.poles"), "--out", str(tmp_path))
    assert code == 2
    assert "pole file" in capsys.readouterr().err


def test_run_zero_repeated_count_is_a_config_error(tmp_path, capsys):
    code = run_cli("run", "--problem", "ac2d", "--nx", "8", "--integrator", "sw2",
                   "--repeated-pole", "40.0", "--repeated-count", "0",
                   "--h", "0.25", "--T", "0.25", "--out", str(tmp_path))
    assert code == 2
    assert "at least one pole" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--check-cadence", "0"),
    ("--tol", "0"),
    ("--solver", "iterative", "--solver-maxiter", "0"),
    ("--solver", "iterative", "--solver-tol", "1.5"),
    ("--tol", "inf"),
    ("--solver", "iterative", "--poles", "builtin:cf12"),
    ("--solver", "iterative", "--poles", "builtin:cf12", "--nx", "64"),
    ("--repeated-pole", "nan"),
    ("--solver", "iterative", "--repeated-pole", "nan"),
], ids=["check-cadence-0", "tol-0", "solver-maxiter-0", "solver-tol-1.5", "tol-inf",
        "iterative-cf12", "iterative-cf12-nx64", "nan-pole", "iterative-nan-pole"])
def test_engine_settings_that_cannot_converge_exit_two(tmp_path, capsys, flags):
    # unchecked, these hang (cadence 0 at nx=64), crash with exit 1 (tol 0,
    # a NaN pole on the iterative path), read as a numerical failure with
    # exit 3 (maxiter 0, a NaN pole on the direct path and, once the
    # adaptive loop reaches a pole with a negative real part, iterative cf12)
    # or accept any answer (a solver tolerance of 1 or more, an infinite tol)
    code = run_cli("run", "--problem", "ac2d", "--nx", "16", *flags,
                   "--h", "0.25", "--T", "0.25", "--out", str(tmp_path))
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--poles", "builtin:cf12"), ("--repeated-pole", "40.0"), ("--solver", "direct"),
    ("--solver-tol", "1e-6"), ("--solver-maxiter", "50"), ("--preconditioner", "none")],
    ids=["poles", "repeated-pole", "solver", "solver-tol", "solver-maxiter", "preconditioner"])
def test_rational_only_settings_on_the_polynomial_engine_exit_two(tmp_path, capsys, flags):
    # the polynomial engine reads none of these; taken silently, the run
    # report would list settings that had no effect
    code = run_cli("run", "--problem", "ac2d", "--nx", "8", "--engine", "polynomial", *flags,
                   "--h", "0.25", "--T", "0.25", "--out", str(tmp_path))
    assert code == 2
    assert f"polynomial engine takes no {flags[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--mu", "--p"])
def test_non_finite_reaction_parameter_exits_two(tmp_path, capsys, flag):
    code = run_cli("run", "--problem", "gm2d", "--nx", "8", flag, "nan", "--T", "0.5",
                   "--out", str(tmp_path))
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [("--h", "0.25", "--T", "inf"), ("--h", "inf", "--T", "0.5"),
                                   ("--snapshots", "-1")],
                         ids=["T-inf", "h-inf", "snapshots-negative"])
def test_non_finite_step_or_horizon_exits_two(tmp_path, capsys, flags):
    # unchecked, T = inf runs no step and reports the initial state as final,
    # h = inf runs one step of length T, and a negative snapshot stride
    # stores every step
    code = run_cli("run", "--problem", "ac2d", "--nx", "16", *flags, "--out", str(tmp_path))
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_numeric_failure_exits_three(tmp_path, capsys):
    code = run_cli("run", "--problem", "ac2d", "--nx", "24", "--integrator", "sw2",
                   "--engine", "rational", "--solver", "iterative",
                   "--solver-maxiter", "1", "--preconditioner", "none",
                   "--poles", "builtin:cf16_shifted", "--h", "0.5", "--T", "0.5",
                   "--out", str(tmp_path))
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_m_hard_caps_the_rational_subspace(tmp_path, capsys):
    code = run_cli("run", "--problem", "ac2d", "--nx", "64", "--m-hard", "4",
                   "--out", str(tmp_path))
    assert code == 3
    # the step that settles the last conjugate pair passes the cap by one
    assert "subspace cap m_hard=4 (m=5)" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", [("--engine", "polynomial", "--m-hard", "100000000"),
                                   ("--m-min", "100000000", "--m-hard", "100000000")])
def test_sizes_far_past_the_space_dimension_run(tmp_path, sizes):
    # the basis is sized by the space dimension (64 + 2), not by m_min or m_hard
    assert run_cli("run", "--nx", "8", *sizes, "--T", "0.5", "--out", str(tmp_path)) == 0


def test_run_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = ac2d\nnx = 12\nintegrator = sw2\nh = 0.25\nT = 0.25\n")
    code = run_cli("run", "--config", str(cfg), "--nx", "8", "--out", str(tmp_path))
    assert code == 0
    report = next(tmp_path.glob("*-report.txt")).read_text()
    assert "nx = 8" in report
    # every effective setting is listed, defaults included
    assert "h = 0.25" in report and "snapshots = 0" in report


@pytest.mark.parametrize("problem, flags, listed, unlisted", [
    ("ac2d", ("--nx", "8", "--bc", "periodic"), {"nx", "bc"},
     {"diffusion", "graph_file", "graph_one_based", "repeated_count", "eps", "seed"}),
    ("ac2d", ("--nx", "8", "--repeated-pole", "10", "--repeated-count", "20"),
     {"repeated_pole", "repeated_count"}, {"diffusion", "graph_file"}),
    ("ac-graph", ("--h", "0.05", "--T", "0.05", "--eps2", "0.5"),
     {"diffusion", "graph_file", "graph_one_based"}, {"nx", "eps2", "repeated_count"}),
    ("gm2d", ("--nx", "8", "--integrator", "etd3rk", "--h", "0.01", "--T", "0.01",
              "--seed", "3"),
     {"nx", "seed"}, {"diffusion", "graph_file", "graph_one_based", "repeated_count"})],
    ids=["ac2d", "repeated", "ac-graph", "gm2d"])
def test_run_report_lists_only_the_settings_the_run_read(tmp_path, problem, flags, listed,
                                                         unlisted):
    code = run_cli("run", "--problem", problem, *flags, "--out", str(tmp_path))
    assert code == 0
    report = next(tmp_path.glob("*-report.txt")).read_text()
    keys = {line.split(" = ", 1)[0] for line in report.splitlines()[1:]}
    assert listed <= keys
    assert not keys & unlisted


@pytest.mark.parametrize("line, flag", [
    ("tolerance = 1e-3", "--tolerance"),  # names no flag
    ("sizes = 8", "--sizes"),             # a bench-only key
    ("solver_t = 1e-3", "--solver-t"),    # an abbreviation of --solver-tol
    ("nx = abc", "--nx"),                 # typed like the flag
    ("m_max = 20", "--m-max"),            # removed; --m-hard caps both engines
], ids=["unknown", "bench-only", "abbreviated", "bad-int", "m-max"])
def test_bad_config_line_exits_two_and_names_the_key(tmp_path, capsys, line, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = ac2d\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--config", str(cfg), "--out", str(tmp_path))
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.glob("*-report.txt"))


def test_abbreviated_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--nx", "8", "--solver-t", "1e-3", "--out", str(tmp_path))
    assert exc.value.code == 2


def test_graph_one_based_config_switch(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n2 0\n")  # node 0 exists only zero-based
    cfg = tmp_path / "g.cfg"
    for value, code in (("yes", 2), ("no", 0)):
        cfg.write_text(f"problem = ac-graph\ngraph_file = {edges}\n"
                       f"graph_one_based = {value}\nh = 0.05\nT = 0.05\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == code
    assert "negative node index" in capsys.readouterr().err


def test_config_parser(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nproblem = ac2d\nsolver-tol = 1e-6\n")
    parsed = read_config_file(cfg)
    assert parsed == {"problem": "ac2d", "solver_tol": "1e-6"}


def test_gm_model_parameters_via_config(tmp_path, capsys):
    cfg = tmp_path / "gm.cfg"
    cfg.write_text("problem = gm2d\nnx = 8\nintegrator = etd3rk\nh = 0.01\nT = 0.02\n"
                   "D_a = 0.005\nD_h = 0.5\np = 16\nmu = 16\npprime = 16\nnu = 16\n"
                   "seed = 3\n")
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    report = next(tmp_path.glob("*-report.txt")).read_text()
    assert "D_a = 0.005" in report
    # the file's seed is used, not overridden by a flag default
    from_file = capsys.readouterr().out.splitlines()[-1]
    assert run_cli("run", "--config", str(cfg), "--seed", "3",
                   "--out", str(tmp_path / "flag")) == 0
    assert capsys.readouterr().out.splitlines()[-1] == from_file
    # the model parameters are flags too, under the same names
    assert run_cli("run", "--problem", "gm2d", "--nx", "8", "--integrator", "etd3rk",
                   "--h", "0.01", "--T", "0.02", "--D-a", "0.005", "--D-h", "0.5",
                   "--p", "16", "--mu", "16", "--pprime", "16", "--nu", "16",
                   "--seed", "3", "--out", str(tmp_path / "flags")) == 0
    assert capsys.readouterr().out.splitlines()[-1] == from_file
    # a flag still wins over the file
    assert run_cli("run", "--config", str(cfg), "--D-a", "0.01",
                   "--out", str(tmp_path / "override")) == 0
    assert capsys.readouterr().out.splitlines()[-1] != from_file


def test_empty_config_value_counts_as_unset(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = ac2d\nnx = 8\nintegrator = sw2\nh =\nT = 0.5\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 0
    report = next(tmp_path.glob("*-report.txt")).read_text()
    assert "steps = 1" in report  # the default h = 0.5


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_ac2d_run_past_a_uniform_state_exits_zero(tmp_path):
    # by t = 3.5 the state is uniform, so the start vector nearly spans an
    # invariant subspace; the default direct path then meets a singular K_m
    # and exits 3 (the iterative path exits 0)
    assert run_cli("run", "--problem", "ac2d", "--nx", "32", "--T", "4",
                   "--out", str(tmp_path)) == 0


@pytest.mark.parametrize("cls", [SolverError, IterativeDivergence, KrylovError,
                                 SingularProjection, ToleranceNotReached, NumericalBlowup])
def test_numerical_failures_share_one_root(cls):
    assert issubclass(cls, ArithmeticError) and not issubclass(cls, CONFIG_ERRORS)


@pytest.mark.parametrize("flags", [
    ("--nx", "64", "--eps2", "1e5", "--solver", "iterative"),
    ("--nx", "16", "--eps2", "1e40", "--engine", "polynomial")],
    ids=["iterative-nx64-eps2-1e5", "polynomial-nx16-eps2-1e40"])
def test_overflow_in_the_projected_exponential_exits_three(tmp_path, capsys, flags):
    # dense_expm raises FloatingPointError, an ArithmeticError like every
    # numerical failure of the package, so main maps it to exit 3
    code = run_cli("run", "--problem", "ac2d", *flags, "--T", "0.5", "--out", str(tmp_path))
    assert code == 3
    assert "numerical failure: overflow in the matrix exponential" in capsys.readouterr().err


def test_output_write_failure_exits_two(tmp_path, capsys, monkeypatch):
    def disk_full(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr("ratexpint.cli.write_trajectory_csv", disk_full)
    code = run_cli("run", "--nx", "8", "--h", "0.25", "--T", "0.25", "--out", str(tmp_path))
    assert code == 2
    assert "configuration error: no space left on device" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_writes_stable_schema(tmp_path):
    # the nx=8 rational cell breaks down inside cf12 pairs, in one half and
    # in both halves: K_m must stay square for its estimate
    code = run_cli("bench", "--problem", "ac2d", "--sizes", "8,12",
                   "--engines", "rational,polynomial", "--integrator", "sw2",
                   "--h", "0.25", "--T", "0.25", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "bench.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BENCH_HEADER
    assert len(rows) == 1 + 4  # header + 2 sizes x 2 engines
    for row in rows[1:]:
        cell = dict(zip(BENCH_HEADER, row))
        assert cell["error"] == ""  # no per-cell errors
        assert float(cell["avg_krylov_iterations"]) > 0


def test_bench_header_is_the_cell_then_the_run_record_then_the_error():
    assert BENCH_HEADER == ["problem", "nx", "n", "engine", "integrator", "h",
                            *RUN_RECORD, "error"]
    assert len(set(BENCH_HEADER)) == len(BENCH_HEADER)


def test_bench_runs_a_graph_once_per_engine(tmp_path):
    # the graph does not depend on nx, so --sizes does not multiply its cells
    code = run_cli("bench", "--problem", "ac-graph", "--sizes", "8,16", "--engines", "rational",
                   "--h", "0.05", "--T", "0.1", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "bench.csv") as fh:
        [row] = list(csv.DictReader(fh))
    assert (row["nx"], row["n"], row["engine"], row["error"]) == ("", "2652", "rational", "")


@pytest.mark.parametrize("engine", ENGINES)
def test_bench_row_records_what_the_run_report_reports(tmp_path, engine):
    cell = ("--problem", "ac2d", "--integrator", "sw2", "--h", "0.25", "--T", "0.5")
    assert run_cli("run", *cell, "--nx", "16", "--engine", engine,
                   "--out", str(tmp_path / "run")) == 0
    assert run_cli("bench", *cell, "--sizes", "16", "--engines", engine,
                   "--out", str(tmp_path / "bench")) == 0
    report = next((tmp_path / "run").glob("*-report.txt")).read_text()
    fields = dict(line.split(" = ", 1) for line in report.splitlines()[1:])
    with open(tmp_path / "bench" / "bench.csv") as fh:
        [row] = list(csv.DictReader(fh))
    assert (row["engine"], row["error"]) == (engine, "")
    # the report ends with the record, in its order
    assert list(fields)[-len(RUN_RECORD):] == list(RUN_RECORD)
    for name in RUN_RECORD:
        if name != "wall_time_s":  # each run times its own integrate
            assert row[name] == fields[name], name
    assert float(row["wall_time_s"]) > 0
    assert int(row["expmv_calls"]) == 4 and int(row["arnoldi_steps"]) > 0


@pytest.mark.parametrize("flags, named", [
    (("--engines", "rationl"), "'rationl'"),
    (("--engines", ""), "''"),
    (("--sizes", ""), "''"),
    (("--sizes", " , "), "' , '"),
    (("--sizes", "8,x"), "'8,x'")],
    ids=["unknown-engine", "no-engine", "no-size", "blank-sizes", "bad-size"])
def test_bench_bad_engine_or_size_list_exits_two(tmp_path, capsys, flags, named):
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", *flags, "--T", "0.25", "--out", str(tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flags[0] in err and named in err
    assert not (tmp_path / "bench.csv").exists()


@pytest.mark.parametrize("line, named", [("engines = rational, polynomail", "'polynomail'"),
                                         ("sizes = ,", "','")],
                         ids=["engine", "sizes"])
def test_bench_config_file_lists_are_checked_like_flags(tmp_path, capsys, line, named):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"sizes = 8\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--config", str(cfg), "--T", "0.25", "--out", str(tmp_path))
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "bench.csv").exists()


def test_bench_records_cell_failures(tmp_path):
    code = run_cli("bench", "--problem", "ac2d", "--sizes", "24",
                   "--engines", "rational", "--integrator", "sw2",
                   "--h", "0.25", "--T", "0.25", "--solver", "iterative",
                   "--solver-maxiter", "1", "--preconditioner", "none",
                   "--poles", "builtin:cf16_shifted", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "bench.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert rows[1][-1] != ""  # error column populated


def test_bench_iterative_cf12_fails_only_the_rational_cell(tmp_path):
    code = run_cli("bench", "--problem", "ac2d", "--sizes", "8",
                   "--engines", "rational,polynomial", "--h", "0.25", "--T", "0.25",
                   "--solver", "iterative", "--poles", "builtin:cf12", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "bench.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["engine"] for row in rows] == ["rational", "polynomial"]
    assert "Re(pole) > 0" in rows[0]["error"]
    assert rows[1]["error"] == ""


def test_bench_records_any_arithmetic_error(tmp_path, monkeypatch):
    def overflow(*args, **kwargs):
        raise FloatingPointError("overflow in the matrix exponential")

    monkeypatch.setattr("ratexpint.cli.integrate", overflow)
    code = run_cli("bench", "--sizes", "8", "--engines", "rational",
                   "--h", "0.25", "--T", "0.25", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "bench.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["error"] for row in rows] == ["overflow in the matrix exponential"]


def test_bench_propagates_programming_errors(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a cell failure")

    monkeypatch.setattr("ratexpint.cli.integrate", broken)
    with pytest.raises(TypeError, match="a bug"):
        run_cli("bench", "--sizes", "8", "--engines", "rational",
                "--h", "0.25", "--T", "0.25", "--out", str(tmp_path))


# ---------------------------------------------------------------------------
# poles validate / graph info
# ---------------------------------------------------------------------------

def test_poles_validate_builtin(capsys):
    code = run_cli("poles", "validate", "builtin:cf12", "--lam-max", "1000")
    assert code == 0
    out = capsys.readouterr().out
    assert "poles: 12" in out
    assert "0 warnings" in out


def test_poles_validate_warns(tmp_path, capsys):
    pole_file = tmp_path / "bad.poles"
    pole_file.write_text("-100.0 0.0\n")
    code = run_cli("poles", "validate", str(pole_file), "--lam-max", "1000")
    assert code == 0
    assert "warning" in capsys.readouterr().out


def test_poles_validate_missing_file(tmp_path, capsys):
    code = run_cli("poles", "validate", str(tmp_path / "none.poles"))
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (("--problem", "ac2d", "--eps2", "0"), "eps2 must be positive"),
    (("--problem", "ac2d", "--eps2", "-0.1"), "eps2 must be positive"),
    (("--problem", "ac-graph", "--eps", "0"), "eps must be positive"),
    (("--problem", "ac-graph", "--diffusion", "-1"), "diffusion must be non-negative"),
    (("--problem", "gm2d", "--D-a", "-0.01"), "D_a and D_h must be non-negative"),
], ids=["ac2d-eps2-zero", "ac2d-eps2-negative", "graph-eps-zero", "graph-diffusion-negative",
        "gm2d-D_a-negative"])
def test_anti_diffusive_problem_parameters_are_config_errors(tmp_path, capsys, flags, message):
    assert run_cli("run", *flags, "--nx", "8", "--h", "0.25", "--T", "0.25",
                   "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not list(tmp_path.iterdir())


def test_unknown_builtin_pole_set_is_a_config_error(tmp_path, capsys):
    assert run_cli("poles", "validate", "builtin:nope") == 2
    assert "available: cf12, cf16_shifted" in capsys.readouterr().err
    assert run_cli("run", "--problem", "ac2d", "--nx", "8", "--poles", "builtin:nope",
                   "--h", "0.25", "--T", "0.25", "--out", str(tmp_path)) == 2
    assert "'nope'" in capsys.readouterr().err


def test_poles_validate_zero_pole_is_a_config_error(tmp_path, capsys):
    pole_file = tmp_path / "zero.poles"
    pole_file.write_text("0.0 0.0\n")
    assert run_cli("poles", "validate", str(pole_file)) == 2
    err = capsys.readouterr().err
    assert str(pole_file) in err and "must not contain 0" in err
    assert run_cli("run", "--problem", "ac2d", "--nx", "8", "--poles", str(pole_file),
                   "--h", "0.25", "--T", "0.25", "--out", str(tmp_path)) == 2


def test_graph_info(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n3 4\n")
    code = run_cli("graph", "info", str(path))
    assert code == 0
    out = capsys.readouterr().out
    assert "nodes = 5" in out
    assert "largest_component = 3" in out


def test_graph_info_without_edges_exits_two(tmp_path, capsys):
    path = tmp_path / "comments.edges"
    path.write_text("# nodes=0 edges=0\n# nothing else\n")
    assert run_cli("graph", "info", str(path)) == 2
    assert "empty graph" in capsys.readouterr().err


def test_graph_info_complex_matrix_market_exits_two(tmp_path, capsys):
    path = tmp_path / "complex.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                    "3 3 2\n1 2 1.0 0.5\n2 3 2.0 0.0\n")
    assert run_cli("graph", "info", str(path)) == 2
    assert "edge weights must be real" in capsys.readouterr().err


def test_graph_info_builtin(capsys):
    code = run_cli("graph", "info", "builtin:road2600")
    assert code == 0
    assert "largest_component = 2652" in capsys.readouterr().out


def test_unknown_builtin_graph_is_a_config_error(tmp_path, capsys):
    assert run_cli("graph", "info", "builtin:nope") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "available: road2600" in err
    assert run_cli("run", "--problem", "ac-graph", "--graph-file", "builtin:nope",
                   "--h", "0.25", "--T", "0.25", "--out", str(tmp_path)) == 2
    assert "configuration error" in capsys.readouterr().err
