"""Command-line interface: exit codes, determinism, output schemas."""

import csv

import numpy as np
import pytest

from ratexpint.cli import BENCH_HEADER, main, read_config_file
from ratexpint.solvers import ShiftedSolver


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_outputs_and_exits_zero(tmp_path, capsys, monkeypatch):
    # rational engine, direct solver, default cf12 poles
    consumed = set()
    solve_shifted = ShiftedSolver.solve_shifted

    def recording(self, pole, scale, rhs):
        consumed.add((complex(pole), float(scale)))
        return solve_shifted(self, pole, scale, rhs)

    monkeypatch.setattr(ShiftedSolver, "solve_shifted", recording)
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
    # cf12 is conjugate-closed: only a rounding-level imaginary part is dropped
    assert 0.0 <= float(fields["max_imag_discarded"]) < 1e-10
    # one factorization per conjugate pair of (pole, scale)
    assert consumed and int(fields["numeric_factorizations"]) * 2 == len(consumed)


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


def test_run_numeric_failure_exits_three(tmp_path, capsys):
    code = run_cli("run", "--problem", "ac2d", "--nx", "24", "--integrator", "sw2",
                   "--engine", "rational", "--solver", "iterative",
                   "--solver-maxiter", "1", "--preconditioner", "none",
                   "--poles", "builtin:cf16_shifted", "--h", "0.5", "--T", "0.5",
                   "--out", str(tmp_path))
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_run_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = ac2d\nnx = 12\nintegrator = sw2\nh = 0.25\nT = 0.25\n")
    code = run_cli("run", "--config", str(cfg), "--nx", "8", "--out", str(tmp_path))
    assert code == 0
    report = next(tmp_path.glob("*-report.txt")).read_text()
    assert "nx = 8" in report
    # every effective setting is listed, defaults included
    assert "h = 0.25" in report and "snapshots = 0" in report
    assert "repeated_count = 72" in report


@pytest.mark.parametrize("line, flag", [
    ("tolerance = 1e-3", "--tolerance"),  # names no flag
    ("sizes = 8", "--sizes"),             # a bench-only key
    ("solver_t = 1e-3", "--solver-t"),    # an abbreviation of --solver-tol
    ("nx = abc", "--nx"),                 # typed like the flag
], ids=["unknown", "bench-only", "abbreviated", "bad-int"])
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


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_writes_stable_schema(tmp_path):
    code = run_cli("bench", "--problem", "ac2d", "--sizes", "8,12",
                   "--engines", "rational,polynomial", "--integrator", "sw2",
                   "--h", "0.25", "--T", "0.25", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "bench.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BENCH_HEADER
    assert len(rows) == 1 + 4  # header + 2 sizes x 2 engines
    for row in rows[1:]:
        assert row[-1] == ""  # no per-cell errors
        assert float(row[6]) > 0  # avg iterations


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


def test_graph_info_builtin(capsys):
    code = run_cli("graph", "info", "builtin:road2600")
    assert code == 0
    assert "largest_component = 2652" in capsys.readouterr().out
