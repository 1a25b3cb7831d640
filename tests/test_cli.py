"""Command-line behavior: file outputs, reports, exit codes, determinism."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracpop
from fracpop.cli import main

X0_SET = "0.1,4,8,12"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "t,x"
    rows = [line.split(",") for line in lines[1:]]
    t = np.array([float(row[0]) for row in rows])
    x = np.array([float(row[1]) for row in rows])
    return t, x


def csv_text(times, values):
    """The CSV one member should read, formatted row by row."""
    rows = zip(times.tolist(), values.tolist())
    return "t,x\n" + "".join("%.17g,%.17g\n" % row for row in rows)


def parsed_equilibria(stdout):
    reports = []
    for line in stdout.splitlines():
        if line.startswith("x_eq"):
            fields = line.split("\t")
            reports.append((float(fields[0].split("=")[1]), fields[2]))
    return reports


def parsed_value(stdout, name):
    for line in stdout.splitlines():
        if line.startswith(f"{name} ="):
            return float(line.split("=")[1])
    raise AssertionError(f"no {name!r} line in output:\n{stdout}")


def test_simulate_writes_named_files(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--model", "logistic-harvest", "--r", "0.5", "--K", "10",
        "--E", "0.2", "--alpha", "0.5", "--x0", "0.1,4", "--t-final", "50",
        "--n-steps", "100", "--out", str(tmp_path),
    )
    assert code == 0
    for x0 in ("0.1", "4"):
        path = tmp_path / f"logistic-harvest_alpha0.5_x0{x0}_E0.2.csv"
        assert path.exists()
        t, x = read_csv(path)
        assert len(t) == 101
        assert t[0] == 0.0 and t[-1] == 50.0
        assert x[0] == float(x0)
        assert np.all(np.isfinite(x))
        ivp = fracpop.FractionalIVP(0.5, fracpop.LogisticHarvest(0.5, 10.0, 0.2), float(x0), 50.0)
        values = fracpop.solve(ivp, 100, fracpop.SolverMethod.FRAC_ADAMS_PECE).values
        assert path.read_text(encoding="ascii") == csv_text(fracpop.Grid(100, 50.0).times, values)
    assert out.count("wrote ") == 2


def test_simulate_reuses_one_row_template_byte_for_byte(tmp_path, capsys):
    # Four members share one grid whose times print in exponent form
    # (5.0000000000000004e-06); the states go negative, and alpha 0.3 and 1
    # take the fractional and the alpha = 1 solver paths.
    code, out, err = run_cli(
        capsys,
        "simulate", "--model", "cubic", "--a", "-1", "--b", "0", "--c", "1",
        "--alpha", "0.3,1", "--x0=-2,0.5", "--t-final", "1e-3", "--n-steps", "200",
        "--out", str(tmp_path),
    )
    assert (code, err) == (0, "")
    times = fracpop.Grid(200, 1e-3).times
    assert "%.17g" % times[1] == "5.0000000000000004e-06"
    model = fracpop.Cubic(-1.0, 0.0, 1.0)
    for alpha, x0 in (("0.3", "-2"), ("0.3", "0.5"), ("1", "-2"), ("1", "0.5")):
        path = tmp_path / f"cubic_alpha{alpha}_x0{x0}.csv"
        ivp = fracpop.FractionalIVP(float(alpha), model, float(x0), 1e-3)
        values = fracpop.solve(ivp, 200, "adams").values
        assert path.read_text(encoding="ascii") == csv_text(times, values)
        assert f"wrote {path}\n" in out
    assert len(list(tmp_path.iterdir())) == 4


def test_simulate_failed_sweep_keeps_the_written_bytes(tmp_path, capsys):
    # The README Allee sweep writes its two alpha = 0.25 files before the
    # third member blows up; both must still be the per-row CSV.
    code, out, err = run_cli(
        capsys,
        "simulate", "--model", "allee-harvest", "--r", "0.5", "--K", "10", "--m", "1",
        "--E", "0.2", "--x0", X0_SET, "--t-final", "25", "--out", str(tmp_path),
    )
    assert code == 3
    assert err.startswith("error: simulate failed (alpha=0.25, x0=8, E=0.2): ")
    assert out.count("wrote ") == 2
    model = fracpop.AlleeHarvest(0.5, 10.0, 1.0, 0.2)
    for x0 in ("0.1", "4"):
        path = tmp_path / f"allee-harvest_alpha0.25_x0{x0}_E0.2.csv"
        ivp = fracpop.FractionalIVP(0.25, model, float(x0), 25.0)
        values = fracpop.solve(ivp, 250, "adams").values
        assert path.read_text(encoding="ascii") == csv_text(fracpop.Grid(250, 25.0).times, values)
    assert len(list(tmp_path.iterdir())) == 2


def test_simulate_names_negative_zero_as_zero(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--model", "logistic-harvest", "--r", "0.5", "--K", "10",
        "--E", "-0", "--alpha", "0.5", "--x0", "-0", "--t-final", "1",
        "--out", str(tmp_path),
    )
    assert code == 0
    path = tmp_path / "logistic-harvest_alpha0.5_x00_E0.csv"
    assert out == f"wrote {path}\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_simulate_zero_dynamics_constant_column(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "simulate", "--model", "cubic", "--a", "0", "--b", "0", "--c", "0",
        "--x0", "7", "--alpha", "0.5", "--t-final", "5", "--out", str(tmp_path),
    )
    assert code == 0
    _, x = read_csv(tmp_path / "cubic_alpha0.5_x07.csv")
    assert np.all(x == 7.0)
    # An explicit grid works up to a t_final near the double limit.
    out_dir = tmp_path / "huge"
    code, _, err = run_cli(
        capsys,
        "simulate", "--model", "cubic", "--a", "0", "--b", "0", "--c", "0",
        "--x0", "7", "--alpha", "0.5", "--t-final", "1e308", "--n-steps", "2",
        "--out", str(out_dir),
    )
    assert code == 0, err
    t, x = read_csv(out_dir / "cubic_alpha0.5_x07.csv")
    assert t.tolist() == [0.0, 5e307, 1e308]
    assert np.all(x == 7.0)


def test_simulate_default_grid_and_alpha_sweep(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "simulate", "--model", "cubic", "--a", "0", "--b", "0", "--c", "0",
        "--x0", "1", "--t-final", "2", "--out", str(tmp_path),
    )
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert files == [
        "cubic_alpha0.25_x01.csv",
        "cubic_alpha0.5_x01.csv",
        "cubic_alpha0.75_x01.csv",
        "cubic_alpha1_x01.csv",
    ]
    t, _ = read_csv(tmp_path / "cubic_alpha1_x01.csv")
    assert len(t) == 21  # ten steps per time unit by default


@pytest.mark.xfail(
    strict=True,
    reason="converged runs land outside the target band: the slow algebraic "
    "approach at alpha = 0.5 leaves |x(500) - 6| near 0.57 for x0 = 0.1 and "
    "0.46 for x0 = 12, far above 0.2 (values that hold at alpha = 1)",
)
def test_simulate_harvested_finals_near_equilibrium(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "simulate", "--model", "logistic-harvest", "--r", "0.5", "--K", "10",
        "--E", "0.2", "--alpha", "0.5", "--x0", X0_SET, "--t-final", "500",
        "--n-steps", "5000", "--out", str(tmp_path),
    )
    assert code == 0
    gaps = {}
    for x0 in ("0.1", "4", "8", "12"):
        _, x = read_csv(tmp_path / f"logistic-harvest_alpha0.5_x0{x0}_E0.2.csv")
        gaps[x0] = abs(x[-1] - 6.0)
    print("final gaps from 6:", {k: round(v, 4) for k, v in gaps.items()})
    assert all(gap <= 0.2 for gap in gaps.values())


@pytest.mark.xfail(
    strict=True,
    reason="converged runs land outside the target band: overharvested decay "
    "at alpha = 0.5 is algebraic, leaving finals up to 0.96 at T = 25 instead "
    "of below 0.05 (a band the classical alpha = 1 decay does satisfy)",
)
def test_simulate_overharvest_extinction_band(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "simulate", "--model", "allee-harvest", "--r", "0.5", "--K", "10",
        "--m", "1", "--E", "1.5", "--alpha", "0.5", "--x0", X0_SET,
        "--t-final", "25", "--n-steps", "2000", "--out", str(tmp_path),
    )
    assert code == 0
    finals = {}
    for x0 in ("0.1", "4", "8", "12"):
        _, x = read_csv(tmp_path / f"allee-harvest_alpha0.5_x0{x0}_E1.5.csv")
        finals[x0] = x[-1]
    print("overharvested finals:", {k: round(v, 4) for k, v in finals.items()})
    assert all(final < 0.05 for final in finals.values())


def test_simulate_deterministic_bytes(tmp_path, capsys):
    args = (
        "simulate", "--model", "allee", "--r", "0.5", "--K", "10", "--m", "1",
        "--alpha", "0.5,1", "--x0", "4,8", "--t-final", "25", "--n-steps", "200",
    )
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_cli(capsys, *args, "--out", str(first))[0] == 0
    assert run_cli(capsys, *args, "--out", str(second))[0] == 0
    names = sorted(p.name for p in first.glob("*.csv"))
    assert len(names) == 4
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_simulate_blowup_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--model", "cubic", "--a", "1", "--b", "0", "--c", "1",
        "--alpha", "1", "--x0", "2", "--t-final", "10", "--n-steps", "100",
        "--out", str(tmp_path),
    )
    assert code == 3
    assert "alpha=1" in err and "x0=2" in err
    # The default grid caps at 50000 steps without overflowing 10 * t_final,
    # and the first step of length 2e303 leaves the trust region.
    code, _, err = run_cli(
        capsys,
        "simulate", "--model", "logistic", "--r", "0.5", "--K", "10", "--alpha", "1",
        "--x0", "1", "--t-final", "1e308", "--out", str(tmp_path / "huge"),
    )
    assert code == 3
    assert "state blew up at step 1 (t = 2e+303)" in err
    # --out is created with the first CSV, so a first-member blow-up leaves none.
    assert not (tmp_path / "huge").exists()


def test_simulate_flag_validation(tmp_path, capsys):
    base = ("simulate", "--x0", "1", "--t-final", "1", "--out", str(tmp_path))
    wrong_param = ("--model", "logistic", "--r", "0.5", "--K", "10", "--m", "1")
    missing = ("--model", "allee", "--r", "0.5", "--K", "10")
    bad_value = ("--model", "logistic", "--r", "-2", "--K", "10")
    for extra in (wrong_param, missing, bad_value):
        code, _, err = run_cli(capsys, *base, *extra)
        assert code == 2
        assert err
    code, _, _ = run_cli(
        capsys, "simulate", "--model", "logistic", "--r", "0.5", "--K", "10",
        "--x0", "1,,q", "--t-final", "1", "--out", str(tmp_path),
    )
    assert code == 2
    code, _, _ = run_cli(capsys, "simulate", "--model", "wrong", "--x0", "1", "--t-final", "1")
    assert code == 2
    code, out, err = run_cli(capsys, "simulate", "--model", "logistic", "--r", "0.5",
                             "--K", "10", "--x0", ",", "--t-final", "1", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.endswith("error: argument --x0: empty value list: ','\n")
    # Only the -harvest names take an effort, and they require one.
    logistic = ("--r", "0.5", "--K", "10", "--alpha", "0.5")
    for model, effort, want in (
        ("logistic", ("--E", "0.2"), "error: model 'logistic' does not take --E\n"),
        ("logistic-harvest", (), "error: model 'logistic-harvest' needs --E\n"),
    ):
        code, out, err = run_cli(capsys, *base, "--model", model, *logistic, *effort)
        assert (code, out, err) == (2, "", want)


def test_simulate_validates_whole_sweep_before_writing(tmp_path, capsys):
    # A bad value anywhere in a sweep must fail before --out is created.
    logistic = ("--model", "logistic", "--r", "0.5", "--K", "10", "--x0", "4")
    sweeps = [
        (("--model", "logistic-harvest", "--r", "0.5", "--K", "10", "--E", "0.2,-1",
          "--alpha", "0.5", "--x0", "4", "--t-final", "5"),
         "E must be nonnegative, got -1.0"),
        (logistic + ("--alpha", "0.5,1.5", "--t-final", "5"),
         "alpha must lie in (0, 1], got 1.5"),
        (logistic + ("--t-final", "nan"), "t_final must be finite, got nan"),
        (logistic + ("--t-final", "inf"), "t_final must be finite, got inf"),
        (logistic + ("--t-final", "1", "--n-steps", "0"), "n_steps must be >= 1, got 0"),
        # Members whose CSV names coincide would overwrite each other.
        (("--model", "logistic", "--r", "0.5", "--K", "10", "--alpha", "1",
          "--x0", "4,4.0000001", "--t-final", "1"),
         "two sweep members would both write logistic_alpha1_x04.csv"),
        (logistic + ("--alpha", "0.5,0.50000001", "--t-final", "1"),
         "two sweep members would both write logistic_alpha0.5_x04.csv"),
        (("--model", "logistic", "--r", "0.5", "--K", "10", "--alpha", "1",
          "--x0", "4,4", "--t-final", "1"),
         "two sweep members would both write logistic_alpha1_x04.csv"),
        # -0 and 0 name the same file.
        (("--model", "logistic-harvest", "--r", "0.5", "--K", "10", "--E", "-0",
          "--alpha", "0.5", "--x0", "0,-0", "--t-final", "1"),
         "two sweep members would both write logistic-harvest_alpha0.5_x00_E0.csv"),
    ]
    for index, (flags, message) in enumerate(sweeps):
        out_dir = tmp_path / str(index)
        code, out, err = run_cli(capsys, "simulate", *flags, "--out", str(out_dir))
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""
        assert not out_dir.exists()


def test_simulate_unwritable_output_exit_code(tmp_path, capsys):
    blocker = tmp_path / "not_a_directory"
    blocker.write_text("occupied")
    code, _, err = run_cli(
        capsys,
        "simulate", "--model", "logistic", "--r", "0.5", "--K", "10",
        "--alpha", "1", "--x0", "1", "--t-final", "1", "--out", str(blocker),
    )
    assert code == 4
    assert err
    # The first solve runs before --out is created, so a blow-up there wins.
    code, _, err = run_cli(
        capsys,
        "simulate", "--model", "cubic", "--a", "1", "--b", "0", "--c", "1",
        "--alpha", "1", "--x0", "2", "--t-final", "10", "--n-steps", "100",
        "--out", str(blocker),
    )
    assert code == 3
    assert "state blew up" in err


def test_equilibria_logistic_report(capsys):
    code, out, _ = run_cli(
        capsys, "equilibria", "--model", "logistic", "--r", "0.5", "--K", "10",
        "--alpha", "0.5",
    )
    assert code == 0
    reports = parsed_equilibria(out)
    assert [(round(x, 9), tag) for x, tag in reports] == [(0.0, "U"), (10.0, "AS")]


def test_equilibria_allee_report(capsys):
    # A tiny growth rate only slows time down: the equilibria stay put.
    for r in ("0.5", "1e-12"):
        code, out, _ = run_cli(
            capsys, "equilibria", "--model", "allee", "--r", r, "--K", "10",
            "--m", "1", "--alpha", "0.5",
        )
        assert code == 0
        reports = parsed_equilibria(out)
        assert [(round(x, 9), tag) for x, tag in reports] == [
            (0.0, "AS"), (1.0, "U"), (10.0, "AS")
        ]


def test_equilibria_prints_multiplicity(capsys):
    # x**3 has a triple root at 0; x (x - 1)**2 a simple root at 0 and a
    # double one at 1.
    for flags, want in (
        (("1", "0", "0"), ["x_eq = 0\tlambda = 0\tINC\t(multiplicity 3)"]),
        (("1", "-2", "1"), ["x_eq = 0\tlambda = 1\tU",
                            "x_eq = 1\tlambda = 0\tINC\t(multiplicity 2)"]),
    ):
        a, b, c = flags
        code, out, _ = run_cli(capsys, "equilibria", "--model", "cubic", "--a", a,
                               "--b", b, "--c", c, "--alpha", "0.5")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("x_eq")] == want


def test_equilibria_prints_no_negative_zero(capsys):
    # c = -0 makes the origin a double root whose eigenvalue is c itself.
    code, out, err = run_cli(capsys, "equilibria", "--model", "cubic", "--a", "1", "--b", "1",
                             "--c", "-0", "--alpha", "0.5")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "cubic coefficients: a = 1, b = 1, c = 0",
        "x_eq = -1\tlambda = 1\tU",
        "x_eq = 0\tlambda = 0\tINC\t(multiplicity 2)",
    ]


def test_equilibria_at_extreme_coefficient_ratios(capsys):
    # 3*a overflows at a = 1e308, yet f'(-/+1e-154) = 2.  At the critical
    # Allee effort the double root's eigenvalue is 0 exactly.  At a = 1e300,
    # b = 1e308 the root -1e8 has f' = 1e316, past double range.
    for flags, want in (
        (("cubic", "--a", "1e308", "--b", "1", "--c", "-1"),
         ["x_eq = -1e-154\tlambda = 2\tU", "x_eq = 0\tlambda = -1\tAS",
          "x_eq = 1e-154\tlambda = 2\tU"]),
        (("allee-harvest", "--r", "0.5", "--K", "10", "--m", "1", "--E", "1.0125"),
         ["x_eq = 0\tlambda = -1.5125\tAS", "x_eq = 5.5\tlambda = 0\tINC\t(multiplicity 2)"]),
    ):
        code, out, err = run_cli(capsys, "equilibria", "--model", *flags, "--alpha", "0.5")
        assert (code, err) == (0, "")
        assert [line for line in out.splitlines() if line.startswith("x_eq")] == want
    code, out, err = run_cli(
        capsys, "equilibria", "--model", "cubic", "--a", "1e300", "--b", "1e308",
        "--c", "1e-300", "--alpha", "0.5",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: lambda at x = -100000000.0 is ")
    assert err.endswith(", beyond double range\n")


def test_equilibria_degenerate_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "equilibria", "--model", "cubic", "--a", "0", "--b", "0",
        "--c", "0", "--alpha", "0.5",
    )
    assert code == 2
    assert out == ""
    assert "stationary" in err


def test_equilibria_underflowed_coefficient(capsys):
    # r / K (logistic) or r * m (Allee) underflowing to zero would drop the
    # equilibrium x = K or x = m; the command refuses instead.
    for flags, name in (
        (("logistic", "--r", "1e-300", "--K", "1e300"), "r / K"),
        (("allee-harvest", "--r", "1e-200", "--K", "10", "--m", "1e-200", "--E", "0"),
         "r * m"),
    ):
        code, out, err = run_cli(capsys, "equilibria", "--model", *flags, "--alpha", "0.5")
        assert code == 2
        assert out == ""
        assert err == f"error: {name} underflows to zero, so an equilibrium would be lost\n"


def test_bound_logistic_report(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--model", "logistic", "--r", "0.5", "--K", "10",
        "--alpha", "0.5", "--h-state", "12",
    )
    assert code == 0
    assert abs(parsed_value(out, "rhs_bound") - 1.7) <= 1e-12
    assert abs(parsed_value(out, "n_min") - 2.89) <= 1e-11


def test_bound_uses_default_half_width(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--model", "logistic", "--r", "0.5", "--K", "10",
        "--alpha", "0.5", "--x0", "2",
    )
    assert code == 0
    assert abs(parsed_value(out, "h_state") - 12.0) <= 1e-12
    assert abs(parsed_value(out, "rhs_bound") - 1.7) <= 1e-12


def test_bound_cubic_requires_half_width(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--model", "cubic", "--a", "1", "--b", "0", "--c", "1",
        "--alpha", "0.5",
    )
    assert code == 2
    assert err == "error: no default h_state for a raw cubic model\n"


def test_bound_reports_library_refusal_unwrapped(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--model", "logistic", "--r", "0.5", "--K", "10",
        "--alpha", "0.5", "--x0", "nan",
    )
    assert code == 2
    assert out == ""
    assert err == "error: x0 must be finite, got nan\n"


def test_bound_beyond_double_range(capsys):
    # Whether the power overflows (logistic) or rhs_bound is already infinite
    # (Allee), the command fails the same way and prints nothing.
    for model in (("logistic",), ("allee", "--m", "1")):
        code, out, err = run_cli(
            capsys, "bound", "--model", *model, "--r", "0.5", "--K", "10",
            "--alpha", "0.5", "--h-state", "1e200",
        )
        assert code == 2
        assert out == ""
        assert err == "error: bound beyond double range at h_state = 1e+200, alpha = 0.5\n"


def test_bound_pure_linear(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--model", "cubic", "--a", "0", "--b", "0", "--c", "1",
        "--alpha", "1", "--h-state", "1",
    )
    assert code == 0
    assert parsed_value(out, "rhs_bound") == 1.0
    assert parsed_value(out, "n_min") == 1.0


def test_bound_allee_harvest_cross_check(capsys):
    r, K, m, E, h = 0.5, 10.0, 1.0, 0.2, 12.0
    code, out, _ = run_cli(
        capsys, "bound", "--model", "allee-harvest", "--r", "0.5", "--K", "10",
        "--m", "1", "--E", "0.2", "--alpha", "0.5", "--h-state", "12",
    )
    assert code == 0
    closed_form = r * (m + (m / K + 1.0) * 2.0 * h + 3.0 * h**2 / K) + E
    assert abs(parsed_value(out, "rhs_bound") - closed_form) <= 1e-10 * closed_form


def test_convergence_reports_order(capsys):
    base = (
        "convergence", "--model", "cubic", "--a", "0", "--b", "0", "--c", "-1",
        "--alpha", "1", "--x0", "1", "--t-final", "1",
    )
    code, out, _ = run_cli(capsys, *base, "--method", "adams")
    assert code == 0
    assert sum(line.startswith("n = ") for line in out.splitlines()) == 5
    assert abs(parsed_value(out, "order") - 2.0) <= 0.2
    code, out, _ = run_cli(capsys, *base, "--method", "euler")
    assert code == 0
    assert abs(parsed_value(out, "order") - 1.0) <= 0.2


def test_convergence_exact_solve_prints_nan_order(capsys):
    code, out, err = run_cli(
        capsys, "convergence", "--model", "cubic", "--a", "0", "--b", "0", "--c", "-1",
        "--alpha", "1", "--x0", "0", "--t-final", "1",
    )
    assert code == 0
    assert err == ""
    assert [line.endswith("error = 0") for line in out.splitlines()].count(True) == 5
    assert out.endswith("\norder = nan\n")
    # Also where e^(-c t) underflows: the zero solution needs no closed form.
    code, out, err = run_cli(
        capsys, "convergence", "--model", "logistic", "--r", "0.5", "--K", "10",
        "--alpha", "1", "--x0", "0", "--t-final", "2000", "--base-steps", "1",
        "--refinements", "2",
    )
    assert code == 0
    assert err == ""
    assert out.endswith("error = 0\norder = nan\n")


def test_convergence_linear_reference_at_order_one_is_exponential(capsys):
    # At alpha = 1 the linear law's reference is x0 e^(c t), with no series
    # limit on the horizon.
    code, out, err = run_cli(
        capsys, "convergence", "--model", "cubic", "--a", "0", "--b", "0", "--c", "-1",
        "--alpha", "1", "--x0", "1", "--t-final", "20",
    )
    assert code == 0
    assert err == ""
    assert sum(line.startswith("n = ") for line in out.splitlines()) == 5


def test_convergence_linear_reference_on_the_positive_axis(capsys):
    # On the positive axis no Mittag-Leffler term cancels, so the series is
    # accurate relative to its size, here about 1e9 at z = 4.47.
    code, out, err = run_cli(
        capsys, "convergence", "--model", "cubic", "--a", "0", "--b", "0", "--c", "1",
        "--alpha", "0.5", "--x0", "1", "--t-final", "20",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "order = 0.8215"


def test_convergence_requires_reference(capsys):
    code, _, err = run_cli(
        capsys, "convergence", "--model", "allee", "--r", "0.5", "--K", "10",
        "--m", "1", "--alpha", "0.5", "--x0", "4", "--t-final", "5",
    )
    assert code == 2
    assert "closed-form" in err
    # Below alpha = 1 the linear law's reference is limited by the
    # Mittag-Leffler domain, and inside it by the series' accuracy.
    code, out, err = run_cli(
        capsys, "convergence", "--model", "cubic", "--a", "0", "--b", "0", "--c", "-40",
        "--alpha", "0.5", "--x0", "1", "--t-final", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: |z| <= 30 required, got -40.0\n"
    code, out, err = run_cli(
        capsys, "convergence", "--model", "cubic", "--a", "0", "--b", "0", "--c", "-1",
        "--alpha", "0.5", "--x0", "1", "--t-final", "20",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: Mittag-Leffler series terms cancel beyond 1e-10 of max(1, |E|) "
        "for alpha=0.5, z=-4.47213595499958 (stopped at k = 167)\n"
    )
    # On the unstable equilibrium x0 = -c/b the closed form cancels.
    code, out, err = run_cli(
        capsys, "convergence", "--model", "cubic", "--a", "0", "--b", "1", "--c", "-1",
        "--alpha", "1", "--x0", "1", "--t-final", "30",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: the closed-form reference escapes, is ill-conditioned or leaves "
        "double range by t_final = 30\n"
    )


def test_regime_sweep_smoke_matrix(tmp_path, capsys):
    # Sixteen parameter combinations spanning both harvested models, the
    # four-effort sweeps at alpha = 0.5, and the default alpha sweeps.  The
    # cubic-term model needs the fine grid: the explicit scheme blows up at
    # alpha = 0.25 from x0 = 8 on anything coarser than about 2000 steps.
    invocations = [
        (
            "harvest_efforts",
            ("simulate", "--model", "logistic-harvest", "--r", "0.5", "--K", "10",
             "--E", "0,0.05,0.2,0.5", "--alpha", "0.5", "--x0", X0_SET,
             "--t-final", "500", "--n-steps", "300"),
        ),
        (
            "harvest_alphas",
            ("simulate", "--model", "logistic-harvest", "--r", "0.5", "--K", "10",
             "--E", "0.2", "--x0", X0_SET, "--t-final", "500", "--n-steps", "300"),
        ),
        (
            "allee_efforts",
            ("simulate", "--model", "allee-harvest", "--r", "0.5", "--K", "10",
             "--m", "1", "--E", "0,0.5,1,1.5", "--alpha", "0.5", "--x0", X0_SET,
             "--t-final", "25", "--n-steps", "2000"),
        ),
        (
            "allee_alphas",
            ("simulate", "--model", "allee-harvest", "--r", "0.5", "--K", "10",
             "--m", "1", "--E", "0.2", "--x0", X0_SET, "--t-final", "25",
             "--n-steps", "2000"),
        ),
    ]
    for label, args in invocations:
        out_dir = tmp_path / label
        code, _, err = run_cli(capsys, *args, "--out", str(out_dir))
        assert code == 0, f"{label} failed: {err}"
        assert len(list(out_dir.glob("*.csv"))) == 16


def test_commands_share_one_process(tmp_path, capsys):
    # main reuses one parser, so no call may see the flags of the one before.
    for command in ([], ["simulate"], ["equilibria"], ["bound"], ["convergence"]):
        code, out, _ = run_cli(capsys, *command, "--help")
        assert code == 0
        assert out.startswith(" ".join(["usage: fracpop", *command]))
    code, out, err = run_cli(capsys)
    assert code == 2
    assert out == ""
    assert err.endswith("fracpop: error: the following arguments are required: command\n")

    code, out, _ = run_cli(
        capsys, "simulate", "--model", "logistic-harvest", "--r", "0.5", "--K", "10",
        "--E", "0.1,0.2", "--alpha", "1", "--x0", "4", "--t-final", "1",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert out.count("wrote ") == 2
    logistic = ("--r", "0.5", "--K", "10", "--alpha", "0.5")
    code, out, err = run_cli(capsys, "equilibria", "--model", "logistic", *logistic)
    assert code == 0, err
    assert "alpha = 0.5" in out
    code, _, err = run_cli(capsys, "equilibria", "--model", "logistic-harvest", *logistic)
    assert code == 2
    assert err == "error: model 'logistic-harvest' needs --E\n"

    bound = ("bound", "--model", "logistic", *logistic)
    code, out, _ = run_cli(capsys, *bound, "--x0", "20")
    assert code == 0
    assert parsed_value(out, "h_state") == 24.0
    code, out, _ = run_cli(capsys, *bound)
    assert code == 0
    assert parsed_value(out, "h_state") == 12.0

    argv = ("convergence", "--model", "cubic", "--a", "0", "--b", "0", "--c", "-1",
            "--alpha", "0.5", "--x0", "1", "--t-final", "1")
    first = run_cli(capsys, *argv)
    assert first[0] == 0
    assert run_cli(capsys, *argv) == first


def run_module(*args, python_flags=()):
    """Run ``python -m fracpop`` in a child on the same fracpop as the suite."""
    src = str(Path(fracpop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "fracpop", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_module_entry_point():
    result = run_module(
        "bound", "--model", "cubic", "--a", "0", "--b", "0", "--c", "1",
        "--alpha", "1", "--h-state", "1",
    )
    assert result.returncode == 0
    assert "n_min = 1" in result.stdout


def test_pece_overflow_exits_3_under_warnings_as_errors():
    # The corrector sum overflows at step 1; the run stops on the blow-up
    # alone, with no NumPy overflow warning (fatal under -W error).
    result = run_module(
        "convergence", "--model", "cubic", "--a", "0", "--b", "0", "--c", "-1",
        "--alpha", "1", "--x0", "1e308", "--t-final", "1",
        python_flags=("-W", "error"),
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == (
        "error: state blew up at step 1 (t = 0.03125): |x| = inf exceeds 1e+12\n"
    )
    # The fractional Euler leaf dot overflows at step 4; numpy's overflow
    # warning is off inside a solve, so this too ends on the blow-up.
    result = run_module(
        "convergence", "--model", "cubic", "--a", "0", "--b", "0", "--c", "1e308",
        "--alpha", "0.999999", "--x0", "0.5", "--t-final", "1e-320",
        "--base-steps", "1", "--refinements", "2", "--method", "euler",
        python_flags=("-W", "error"),
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == (
        "error: state blew up at step 4 (t = 9.99989e-321): |x| = inf exceeds 1e+12\n"
    )


def readme_block(heading, language):
    """The first ``language`` code block under the README's ``heading``."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_commands():
    """Each ``fracpop`` line of the README's command-line block, as a param."""
    block = readme_block("Command line", "sh")
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("fracpop ")]
    assert len(commands) == 5
    for argv in commands:
        model = argv[argv.index("--model") + 1]
        # The explicit scheme blows up on the default grid at alpha = 0.25,
        # x0 = 8, although the true solution is bounded.
        marks = pytest.mark.xfail(strict=True) if model == "allee-harvest" else ()
        yield pytest.param(argv, id=f"{argv[0]}-{model}", marks=marks)


@pytest.mark.parametrize("argv", readme_commands())
def test_readme_commands(argv, tmp_path, capsys):
    code, _, err = run_cli(capsys, *[str(tmp_path) if a == "data/" else a for a in argv])
    assert code == 0, err
    model = argv[argv.index("--model") + 1]
    want = {"logistic-harvest": 4, "allee-harvest": 16}.get(model, 0)
    assert len(list(tmp_path.glob("*.csv"))) == want


@pytest.mark.xfail(
    strict=True,
    reason="the explicit scheme writes wrong trajectories with exit 0: at "
    "alpha = 0.25 PECE from x0 = 8 crosses the equilibria 1.47 and 0 and ends "
    "at -0.0153, and from x0 = 12 it is not monotone (ROADMAP items 3 and 14)",
)
def test_readme_allee_sweep_on_a_finer_grid_keeps_the_invariants(tmp_path, capsys):
    # A scalar autonomous Caputo solution moves monotonically in the
    # direction of f(x0) and never crosses an equilibrium.
    run_cli(
        capsys,
        "simulate", "--model", "allee-harvest", "--r", "0.5", "--K", "10",
        "--m", "1", "--E", "0.2", "--x0", X0_SET, "--t-final", "25",
        "--n-steps", "2000", "--out", str(tmp_path),
    )
    coeffs = fracpop.to_cubic(fracpop.AlleeHarvest(0.5, 10.0, 1.0, 0.2))
    roots = [report.x_eq for report in fracpop.equilibria(coeffs)]
    written = sorted(tmp_path.glob("*.csv"))
    assert written
    breaches = {}
    for path in written:
        _, x = read_csv(path)
        direction = np.sign(fracpop.rhs_eval(coeffs, x[0]))
        assert direction != 0.0
        # Along y = direction * x the trajectory must rise and stay below
        # the first equilibrium ahead of it.
        y = direction * x
        breach = float(np.max(np.maximum.accumulate(y) - y))
        ahead = [direction * root for root in roots if direction * root > y[0]]
        if ahead:
            breach = max(breach, float(np.max(y)) - min(ahead))
        if breach > 1e-9 * (1.0 + float(np.max(np.abs(x)))):
            breaches[path.name] = round(breach, 4)
    assert breaches == {}


def test_readme_library_quickstart(capsys):
    exec(readme_block("Library quickstart", "python"), {})
    lines = capsys.readouterr().out.splitlines()
    # The final time and state, the two equilibria 0 and K (1 - E / r) = 6
    # with their tags, then n_min = (2 |b| h + |c|)**(1 / alpha).
    t_end, x_end = map(float, lines[0].split())
    assert t_end == 50.0 and 4.0 < x_end < 6.0
    assert [line.split()[2] for line in lines[1:3]] == ["U", "AS"]
    assert float(lines[3]) == pytest.approx(2.25)
    assert len(lines) == 4


def test_grid_too_large_to_allocate(tmp_path, capsys):
    # 1e15 steps need 7.1 PiB per array, beyond any address space, so NumPy
    # refuses the first array at once and nothing is allocated: the weights
    # below alpha = 1, the values at alpha = 1.
    steps = "1000000000000000"
    for argv in (
        ("simulate", "--model", "logistic", "--r", "0.5", "--K", "10", "--alpha", "1",
         "--x0", "4", "--t-final", "10", "--n-steps", steps, "--out", str(tmp_path / "out")),
        ("simulate", "--model", "logistic", "--r", "0.5", "--K", "10", "--alpha", "0.5",
         "--x0", "4", "--t-final", "10", "--n-steps", steps, "--out", str(tmp_path / "out")),
        ("convergence", "--model", "cubic", "--a", "0", "--b", "0", "--c", "-1",
         "--alpha", "1", "--x0", "1", "--t-final", "1", "--base-steps", steps),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "allocate" in err
        assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert not list(tmp_path.iterdir())
