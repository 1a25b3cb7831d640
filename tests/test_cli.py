"""Command-line behavior: file outputs, reports, exit codes, determinism."""

import os
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
    assert out.count("wrote ") == 2


def test_simulate_zero_dynamics_constant_column(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "simulate", "--model", "cubic", "--a", "0", "--b", "0", "--c", "0",
        "--x0", "7", "--alpha", "0.5", "--t-final", "5", "--out", str(tmp_path),
    )
    assert code == 0
    _, x = read_csv(tmp_path / "cubic_alpha0.5_x07.csv")
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


def test_equilibria_logistic_report(capsys):
    code, out, _ = run_cli(
        capsys, "equilibria", "--model", "logistic", "--r", "0.5", "--K", "10",
        "--alpha", "0.5",
    )
    assert code == 0
    reports = parsed_equilibria(out)
    assert [(round(x, 9), tag) for x, tag in reports] == [(0.0, "U"), (10.0, "AS")]


def test_equilibria_allee_report(capsys):
    code, out, _ = run_cli(
        capsys, "equilibria", "--model", "allee", "--r", "0.5", "--K", "10",
        "--m", "1", "--alpha", "0.5",
    )
    assert code == 0
    reports = parsed_equilibria(out)
    assert [(round(x, 9), tag) for x, tag in reports] == [(0.0, "AS"), (1.0, "U"), (10.0, "AS")]


def test_equilibria_degenerate_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "equilibria", "--model", "cubic", "--a", "0", "--b", "0",
        "--c", "0", "--alpha", "0.5",
    )
    assert code == 2
    assert out == ""
    assert "stationary" in err


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
    assert "--h-state" in err


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


def test_convergence_requires_reference(capsys):
    code, _, err = run_cli(
        capsys, "convergence", "--model", "allee", "--r", "0.5", "--K", "10",
        "--m", "1", "--alpha", "0.5", "--x0", "4", "--t-final", "5",
    )
    assert code == 2
    assert "closed-form" in err
    # The linear law's reference is limited by the Mittag-Leffler domain.
    code, out, err = run_cli(
        capsys, "convergence", "--model", "cubic", "--a", "0", "--b", "0", "--c", "-40",
        "--alpha", "1", "--x0", "1", "--t-final", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: |z| <= 30 required, got -40.0\n"


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


def test_module_entry_point():
    # The child imports the same fracpop as the suite, installed or not.
    src = str(Path(fracpop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "fracpop", "bound", "--model", "cubic", "--a", "0",
         "--b", "0", "--c", "1", "--alpha", "1", "--h-state", "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0
    assert "n_min = 1" in result.stdout
