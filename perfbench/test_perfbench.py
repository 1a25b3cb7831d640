"""Tests of the benchmark itself: its declared names, its checks and its tracer.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workload_names_match_runner():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_declared_metrics(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_sweep", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == 0:
        # 17 of the 36 sweep members fail at the seed: 1 blow-up, 13 never
        # run after the sweep aborts, 3 invariant violations.
        assert metrics["delivered_frac"] == pytest.approx(19 / 36)
    else:
        record = json.loads((HERE / "out" / "result-cli_sweep-seed5-trace1.json").read_text())
        cross = record["info"]["rhs_eval_cross_check"]
        assert cross["traced_under_solver"] == cross["expected"] > 0
        assert metrics["cli.members_failed"] == 17
        layers = ("cli", "solver", "models", "stability", "specfun", "harness")
        accounted = sum(metrics[f"{layer}.self_s"] for layer in layers)
        assert accounted == pytest.approx(metrics["trace.wall_s"], rel=0.05)


def test_runner_refuses_without_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_invariant_breach():
    t = np.linspace(0.0, 1.0, 11)
    rising = 6.0 - 2.0 * np.exp(-t)
    assert checks.invariant_breach(rising, 1.0, [0.0, 6.0]) == 0.0
    wobble = rising.copy()
    wobble[5] -= 0.3
    dip = 0.3 - (rising[5] - rising[4])
    assert checks.invariant_breach(wobble, 1.0, [0.0, 6.0]) == pytest.approx(dip)
    crossing = np.array([4.0, 5.5, 6.2, 6.2])
    assert checks.invariant_breach(crossing, 1.0, [0.0, 6.0]) == pytest.approx(0.2)
    falling = np.array([1.0, 0.5, -0.1])
    assert checks.invariant_breach(falling, -1.0, [0.0]) == pytest.approx(0.1)
    rounding = np.array([1.0, 2.0, 2.0 - 1.8e-15])
    assert checks.invariant_breach(rounding, 1.0, []) < checks.invariant_tol(rounding)
    assert checks.invariant_breach(np.array([1.0, np.inf]), 1.0, []) == np.inf


def test_csv_text_matches_cli(tmp_path):
    from fracpop.cli import main
    from fracpop.models import FractionalIVP, Logistic
    from fracpop.solver import SolverMethod, solve

    code = main(["simulate", "--model", "logistic", "--r", "0.5", "--K", "10", "--alpha", "0.5",
                 "--x0", "1", "--t-final", "2", "--n-steps", "20", "--out", str(tmp_path)])
    assert code == 0
    ivp = FractionalIVP(alpha=0.5, model=Logistic(0.5, 10.0), x0=1.0, t_final=2.0)
    trajectory = solve(ivp, 20, SolverMethod.FRAC_ADAMS_PECE)
    written = (tmp_path / "logistic_alpha0.5_x01.csv").read_text(encoding="ascii")
    assert written == checks.csv_text(trajectory.grid.times, trajectory.values)


def _traced(fn):
    import workloads

    tracer = tracing.Tracer()
    tracer.install("fracpop", ("cli", "solver", "models", "stability", "specfun"))
    tracer.annotate("solver.solve", workloads.solve_work)
    tracer.pass_id = 1
    tracer.active = True
    start = time.perf_counter()
    try:
        fn()
    finally:
        wall = time.perf_counter() - start
        tracer.active = False
        tracer.uninstall()
    return tracer, wall


def test_tracer_accounts_for_wall_and_restores_names():
    import fracpop.cli
    import fracpop.solver
    from fracpop.models import Cubic, FractionalIVP
    from fracpop.solver import SolverMethod

    originals = (fracpop.solver.rhs_eval, fracpop.cli.solve, fracpop.solver.solve)
    ivp = FractionalIVP(alpha=0.5, model=Cubic(0.0, 0.0, -1.0), x0=1.0, t_final=1.0)

    def work():
        fracpop.solver.solve(ivp, 200, SolverMethod.FRAC_ADAMS_PECE)
        fracpop.solver.estimate_order(ivp, SolverMethod.FRAC_EULER, 16, 2)

    tracer, wall = _traced(work)
    assert (fracpop.solver.rhs_eval, fracpop.cli.solve, fracpop.solver.solve) == originals
    summary = tracing.summarize(tracer.pass_spans(1))
    assert sum(summary["self_s"].values()) == pytest.approx(summary["root_s"], rel=1e-9)
    assert 0.0 <= wall - summary["root_s"] < 0.05 * wall
    assert summary["calls"]["solver.solve"] == 4
    # PECE: 2n + 1 right-hand sides; Euler: n + 1 on grids 16, 32, 64.
    assert summary["leaf_calls_under"][("models.rhs_eval", "solver")] == 401 + 17 + 33 + 65


@pytest.mark.parametrize("method", ["euler", "adams"])
def test_blowup_counts_match_trace(method):
    import fracpop.solver
    from fracpop.models import Cubic, FractionalIVP
    from fracpop.solver import BlowUpError, SolverMethod

    ivp = FractionalIVP(alpha=0.8, model=Cubic(1.0, 0.0, 0.0), x0=1.0, t_final=5.0)

    def work():
        with pytest.raises(BlowUpError):
            fracpop.solver.solve(ivp, 500, SolverMethod(method))

    tracer, _ = _traced(work)
    spans = tracer.pass_spans(1)
    info = next(s[tracing.INFO] for s in spans if s[tracing.NAME] == "solver.solve")
    summary = tracing.summarize(spans)
    assert info["blowup"] and info["steps"] < 500
    assert summary["leaf_calls_under"][("models.rhs_eval", "solver")] == info["rhs"]
