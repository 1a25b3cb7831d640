"""fracpop benchmark runner.

    python3 perfbench/run.py --workload history_1e5 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last stdout line is a JSON object holding every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer
metric, from passes run under the tracer and interleaved with untraced ones.
``--workload all`` runs each workload in its own process and prints a table.
Spans and a copy of each result go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported: OpenBLAS threads the history
# dot products, which makes the single-core baseline depend on the box.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import INFO, NAME, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
LAYERS = ("cli", "solver", "models", "stability", "specfun")
# Per-layer counters derived from each solve's inputs, not measured.
COMPUTED_COUNTERS = ("solver.steps", "solver.history_madds",
                     "solver.history_bytes_computed", "models.rhs_eval_expected")
SETUP_REPEATS = 12
MIN_PASSES = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bootstrap() -> None:
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fracpop

    if Path(fracpop.__file__).resolve().parent != src / "fracpop":
        raise SystemExit(f"fracpop imported from {fracpop.__file__}, not {src}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def setup_once(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports fracpop and builds the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload):
    """One timed pass, then its checks (untimed).

    Returns the pass's wall time, the wall time of each of its calls into the
    package, and the checked result.
    """
    workload.prepare()
    start = time.perf_counter()
    raw, calls = workload.run()
    wall = time.perf_counter() - start
    return wall, calls, workload.check(raw)


class Tally:
    """Members and checks over the passes of one run."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: list[str] = []

    def add(self, result) -> None:
        self.checked += result.checked
        self.failures += result.check_failures


def delivered(result) -> tuple[int, int]:
    """Members delivered correctly, and the grid steps they cover."""
    ok = [m for m in result.members if m.status == "ok"]
    return len(ok), sum(m.steps for m in ok)


def fastest_calls(passes: list[list[float]]) -> float:
    """Each call's fastest time over the passes, summed over the calls of a pass."""
    return sum(min(times) for times in zip(*passes))


def untraced_run(workload, oracle, setup, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Timed passes for about ``seconds``, set-ups and checks included.

    A round is one pass of the workload and, on workloads other than
    ``convergence_oracle``, one of the oracle; the last round starts only if
    at least half of a round still fits in ``seconds``.

    On a shared host other tenants slow Python code by up to 2x for stretches
    of 5 to 30 seconds, so a pass's median time moves with how much of the run
    such a stretch covered.  ``wall_s`` is instead the pass with every call
    into the package at its fastest observed time: the calls run one after
    another, and each one's fastest run is the one least disturbed.

    ``oracle`` is the accuracy oracle, given to workloads other than
    ``convergence_oracle``, so that every workload reports ``time_to_tol_s``
    and ``max_rel_err`` from as many passes as its own metrics, spread over
    the same stretch.
    ``setup()`` times one fresh set-up; SETUP_REPEATS of them are spread
    evenly over the run, and ``setup_s`` is the fastest, for the same reason.
    """
    walls, calls, results, probes, setups = [], [], [], [], []
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start

    def due_setups(until: float) -> None:
        while len(setups) < SETUP_REPEATS and len(setups) * seconds / SETUP_REPEATS <= until:
            setups.append(setup())

    round_s = 0.0
    while len(walls) < MIN_PASSES or elapsed() + round_s / 2 < seconds:
        round_start = elapsed()
        due_setups(round_start)
        wall, pass_calls, result = run_pass(workload)
        tally.add(result)
        walls.append(wall)
        calls.append(pass_calls)
        results.append(result)
        if oracle is not None:
            _, _, result = run_pass(oracle)
            tally.add(result)
            probes.append(result)
        round_s = elapsed() - round_start
    due_setups(seconds)
    oracle_results = probes if oracle is not None else results
    members = sum(len(r.members) for r in results)
    wall_s = fastest_calls(calls)
    metrics = {
        "setup_s": min(setups),
        "wall_s": wall_s,
        "steps_per_s": delivered(results[-1])[1] / wall_s,
        "delivered_frac": sum(delivered(r)[0] for r in results) / members,
        "time_to_tol_s": fastest_calls([r.extra["time_to_tol_s"] for r in oracle_results]),
        "max_rel_err": statistics.median(r.extra["max_rel_err"] for r in oracle_results),
    }
    info = {
        "passes": len(walls),
        "oracle_passes": len(oracle_results),
        "pass_min_s": min(walls),
        "pass_median_s": statistics.median(walls),
        "pass_max_s": max(walls),
        "setup_runs_s": setups,
        "last": results[-1],
    }
    return metrics, info


def layer_metrics(summary: dict, spans: list, wall: float, result, cli_members: bool) -> dict:
    calls, total, self_s = summary["calls"], summary["total_s"], summary["self_s"]
    solves = [s[INFO] for s in spans if s[NAME] == "solver.solve"]
    steps = sum(s["steps"] for s in solves)
    madds = sum(s["madds"] for s in solves)
    solve_s = total.get("solver.solve", 0.0)
    sweep = result.members if cli_members else []
    return {
        "solver.solve_s": solve_s,
        "solver.self_s": self_s.get("solver", 0.0),
        "solver.solve_calls": calls.get("solver.solve", 0),
        "solver.steps": steps,
        "solver.us_per_step": 1e6 * solve_s / steps if steps else 0.0,
        "solver.history_madds": madds,
        "solver.history_bytes_computed": 16 * madds,
        "solver.blowups": sum(1 for s in solves if s["blowup"]),
        "solver.invariant_violations": result.invariant_violations,
        "models.rhs_eval_calls": calls.get("models.rhs_eval", 0),
        "models.rhs_eval_expected": sum(s["rhs"] for s in solves),
        "models.rhs_eval_s": total.get("models.rhs_eval", 0.0),
        "models.to_cubic_calls": calls.get("models.to_cubic", 0),
        "models.self_s": self_s.get("models", 0.0),
        "cli.main_s": total.get("cli.main", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.csv_bytes": result.extra.get("csv_bytes", 0),
        "cli.files_written": result.extra.get("files_written", 0),
        "cli.members_attempted": len(sweep),
        "cli.members_failed": sum(1 for m in sweep if m.status != "ok"),
        "specfun.gamma_calls": calls.get("specfun.gamma", 0),
        "specfun.gamma_s": total.get("specfun.gamma", 0.0),
        "specfun.mittag_leffler_calls": calls.get("specfun.mittag_leffler", 0),
        "specfun.mittag_leffler_s": total.get("specfun.mittag_leffler", 0.0),
        "specfun.self_s": self_s.get("specfun", 0.0),
        "stability.equilibria_calls": calls.get("stability.equilibria", 0),
        "stability.classify_all_s": total.get("stability.classify_all", 0.0),
        "stability.self_s": self_s.get("stability", 0.0),
        "harness.self_s": wall - summary["root_s"],
        "trace.wall_s": wall,
    }


def traced_run(workload, seconds: float, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    """Untraced and traced passes in turn; per-layer figures of the fastest traced pass."""
    import workloads

    tracer = Tracer()
    tracer.install("fracpop", LAYERS)
    tracer.annotate("solver.solve", workloads.solve_work)
    untraced, traced = [], []
    run_start = time.perf_counter()
    round_s = 0.0
    try:
        # Same stopping rule as the untraced run.
        while len(traced) < 2 or time.perf_counter() - run_start + round_s / 2 < seconds:
            round_start = time.perf_counter()
            wall, _, result = run_pass(workload)
            tally.add(result)
            untraced.append(wall)

            tracer.pass_id += 1
            workload.prepare()
            tracer.active = True
            start = time.perf_counter()
            raw, _ = workload.run()
            wall = time.perf_counter() - start
            tracer.active = False
            result = workload.check(raw)
            tally.add(result)
            spans = tracer.pass_spans(tracer.pass_id)
            summary = summarize(spans)
            traced.append((layer_metrics(summary, spans, wall, result, workload.name == "cli_sweep"), summary))
            round_s = time.perf_counter() - round_start
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write(spans_path, {"workload": workload.name, "passes": tracer.pass_id})
    metrics, summary = min(traced, key=lambda pair: pair[0]["trace.wall_s"])
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / min(untraced) - 1.0
    info = {
        "passes": len(traced),
        "computed_from_inputs": COMPUTED_COUNTERS,
        "rhs_eval_cross_check": {
            "traced_under_solver": summary["leaf_calls_under"].get(("models.rhs_eval", "solver"), 0),
            "expected": metrics["models.rhs_eval_expected"],
        },
        "last": result,
    }
    return metrics, info


def result_line(spec: dict, kind: str, metrics: dict, tally: Tally) -> dict:
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    if set(declared) != set(metrics):
        raise SystemExit(
            f"measured {kind} metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}"
        )
    return {
        "correct": not tally.failures,
        "attempted": tally.checked,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }


def run_workload(args) -> int:
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    bootstrap()
    import workloads

    out_dir = OUT / f"run-{os.getpid()}"
    make = lambda name: workloads.WORKLOADS[name](args.seed, out_dir)  # noqa: E731
    workload = make(args.workload)
    tally = Tally()
    try:
        _, _, warm = run_pass(workload)  # untimed warm-up
        tally.add(warm)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, info = traced_run(workload, args.seconds, tally, spans_path)
            kind = "per_layer"
        else:
            oracle = None if args.workload == "convergence_oracle" else make("convergence_oracle")
            metrics, info = untraced_run(
                workload, oracle, lambda: setup_once(args.workload, args.seed), args.seconds, tally
            )
            metrics["peak_rss_mb"] = peak_rss_mb()
            kind = "end_to_end"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    last = info.pop("last")
    members = last.members
    failed_members = [m for m in members if m.status != "ok"]
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(),
        "members": len(members),
        "failed_frac": f"{len(failed_members)}/{len(members)}",
        "failed_members": {m.label: m.status for m in failed_members},
        "check_failures": tally.failures[:20],
        **{k: v for k, v in last.extra.items() if k in ("exit_codes", "orders", "n_tol")},
    })
    line = result_line(spec, kind, metrics, tally)
    record = {"info": info, "result": line}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(info))
    for name, entry in line["metrics"].items():
        print(f"{args.workload:<20} {name:<32} {entry['value']:<24.10g} {entry['unit']}")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    spec = load_spec()
    ok = True
    for entry in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{entry['name']}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        print("\n".join(lines[1:-1]))
        print(f"{entry['name']:<20} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        bootstrap()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, OUT / f"run-{os.getpid()}")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
