"""The three benchmark workloads: inputs, one timed pass, and its output checks.

Every workload runs closed loop from one process: each call into the package
starts only after the previous one returned.  Calls go through module
attributes (``solver.solve``, ``cli.main``, ...) looked up at call time, so
the tracer's wrappers see them.  ``check`` runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import fracpop.cli as cli
import fracpop.models as models
import fracpop.solver as solver
import fracpop.specfun as specfun
import fracpop.stability as stability
from fracpop.solver import BlowUpError, SolverMethod

import checks

EULER = SolverMethod.FRAC_EULER
PECE = SolverMethod.FRAC_ADAMS_PECE


@dataclass
class Member:
    """One delivered result the benchmark checks.

    status is ``ok``, ``blowup``, ``not_run`` (a sweep aborted before it),
    ``invariant`` (the trajectory breaks monotonicity or crosses an
    equilibrium) or ``check`` (the output differs from what it must be).
    """

    label: str
    steps: int
    status: str = "ok"
    detail: str = ""


@dataclass
class PassResult:
    members: list[Member]
    commands: int = 0
    command_failures: list[str] = field(default_factory=list)
    invariant_violations: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def check_failures(self) -> list[str]:
        bad = [f"{m.label}: {m.detail}" for m in self.members if m.status == "check"]
        return bad + self.command_failures

    @property
    def checked(self) -> int:
        return len(self.members) + self.commands


_SOLVE_SIGNATURE = inspect.signature(solver.solve)


def solve_work(args, kwargs, exc) -> dict:
    """Work of one ``solve`` call, computed from its inputs (tracer annotator).

    A solve that blows up at step k has done k steps: Euler evaluates the
    right-hand side k times and PECE 2k times, and both compute the history
    dots of those k steps.
    """
    bound = _SOLVE_SIGNATURE.bind(*args, **kwargs)
    n = int(bound.arguments["n_steps"])
    method = SolverMethod(bound.arguments["method"]).value
    blowup = isinstance(exc, BlowUpError)
    steps = exc.step_index if blowup else n
    if method == "euler":
        madds = steps * (steps + 1) // 2
        rhs = steps if blowup else steps + 1
    else:
        madds = steps * steps
        rhs = 2 * steps if blowup else 2 * steps + 1
    return {"method": method, "n": n, "steps": steps, "madds": madds, "rhs": rhs,
            "blowup": blowup}


def _equilibria(coeffs) -> list[float]:
    return [r.x_eq for r in stability.equilibria(coeffs)]


def _judge(member: Member, ivp, values: np.ndarray) -> bool:
    """Mark ``member`` as an invariant violation if its trajectory breaks one."""
    coeffs = models.to_cubic(ivp.model)
    breach = checks.invariant_breach(
        values, models.rhs_eval(coeffs, ivp.x0), _equilibria(coeffs)
    )
    if breach > checks.invariant_tol(values):
        member.status = "invariant"
        member.detail = f"invariant breach {breach:.3g}"
        return True
    return False


def timed(calls: list[float], fn, *args):
    """``fn(*args)``, appending its wall time to ``calls``."""
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        calls.append(time.perf_counter() - start)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class History:
    """Two long solves of the README quickstart problem, where O(n^2) history dots dominate."""

    name = "history_1e5"
    N_STEPS = 100_000
    # Final values of the direct-sum solvers at this input (single BLAS thread);
    # a faster history must reproduce them to 1e-12 relative.
    RECORDED_FINAL = {"adams": 5.827932165348092, "euler": 5.8279329463364755}
    FINAL_RTOL = 1e-12
    AGREE_RTOL = 1e-4

    def __init__(self, seed: int, out_dir: Path) -> None:
        # The seed changes nothing: the checks compare with recorded values.
        model = models.LogisticHarvest(r=0.5, K=10.0, E=0.2)
        self.ivp = models.FractionalIVP(alpha=0.5, model=model, x0=4.0, t_final=500.0)
        self.methods = (PECE, EULER)

    def prepare(self) -> None:
        pass

    def run(self) -> tuple[list[Any], list[float]]:
        results: list[Any] = []
        calls: list[float] = []
        for method in self.methods:
            try:
                results.append(timed(calls, solver.solve, self.ivp, self.N_STEPS, method))
            except BlowUpError as exc:
                results.append(exc)
        return results, calls

    def check(self, raw: list[Any]) -> PassResult:
        result = PassResult(members=[])
        finals = {}
        for method, out in zip(self.methods, raw):
            member = Member(f"{method.value} n={self.N_STEPS}", self.N_STEPS)
            result.members.append(member)
            if isinstance(out, BlowUpError):
                member.status, member.detail = "blowup", str(out)
                continue
            values = out.values
            final = float(values[-1])
            recorded = self.RECORDED_FINAL[method.value]
            if len(values) != self.N_STEPS + 1:
                member.status, member.detail = "check", f"{len(values)} values"
            elif not _rel(final, recorded) <= self.FINAL_RTOL:
                member.status = "check"
                member.detail = f"final {final!r} differs from recorded {recorded!r}"
            elif _judge(member, self.ivp, values):
                result.invariant_violations += 1
            finals[method.value] = final
        if len(finals) == 2 and not _rel(finals["euler"], finals["adams"]) <= self.AGREE_RTOL:
            for member in result.members:
                member.status = "check"
                member.detail = f"methods disagree: {finals}"
        return result


class CliSweep:
    """In-process ``fracpop`` command lines from the README: many short solves plus CSV writes."""

    name = "cli_sweep"
    SIMULATE = {
        "sweep1-adams": (
            "logistic-harvest", {"r": 0.5, "K": 10.0, "E": 0.2}, (0.5,),
            (0.1, 4.0, 8.0, 12.0), 500.0, 5000, "adams",
        ),
        "sweep1-euler": (
            "logistic-harvest", {"r": 0.5, "K": 10.0, "E": 0.2}, (0.5,),
            (0.1, 4.0, 8.0, 12.0), 500.0, 5000, "euler",
        ),
        # Default alpha list and default grid (10 steps per time unit).
        "sweep2": (
            "allee-harvest", {"r": 0.5, "K": 10.0, "m": 1.0, "E": 0.2}, None,
            (0.1, 4.0, 8.0, 12.0), 25.0, None, None,
        ),
        "sweep3": (
            "allee-harvest", {"r": 0.5, "K": 10.0, "m": 1.0, "E": 0.2}, (0.5, 0.75, 1.0),
            (0.1, 4.0, 8.0, 12.0), 25.0, None, None,
        ),
    }
    DEFAULT_ALPHAS = (0.25, 0.5, 0.75, 1.0)
    COMMANDS = {
        "equilibria": ["equilibria", "--model", "allee", "--r", "0.5", "--K", "10",
                       "--m", "1", "--alpha", "0.5"],
        "bound": ["bound", "--model", "logistic", "--r", "0.5", "--K", "10",
                  "--alpha", "0.5", "--h-state", "12"],
    }

    def __init__(self, seed: int, out_dir: Path) -> None:
        # The seed changes nothing: CSV bytes and the member set must stay fixed.
        self.out_dir = out_dir / "cli_sweep"
        self.argvs: dict[str, list[str]] = {}
        self.members: dict[str, list[tuple[str, Any, int, SolverMethod]]] = {}
        for label, (kind, params, alphas, x0s, t_final, n_steps, method) in self.SIMULATE.items():
            argv = ["simulate", "--model", kind]
            for name, value in params.items():
                argv += [f"--{name}", f"{value:g}"]
            if alphas is not None:
                argv += ["--alpha", ",".join(f"{a:g}" for a in alphas)]
            argv += ["--x0", ",".join(f"{x:g}" for x in x0s), "--t-final", f"{t_final:g}"]
            if n_steps is not None:
                argv += ["--n-steps", str(n_steps)]
            if method is not None:
                argv += ["--method", method]
            argv += ["--out", str(self.out_dir / label)]
            self.argvs[label] = argv
            model = (models.LogisticHarvest if kind == "logistic-harvest" else models.AlleeHarvest)(**params)
            n = n_steps if n_steps is not None else round(10.0 * t_final)
            solver_method = SolverMethod(method or "adams")
            self.members[label] = [
                (
                    f"{kind}_alpha{alpha:g}_x0{x0:g}_E{params['E']:g}.csv",
                    models.FractionalIVP(alpha=alpha, model=model, x0=x0, t_final=t_final),
                    n,
                    solver_method,
                )
                for alpha in (alphas or self.DEFAULT_ALPHAS)
                for x0 in x0s
            ]
        self.argvs.update(self.COMMANDS)
        self._expected: dict[tuple[str, str], Any] = {}

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self) -> tuple[dict[str, tuple[int, str, str]], list[float]]:
        results = {}
        calls: list[float] = []
        for label, argv in self.argvs.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = timed(calls, cli.main, argv)
            results[label] = (code, out.getvalue(), err.getvalue())
        return results, calls

    def _reference(self, label: str, name: str, ivp, n: int, method: SolverMethod):
        """``solve`` on the member's inputs, formatted as the CSV must read."""
        key = (label, name)
        if key not in self._expected:
            try:
                trajectory = solver.solve(ivp, n, method)
            except BlowUpError as exc:
                self._expected[key] = exc
            else:
                text = checks.csv_text(trajectory.grid.times, trajectory.values)
                self._expected[key] = (text.encode("ascii"), trajectory.values)
        return self._expected[key]

    def check(self, raw: dict[str, tuple[int, str, str]]) -> PassResult:
        result = PassResult(members=[])
        csv_bytes = files = 0
        for label, members in self.members.items():
            aborted = False
            for name, ivp, n, method in members:
                member = Member(f"{label}/{name}", n)
                result.members.append(member)
                expected = self._reference(label, name, ivp, n, method)
                path = self.out_dir / label / name
                if not path.exists():
                    # The first missing member of a sweep is the one that
                    # stopped it; the command line never ran the rest.
                    if isinstance(expected, BlowUpError) and not aborted:
                        member.status, member.detail = "blowup", str(expected)
                    else:
                        member.status, member.detail = "not_run", "sweep aborted before it"
                    aborted = True
                    continue
                data = path.read_bytes()
                csv_bytes += len(data)
                files += 1
                lines = data.decode("ascii", errors="replace").splitlines()
                if isinstance(expected, BlowUpError):
                    member.status, member.detail = "check", "CSV written for a blown-up solve"
                elif not lines or lines[0] != "t,x":
                    member.status, member.detail = "check", "missing t,x header"
                elif len(lines) != n + 2:
                    member.status, member.detail = "check", f"{len(lines) - 1} rows, want {n + 1}"
                elif data != expected[0]:
                    member.status, member.detail = "check", "CSV differs from solve output"
                elif _judge(member, ivp, expected[1]):
                    result.invariant_violations += 1
        result.commands = len(self.COMMANDS)
        result.command_failures += self._check_equilibria(*raw["equilibria"])
        result.command_failures += self._check_bound(*raw["bound"])
        result.extra = {
            "exit_codes": {label: code for label, (code, _, _) in raw.items()},
            "csv_bytes": csv_bytes,
            "files_written": files,
        }
        return result

    def _check_equilibria(self, code: int, out: str, err: str) -> list[str]:
        coeffs = models.to_cubic(models.Allee(r=0.5, K=10.0, m=1.0))
        want = [(r.x_eq, r.classification.value) for r in stability.classify_all(coeffs, 0.5)]
        got = []
        for line in out.splitlines():
            if line.startswith("x_eq = "):
                fields = line.split("\t")
                got.append((float(fields[0].split("=")[1]), fields[2]))
        ok = code == 0 and len(got) == len(want) and all(
            tag == want_tag and abs(x - want_x) <= 1e-11 * (1.0 + abs(want_x))
            for (x, tag), (want_x, want_tag) in zip(got, want)
        )
        return [] if ok else [f"equilibria: exit {code}, printed {got}, want {want}"]

    def _check_bound(self, code: int, out: str, err: str) -> list[str]:
        coeffs = models.to_cubic(models.Logistic(r=0.5, K=10.0))
        want = models.existence_bound(coeffs, 12.0, 0.5).n_min
        got = [float(line.split("=")[1]) for line in out.splitlines() if line.startswith("n_min = ")]
        ok = code == 0 and len(got) == 1 and _rel(got[0], want) <= 1e-11
        return [] if ok else [f"bound: exit {code}, printed n_min {got}, want {want!r}"]


class ConvergenceOracle:
    """Dyadic refinement of D^a x = -x against the Mittag-Leffler closed form."""

    name = "convergence_oracle"
    ALPHAS = (0.3, 0.5, 1.0)
    METHODS = (EULER, PECE)
    TOL = 1e-5
    N_FIRST = 32
    # One doubling past the finest grid the seed needs (Euler at alpha = 1).
    N_LAST = 2**17
    N_FIXED = 4096
    # The seed's largest error on the fixed grid is 1.2e-4 (Euler, alpha = 1).
    FIXED_MAX_ERR = 1e-3
    ORDER_GRIDS = (32, 4)  # base_steps, refinements for estimate_order

    def __init__(self, seed: int, out_dir: Path) -> None:
        # The problem is linear, so scaling x0 leaves every relative error
        # unchanged up to rounding.
        self.x0 = 1.0 + random.Random(seed).uniform(-0.05, 0.05)
        model = models.Cubic(0.0, 0.0, -1.0)
        self.ivps = {
            alpha: models.FractionalIVP(alpha=alpha, model=model, x0=self.x0, t_final=1.0)
            for alpha in self.ALPHAS
        }

    def prepare(self) -> None:
        pass

    def run(self) -> tuple[list[dict[str, Any]], list[float]]:
        results = []
        calls: list[float] = []
        for alpha in self.ALPHAS:
            ivp = self.ivps[alpha]
            exact = self.x0 * timed(calls, specfun.mittag_leffler, alpha, -1.0)
            for method in self.METHODS:
                grids = []
                n = self.N_FIRST
                while True:
                    trajectory = timed(calls, solver.solve, ivp, n, method)
                    err = _rel(float(trajectory.values[-1]), exact)
                    grids.append((n, trajectory, err, calls[-1]))
                    if err <= self.TOL or n >= self.N_LAST:
                        break
                    n *= 2
                fixed = timed(calls, solver.solve, ivp, self.N_FIXED, method)
                order = timed(calls, solver.estimate_order, ivp, method, *self.ORDER_GRIDS)
                results.append({
                    "alpha": alpha, "method": method, "exact": exact, "grids": grids,
                    "fixed": fixed, "order": order,
                })
        return results, calls

    def check(self, raw: list[dict[str, Any]]) -> PassResult:
        result = PassResult(members=[])
        fixed_errs = []
        base, refinements = self.ORDER_GRIDS
        order_steps = sum(base * 2**k for k in range(refinements + 1))
        for pair in raw:
            alpha, method, exact = pair["alpha"], pair["method"], pair["exact"]
            ivp = self.ivps[alpha]
            tag = f"{method.value} alpha={alpha:g}"
            grids = pair["grids"]
            refine = Member(f"{tag} refine", sum(g[0] for g in grids))
            last_n, _, last_err, _ = grids[-1]
            if not last_err <= self.TOL:
                refine.status = "check"
                refine.detail = f"error {last_err:.3g} > {self.TOL:g} at n={last_n}"
            else:
                # Every grid counts: fractional Euler at alpha = 0.3 overshoots
                # on the coarse ones although the finest meets the tolerance.
                result.invariant_violations += sum(_judge(refine, ivp, g[1].values) for g in grids)
            fixed = Member(f"{tag} n={self.N_FIXED}", self.N_FIXED)
            err = _rel(float(pair["fixed"].values[-1]), exact)
            fixed_errs.append(err)
            if not err <= self.FIXED_MAX_ERR:
                fixed.status, fixed.detail = "check", f"error {err:.3g}"
            elif _judge(fixed, ivp, pair["fixed"].values):
                result.invariant_violations += 1
            order = Member(f"{tag} order", order_steps)
            if not checks.order_ok(method.value, alpha, pair["order"]):
                want = checks.expected_order(method.value, alpha)
                order.status = "check"
                order.detail = f"order {pair['order']:.3f}, want {want:g} +- {checks.ORDER_BAND}"
            result.members += [refine, fixed, order]
        result.extra = {
            # Solve time of every refinement grid, in order; the runner sums them.
            "time_to_tol_s": [g[3] for pair in raw for g in pair["grids"]],
            "max_rel_err": max(fixed_errs),
            "orders": {f"{p['method'].value}@{p['alpha']:g}": p["order"] for p in raw},
            "n_tol": {f"{p['method'].value}@{p['alpha']:g}": p["grids"][-1][0] for p in raw},
        }
        return result


WORKLOADS = {w.name: w for w in (History, CliSweep, ConvergenceOracle)}
