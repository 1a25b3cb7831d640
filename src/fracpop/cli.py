"""Command line front end.

Subcommands:

* ``simulate``: integrate a model over sweeps of alpha, x0 and (for the
  harvested models) effort E, writing one two-column CSV per combination.
* ``equilibria``: print each equilibrium with its eigenvalue and tag.
* ``bound``: evaluate the uniqueness bound on a state ball.
* ``convergence``: empirical order study against a closed-form reference.

Exit codes: 0 success, 2 bad arguments or an unusable model, 3 numerical
blow-up, 4 filesystem failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .models import (
    Allee,
    AlleeHarvest,
    Cubic,
    FractionalIVP,
    Logistic,
    LogisticHarvest,
    ModelSpec,
    default_h_state,
    existence_bound,
    to_cubic,
)
from .solver import BlowUpError, Grid, SolverMethod, Trajectory, convergence_study, solve
from .stability import classify_all

__all__ = ["main", "build_parser"]

_MAX_DEFAULT_STEPS = 50000

# Each model's flags are the fields of its dataclass, in declaration order.
_MODELS = {
    "cubic": Cubic,
    "logistic": Logistic,
    "logistic-harvest": LogisticHarvest,
    "allee": Allee,
    "allee-harvest": AlleeHarvest,
}
_ALL_PARAMS = ("a", "b", "c", "r", "K", "m", "E")
_METHODS = [method.value for method in SolverMethod]


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty value list: {text!r}")
    return values


def _add_model_flags(parser: argparse.ArgumentParser, sweep_effort: bool) -> None:
    parser.add_argument(
        "--model", required=True, choices=sorted(_MODELS), help="model kind"
    )
    parser.add_argument("--a", type=float, help="cubic coefficient a")
    parser.add_argument("--b", type=float, help="cubic coefficient b")
    parser.add_argument("--c", type=float, help="cubic coefficient c")
    parser.add_argument("--r", type=float, help="growth rate r > 0")
    parser.add_argument("--K", type=float, help="carrying capacity K > 0")
    parser.add_argument("--m", type=float, help="survival threshold m in (0, K)")
    if sweep_effort:
        parser.add_argument(
            "--E", type=_float_list, help="harvesting effort(s), comma separated"
        )
    else:
        parser.add_argument("--E", type=float, help="harvesting effort E >= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpop",
        description="Fractional-order population dynamics with cubic growth laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate and write CSV trajectories")
    _add_model_flags(sim, sweep_effort=True)
    sim.add_argument(
        "--alpha",
        type=_float_list,
        default=(0.25, 0.5, 0.75, 1.0),
        help="fractional order(s), comma separated (default 0.25,0.5,0.75,1.0)",
    )
    sim.add_argument(
        "--x0", type=_float_list, required=True, help="initial value(s), comma separated"
    )
    sim.add_argument("--t-final", type=float, required=True, help="end time > 0")
    sim.add_argument(
        "--n-steps",
        type=int,
        default=None,
        help="grid steps (default: 10 per time unit, capped at 50000)",
    )
    sim.add_argument(
        "--method",
        choices=_METHODS,
        default="adams",
        help="integration scheme (default adams)",
    )
    sim.add_argument("--out", default=".", help="output directory for CSV files")
    sim.set_defaults(run=lambda args: cmd_simulate(_simulate_config(args)))

    eq = sub.add_parser("equilibria", help="print equilibria with stability tags")
    _add_model_flags(eq, sweep_effort=False)
    eq.add_argument("--alpha", type=float, required=True, help="fractional order")
    eq.set_defaults(run=cmd_equilibria)

    bnd = sub.add_parser("bound", help="evaluate the uniqueness bound")
    _add_model_flags(bnd, sweep_effort=False)
    bnd.add_argument("--alpha", type=float, required=True, help="fractional order")
    bnd.add_argument(
        "--h-state",
        type=float,
        default=None,
        help="state-ball half-width (default 1.2*max(|x0|, K) for named models)",
    )
    bnd.add_argument(
        "--x0", type=float, default=0.0, help="initial value entering the default half-width"
    )
    bnd.set_defaults(run=cmd_bound)

    conv = sub.add_parser("convergence", help="empirical convergence order")
    _add_model_flags(conv, sweep_effort=False)
    conv.add_argument("--alpha", type=float, required=True, help="fractional order")
    conv.add_argument("--x0", type=float, required=True, help="initial value")
    conv.add_argument("--t-final", type=float, required=True, help="end time > 0")
    conv.add_argument(
        "--method", choices=_METHODS, default="adams", help="integration scheme"
    )
    conv.add_argument("--base-steps", type=int, default=32, help="coarsest grid size")
    conv.add_argument(
        "--refinements", type=int, default=4, help="number of dyadic refinements (>= 2)"
    )
    conv.set_defaults(run=cmd_convergence)
    return parser


def _build_model(kind: str, params: dict[str, float]) -> ModelSpec:
    required = [field.name for field in fields(_MODELS[kind])]
    missing = [name for name in required if params.get(name) is None]
    extra = [
        name
        for name in _ALL_PARAMS
        if name not in required and params.get(name) is not None
    ]
    if missing:
        raise ValueError(f"model {kind!r} needs --{' --'.join(missing)}")
    if extra:
        raise ValueError(f"model {kind!r} does not take --{' --'.join(extra)}")
    return _MODELS[kind](**{name: params[name] for name in required})


def _model_params(args: argparse.Namespace) -> dict[str, float]:
    return {name: getattr(args, name) for name in _ALL_PARAMS}


def _default_steps(t_final: float) -> int:
    return max(1, min(_MAX_DEFAULT_STEPS, round(10.0 * t_final)))


@dataclass
class RunConfig:
    """Validated inputs of one ``simulate`` invocation: the IVP of each CSV path."""

    members: dict[Path, FractionalIVP]
    grid: Grid
    method: SolverMethod
    out_dir: Path


def _simulate_config(args: argparse.Namespace) -> RunConfig:
    """Build every member of the sweep, so a bad value fails before any write."""
    params = _model_params(args)
    models = [
        _build_model(args.model, dict(params, E=effort))
        for effort in params["E"] or (None,)
    ]
    out_dir = Path(args.out)
    members: dict[Path, FractionalIVP] = {}
    for model, alpha, x0 in itertools.product(models, args.alpha, args.x0):
        ivp = FractionalIVP(alpha=alpha, model=model, x0=x0, t_final=args.t_final)
        # File names keep 6 significant digits, so distinct values can collide.
        path = out_dir / _csv_name(args.model, ivp)
        if path in members:
            raise ValueError(f"two sweep members would both write {path.name}")
        members[path] = ivp
    # t_final is validated by now, so the default step count can use it.
    n_steps = args.n_steps if args.n_steps is not None else _default_steps(args.t_final)
    return RunConfig(
        members=members,
        grid=Grid(n_steps, args.t_final),
        method=SolverMethod(args.method),
        out_dir=out_dir,
    )


def _csv_name(kind: str, ivp: FractionalIVP) -> str:
    parts = [kind, f"alpha{ivp.alpha:g}", f"x0{ivp.x0:g}"]
    effort = getattr(ivp.model, "E", None)
    if effort is not None:
        parts.append(f"E{effort:g}")
    return "_".join(parts) + ".csv"


def _write_csv(path: Path, trajectory: Trajectory) -> None:
    lines = ["t,x"]
    for t, x in zip(trajectory.grid.times, trajectory.values):
        lines.append(f"{t:.17g},{x:.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def cmd_simulate(cfg: RunConfig) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for path, ivp in cfg.members.items():
        try:
            trajectory = solve(ivp, cfg.grid.n_steps, cfg.method)
        except BlowUpError as exc:
            detail = f"alpha={ivp.alpha:g}, x0={ivp.x0:g}"
            effort = getattr(ivp.model, "E", None)
            if effort is not None:
                detail += f", E={effort:g}"
            # Name the member; main maps every blow-up to exit 3.
            exc.args = (f"simulate failed ({detail}): {exc}",)
            raise
        _write_csv(path, trajectory)
        print(f"wrote {path}")


def cmd_equilibria(args: argparse.Namespace) -> None:
    model = _build_model(args.model, _model_params(args))
    coeffs = to_cubic(model)
    reports = classify_all(coeffs, args.alpha)
    print(f"model = {args.model}, alpha = {args.alpha:g}")
    print(f"cubic coefficients: a = {coeffs.a:.12g}, b = {coeffs.b:.12g}, c = {coeffs.c:.12g}")
    for report in reports:
        tag = report.classification.value if report.classification else "?"
        line = f"x_eq = {report.x_eq:.12g}\tlambda = {report.lam:.12g}\t{tag}"
        if report.multiplicity > 1:
            line += f"\t(multiplicity {report.multiplicity})"
        print(line)


def cmd_bound(args: argparse.Namespace) -> None:
    model = _build_model(args.model, _model_params(args))
    h_state = args.h_state
    if h_state is None:
        try:
            h_state = default_h_state(model, args.x0)
        except ValueError as exc:
            raise ValueError(f"{exc}; use --h-state") from exc
    report = existence_bound(to_cubic(model), h_state, args.alpha)
    print(f"model = {args.model}, alpha = {args.alpha:g}")
    print(f"h_state = {report.h_state:.12g}")
    print(f"rhs_bound = {report.rhs_bound:.12g}")
    print(f"n_min = {report.n_min:.12g}")


def cmd_convergence(args: argparse.Namespace) -> None:
    model = _build_model(args.model, _model_params(args))
    ivp = FractionalIVP(alpha=args.alpha, model=model, x0=args.x0, t_final=args.t_final)
    method = SolverMethod(args.method)
    ns, hs, errors, order = convergence_study(ivp, method, args.base_steps, args.refinements)
    print(f"model = {args.model}, alpha = {args.alpha:g}, method = {args.method}")
    for n, h, err in zip(ns, hs, errors):
        print(f"n = {n:<8d} h = {h:<12.6g} error = {err:.6g}")
    print(f"order = {order:.4g}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        args.run(args)
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
