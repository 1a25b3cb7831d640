"""Command line front end.

Subcommands:

* ``simulate``: integrate a model over sweeps of alpha, x0 and (for the
  harvested models) effort E, writing one two-column CSV per combination.
* ``equilibria``: print each equilibrium with its eigenvalue and tag.
* ``bound``: evaluate the uniqueness bound on a state ball.
* ``convergence``: empirical order study against a closed-form reference.

Exit codes: 0 success, 2 bad arguments, an unusable model or a grid too
large to allocate, 3 numerical blow-up, 4 filesystem failure.
"""

import argparse
import functools
import itertools
import sys
from dataclasses import fields
from pathlib import Path

from .models import (
    Allee,
    Cubic,
    FractionalIVP,
    Logistic,
    ModelSpec,
    default_h_state,
    existence_bound,
    to_cubic,
)
from .solver import BlowUpError, SolverMethod, convergence_study, solve
from .stability import classify_all

__all__ = ["main"]

_MAX_DEFAULT_STEPS = 50000

# Each model's flags are its dataclass fields in order; only -harvest names take E.
_MODELS = {
    "cubic": Cubic,
    "logistic": Logistic,
    "logistic-harvest": Logistic,
    "allee": Allee,
    "allee-harvest": Allee,
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


def _add_model_flags(parser: argparse.ArgumentParser, sweep: bool) -> None:
    parser.add_argument(
        "--model", required=True, choices=sorted(_MODELS), help="model kind"
    )
    parser.add_argument("--a", type=float, help="cubic coefficient a")
    parser.add_argument("--b", type=float, help="cubic coefficient b")
    parser.add_argument("--c", type=float, help="cubic coefficient c")
    parser.add_argument("--r", type=float, help="growth rate r > 0")
    parser.add_argument("--K", type=float, help="carrying capacity K > 0")
    parser.add_argument("--m", type=float, help="survival threshold m in (0, K)")
    if sweep:
        parser.add_argument(
            "--E", type=_float_list, help="harvesting effort(s), comma separated"
        )
        parser.add_argument(
            "--alpha",
            type=_float_list,
            default=(0.25, 0.5, 0.75, 1.0),
            help="fractional order(s), comma separated (default 0.25,0.5,0.75,1.0)",
        )
    else:
        parser.add_argument("--E", type=float, help="harvesting effort E >= 0")
        parser.add_argument("--alpha", type=float, required=True, help="fractional order")


def _add_run_flags(parser: argparse.ArgumentParser, sweep: bool) -> None:
    x0_help = "initial value(s), comma separated" if sweep else "initial value"
    parser.add_argument("--x0", type=_float_list if sweep else float, required=True, help=x0_help)
    parser.add_argument("--t-final", type=float, required=True, help="end time > 0")
    parser.add_argument(
        "--method", choices=_METHODS, default="adams", help="integration scheme (default adams)"
    )


@functools.cache  # built on the first main call, not at import
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpop",
        description="Fractional-order population dynamics with cubic growth laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate and write CSV trajectories")
    _add_model_flags(sim, sweep=True)
    _add_run_flags(sim, sweep=True)
    sim.add_argument(
        "--n-steps",
        type=int,
        help="grid steps (default: 10 per time unit, capped at 50000)",
    )
    sim.add_argument("--out", default=".", help="output directory for CSV files")
    sim.set_defaults(run=cmd_simulate)

    eq = sub.add_parser("equilibria", help="print equilibria with stability tags")
    _add_model_flags(eq, sweep=False)
    eq.set_defaults(run=cmd_equilibria)

    bnd = sub.add_parser("bound", help="evaluate the uniqueness bound")
    _add_model_flags(bnd, sweep=False)
    bnd.add_argument(
        "--h-state",
        type=float,
        help="state-ball half-width (default 1.2*max(|x0|, K) for named models)",
    )
    bnd.add_argument(
        "--x0", type=float, default=0.0, help="initial value entering the default half-width"
    )
    bnd.set_defaults(run=cmd_bound)

    conv = sub.add_parser("convergence", help="empirical convergence order")
    _add_model_flags(conv, sweep=False)
    _add_run_flags(conv, sweep=False)
    conv.add_argument("--base-steps", type=int, default=32, help="coarsest grid size")
    conv.add_argument(
        "--refinements", type=int, default=4, help="number of dyadic refinements (>= 2)"
    )
    conv.set_defaults(run=cmd_convergence)
    return parser


def _build_model(args: argparse.Namespace, **override: float | None) -> ModelSpec:
    params = {name: getattr(args, name) for name in _ALL_PARAMS} | override
    harvest = args.model.endswith("-harvest")
    required = [f.name for f in fields(_MODELS[args.model]) if f.name != "E" or harvest]
    missing = [name for name in required if params[name] is None]
    extra = [
        name
        for name in _ALL_PARAMS
        if name not in required and params[name] is not None
    ]
    if missing:
        raise ValueError(f"model {args.model!r} needs --{' --'.join(missing)}")
    if extra:
        raise ValueError(f"model {args.model!r} does not take --{' --'.join(extra)}")
    return _MODELS[args.model](**{name: params[name] for name in required})


def cmd_simulate(args: argparse.Namespace) -> None:
    """Build every sweep member and its CSV path, then solve and write each.
    The first solve validates the grid, so a bad value fails before any write."""
    out_dir = Path(args.out)
    members: dict[Path, tuple[FractionalIVP, dict[str, str]]] = {}
    for effort in args.E or (None,):
        model = _build_model(args, E=effort)
        for alpha, x0 in itertools.product(args.alpha, args.x0):
            ivp = FractionalIVP(alpha=alpha, model=model, x0=x0, t_final=args.t_final)
            swept = {"alpha": alpha, "x0": x0, "E": effort}
            # Adding 0.0 names -0 and 0 alike, so they collide like other equal labels.
            label = {name: f"{v + 0.0:g}" for name, v in swept.items() if v is not None}
            # File names keep 6 significant digits, so distinct values can collide.
            stem = "_".join([args.model, *(name + text for name, text in label.items())])
            path = out_dir / f"{stem}.csv"
            if path in members:
                raise ValueError(f"two sweep members would both write {path.name}")
            members[path] = (ivp, label)
    # t_final is validated by now, so the default step count can use it.  It is
    # capped before rounding, as 10 * t_final may overflow to inf.
    default_steps = max(1, round(min(_MAX_DEFAULT_STEPS, 10.0 * args.t_final)))
    n_steps = default_steps if args.n_steps is None else args.n_steps
    template = ""
    for path, (ivp, label) in members.items():
        try:
            trajectory = solve(ivp, n_steps, args.method)
        except BlowUpError as exc:
            detail = ", ".join(f"{name}={text}" for name, text in label.items())
            # Name the member; main maps every blow-up to exit 3.
            exc.args = (f"simulate failed ({detail}): {exc}",)
            raise
        out_dir.mkdir(parents=True, exist_ok=True)
        if not template:  # all members share one grid; %.17g never prints a %
            times = tuple(trajectory.grid.times.tolist())
            template = "t,x\n" + ("%.17g,%%.17g\n" * len(times)) % times
        path.write_text(template % tuple(trajectory.values.tolist()), encoding="ascii")
        print(f"wrote {path}")


def cmd_equilibria(args: argparse.Namespace) -> None:
    model = _build_model(args)
    coeffs = to_cubic(model)
    reports = classify_all(coeffs, args.alpha)
    print(f"model = {args.model}, alpha = {args.alpha:g}")
    # Adding 0.0 turns a negative zero into 0, which prints without a sign.
    a, b, c = coeffs.a + 0.0, coeffs.b + 0.0, coeffs.c + 0.0
    print(f"cubic coefficients: a = {a:.12g}, b = {b:.12g}, c = {c:.12g}")
    for report in reports:
        tag = report.classification.value
        line = f"x_eq = {report.x_eq + 0.0:.12g}\tlambda = {report.lam + 0.0:.12g}\t{tag}"
        if report.multiplicity > 1:
            line += f"\t(multiplicity {report.multiplicity})"
        print(line)


def cmd_bound(args: argparse.Namespace) -> None:
    model = _build_model(args)
    h_state = default_h_state(model, args.x0) if args.h_state is None else args.h_state
    report = existence_bound(to_cubic(model), h_state, args.alpha)
    print(f"model = {args.model}, alpha = {args.alpha:g}")
    print(f"h_state = {report.h_state:.12g}")
    print(f"rhs_bound = {report.rhs_bound:.12g}")
    print(f"n_min = {report.n_min:.12g}")


def cmd_convergence(args: argparse.Namespace) -> None:
    model = _build_model(args)
    ivp = FractionalIVP(alpha=args.alpha, model=model, x0=args.x0, t_final=args.t_final)
    ns, hs, errors, order = convergence_study(ivp, args.method, args.base_steps, args.refinements)
    print(f"model = {args.model}, alpha = {args.alpha:g}, method = {args.method}")
    for n, h, err in zip(ns, hs, errors):
        print(f"n = {n:<8d} h = {h:<12.6g} error = {err:.6g}")
    print(f"order = {order:.4g}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code)
    try:
        args.run(args)
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BlowUpError) else 4 if isinstance(exc, OSError) else 2
    return 0
