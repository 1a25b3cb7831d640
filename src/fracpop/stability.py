"""Equilibria of the cubic growth law and their fractional-order stability.

An equilibrium x* of D^alpha x = f(x) = a*x**3 + b*x**2 + c*x is classified
through the eigenvalue lambda = f'(x*).  For scalar real problems the
eigenvalue argument is either 0 (lambda > 0) or pi (lambda < 0), so the
fractional stability sector |arg lambda| > alpha*pi/2 makes the verdict
independent of alpha on (0, 1]: positive eigenvalues are unstable, negative
ones asymptotically stable, and a vanishing eigenvalue is inconclusive at
this linearization order.

Each root and eigenvalue is a product of numbers near 1, the coefficients'
exact frexp mantissas among them, times an exact power of two: it overflows
or underflows only where its true value does, and its sign survives an
underflow.  Every tolerance is relative to the size of its terms, so
rescaling time (a, b and c times one positive factor) changes no
equilibrium, tag or multiplicity.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .models import Allee, Cubic, Logistic, _check

__all__ = [
    "Classification",
    "DegenerateModelError",
    "EquilibriumReport",
    "equilibria",
    "classify_all",
    "harvest_threshold",
    "logistic_harvest_equilibrium",
]


class Classification(Enum):
    UNSTABLE = "U"
    ASYMPTOTICALLY_STABLE = "AS"
    INCONCLUSIVE = "INC"


class DegenerateModelError(ValueError):
    """All coefficients vanish: every state is an equilibrium."""


@dataclass(frozen=True)
class EquilibriumReport:
    """One equilibrium with its eigenvalue, stability tag and multiplicity."""

    x_eq: float
    lam: float
    classification: Classification
    multiplicity: int


def _ldexp(m: float, e: int, name: str) -> float:
    """m * 2**e, or ArithmeticError naming the value where that overflows."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        raise ArithmeticError(f"{name} {m!r} * 2**{e}, beyond double range") from None


def _report(coeffs: Cubic, m: float, e: int, lam_m: float, lam_e: int) -> EquilibriumReport:
    """The equilibrium x = m * 2**e, tagged by the sign of f'(x) = lam_m * 2**lam_e.

    ArithmeticError where x or f'(x) overflows, or unless |f(x)| is within
    1e-9 of the size of f's terms, each scaled relative to the largest.  lam_m
    is 0 only at a double root and at the origin with c = 0 (triple if b = 0).
    """
    x = _ldexp(m, e, "an equilibrium is")
    parts = map(math.frexp, (coeffs.c, coeffs.b, coeffs.a))
    terms = [(mk * m**p, ek + p * e) for p, (mk, ek) in enumerate(parts, 1) if mk != 0.0]
    top = max(ek for _, ek in terms)
    scaled = [math.ldexp(t, ek - top) for t, ek in terms]
    residual, size = sum(scaled), sum(map(abs, scaled))
    if not abs(residual) <= 1e-9 * size:
        raise ArithmeticError(
            f"x = {x!r} is not an equilibrium: residual {residual!r}, size {size!r}"
        )
    lam = _ldexp(lam_m, lam_e, f"lambda at x = {x!r} is")
    if lam_m > 0.0:
        tag, mult = Classification.UNSTABLE, 1
    elif lam_m < 0.0:
        tag, mult = Classification.ASYMPTOTICALLY_STABLE, 1
    else:
        tag, mult = Classification.INCONCLUSIVE, 3 if m == 0.0 and coeffs.b == 0.0 else 2
    return EquilibriumReport(x_eq=x, lam=lam, classification=tag, multiplicity=mult)


def equilibria(coeffs: Cubic) -> list[EquilibriumReport]:
    """All real roots of a*x**3 + b*x**2 + c*x = 0, tagged, in ascending order.

    x = 0 is always a root, with f'(0) = c.  Where a = 0, the root -c/b has
    f' = -c.  Otherwise the quadratic factor, scaled by 4**-h so that the
    larger of b*b and 4ac is near 1, has the cancellation-free roots q/a and
    c/q with q = -(b + s)/2 and s = sign(b)*sqrt(disc), where f'(x) =
    x (2 a x + b) is -x*s and x*s, or the one double root -b/(2a) when the
    discriminant is within 1e-12 of the size of its terms.  Distinct roots
    then differ by more than 1e-6 of their size, so only equal roots merge.
    """
    if coeffs.a == 0.0 and coeffs.b == 0.0 and coeffs.c == 0.0:
        raise DegenerateModelError("a = b = c = 0 leaves every state stationary")
    (ma, ea), (mb, eb), (mc, ec) = map(math.frexp, (coeffs.a, coeffs.b, coeffs.c))
    roots = []
    if ma == 0.0:
        if mb != 0.0 and mc != 0.0:
            roots.append((-mc / mb, ec - eb, -mc, ec))
    elif mb != 0.0 or mc != 0.0:
        # frexp(0.0) has exponent 0, so a zero coefficient takes no part in h.
        h = max(eh for mk, eh in ((mb, eb), (mc, (ea + ec + 1) // 2)) if mk != 0.0)
        b = math.ldexp(mb, eb - h)
        ac4 = math.ldexp(4.0 * ma * mc, ea + ec - 2 * h)
        disc = b * b - ac4
        if abs(disc) <= 1e-12 * (b * b + abs(ac4)):
            roots.append((-b / (2.0 * ma), h - ea, 0.0, 0))
        elif disc > 0.0:
            s = math.copysign(math.sqrt(disc), b)
            q = -0.5 * (b + s)
            roots += [(q / ma, h - ea, -s * q / ma, 2 * h - ea), (mc / q, ec - h, s * mc / q, ec)]
    # f'(0) = c.  The origin comes last, so it replaces c/q = 0 and any root
    # that underflows to 0.0 or -0.0.
    roots.append((0.0, 0, mc, ec))
    reports = {report.x_eq: report for report in (_report(coeffs, *root) for root in roots)}
    return [reports[x] for x in sorted(reports)]


def classify_all(coeffs: Cubic, alpha: float) -> list[EquilibriumReport]:
    """``equilibria`` after checking alpha, on which no tag depends."""
    _check("alpha", alpha)
    return equilibria(coeffs)


def harvest_threshold(r: float, K: float, m: float) -> float:
    """Critical harvesting effort E* = r*(K - m)**2 / (4K) for Allee growth.

    For E below E* the harvested Allee law keeps two interior equilibria;
    above E* they vanish and only extinction remains.  At E = E* exactly the
    interior pair collapses to one flat (double) root, which the equilibrium
    finder reports with multiplicity 2 and an inconclusive tag.
    """
    model = Allee(r, K, m)
    gap = model.K - model.m  # gap * gap overflows to inf where gap ** 2 raises
    return _check("harvest threshold", model.r / (4.0 * model.K) * (gap * gap))


def logistic_harvest_equilibrium(r: float, K: float, E: float) -> float:
    """Nontrivial equilibrium K*(1 - E/r) of harvested logistic growth.

    Positive while E < r, zero at E = r, and negative (population collapse,
    the equilibrium leaves the admissible state space) once E > r.
    """
    model = Logistic(r, K, E)
    return _check("equilibrium", model.K * (1.0 - model.E / model.r))
