"""Equilibria of the cubic growth law and their fractional-order stability.

An equilibrium x* of D^alpha x = f(x) = a*x**3 + b*x**2 + c*x is classified
through the eigenvalue lambda = f'(x*).  For scalar real problems the
eigenvalue argument is either 0 (lambda > 0) or pi (lambda < 0), so the
fractional stability sector |arg lambda| > alpha*pi/2 makes the verdict
independent of alpha on (0, 1]: positive eigenvalues are unstable, negative
ones asymptotically stable, and a vanishing eigenvalue is inconclusive at
this linearization order.

Every tolerance is relative to the size of the terms it compares against,
with no absolute floor.  Rescaling time multiplies a, b and c by one positive
factor, so it changes no equilibrium, tag or multiplicity.
"""

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .models import Allee, Cubic, Logistic, _check, rhs_eval

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


def _report(coeffs: Cubic, x: float) -> EquilibriumReport:
    """Tag of the root x from lambda = f'(x), and its multiplicity.

    ArithmeticError unless |f(x)| is within 1e-9 of the size of f's terms, a
    Horner sum that no power of x overflows alone and that must be finite.
    lambda is c exactly at the origin, and ArithmeticError elsewhere unless it
    is finite.  It vanishes within 1e-12 of the size of its terms, and a
    vanishing lambda is inconclusive, of multiplicity 2 or 3.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    x_abs = abs(x)
    size = ((abs(a) * x_abs + abs(b)) * x_abs + abs(c)) * x_abs
    residual = rhs_eval(coeffs, x)
    if not abs(residual) <= 1e-9 * size < math.inf:
        raise ArithmeticError(
            f"x = {x!r} is not an equilibrium: residual {residual!r}, size {size!r}"
        )
    if x == 0.0:
        lam, band = c, 0.0  # f'(0) = c, with no product of a or b to overflow
    else:
        lam = (3.0 * a * x + 2.0 * b) * x + c
        band = 1e-12 * ((3.0 * abs(a) * x_abs + 2.0 * abs(b)) * x_abs + abs(c))
        if not math.isfinite(lam):
            raise ArithmeticError(f"lambda at x = {x!r} is {lam!r}, beyond double range")
    if lam > band:
        tag, mult = Classification.UNSTABLE, 1
    elif lam < -band:
        tag, mult = Classification.ASYMPTOTICALLY_STABLE, 1
    else:
        # f = x * (a*x**2 + b*x + c): only the origin, with b = c = 0, is triple.
        tag, mult = Classification.INCONCLUSIVE, 3 if x == 0.0 and b == c == 0.0 else 2
    return EquilibriumReport(x_eq=x, lam=lam, classification=tag, multiplicity=mult)


def equilibria(coeffs: Cubic) -> list[EquilibriumReport]:
    """All real roots of a*x**3 + b*x**2 + c*x = 0, tagged, in ascending order.

    x = 0 is always a root.  The quadratic factor, scaled exactly by a power of
    two so that b*b cannot overflow, has the cancellation-free roots q/a and c/q
    with q = -(b + sign(b)*sqrt(disc))/2, or the one double root -b/(2a) when
    the discriminant is within 1e-12 of the size of its terms.  Where b*b
    underflows on that scale, x is scaled by a power of two as well, to the
    roots' size.  Distinct roots then differ by more than 1e-6 of their size,
    so only equal roots merge.  A root that fails either check of ``_report``
    raises ArithmeticError.
    """
    if coeffs.a == 0.0 and coeffs.b == 0.0 and coeffs.c == 0.0:
        raise DegenerateModelError("a = b = c = 0 leaves every state stationary")
    shift = -math.frexp(max(abs(coeffs.a), abs(coeffs.b), abs(coeffs.c)))[1]
    a, b, c = (math.ldexp(v, shift) for v in (coeffs.a, coeffs.b, coeffs.c))
    k = 0
    if a != 0.0 and b * b < sys.float_info.min:
        # b*b underflows, so b is far below the largest of a and c, and 4ac
        # may underflow with it.  With x = 2**k y and 2**k near the larger
        # root size, max(|b/a|, sqrt|c/a|), the quadratic in y has |a| in
        # [0.5, 1), |b| < 1 and |c| < 2 with b or c near 1, so a term of the
        # discriminant underflows only where the other swamps it.
        ea = math.frexp(coeffs.a)[1]
        sizes = [math.frexp(coeffs.b)[1] - ea] if coeffs.b else []
        if coeffs.c:
            sizes.append((math.frexp(coeffs.c)[1] - ea) // 2)
        k = max(sizes, default=0)
        a = math.ldexp(coeffs.a, -ea)
        b = math.ldexp(coeffs.b, -ea - k)
        c = math.ldexp(coeffs.c, -ea - 2 * k)
    roots = [0.0]
    if a != 0.0:
        disc = b * b - 4.0 * a * c
        if abs(disc) <= 1e-12 * (b * b + 4.0 * abs(a * c)):
            roots.append(math.ldexp(-b / (2.0 * a), k))
        elif disc > 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots += [math.ldexp(q / a, k), math.ldexp(c / q, k)]
    elif b != 0.0:
        roots.append(-c / b)

    # set() keeps the first of 0.0 and -0.0, the origin's 0.0.
    return [_report(coeffs, x) for x in sorted(set(roots))]


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
