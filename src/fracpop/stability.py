"""Equilibria of the cubic growth law and their fractional-order stability.

An equilibrium x* of D^alpha x = f(x) = a*x**3 + b*x**2 + c*x is classified
through the eigenvalue lambda = f'(x*).  For scalar real problems the
eigenvalue argument is either 0 (lambda > 0) or pi (lambda < 0), so the
fractional stability sector |arg lambda| > alpha*pi/2 makes the verdict
independent of alpha on (0, 1]: positive eigenvalues are unstable, negative
ones asymptotically stable, and a vanishing eigenvalue is inconclusive at
this linearization order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .models import Cubic, rhs_eval

__all__ = [
    "Classification",
    "DegenerateModelError",
    "EquilibriumReport",
    "equilibria",
    "classify",
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
    """One equilibrium with its eigenvalue and (optional) stability tag."""

    x_eq: float
    lam: float
    classification: Classification | None
    multiplicity: int = 1


def _eigenvalue(coeffs: Cubic, x: float) -> float:
    """f'(x) = 3a x**2 + 2b x + c in Horner form."""
    return (3.0 * coeffs.a * x + 2.0 * coeffs.b) * x + coeffs.c


def _eigenvalue_tol(coeffs: Cubic, x: float) -> float:
    return 1e-12 * (
        1.0 + abs(3.0 * coeffs.a * x * x) + abs(2.0 * coeffs.b * x) + abs(coeffs.c)
    )


def equilibria(coeffs: Cubic) -> list[EquilibriumReport]:
    """All real roots of a*x**3 + b*x**2 + c*x = 0, without stability tags.

    x = 0 is always a root.  The quadratic factor is solved in the
    cancellation-free form q = -(b + sign(b)*sqrt(disc))/2 with roots q/a and
    c/q.  A double quadratic root (discriminant within rounding of zero) is
    reported once with multiplicity 2; coincident roots are merged.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    if a == 0.0 and b == 0.0 and c == 0.0:
        raise DegenerateModelError("a = b = c = 0 leaves every state stationary")

    roots: list[tuple[float, int]] = [(0.0, 1)]
    if a != 0.0:
        disc = b * b - 4.0 * a * c
        disc_tol = 1e-12 * (b * b + 4.0 * abs(a * c) + 1.0)
        if abs(disc) <= disc_tol:
            roots.append((-b / (2.0 * a), 2))
        elif disc > 0.0:
            s = math.sqrt(disc)
            q = -0.5 * (b + math.copysign(s, b))
            roots.append((q / a, 1))
            roots.append((c / q, 1))
    elif b != 0.0:
        roots.append((-c / b, 1))

    roots.sort(key=lambda item: item[0])
    merged: list[tuple[float, int]] = []
    for x, mult in roots:
        if merged and abs(x - merged[-1][0]) <= 1e-10 * (1.0 + abs(x)):
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((x, mult))

    return [
        EquilibriumReport(
            x_eq=x,
            lam=_eigenvalue(coeffs, x),
            classification=None,
            multiplicity=mult,
        )
        for x, mult in merged
    ]


def classify(
    coeffs: Cubic, x_eq: float, alpha: float
) -> EquilibriumReport:
    """Stability tag of one equilibrium from the sign of lambda = f'(x_eq).

    The eigenvalue is compared against a scale-aware band around zero; inside
    the band the linearization is silent and the verdict is inconclusive.
    The multiplicity reported is the order of the first nonvanishing
    derivative at the root (2 or 3 for flat roots).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    x = float(x_eq)
    residual = rhs_eval(coeffs, x)
    residual_tol = 1e-9 * (
        1.0
        + abs(coeffs.a) * abs(x) ** 3
        + abs(coeffs.b) * x * x
        + abs(coeffs.c) * abs(x)
    )
    if abs(residual) > residual_tol:
        raise ValueError(
            f"x = {x!r} is not an equilibrium: residual {residual!r} exceeds "
            f"{residual_tol!r}"
        )

    lam = _eigenvalue(coeffs, x)
    lam_tol = _eigenvalue_tol(coeffs, x)
    if lam > lam_tol:
        tag = Classification.UNSTABLE
        mult = 1
    elif lam < -lam_tol:
        tag = Classification.ASYMPTOTICALLY_STABLE
        mult = 1
    else:
        tag = Classification.INCONCLUSIVE
        curvature = 6.0 * coeffs.a * x + 2.0 * coeffs.b
        curvature_tol = 1e-12 * (1.0 + abs(6.0 * coeffs.a * x) + abs(2.0 * coeffs.b))
        mult = 3 if abs(curvature) <= curvature_tol else 2
    return EquilibriumReport(x_eq=x, lam=lam, classification=tag, multiplicity=mult)


def classify_all(coeffs: Cubic, alpha: float) -> list[EquilibriumReport]:
    """Classified equilibria in ascending x_eq order."""
    return [classify(coeffs, report.x_eq, alpha) for report in equilibria(coeffs)]


def harvest_threshold(r: float, K: float, m: float) -> float:
    """Critical harvesting effort E* = r*(K - m)**2 / (4K) for Allee growth.

    For E below E* the harvested Allee law keeps two interior equilibria;
    above E* they vanish and only extinction remains.  At E = E* exactly the
    interior pair collapses to one flat (double) root, which the equilibrium
    finder reports with multiplicity 2 and an inconclusive tag.
    """
    if r <= 0.0 or K <= 0.0 or not (0.0 < m < K):
        raise ValueError("need r > 0, K > 0 and 0 < m < K")
    return r / (4.0 * K) * (K - m) ** 2


def logistic_harvest_equilibrium(r: float, K: float, E: float) -> float:
    """Nontrivial equilibrium K*(1 - E/r) of harvested logistic growth.

    Positive while E < r, zero at E = r, and negative (population collapse,
    the equilibrium leaves the admissible state space) once E > r.
    """
    if r <= 0.0 or K <= 0.0:
        raise ValueError("need r > 0 and K > 0")
    if E < 0.0:
        raise ValueError("need E >= 0")
    return K * (1.0 - E / r)
