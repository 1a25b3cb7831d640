"""Time integration of the fractional cubic initial value problem.

One product-integration loop, ``solve``, runs both schemes for
D^alpha x = f(x) with f cubic, selected by ``SolverMethod``:

* ``FRAC_EULER``: fractional forward Euler, the rectangle rule applied to the
  equivalent Volterra integral equation.
* ``FRAC_ADAMS_PECE``: predictor-corrector of PECE type, the same
  rectangle-rule predictor followed by one trapezoid-rule correction.

Both schemes keep the full convolution history (cost O(n_steps**2)).  At
alpha = 1 the quadrature weights collapse to the classical composite
rectangle and trapezoid weights, so the schemes reduce to forward Euler and
to the one-step trapezoidal predictor-corrector written in integral form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import FractionalIVP, _check, rhs_eval, to_cubic
from .specfun import gamma, mittag_leffler

__all__ = [
    "BLOWUP_LIMIT",
    "BlowUpError",
    "SolverMethod",
    "Grid",
    "Trajectory",
    "solve",
    "convergence_study",
    "estimate_order",
]

# States beyond this magnitude are treated as numerical blow-up; finite-time
# escape of the cubic flow reaches infinity within a few further steps anyway.
BLOWUP_LIMIT = 1e12


class BlowUpError(ArithmeticError):
    """Raised when a computed state leaves the finite trust region."""

    def __init__(self, step_index: int, time: float, value: float):
        self.step_index = int(step_index)
        self.time = float(time)
        self.value = float(value)
        super().__init__(
            f"state blew up at step {self.step_index} (t = {self.time:g}): "
            f"|x| = {abs(self.value):g} exceeds {BLOWUP_LIMIT:g}"
        )


class SolverMethod(Enum):
    FRAC_EULER = "euler"
    FRAC_ADAMS_PECE = "adams"


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid 0 = t_0 < ... < t_n = t_final with n = n_steps."""

    n_steps: int
    t_final: float

    def __post_init__(self) -> None:
        n_steps = self.n_steps
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
        # A fractional count would otherwise be truncated, not rejected.
        if not float(n_steps).is_integer():
            raise ValueError(f"n_steps must be a whole number, got {n_steps!r}")
        object.__setattr__(self, "n_steps", int(n_steps))
        object.__setattr__(self, "t_final", _check("t_final", self.t_final))

    @property
    def h(self) -> float:
        return self.t_final / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Computed states on a grid; values[0] is the initial condition."""

    grid: Grid
    values: np.ndarray


def _aligned(values: np.ndarray) -> np.ndarray:
    """Copy of ``values`` whose data starts on a 64-byte boundary.

    The history dot products run up to 1.5x slower on weights that are not
    64-byte aligned; without the copy, heap placement would set their speed.
    """
    buf = np.empty(values.size + 8)
    start = (-buf.ctypes.data % 64) // 8
    buf[start : start + values.size] = values
    return buf[start : start + values.size]


def solve(ivp: FractionalIVP, n_steps: int, method: SolverMethod) -> Trajectory:
    """Integrate ``ivp`` on ``n_steps`` uniform steps with the chosen scheme.

    Both schemes share the rectangle-rule predictor (prefactor
    h**alpha / Gamma(alpha + 1))

        u_{n+1} = u_0 + h**alpha / Gamma(alpha + 1)
                  * sum_{j<=n} ((n+1-j)**alpha - (n-j)**alpha) * f(u_j)

    which is the whole fractional Euler step.  PECE follows it with one
    trapezoid-rule correction with weights (prefactor
    h**alpha / Gamma(alpha + 2))

        a_{0,n+1}   = n**(alpha+1) - (n - alpha) * (n+1)**alpha
        a_{j,n+1}   = (n-j+2)**(alpha+1) + (n-j)**(alpha+1)
                      - 2*(n-j+1)**(alpha+1),     1 <= j <= n
        a_{n+1,n+1} = 1

    applied to f at the corrected history plus the predicted endpoint.  Only
    the accepted state is checked for blow-up.
    """
    if not isinstance(method, SolverMethod):
        raise ValueError(f"unknown solver method {method!r}")
    corrected = method is SolverMethod.FRAC_ADAMS_PECE
    grid = Grid(n_steps, ivp.t_final)
    coeffs = to_cubic(ivp.model)
    alpha = ivp.alpha
    h = grid.h
    n = grid.n_steps

    k = np.arange(n + 2, dtype=float)
    ka = k**alpha
    # db[m] = (m+1)**alpha - m**alpha; the predictor weight for lag m.
    db = _aligned(np.diff(ka))
    pref_p = h**alpha / gamma(alpha + 1.0)
    if corrected:
        ka1 = k ** (alpha + 1.0)
        # c2[m] = (m+2)**(alpha+1) + m**(alpha+1) - 2*(m+1)**(alpha+1):
        # corrector weight for lag m = n - j of an interior node.
        c2 = _aligned(ka1[2:] + ka1[:-2] - 2.0 * ka1[1:-1])
        # a0[m] = m**(alpha+1) - (m - alpha)*(m+1)**alpha: step m's weight of f0.
        a0 = ka1[:n] - (k[:n] - alpha) * ka[1 : n + 1]
        pref_c = h**alpha / gamma(alpha + 2.0)

    x0 = ivp.x0
    u = np.empty(n + 1)
    u[0] = x0
    f0 = rhs_eval(coeffs, x0)
    # frev[n - j] holds f(u_j) so history dot products read forward slices.
    frev = np.empty(n + 1)
    frev[n] = f0
    for step in range(n):
        hist_p = float(np.dot(db[: step + 1], frev[n - step :]))
        value = x0 + pref_p * hist_p
        if corrected:
            f_pred = rhs_eval(coeffs, value)
            # Interior nodes j = 1..step enter with weight c2[step - j].
            hist_c = a0.item(step) * f0 + float(np.dot(c2[:step], frev[n - step : n]))
            value = x0 + pref_c * (hist_c + f_pred)
        if not abs(value) <= BLOWUP_LIMIT:
            raise BlowUpError(step + 1, (step + 1) * h, value)
        u[step + 1] = value
        frev[n - (step + 1)] = rhs_eval(coeffs, value)
    return Trajectory(grid=grid, values=u)


def _reference_solution(ivp: FractionalIVP) -> float:
    """Closed-form solution at t_final, the convergence-study reference.

    Available for the linear law (a = b = 0, Mittag-Leffler solution) and,
    at alpha = 1, for the quadratic-free cubic a = 0 (logistic-type closed
    form).  Anything else has no usable closed form here.
    """
    coeffs = to_cubic(ivp.model)
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    x0, alpha, t = ivp.x0, ivp.alpha, ivp.t_final

    if a == 0.0 and b == 0.0:
        return x0 * mittag_leffler(alpha, c * t**alpha)
    if alpha == 1.0 and a == 0.0:
        if c == 0.0:
            # dx/dt = b x**2 integrates to x0 / (1 - b x0 t).
            return x0 / (1.0 - b * x0 * t)
        return c * x0 * math.exp(c * t) / (c - b * x0 * (math.exp(c * t) - 1.0))
    raise ValueError(
        "no closed-form reference for this problem: need a = b = 0, or "
        "alpha = 1 with a = 0"
    )


def convergence_study(
    ivp: FractionalIVP,
    method: SolverMethod,
    base_steps: int,
    refinements: int,
) -> tuple[list[int], list[float], list[float], float]:
    """Errors at t_final against the closed-form reference on dyadic grids.

    Returns the step counts, step sizes, errors and the empirical order: the
    least-squares slope of log err vs log h, or NaN when any error is zero.
    """
    if base_steps < 1:
        raise ValueError(f"base_steps must be >= 1, got {base_steps!r}")
    if refinements < 2:
        raise ValueError(f"refinements must be >= 2, got {refinements!r}")
    # The reference is evaluated before any solve, so its domain check (for
    # the linear law, mittag_leffler's |z| <= 30) fails before any work.
    exact = _reference_solution(ivp)
    ns = [base_steps * 2**k for k in range(refinements + 1)]
    hs = [ivp.t_final / n for n in ns]
    errors = [abs(solve(ivp, n, method).values[-1] - exact) for n in ns]
    # A zero error has no logarithm, so no slope can be fitted through it.
    order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0]) if all(errors) else math.nan
    return ns, hs, errors, order


def estimate_order(
    ivp: FractionalIVP,
    method: SolverMethod,
    base_steps: int,
    refinements: int,
) -> float:
    """Empirical convergence order, as computed by ``convergence_study``."""
    return convergence_study(ivp, method, base_steps, refinements)[3]
