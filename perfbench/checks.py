"""Output checks that need no package code: invariants, CSV text, order bands.

The invariants come from the theory of scalar autonomous Caputo equations
(Feng, Li, Liu & Xu 2018, DCDS-B): a solution is monotone and never crosses
an equilibrium.  ``invariant_breach`` measures how far a computed trajectory
departs from both.
"""

from __future__ import annotations

import math

import numpy as np

# Relative to the trajectory's scale.  Rounding at alpha = 1 leaves breaches
# near 1e-15; the real ones seen on the README sweeps are 0.27 and larger.
INVARIANT_RTOL = 1e-9

# Accepted distance of an observed order from the theoretical one:
# Euler ~ 1, PECE ~ 1 + alpha (2 at alpha = 1).
ORDER_BAND = 0.25


def invariant_breach(values: np.ndarray, slope0: float, equilibria: list[float]) -> float:
    """Largest breach of monotonicity or of an equilibrium barrier (0 if none).

    ``slope0`` is the right-hand side at ``values[0]``; its sign fixes the
    direction the solution must move in.  ``equilibria`` are the real roots of
    the right-hand side.
    """
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)):
        return math.inf
    x0 = x[0]
    if slope0 > 0.0:
        monotone = float(np.max(np.maximum.accumulate(x) - x))
        barriers = [e for e in equilibria if e > x0]
        barrier = float(np.max(x)) - min(barriers) if barriers else 0.0
    elif slope0 < 0.0:
        monotone = float(np.max(x - np.minimum.accumulate(x)))
        barriers = [e for e in equilibria if e < x0]
        barrier = max(barriers) - float(np.min(x)) if barriers else 0.0
    else:
        return float(np.max(np.abs(x - x0)))
    return max(monotone, barrier, 0.0)


def invariant_tol(values: np.ndarray) -> float:
    return INVARIANT_RTOL * (1.0 + float(np.max(np.abs(values))))


def csv_text(times: np.ndarray, values: np.ndarray) -> str:
    """The ``t,x`` CSV the command line writes, at 17 significant digits."""
    rows = "".join(f"{t:.17g},{x:.17g}\n" for t, x in zip(times, values))
    return "t,x\n" + rows


def expected_order(method: str, alpha: float) -> float:
    return 1.0 if method == "euler" else min(1.0 + alpha, 2.0)


def order_ok(method: str, alpha: float, order: float) -> bool:
    return abs(order - expected_order(method, alpha)) <= ORDER_BAND
