"""The Mittag-Leffler oracle of the fractional solvers.

The one-parameter Mittag-Leffler sum is the closed-form solution of the
linear fractional relaxation problem, which the test oracles and convergence
studies lean on.  It is small and dependency free: its Gamma values come
from ``math.gamma``, as do those of the quadrature weights.
"""

import math

from .models import _check

__all__ = ["mittag_leffler"]


_ML_MAX_TERMS = 200
_ML_MAX_ABS_Z = 30.0
_ML_STOP_FACTOR = 1e-16
_ML_TOL = 1e-10


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) by direct summation.

    E_alpha(z) = sum_k z**k / Gamma(alpha*k + 1), summed until a term drops
    below 1e-16 of the running sum, with a hard cap of 200 terms.  Arguments
    outside alpha in (0, 1] and |z| <= 30 raise ValueError.  Inside that box
    the sum must also be finite and within 1e-10 of max(1, |E|) by those 200
    terms, or an ArithmeticError naming the limit that failed is raised
    rather than a wrong value.  On the negative axis (0 < E <= 1)
    cancellation sets the domain: it raises from about z = -1.7 at
    alpha = 0.25, -2.1 at 0.3, -3.9 at 0.5, -7.7 at 0.75, -11.6 at 0.9 and
    -15.2 at 1 (``mittag_leffler(0.5, -3.8)`` returns,
    ``mittag_leffler(0.5, -4.0)`` raises).  On the positive axis the 200-term
    cap does: z = 1.87 at alpha = 0.25, 6.25 at 0.5 and 24.47 at 0.75 return,
    1.88, 6.26 and 24.48 raise.
    """
    alpha = _check("alpha", alpha)
    z = float(z)
    if not (abs(z) <= _ML_MAX_ABS_Z):
        raise ValueError(f"|z| <= {_ML_MAX_ABS_Z:g} required, got {z!r}")

    terms = [1.0]
    running = 1.0
    for k in range(1, _ML_MAX_TERMS + 1):
        term = z**k / math.gamma(alpha * k + 1.0)
        terms.append(term)
        if abs(term) < _ML_STOP_FACTOR * abs(running):
            break
        running += term
    else:
        raise ArithmeticError(
            f"Mittag-Leffler series did not converge within {_ML_MAX_TERMS} terms "
            f"for alpha={alpha!r}, z={z!r}"
        )
    total = math.fsum(terms)
    if not math.isfinite(total):
        raise ArithmeticError(f"Mittag-Leffler series sum is not finite for alpha={alpha!r}, z={z!r}")
    # eps * peak bounds the cancellation error of the compensated sum.
    if max(map(abs, terms)) * 2.3e-16 > _ML_TOL * max(1.0, abs(total)):
        raise ArithmeticError(
            f"Mittag-Leffler series terms cancel beyond 1e-10 of max(1, |E|) "
            f"for alpha={alpha!r}, z={z!r} (stopped at k = {k})"
        )
    return total
