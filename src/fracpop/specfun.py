"""Scalar special functions backing the fractional solvers and their oracles.

Both functions are deliberately small and dependency free: the integrators
need gamma for their quadrature weights, and gamma is ``math.gamma`` behind a
domain check.  The one-parameter Mittag-Leffler sum is the closed-form
solution of the linear fractional relaxation problem, which the test oracles
and convergence studies lean on.
"""

from __future__ import annotations

import math

__all__ = ["gamma", "mittag_leffler"]


def gamma(t: float) -> float:
    """Gamma function on the positive real axis.

    A domain check in front of ``math.gamma``: only finite t > 0 is
    accepted, and arguments past about 171.6, where the value leaves double
    range, raise OverflowError.
    """
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"gamma is defined here for t > 0 only, got {t!r}")
    return math.gamma(t)


_ML_MAX_TERMS = 200
_ML_MAX_ABS_Z = 30.0
_ML_STOP_FACTOR = 1e-16
_ML_ABS_TOL = 1e-10


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) by direct summation.

    E_alpha(z) = sum_k z**k / Gamma(alpha*k + 1), summed until a term drops
    below 1e-16 of the running sum, with a hard cap of 200 terms.  The domain
    is restricted to alpha in (0, 1] and |z| <= 30, which covers desk-scale
    oracle use.  If the capped series cannot deliver 1e-10 absolute accuracy
    (slow convergence or catastrophic cancellation near the domain edge for
    small alpha), an ArithmeticError is raised rather than returning a
    silently wrong value.
    """
    alpha = float(alpha)
    z = float(z)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if not (abs(z) <= _ML_MAX_ABS_Z):
        raise ValueError(f"|z| <= {_ML_MAX_ABS_Z:g} required, got {z!r}")

    terms = [1.0]
    running = 1.0
    converged = False
    for k in range(1, _ML_MAX_TERMS + 1):
        try:
            denom = gamma(alpha * k + 1.0)
        except OverflowError:
            # Denominator past double range: the remaining terms are zero.
            converged = True
            break
        term = z**k / denom
        terms.append(term)
        if abs(term) < _ML_STOP_FACTOR * abs(running):
            converged = True
            break
        running += term

    peak = max(abs(term) for term in terms)
    # eps * peak bounds the cancellation error of the compensated sum.
    if not converged or peak * 2.3e-16 > _ML_ABS_TOL:
        raise ArithmeticError(
            f"Mittag-Leffler series did not reach 1e-10 accuracy for "
            f"alpha={alpha!r}, z={z!r} within {_ML_MAX_TERMS} terms"
        )
    return math.fsum(terms)
