"""Shared oracles and reporting helpers for the test suite.

Four independent sources of truth back the library code:

* 60-digit partial sums of the Mittag-Leffler series (mpmath) for the linear
  relaxation problem, and of its asymptotic series for long horizons,
* the classical logistic closed form at alpha = 1,
* a perturb-and-integrate probe that tags an equilibrium by whether nearby
  trajectories approach it or escape from it,
* the equilibria of a cubic and their eigenvalues in 80-digit arithmetic.

Acceptance tests register one verdict line each through record_acceptance;
the terminal-summary hook reprints them after the run so the per-criterion
results stay visible regardless of output capturing.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from fracpop import (
    Classification,
    Cubic,
    BlowUpError,
    FractionalIVP,
    SolverMethod,
    solve,
)

mp.mp.dps = 60

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(criterion: str, ok: bool, detail: str) -> bool:
    """Store and print one acceptance verdict line."""
    line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def ml_series(alpha: float, z: float, terms: int = 200) -> float:
    """Partial sum of the Mittag-Leffler series in 60-digit arithmetic."""
    total = mp.mpf(0)
    for k in range(terms + 1):
        total += mp.mpf(z) ** k / mp.gamma(mp.mpf(alpha) * k + 1)
    return float(total)


def ml_asymptotic(alpha: float, x: float) -> float:
    """E_alpha(-x) for 0 < alpha < 1 and large x, in 60-digit arithmetic.

    The sum is -sum_{k=1}^{40} (-x)**(-k) / Gamma(1 - alpha*k).  On the
    negative axis the expansion has no exponential part for alpha < 1, and
    its terms fall until alpha*k nears x**(1/alpha), so 40 terms leave a
    remainder far below double rounding once x is in the hundreds.
    """
    a, z = mp.mpf(alpha), mp.mpf(x)
    return float(-mp.fsum((-z) ** -k * mp.rgamma(1 - a * k) for k in range(1, 41)))


def classical_logistic(r: float, K: float, x0: float, t: float) -> float:
    """Exact solution of x' = r x (1 - x/K)."""
    e = math.exp(r * t)
    return K * x0 * e / (K + x0 * (e - 1.0))


def simulated_tag(
    coeffs: Cubic,
    x_eq: float,
    lam: float,
    delta: float = 1e-3,
) -> Classification | None:
    """Tag an equilibrium by integrating from x_eq +/- delta at alpha = 1.

    The horizon starts at a few linear e-folding times of the eigenvalue and
    is tripled until both perturbed runs give a verdict: escape to ten times
    the perturbation means unstable, decay to a tenth of it on both sides
    means asymptotically stable.  Tags are alpha independent for this scalar
    problem, so probing at alpha = 1 settles every order.
    """
    horizon = 1.5 * math.log(10.0) / abs(lam)
    for _ in range(4):
        verdicts = []
        for sign in (1.0, -1.0):
            ivp = FractionalIVP(1.0, coeffs, x_eq + sign * delta, horizon)
            try:
                trajectory = solve(ivp, 400, SolverMethod.FRAC_ADAMS_PECE)
            except BlowUpError:
                verdicts.append("escape")
                continue
            dist = np.abs(trajectory.values - x_eq)
            if np.max(dist) >= 10.0 * delta:
                verdicts.append("escape")
            elif dist[-1] <= delta / 10.0:
                verdicts.append("approach")
            else:
                verdicts.append("undecided")
        if "escape" in verdicts:
            return Classification.UNSTABLE
        if verdicts == ["approach", "approach"]:
            return Classification.ASYMPTOTICALLY_STABLE
        horizon *= 3.0
    return None


def cubic_equilibria(a: float, b: float, c: float) -> list[tuple]:
    """(x, f'(x), tag, multiplicity) of each equilibrium, in 80-digit arithmetic.

    The roots of a*x**2 + b*x + c take the cancellation-free form q/a and c/q
    (the naive formula loses every digit of the small root), and f'(x) =
    x (2 a x + b) is evaluated on them.  The discriminant keeps the library's
    relative 1e-12 band for a double root.  mpmath has no exponent range, so
    roots and eigenvalues past double range come out as they are.
    """
    def tag(lam):
        return Classification.UNSTABLE if lam > 0 else (
            Classification.ASYMPTOTICALLY_STABLE if lam < 0 else Classification.INCONCLUSIVE
        )

    with mp.workdps(80):
        a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
        found = [(mp.mpf(0), c, tag(c), 1 if c else 3 if b == 0 else 2)]
        roots = [-c / b] if a == 0 and b and c else []
        if a and (b or c):
            disc = b * b - 4 * a * c
            if abs(disc) <= mp.mpf("1e-12") * (b * b + 4 * abs(a * c)):
                found.append((-b / (2 * a), mp.mpf(0), Classification.INCONCLUSIVE, 2))
            elif disc > 0:
                q = -(b + mp.sqrt(disc) * (1 if b >= 0 else -1)) / 2
                roots += [root for root in (q / a, c / q) if root]
        for root in roots:
            lam = root * (2 * a * root + b)
            found.append((root, lam, tag(lam), 1))
        return sorted(found, key=lambda report: report[0])


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
