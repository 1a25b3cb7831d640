"""Time integration of the fractional cubic initial value problem.

One function, ``solve``, runs both schemes for D^alpha x = f(x) with f
cubic, selected by ``SolverMethod``:

* ``FRAC_EULER``: fractional forward Euler, the rectangle rule applied to the
  equivalent Volterra integral equation.
* ``FRAC_ADAMS_PECE``: predictor-corrector of PECE type, the same
  rectangle-rule predictor followed by one trapezoid-rule correction.

For alpha < 1 both schemes keep the full convolution history, summed as in
Hairer, Lubich & Schlichte (1985): the time loop runs in leaves of 1,024
steps, and each step sums its own leaf's nodes directly from one leaf
buffer, which holds them newest first.  When a leaf ends, its nodes are
copied out, and the block of nodes before it whose size is the largest
power-of-two multiple of 1,024 dividing the leaf's start adds its part to
the next steps' far sums by ``numpy.fft``, in sub-squares of at most 8,192
x 8,192 nodes, taken lag by lag: one kernel transform per lag, and the
same sums, in the same order, as source chunk by source chunk.  The leaves
cost at most 1,024 multiply-adds per step and kernel; the transforms grow
like n log n up to the cap and like n**2 / 8,192 past it.  A solve of at
most 1,024 steps is one leaf: pure direct sums.  At n = 1e5 a step costs
about 1.3 microseconds (Euler) or 2.4 (PECE), far sums included, on one BLAS
thread of a 2-core x86-64 host.  The loop holds ``u``, ``fs``, ``db`` and,
for PECE, ``c2``, each of n + 1 floats, the leaf buffer of 1,025 and lists
of at most 1,024 views built once per solve, 0.12 MB each; the far sums add
at most n floats of transforms and 0.25 MB a kernel.  ``_weights`` holds at
most one array more.  The loop peaks at 4.0 MB (Euler) and 5.5 MB (PECE) at
n = 1e5 and at 32.7 and 41.4 MB at n = 1e6, above a PECE set-up's 40.1 MB
(``tracemalloc``).  A solve runs with numpy's overflow and invalid
warnings off, since any non-finite state is refused as a blow-up.

At alpha = 1 every weight is constant (db = 1, and for PECE a0 = 1 and
c2 = 2), so the schemes are forward Euler and the one-step trapezoidal
predictor-corrector written in integral form.  Both then read one
compensated running sum of the history: O(1) work per step and one array,
``u``, of n + 1 floats.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import Cubic, FractionalIVP, _check, rhs_eval, to_cubic
from .specfun import mittag_leffler

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

# Steps per leaf of the time loop.  Inside a leaf each step sums its own
# leaf's nodes directly; the earlier nodes reach it through FFT far sums.
_LEAF = 1024
# Largest FFT sub-square, in source (and target) nodes: transforms of 16,384.
_CHUNK = 8192


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


def _weights(n: int, alpha: float, corrected: bool) -> tuple:
    """db, and for PECE c2 and a0, by the formulas in ``solve``'s docstring.

    db[m] and c2[m] weight lag m, and a0[m] weights f0 in step m.
    """
    ka = np.arange(n + 2.0)
    ka **= alpha  # in place: powering a temporary raised peak RSS by 0.7 MB
    db = np.diff(ka)
    if not corrected:
        return db, None, None
    ka1 = np.arange(n + 2.0) ** (alpha + 1.0)
    a0 = ka1[:n] - (np.arange(n) - alpha) * ka[1 : n + 1]
    del ka  # before c2's two temporaries: at most five arrays of n floats
    return db, ka1[2:] + ka1[:-2] - 2.0 * ka1[1:-1], a0


def _add_far(f: np.ndarray, kernels: list, lo: int, b: int) -> None:
    """Add the nodes j in [lo - b, lo) to the far sums of steps [lo, lo + b).

    ``f[j]`` is f(u_j).  Each ``(kernel, far, skip_f0, cache)`` adds
    ``sum_j kernel[m - j] * f[j]`` to ``far[m]``, leaving out node 0 when
    ``skip_f0`` is set.  The square is cut into sub-squares of at most
    ``_CHUNK`` sources by ``_CHUNK`` targets; each is one linear convolution
    by ``rfft`` of twice that size.  They run lag by lag, largest first: a
    kernel slice depends on the lag alone, so ``cache`` holds its transform
    while the lag runs (and keeps it for lags up to ``_CHUNK``, which recur in
    every block), and each target chunk still adds its sources in ascending
    order, the sums and bits of a loop over source chunks.  A source chunk's
    transform is kept from its largest lag to its smallest, ``lo - s0``.
    """
    c = min(b, _CHUNK)
    size = 2 * c
    stop = min(lo + b, f.size - 1)  # f holds nodes 0..n; steps run to n - 1
    last = stop - 1 - (stop - 1 - lo) % c  # the last target chunk's start
    specs = {}
    for lag in range(last - lo + b, c - 1, -c):
        for kernel, _, _, cache in kernels:
            if lag not in cache:
                # Entry c - 1 + q of the convolution of a source chunk with
                # kernel[lag - c + 1 : lag + c] is target t0 + q's sum.
                cache[lag] = np.fft.rfft(kernel[lag - c + 1 : lag + c], size)
        for t0 in range(max(lo, lo - b + lag), min(stop, lo + lag), c):
            s0, t1 = t0 - lag, min(t0 + c, stop)
            if t0 == last:
                specs[s0] = np.fft.rfft(f[s0 : s0 + c], size)
            spec = specs.pop(s0) if t0 == lo else specs[s0]
            for _, far, skip_f0, cache in kernels:
                src = spec - f[0] if skip_f0 and s0 == 0 else spec
                far[t0:t1] += np.fft.irfft(src * cache[lag], size)[c - 1 : c - 1 + t1 - t0]
        if lag > _CHUNK:
            for *_, cache in kernels:
                del cache[lag]


# An overflow or nan anywhere in a solve ends as a BlowUpError at its step.
@np.errstate(over="ignore", invalid="ignore")
def solve(ivp: FractionalIVP, n_steps: int, method: SolverMethod | str) -> Trajectory:
    """Integrate ``ivp`` on ``n_steps`` uniform steps with the chosen scheme.

    ``method``, a ``SolverMethod`` or its value, picks one of two schemes that
    share the rectangle-rule predictor (prefactor h**alpha / Gamma(alpha + 1))

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
    the accepted state is checked for blow-up.  At alpha = 1 the weights are
    constant, and the history is one compensated running sum: O(1) work per
    step and no array but the n + 1 values.
    """
    corrected = SolverMethod(method) is SolverMethod.FRAC_ADAMS_PECE
    grid = Grid(n_steps, ivp.t_final)
    coeffs = to_cubic(ivp.model)
    alpha = ivp.alpha
    h = grid.h
    n = grid.n_steps

    x0 = ivp.x0
    f0 = rhs_eval(coeffs, x0)
    if alpha == 1.0:
        return Trajectory(grid=grid, values=_running_sum(coeffs, x0, f0, h, n, corrected))
    db, c2, a0 = _weights(n, alpha, corrected)
    pref_p = h**alpha / math.gamma(alpha + 1.0)

    # Until step m's leaf ends, u[m + 1] and fs[m + 1] hold step m's
    # predictor and corrector far sums: the part of the history sum over
    # nodes before m's leaf, added block by block as leaves finish.  They
    # start at -0.0, and -0.0 + x is x for every x, so the first leaf adds
    # nothing to the direct sums.
    u = np.full(n + 1, -0.0)
    u[0] = x0
    # fs[j] takes f(u_j) when u_j's leaf ends, for the far sums.
    fs = np.empty(n + 1)
    far_c = fs[1:]
    kernels = [(db, u[1:], False, {})]
    if corrected:
        # The corrector's far sums start from the f0 term, which a0 weights.
        np.multiply(a0, f0, out=far_c)
        del a0
        kernels.append((c2, far_c, True, {}))
        pref_c = h**alpha / math.gamma(alpha + 2.0)
    # leaf[L - k] holds f(u_{lo + k}) for the running leaf's nodes lo..lo + L,
    # so step i of every leaf dots the window leaf[L - i :], newest first,
    # with the weights of lags 0..i: both are views built once per solve, and
    # ndarray.dot is np.dot's C routine without the __array_function__ dispatch.
    L = min(n, _LEAF)
    leaf = np.full(L + 1, f0)  # leaf[L] = f(u_0); the steps fill the other slots
    dot, rhs, limit = np.ndarray.dot, rhs_eval, BLOWUP_LIMIT
    w_p = [db[: i + 1] for i in range(L)]
    x_p = [leaf[L - i :] for i in range(L)]
    w_c = [c2[: i + 1] for i in range(L)] if corrected else w_p
    # The first leaf's corrector leaves node 0 out: i nodes, lags 0..i-1.
    first_c = ([c2[:0], *w_c], [leaf[L - i : L] for i in range(L)]) if corrected else (w_p, x_p)
    slots = range(L - 1, -1, -1)  # step i writes f(u_{lo + i + 1}) to leaf[L - 1 - i]
    for lo in range(0, n, _LEAF):
        if lo:
            _add_far(fs, kernels, lo, lo & -lo)
        hi = min(lo + _LEAF, n)
        near_p = u[lo + 1 : hi + 1].tolist()
        near_c = far_c[lo:hi].tolist() if corrected else near_p
        v_c, x_c = (w_c, x_p) if lo else first_c
        values = []
        keep = values.append
        for slot, hist_p, hist_c, wp, xp, wc, xc in zip(slots, near_p, near_c, w_p, x_p, v_c, x_c):
            value = x0 + pref_p * (hist_p + float(dot(wp, xp)))
            if corrected:
                f_pred = rhs(coeffs, value)
                value = x0 + pref_c * ((hist_c + float(dot(wc, xc))) + f_pred)
            if not abs(value) <= limit:
                raise BlowUpError(lo + L - slot, (lo + L - slot) * h, value)
            keep(value)
            leaf[slot] = rhs(coeffs, value)
        u[lo + 1 : hi + 1] = values
        # The leaf's nodes go to fs, and node hi starts the next leaf.
        fs[lo : hi + 1] = leaf[L + lo - hi :][::-1]
        leaf[L] = fs[hi]
    return Trajectory(grid=grid, values=u)


def _running_sum(
    coeffs: Cubic, x0: float, f0: float, h: float, n: int, corrected: bool
) -> np.ndarray:
    """``solve``'s schemes at alpha = 1, where db = 1, a0 = 1 and c2 = 2.

    With T_m = f_1 + ... + f_m the predictor is u_{m+1} = x0 + h (f_0 + T_m)
    and the corrector u_{m+1} = x0 + (h/2) (f_0 + 2 T_m + f(pred)).  T_m is
    kept compensated as in Neumaier (1974), each addition's rounding error
    found exactly by Knuth's TwoSum: near an equilibrium a plain running sum
    drifts, 107 ulps below x = 6 after 1e5 steps of the quickstart model.
    """
    u = np.empty(n + 1)  # before any step, so an unallocatable grid fails at once
    u[0] = x0
    half_h = h / 2.0
    total, comp = 0.0, 0.0
    for lo in range(0, n, _LEAF):
        values = []
        for m in range(lo + 1, min(lo + _LEAF, n) + 1):
            tail = total + comp
            if tail != tail:
                # An infinite f makes comp nan; the direct sum is then total.
                tail = total
            value = x0 + h * (f0 + tail)
            if corrected:
                value = x0 + half_h * ((f0 + 2.0 * tail) + rhs_eval(coeffs, value))
            if not abs(value) <= BLOWUP_LIMIT:
                raise BlowUpError(m, m * h, value)
            values.append(value)
            f = rhs_eval(coeffs, value)
            new = total + f
            part = new - total
            comp += (total - (new - part)) + (f - part)
            total = new
        u[lo + 1 : lo + 1 + len(values)] = values
    return u


def _reference_solution(ivp: FractionalIVP) -> float:
    """Closed-form solution at t_final, the convergence-study reference.

    Available at alpha = 1 for the quadratic-free cubic a = 0 (logistic-type
    closed form, whose terms stay in range at every c t; exponential if
    b = 0), and at alpha < 1 for the linear law a = b = 0 (Mittag-Leffler).
    Anything else has no usable closed form here, and neither has a solution
    that escapes to infinity by t_final, whose value there leaves double
    range or whose closed form is too ill-conditioned to trust.  From x0 = 0
    the reference is 0 for every model, since f(0) = 0.
    """
    coeffs = to_cubic(ivp.model)
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    x0, alpha, t = ivp.x0, ivp.alpha, ivp.t_final

    if x0 == 0.0:
        return x0
    if alpha == 1.0 and a == 0.0:
        # 1/x solves y' = -c y - b, so x = x0 e^z / D with z = c t and
        # D = 1 - b x0 (e^z - 1) / c, both scaled here by e^(-max(z, 0)) so
        # that no exponential overflows.  g = (1 - e^(-|z|)) / |c| is t to
        # double precision for |z| <= 1e-16 (c = 0, or a subnormal z that
        # rounds coarsely).  D starts at 1 and is monotone in t, so the
        # solution escaped iff D <= 0.  top / den is x's condition number in
        # x0, so den must exceed 2.3e-6 * top for eps * top / den <= 1e-10,
        # mittag_leffler's accuracy rule; an infinite D or quotient is refused.
        z = c * t
        g = -math.expm1(-abs(z)) / abs(c) if abs(z) > 1e-16 else t
        top = math.exp(-max(z, 0.0))
        den = top - b * x0 * g
        x = x0 * math.exp(min(z, 0.0)) / den if 2.3e-6 * top < den < math.inf else math.inf
        if math.isfinite(x):
            return x
        raise ValueError(
            "the closed-form reference escapes, is ill-conditioned or leaves "
            f"double range by t_final = {t:g}"
        )
    if a == 0.0 and b == 0.0:
        return x0 * mittag_leffler(alpha, c * t**alpha)
    raise ValueError(
        "no closed-form reference for this problem: need a = b = 0, or "
        "alpha = 1 with a = 0"
    )


def convergence_study(
    ivp: FractionalIVP,
    method: SolverMethod | str,
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
    if not float(refinements).is_integer():
        raise ValueError(f"refinements must be a whole number, got {refinements!r}")
    # The reference is evaluated before any solve, so a refused one fails
    # before any work.  For the linear law at alpha < 1 mittag_leffler's
    # 1e-10 accuracy check (ArithmeticError) refuses long before its
    # |z| <= 30 domain check (ValueError): past about z = -3.9 at alpha = 0.5.
    exact = _reference_solution(ivp)
    ns = [base_steps * 2**k for k in range(int(refinements) + 1)]
    hs = [ivp.t_final / n for n in ns]
    errors = [abs(solve(ivp, n, method).values[-1] - exact) for n in ns]
    # A zero error has no logarithm, so no slope can be fitted through it.
    order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0]) if all(errors) else math.nan
    return ns, hs, errors, order


def estimate_order(
    ivp: FractionalIVP,
    method: SolverMethod | str,
    base_steps: int,
    refinements: int,
) -> float:
    """Empirical convergence order, as computed by ``convergence_study``."""
    return convergence_study(ivp, method, base_steps, refinements)[3]
