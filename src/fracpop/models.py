"""Growth-model catalog and its reduction to a single cubic right-hand side.

Every supported population model is a cubic polynomial in disguise:

    dx/dt (fractional order alpha) = a*x**3 + b*x**2 + c*x

The two named laws, ``Logistic`` and ``Allee``, carry their ecological
parameters and a harvesting effort E that defaults to 0 (``LogisticHarvest``
and ``AlleeHarvest`` are aliases of them); ``to_cubic`` maps each onto the
``Cubic`` (a, b, c) the solvers and the stability analysis consume.
``existence_bound`` evaluates the computable sufficient condition for a unique
solution on a state ball of half-width h around the origin.
"""

import math
from dataclasses import dataclass, fields

__all__ = [
    "Cubic",
    "Logistic",
    "LogisticHarvest",
    "Allee",
    "AlleeHarvest",
    "ModelSpec",
    "FractionalIVP",
    "ExistenceBound",
    "to_cubic",
    "rhs_eval",
    "existence_bound",
    "default_h_state",
]


def _check(name: str, value: float) -> float:
    """Coerce ``value`` to a finite float and apply the rule its name carries.

    r, K, t_final and h_state must be positive, alpha must lie in (0, 1]
    and E must be nonnegative; every other name only has to be finite.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if name in ("r", "K", "t_final", "h_state") and value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    if name == "alpha" and not (0.0 < value <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {value!r}")
    if name == "E" and value < 0.0:
        raise ValueError(f"E must be nonnegative, got {value!r}")
    return value


def _validate_fields(obj: object) -> None:
    """Shared ``__post_init__`` of the model dataclasses and ``FractionalIVP``.

    Field by field, in declaration order, ``_check`` the value; the Allee
    threshold m is then held inside (0, K).  K is declared before m, so m is
    checked against an already validated capacity.  The IVP's ``model`` field
    is skipped: its own class validated it.
    """
    for field in fields(obj):
        name = field.name
        if name == "model":
            continue
        value = _check(name, getattr(obj, name))
        if name == "m" and not (0.0 < value < obj.K):
            raise ValueError(f"m must lie strictly inside (0, K), got {value!r}")
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class Cubic:
    """Cubic growth law a*x**3 + b*x**2 + c*x.

    A raw model with no ecological interpretation attached, and the reduced
    form every named model maps onto.
    """

    a: float
    b: float
    c: float

    __post_init__ = _validate_fields


@dataclass(frozen=True)
class Logistic:
    """Logistic growth r*x*(1 - x/K) - E*x, with r > 0, K > 0 and effort E >= 0.

    E > r is permitted: harvesting may exceed the intrinsic growth rate, in
    which case the positive equilibrium moves below zero and the population
    collapses.
    """

    r: float
    K: float
    E: float = 0.0

    __post_init__ = _validate_fields


@dataclass(frozen=True)
class Allee:
    """Growth with a strong Allee threshold m, 0 < m < K, and effort E >= 0.

    Right-hand side r*x*(1 - x/K)*(x - m) - E*x: unharvested populations
    starting below m die out, those between m and K grow toward K.
    """

    r: float
    K: float
    m: float
    E: float = 0.0

    __post_init__ = _validate_fields


# Harvesting is the effort E of the same two laws; the old names stay for callers.
LogisticHarvest, AlleeHarvest = Logistic, Allee

ModelSpec = Cubic | Logistic | Allee


@dataclass(frozen=True)
class FractionalIVP:
    """Initial value problem for the Caputo derivative of order alpha.

    D^alpha x(t) = a*x**3 + b*x**2 + c*x,  x(0) = x0,  on [0, t_final].
    """

    alpha: float
    model: ModelSpec
    x0: float
    t_final: float

    __post_init__ = _validate_fields


@dataclass(frozen=True)
class ExistenceBound:
    """Evaluated uniqueness condition on the state ball |x| <= h_state.

    A unique continuous solution exists whenever the Lipschitz budget N
    satisfies N**alpha > rhs_bound; n_min = rhs_bound**(1/alpha) is the
    smallest such N.
    """

    h_state: float
    rhs_bound: float
    n_min: float


def to_cubic(model: ModelSpec) -> Cubic:
    """Reduce a model to the coefficients of a*x**3 + b*x**2 + c*x.

    A ``Cubic`` is already reduced and is returned as it is.  r, K and m are
    positive, so r / K and r * m vanish only by underflow; that raises
    ``ValueError``, because the zero coefficient would silently drop the
    equilibrium x = K or x = m.
    """
    if isinstance(model, Cubic):
        return model
    if not isinstance(model, (Logistic, Allee)):
        raise TypeError(f"unsupported model {model!r}")
    r_k, r_m = model.r / model.K, model.r * getattr(model, "m", 1.0)
    for name, value in (("r / K", r_k), ("r * m", r_m)):
        if value == 0.0:
            raise ValueError(f"{name} underflows to zero, so an equilibrium would be lost")
    # The effort is subtracted from c; x - 0.0 == x keeps E = 0 exact.
    if isinstance(model, Logistic):
        return Cubic(0.0, -r_k, model.r - model.E)
    return Cubic(-r_k, (model.m / model.K + 1.0) * model.r, -r_m - model.E)


def rhs_eval(coeffs: Cubic, x: float) -> float:
    """Evaluate a*x**3 + b*x**2 + c*x in Horner form."""
    return ((coeffs.a * x + coeffs.b) * x + coeffs.c) * x


def existence_bound(
    coeffs: Cubic, h_state: float, alpha: float
) -> ExistenceBound:
    """Uniqueness bound on the ball |x| <= h_state.

    rhs_bound = 3|a|h**2 + 2|b|h + |c| bounds the Lipschitz constant of the
    cubic on the ball, and n_min = rhs_bound**(1/alpha) is the smallest
    Lipschitz budget that the sufficient condition N**alpha > rhs_bound
    accepts.
    """
    h = _check("h_state", h_state)
    alpha = _check("alpha", alpha)
    rhs = 3.0 * abs(coeffs.a) * h * h + 2.0 * abs(coeffs.b) * h + abs(coeffs.c)
    try:
        n_min = rhs ** (1.0 / alpha)
    except OverflowError:
        n_min = math.inf
    if not math.isfinite(n_min):
        raise ValueError(f"bound beyond double range at h_state = {h!r}, alpha = {alpha!r}")
    return ExistenceBound(h_state=h, rhs_bound=rhs, n_min=n_min)


def default_h_state(model: ModelSpec, x0: float = 0.0) -> float:
    """Default state-ball half-width: 1.2 * max(|x0|, K) for named models.

    A raw Cubic has no capacity scale to lean on, so callers must supply the
    half-width themselves.
    """
    x0 = _check("x0", x0)
    if isinstance(model, (Logistic, Allee)):
        return 1.2 * max(abs(x0), model.K)
    raise ValueError("no default h_state for a raw cubic model")
