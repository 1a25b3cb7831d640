"""Fractional-order population dynamics with cubic growth laws.

The package reduces a small catalog of population models (logistic, harvested
logistic, Allee, harvested Allee, raw cubic) to the single right-hand side
a*x**3 + b*x**2 + c*x (a ``Cubic``), integrates the resulting Caputo-type
initial value problem with ``solve``, one product-integration loop that runs
the fractional Euler or the Adams predictor-corrector scheme, checks the
computable existence/uniqueness bound, and classifies equilibria through the
sign of the linearized eigenvalue.
"""

from .models import (
    Allee,
    AlleeHarvest,
    Cubic,
    ExistenceBound,
    FractionalIVP,
    Logistic,
    LogisticHarvest,
    ModelSpec,
    default_h_state,
    existence_bound,
    rhs_eval,
    to_cubic,
)
from .solver import (
    BLOWUP_LIMIT,
    BlowUpError,
    Grid,
    SolverMethod,
    Trajectory,
    convergence_study,
    estimate_order,
    solve,
)
from .specfun import gamma, mittag_leffler
from .stability import (
    Classification,
    DegenerateModelError,
    EquilibriumReport,
    classify,
    classify_all,
    equilibria,
    harvest_threshold,
    logistic_harvest_equilibrium,
)

__version__ = "0.1.0"

__all__ = [
    "Allee",
    "AlleeHarvest",
    "BLOWUP_LIMIT",
    "BlowUpError",
    "Classification",
    "Cubic",
    "DegenerateModelError",
    "EquilibriumReport",
    "ExistenceBound",
    "FractionalIVP",
    "Grid",
    "Logistic",
    "LogisticHarvest",
    "ModelSpec",
    "SolverMethod",
    "Trajectory",
    "classify",
    "classify_all",
    "convergence_study",
    "default_h_state",
    "equilibria",
    "estimate_order",
    "existence_bound",
    "gamma",
    "harvest_threshold",
    "logistic_harvest_equilibrium",
    "mittag_leffler",
    "rhs_eval",
    "solve",
    "to_cubic",
    "__version__",
]
