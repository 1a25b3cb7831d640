"""Fractional-order population dynamics with cubic growth laws.

The package reduces a small catalog of population models (logistic, harvested
logistic, Allee, harvested Allee, raw cubic) to the single right-hand side
a*x**3 + b*x**2 + c*x (a ``Cubic``), integrates the resulting Caputo-type
initial value problem with ``solve``, one product-integration loop that runs
the fractional Euler or the Adams predictor-corrector scheme, checks the
computable existence/uniqueness bound, and classifies equilibria through the
sign of the linearized eigenvalue.
"""

from . import models, solver, specfun, stability
from .models import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403
from .stability import *  # noqa: F401,F403

__version__ = "0.1.0"

# The public surface is the union of the layer modules' own ``__all__``.
__all__ = [
    *models.__all__,
    *solver.__all__,
    *specfun.__all__,
    *stability.__all__,
    "__version__",
]
