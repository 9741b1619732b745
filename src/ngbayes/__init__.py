"""Closed-form KL divergences for normal, gamma and normal-gamma
distributions, conjugate Bayesian inference for the univariate GLM, and
the accuracy/complexity decomposition of the log model evidence.

The package re-exports each module's ``__all__``; a module's public
names are listed there and nowhere else."""

from . import distributions, divergence, experiments, glm, numerics
from .numerics import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .divergence import *  # noqa: F401,F403
from .glm import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

__all__ = [name for module in (numerics, distributions, divergence, glm, experiments)
           for name in module.__all__]
__version__ = "0.1.0"
