"""Exact asymptotics and finite-size simulation of random feature ridge models.

The package computes the high-dimensional excess risk of ridge regression
on mixtures of random nonlinear features (K activation families), exposes
the self-consistent scale solver behind it, cross-checks the K=2 case
against closed forms, runs matching finite-size Monte Carlo experiments,
and sweeps risk curves over a model-complexity grid with CSV/SVG output.
Each module's ``__all__`` is the one list of its public names.
"""

__version__ = "0.1.0"

from . import activations, config, formatting, nu_system, risk, simulator, sweep
from .activations import *
from .nu_system import *
from .risk import *
from .simulator import *
from .sweep import *
from .config import *
from .formatting import *

__all__ = ["__version__"]
__all__ += activations.__all__
__all__ += nu_system.__all__
__all__ += risk.__all__
__all__ += simulator.__all__
__all__ += sweep.__all__
__all__ += config.__all__
__all__ += formatting.__all__
