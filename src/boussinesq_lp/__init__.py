"""Pseudo-spectral toolkit for the inviscid buoyancy-coupled system.

Subpackages:
    spectral         periodic-grid field arithmetic and multipliers
    littlewood_paley dyadic decomposition, Besov/Hoelder norms, paraproducts
    transport        linear advection solver (RK4, pseudo-spectral)
    boussinesq       coupled solver, iteration scheme, blow-up monitor
    harness          empirical-constant reports and existence-time formulas
    fileio, cli      artifact output and the command-line front end

The package exports every name in the ``__all__`` of the first five.
"""

from .spectral import *
from .littlewood_paley import *
from .transport import *
from .boussinesq import *
from .harness import *

__version__ = "0.1.0"
