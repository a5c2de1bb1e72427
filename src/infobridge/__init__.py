"""Brownian bridges with random length and a discrete pinning point.

The package simulates the pinned bridge exactly on a grid, filters the
joint law of (length, pin) from the observed path, estimates pathwise local
times, and evaluates the explicit compensators of the absorption indicator
(and of the pin value times the indicator) as Stieltjes integrals of an
intensity kernel against local time at the pin levels.  A statistical
harness turns the model's exact identities into seeded pass/fail checks.
"""

from . import compensator, filtering, kernels, laws, localtime, paths, verify
from .kernels import *
from .laws import *
from .paths import *
from .filtering import *
from .localtime import *
from .compensator import *
from .verify import *

#: The public surface: the union of the submodules' ``__all__``.
__all__ = [name for module in (kernels, laws, paths, filtering, localtime, compensator, verify)
           for name in module.__all__]

__version__ = "0.1.0"
