"""Exact simulation of linear SDEs and mean-square optimal time grids.

The package solves dX = AX dt + B dW exactly on arbitrary time grids via
the conditional-moment (Kalman) recursion, evaluates the terminal and
integral mean-square errors of the best increment-measurable
reconstruction, and builds the cube-root-law grid densities that minimise
their fine-grid limits.  Each public name is listed once, in its module's
``__all__``; the package re-exports them all.
"""

from . import asymptotics, grid, matfun, model, solver
from .asymptotics import *
from .grid import *
from .matfun import *
from .model import *
from .solver import *

__version__ = "0.4.0"

__all__ = [
    "__version__",
    *model.__all__,
    *matfun.__all__,
    *grid.__all__,
    *solver.__all__,
    *asymptotics.__all__,
]
