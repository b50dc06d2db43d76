"""Exact simulation of linear SDEs and mean-square optimal time grids.

The package solves dX = AX dt + B dW exactly on arbitrary time grids via
the conditional-moment (Kalman) recursion, evaluates the terminal and
integral mean-square errors of the best increment-measurable
reconstruction, and builds the cube-root-law grid densities that minimise
their fine-grid limits.  Each public name is listed once, in its module's
``__all__``; the package re-exports them all.
"""

import os

# numpy's BLAS loads with one thread unless the caller chose a count.  Every
# product here is over a stack of small n x n matrices, which BLAS threads do
# not speed up; the Monte Carlo verifier runs its own pool, one worker per
# core, which nested BLAS threads would oversubscribe; and OpenBLAS's idle
# worker threads cost CPU time the program never uses.  OpenBLAS reads the
# variable once, when it loads, so it is removed again and os.environ is left
# as it was found.  A numpy loaded before this package keeps its threads.
if any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    import numpy
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
del numpy, os

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
