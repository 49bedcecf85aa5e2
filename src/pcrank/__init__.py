"""Priority vectors from incomplete pairwise comparison matrices.

Three methods over a shared matrix type: the geometric-mean extension for
incomplete data (the default), logarithmic least squares on the comparison
graph's Laplacian, and Harker's eigenvalue completion.  The first two
minimize the same log-quadratic error and agree to rounding error.
"""

from .matrix import *
from .graph import *
from .linalg import *
from .priority import *
from .gm import *
from .lls import *
from .harker import *
from .metrics import *
from . import gm, graph, harker, linalg, lls, matrix, metrics, priority

__version__ = "0.1.0"

__all__ = [
    name
    for module in (matrix, graph, linalg, priority, gm, lls, harker, metrics)
    for name in module.__all__
]
