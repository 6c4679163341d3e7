"""Spectral toolkit for a strip model with a four-parameter line interaction.

The package splits into parameter algebra (:mod:`speclab.coupling`),
symmetric-tridiagonal numerics (:mod:`speclab.tridiag`), the Jacobi-matrix
families attached to the model (:mod:`speclab.jacobi_ops`), the half-line
three-term recurrence and its asymptotics (:mod:`speclab.recurrence`),
quadratic forms and eigenvalue location/counting for the full operator
(:mod:`speclab.hamiltonian`), and a batch CLI (:mod:`speclab.cli`).
"""

from . import coupling, errors, hamiltonian, jacobi_ops, recurrence, tridiag
from .coupling import *
from .errors import *
from .hamiltonian import *
from .jacobi_ops import *
from .recurrence import *
from .tridiag import *

__version__ = "0.1.0"

__all__ = [
    *coupling.__all__,
    *errors.__all__,
    *hamiltonian.__all__,
    *jacobi_ops.__all__,
    *recurrence.__all__,
    *tridiag.__all__,
    "__version__",
]
