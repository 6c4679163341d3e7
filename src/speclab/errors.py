"""Exception types shared across the package, and its one size limit."""

from __future__ import annotations

__all__ = [
    "SpeclabError",
    "InvalidParametersError",
    "SingularFormulaError",
    "BranchCutError",
    "SizeExceededError",
    "NonConvergenceError",
    "NoDominanceSplitError",
    "Beta0ConstraintError",
    "NoSubcriticalBranchError",
]

# The most rows a certified count walks, unless its caller sets fewer; the
# CLI's --n-cap default, kept here so that the CLI reads it without numpy.
# speclab.jacobi_ops exports it.
ROW_CAP = 2**20


class SpeclabError(Exception):
    """Base class for all package-specific failures."""


class InvalidParametersError(SpeclabError, ValueError):
    """Inputs outside the domain of the requested operation."""


class SingularFormulaError(SpeclabError, ValueError):
    """A closed-form expression is singular at the requested point."""


class BranchCutError(SpeclabError, ValueError):
    """Spectral parameter sits on a square-root branch cut."""


class SizeExceededError(SpeclabError, ValueError):
    """Matrix too large for a dense reference computation."""


class NonConvergenceError(SpeclabError, RuntimeError):
    """A computation could not finish within its limits: a certified count
    still open at its row cap, or a recurrence that left the floating-point
    range (a backward ratio sweep, or a vanishing normalisation index)."""


class NoDominanceSplitError(SpeclabError, ValueError):
    """Backward recurrence requested where no dominant/minimal split exists."""


class Beta0ConstraintError(SpeclabError, ValueError):
    """Trial function violates the boundary constraint of the beta = 0 form."""


class NoSubcriticalBranchError(SpeclabError, ValueError):
    """No coupling branch supports discrete spectrum below the threshold."""
