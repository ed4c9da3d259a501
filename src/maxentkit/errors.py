"""Exception hierarchy for maxentkit.

Input and construction problems raise :class:`InputError` subclasses,
numerical solve failures raise :class:`SolverError` subclasses, and
model-selection failures raise :class:`SelectionError`.  The command line
maps these groups onto distinct exit codes.  :func:`_check_positive_real`
is the one rule for a setting that must be a finite positive number.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "MaxentError",
    "InputError",
    "SupportViolationError",
    "RankDeficiencyError",
    "NotNestedError",
    "SolverError",
    "InconsistentSystemError",
    "ConvergenceError",
    "SingularJacobianError",
    "InfeasibleMomentsError",
    "ZeroMarginalError",
    "RejectionExhaustedError",
    "SelectionError",
    "NoSolvableCandidateError",
]


class MaxentError(Exception):
    """Base class for all maxentkit errors."""


class InputError(MaxentError):
    """Invalid input data or malformed problem statement."""


class SupportViolationError(InputError):
    """A divergence or likelihood was requested outside the support of
    the reference distribution (mass on a state of probability zero)."""


class RankDeficiencyError(InputError):
    """A matrix does not have the rank required by the operation."""


class NotNestedError(InputError):
    """A likelihood-ratio comparison was requested between two
    architectures that are not nested."""


class SolverError(MaxentError):
    """Base class for failures to produce a solution, whether the system
    has none or the numerics gave out."""


class InconsistentSystemError(SolverError):
    """The linear constraint system admits no solution (a zero row with a
    nonzero right-hand side survived elimination)."""


class ConvergenceError(SolverError):
    """An iterative solver exhausted its iteration budget above tolerance."""


class SingularJacobianError(SolverError):
    """The Newton Jacobian became numerically singular."""


class InfeasibleMomentsError(SolverError):
    """The requested moments admit no strictly positive distribution; the
    multipliers diverge or the support is contradictory."""


class ZeroMarginalError(SolverError):
    """Iterative scaling reached a state of zero current mass on a
    constraint whose target moment is positive."""


class RejectionExhaustedError(SolverError):
    """Too many consecutive equivalence-class draws left the simplex."""


class SelectionError(MaxentError):
    """Model selection could not produce a result."""


class NoSolvableCandidateError(SelectionError):
    """Every candidate architecture failed to solve."""


def _check_positive_real(value: object, name: str) -> None:
    """Raise :class:`InputError` unless ``value`` is a finite positive
    real number (a bool is not)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (math.isfinite(value) and value > 0.0)
    ):
        raise InputError(f"{name} must be a finite positive number, got {value!r}")
