"""Exception hierarchy shared by all hypstat modules.

Callers that only want "something went wrong" can catch ``HypstatError``;
the CLI maps the subclasses onto its exit-code contract (usage problems are
raised by argparse itself, every ``HypstatError`` maps to the
numerical/validation exit code).
"""

from __future__ import annotations


class HypstatError(Exception):
    """Base class for all errors raised by hypstat."""


class InvalidArgumentError(HypstatError, ValueError):
    """An argument violates an operation's contract (bad value, bad shape)."""


class ValidationError(HypstatError):
    """A coding document or coding object violates a structural invariant."""


class StructureError(HypstatError):
    """The component structure of a coding is impossible for a group coding."""


class PreconditionError(HypstatError):
    """An operation's mathematical precondition does not hold for the input."""


class NumericalError(HypstatError):
    """An iterative numerical method failed to converge or to validate."""


class InconsistencyError(HypstatError):
    """Two independent computations of the same quantity disagree."""


class ResourceError(HypstatError):
    """An exact computation would exceed its documented guard or byte budget."""
