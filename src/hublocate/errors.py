"""Exception types shared across the hublocate modules."""

from __future__ import annotations

import time


class HublocateError(Exception):
    """Base class for all library errors."""


class InstanceFormatError(HublocateError):
    """Raised when an instance file cannot be parsed into the data model.

    Carries an optional machine-readable ``code`` and the file location
    (``section``/``line``) when known.
    """

    def __init__(self, message, code=None, section=None, line=None):
        loc = []
        if section:
            loc.append(f"section {section!r}")
        if line is not None:
            loc.append(f"line {line}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.code = code
        self.section = section
        self.line = line


class InvalidInstanceError(HublocateError):
    """Raised when an operation requires a valid instance but validation fails."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{v.code}: {v.message}" for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"instance is invalid: {lines}{more}")


class UnknownNodeError(HublocateError):
    """A solution references a node id that does not exist in the instance."""


class InfeasibleSolutionError(HublocateError):
    """A solution violates the model constraints; carries the violation report."""

    def __init__(self, report):
        self.report = list(report)
        lines = "; ".join(f"{v.constraint}{v.subject}" for v in self.report[:5])
        super().__init__(f"solution is infeasible: {lines}")


class DistanceOutOfRangeError(HublocateError):
    """A distance falls outside the land cost table's band range."""


class ModelDecodeError(HublocateError):
    """Solver output cannot be decoded into a solution (missing variables,
    fractional binaries, or constraint residuals beyond tolerance)."""


class OracleLimitError(HublocateError):
    """The enumeration size estimate exceeds the configured oracle budget."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class TimeBudgetError(HublocateError):
    """A solver hit its wall-clock budget before completing."""


def check_deadline(deadline: float | None, what: str) -> None:
    """Raise TimeBudgetError once ``time.monotonic()`` passes ``deadline``
    (no check when it is None); ``what`` names the solver in the message."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetError(f"{what} exceeded its time budget")
