"""Exception hierarchy shared across the package.

The CLI maps these onto its exit codes: input/contract problems exit 2,
verification failures exit 1, the resource guard exits 3.
"""

from __future__ import annotations


class AgcalcError(Exception):
    """Base class for all package errors."""


class ContractViolation(AgcalcError):
    """An operation was called outside its stated contract."""


class TruncationError(ContractViolation):
    """An input series is not known to enough degrees for the requested output."""


class CompositionError(ContractViolation):
    """Series substitution into a map with a z-constant term is undefined."""


class PreconditionError(AgcalcError):
    """A mathematical precondition (order, exactness, nilpotency) fails."""


class VerificationError(AgcalcError):
    """Two independently computed sides of an identity disagree."""

    def __init__(self, message: str, witness: str | None = None):
        super().__init__(message)
        self.witness = witness


class ConvergenceViolation(AgcalcError):
    """A discarded truncation-cutoff term had order <= D (debug-mode check)."""


class TermCeilingExceeded(AgcalcError):
    """The term-count resource guard tripped; partial holds what finished.

    It has the shape its raiser returns: a VanishingReport from
    lab.vanishing_scan, the tuple of scans from lab.vanishing_scan_poly, and
    an EquivalenceReport with no checks from lab.check_equivalences.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class MapFileError(AgcalcError):
    """A map file or polynomial literal failed to parse or validate."""
