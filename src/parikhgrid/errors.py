"""Exception types shared across the package."""


class ParikhGridError(Exception):
    """Base class for all package errors."""


class InvalidInput(ParikhGridError, ValueError):
    """Caller violated an operation's precondition."""


class CapacityExceeded(ParikhGridError):
    """Requested parameters exceed a hard size bound; the bound is named
    in the message."""


class WalkUnrealizable(ParikhGridError):
    """A walk spells no string.

    ``refutation_index`` is 0-based: the step index of a non-adjacent
    vertex pair, otherwise the first window that holds the position whose
    letter conflicts with the steps, the labels or the first vertex.
    """

    def __init__(self, message, refutation_index):
        super().__init__(message)
        self.refutation_index = refutation_index


class LayoutUnsupported(ParikhGridError):
    """2D coordinates are only defined for three-letter alphabets."""


class FamilyUnsupported(InvalidInput):
    """No construction is defined for this (family, k, sigma) combination."""
