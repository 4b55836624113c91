"""Exception types shared across the package."""

from __future__ import annotations


class CoarsePDError(Exception):
    """Base class for all coarsepd errors."""


class InvalidPoint(CoarsePDError):
    """A plane point violates death > birth >= 0 or has non-finite coordinates."""


class OversizeForOracle(CoarsePDError):
    """Augmented width exceeds the brute-force oracle cutoff."""


class InvalidExponent(CoarsePDError):
    """Wasserstein exponent p must satisfy p >= 1."""


class OutOfCube(CoarsePDError):
    """A cube coordinate lies outside [0, R]."""


class TooLarge(CoarsePDError):
    """A generated space would exceed the configured point cap."""


class NonpositiveSeparation(CoarsePDError):
    """Coarse disjoint union separations must be strictly positive."""


class DegenerateDiameter(CoarsePDError):
    """A multi-point metric space with zero diameter cannot be embedded."""


class EmptySpace(CoarsePDError):
    """Operation requires at least two points."""


class SizeMismatch(CoarsePDError):
    """Paired inputs have inconsistent sizes."""


class MetricValidationError(CoarsePDError):
    """Raised by validate_metric; carries every violated axiom with a witness.

    Each violation is a tuple whose first entry names the axiom:
    ``("non_finite", i, j)`` for a NaN or infinite entry,
    ``("not_symmetric", i, j)``, ``("nonzero_diagonal", i)``,
    ``("negative", i, j)``, ``("zero_off_diagonal", i, j)`` or
    ``("triangle", i, j, k)`` meaning d(i,j) > d(i,k) + d(k,j).

    They are listed non_finite first (row-major), then nonzero_diagonal,
    then per pair i < j in lexicographic order not_symmetric, negative and
    zero_off_diagonal, then triangle ordered by k and then (i, j).
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"{len(self.violations)} metric axiom violation(s): "
                         f"{self.violations[:5]}")
