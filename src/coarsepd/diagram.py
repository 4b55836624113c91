"""Persistence diagrams, matchings between them and the exponent of W_p.

A diagram is a finite multiset of birth-death pairs ``(b, d)`` with
``d > b >= 0``; the diagonal is never stored.  A matching of an n-point
and an m-point diagram is a permutation of n + m slots.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InvalidExponent, InvalidPoint

PlanePoint = tuple[float, float]


def _coordinate(value) -> float:
    """A real number as a float; bools, strings and other types are refused."""
    if type(value) is float:  # the common case, ahead of the slow ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"not a real number: {value!r}")
    return float(value)


def as_plane_point(raw) -> PlanePoint:
    """Coerce and validate a birth-death pair.

    Raises InvalidPoint unless raw is exactly two real numbers (not bools)
    within the float range, death > birth >= 0, both are finite and the persistence
    (death - birth) / 2 does not round to zero.  Points with infinite death
    are rejected.
    """
    try:
        birth, death = map(_coordinate, raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidPoint(f"not a birth-death pair: {raw!r}") from exc
    if not (math.isfinite(birth) and math.isfinite(death)):
        raise InvalidPoint(f"non-finite coordinates: {raw!r}")
    if not death > birth >= 0.0:
        raise InvalidPoint(f"requires death > birth >= 0, got {raw!r}")
    if (death - birth) / 2.0 == 0.0:
        raise InvalidPoint(f"persistence rounds to zero: {raw!r}")
    return (birth, death)


@dataclass(frozen=True)
class Diagram:
    """Canonical finite multiset of off-diagonal points.

    Points are validated and kept sorted lexicographically by
    (birth, death), so input order does not change identity and
    duplicates are kept.
    """

    points: tuple[PlanePoint, ...] = ()

    def __post_init__(self) -> None:
        canon = tuple(sorted(as_plane_point(p) for p in self.points))
        object.__setattr__(self, "points", canon)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Matching:
    """A permutation of the n + m slots of an n-point and an m-point diagram.

    ``pairing[i] = j`` matches left slot i to right slot j.  Left slots
    below n are the left diagram's points and the rest DELTA; right slots
    below m are the right diagram's points and the rest DELTA.
    """

    pairing: tuple[int, ...]

    def __post_init__(self) -> None:
        # Numpy integers become ints; bools and other numbers are refused.
        pairing = tuple(self.pairing)
        if not {*map(type, pairing)} <= {int}:
            if any(isinstance(j, bool) or not isinstance(j, numbers.Integral) for j in pairing):
                raise ValueError("pairing is not a permutation")
            pairing = tuple(map(int, pairing))
        if sorted(pairing) != list(range(len(pairing))):
            raise ValueError("pairing is not a permutation")
        object.__setattr__(self, "pairing", pairing)


def _check_exponent(p: float) -> float:
    """p as a float, or InvalidExponent unless it is a real number (not a bool) with 1 <= p < inf."""
    try:
        p = _coordinate(p)
    except (TypeError, OverflowError):
        raise InvalidExponent(f"p must be a number, got {p!r}") from None
    if not 1.0 <= p < math.inf:
        raise InvalidExponent(f"p must be finite and >= 1, got {p}")
    return p
