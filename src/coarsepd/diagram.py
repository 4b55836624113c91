"""Persistence diagrams with the diagonal collapsed to a single point.

A diagram point is either the distinguished diagonal point ``DELTA`` or a
birth-death pair ``(b, d)`` with ``d > b >= 0``.  The extended metric
``delta`` restricts to the sup metric on the open half-plane and measures
the distance to the diagonal as half the persistence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import InvalidPoint


class _Diagonal:
    """Singleton type of the collapsed diagonal point."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DELTA"


DELTA = _Diagonal()

PlanePoint = tuple[float, float]
Point = Union[_Diagonal, PlanePoint]


def is_delta(point: object) -> bool:
    return isinstance(point, _Diagonal)


def _coordinate(value) -> float:
    """A real number as a float; bools, strings and other types are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"not a real number: {value!r}")
    return float(value)


def as_plane_point(raw) -> PlanePoint:
    """Coerce and validate a birth-death pair.

    Raises InvalidPoint unless raw is exactly two real numbers (not bools),
    death > birth >= 0, both are finite and the persistence
    (death - birth) / 2 does not round to zero.  Points with infinite death
    are rejected.
    """
    try:
        birth, death = map(_coordinate, raw)
    except (TypeError, ValueError) as exc:
        raise InvalidPoint(f"not a birth-death pair: {raw!r}") from exc
    if not (math.isfinite(birth) and math.isfinite(death)):
        raise InvalidPoint(f"non-finite coordinates: {raw!r}")
    if not death > birth >= 0.0:
        raise InvalidPoint(f"requires death > birth >= 0, got {raw!r}")
    if (death - birth) / 2.0 == 0.0:
        raise InvalidPoint(f"persistence rounds to zero: {raw!r}")
    return (birth, death)


def persistence(a: Point) -> float:
    """Distance of a point to the diagonal: (death - birth) / 2, zero for DELTA."""
    if is_delta(a):
        return 0.0
    return (a[1] - a[0]) / 2.0


def delta(a: Point, b: Point) -> float:
    """Extended metric on the half-plane plus the diagonal point.

    Sup distance between two plane points; half the persistence against
    DELTA; zero for DELTA against itself.
    """
    if is_delta(a):
        return persistence(b)
    if is_delta(b):
        return persistence(a)
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@dataclass(frozen=True)
class Diagram:
    """Canonical finite multiset of off-diagonal points.

    Points are kept sorted lexicographically by (birth, death); diagonal
    entries are never stored, so appending DELTA does not change identity.
    """

    points: tuple[PlanePoint, ...] = ()

    def __post_init__(self) -> None:
        canon = tuple(sorted(as_plane_point(p) for p in self.points))
        object.__setattr__(self, "points", canon)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[PlanePoint]:
        return iter(self.points)


def canonicalize(raw: Iterable[Point]) -> Diagram:
    """Build a Diagram from raw points: drop DELTA entries, validate, sort.

    The result is independent of input order; duplicates are preserved
    (multiset semantics).
    """
    return Diagram(tuple(p for p in raw if not is_delta(p)))


@dataclass(frozen=True)
class AugmentedPair:
    """Two equal-length tuples obtained by diagonal padding.

    Both sides are padded with DELTA up to width 2 * max(size, size'), so
    every off-diagonal point can always be matched to a diagonal entry.
    """

    left: tuple[Point, ...]
    right: tuple[Point, ...]
    width: int


def augment(z: Diagram, w: Diagram) -> AugmentedPair:
    """Pad both diagrams with DELTA to the common width 2 * max(|z|, |w|)."""
    width = 2 * max(len(z), len(w))
    left = z.points + (DELTA,) * (width - len(z))
    right = w.points + (DELTA,) * (width - len(w))
    return AugmentedPair(left=left, right=right, width=width)
