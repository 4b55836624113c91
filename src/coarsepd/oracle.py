"""Brute-force reference distances, built point by point from the definition.

A point of the reference world is either the distinguished diagonal point
``DELTA`` or a birth-death pair.  The extended metric ``delta`` restricts
to the sup metric on the open half-plane and measures the distance to the
diagonal as half the persistence.  d_B and W_p are minima over all
matchings on n + m slots, z's points followed by m DELTAs against w's
points followed by n DELTAs: ``cost_matrix`` builds that matrix one
``delta`` call per entry, and a subset dynamic program takes the exact
minimum over every permutation.
This module shares no code with the solvers of ``metrics`` and
``assignment``, which it checks.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .diagram import Diagram, Matching, PlanePoint, _check_exponent
from .errors import OversizeForOracle

ORACLE_MAX_WIDTH = 10


class _Diagonal:
    """Singleton type of the collapsed diagonal point."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DELTA"


DELTA = _Diagonal()

Point = Union[_Diagonal, PlanePoint]


def is_delta(point: object) -> bool:
    return isinstance(point, _Diagonal)


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


def cost_matrix(z: Diagram, w: Diagram) -> np.ndarray:
    """Costs ``delta(a, b)`` on n + m slots: z's points then m DELTAs, against w's then n."""
    left = z.points + (DELTA,) * len(w)
    right = w.points + (DELTA,) * len(z)
    return np.array([[delta(a, b) for b in right] for a in left]).reshape(len(left), len(left))


def _min_assignment(cost: np.ndarray, combine) -> list[float]:
    """Exact minimum over all n! permutations of an aggregated pair cost.

    Subset dynamic program: returns the table h where h[S] is the optimum of
    assigning rows popcount(S).. to the columns outside S, so h[0] is the
    global optimum and every permutation is accounted for.
    """
    n = cost.shape[0]
    if n > 20:
        raise ValueError("subset DP limited to n <= 20")
    rows = cost.tolist()
    full = 1 << n
    h = [0.0] * full
    for S in range(full - 2, -1, -1):
        row = rows[S.bit_count()]  # S < full - 1 leaves a column free
        best = math.inf
        for j in range(n):
            if S >> j & 1:
                continue
            v = combine(row[j], h[S | (1 << j)])
            if v < best:
                best = v
        h[S] = best
    return h


def _lex_min_recovery(cost: np.ndarray, h: list[float], fits) -> tuple[int, ...]:
    """Walk the rows in order, each taking the smallest free column j that fits.

    S holds the columns taken so far; column j fits row i when
    fits(cost[i, j], h[S | 1 << j], h[S]) says that the step keeps an optimal
    permutation within reach, so the walk ends on the lexicographically
    smallest optimum.
    """
    perm: list[int] = []
    S = 0
    for row in cost.tolist():
        j = next(j for j, c in enumerate(row)
                 if not S >> j & 1 and fits(c, h[S | (1 << j)], h[S]))
        perm.append(j)
        S |= 1 << j
    return tuple(perm)


def min_assignment_max(cost: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exact min over all permutations of the maximum per-pair cost.

    An optimal permutation is any one whose pair costs all stay within the
    optimum, so the recovery keeps the global value as a cap and picks the
    smallest feasible column per row: the lexicographically smallest optimum.
    """
    h = _min_assignment(cost, lambda c, rest: c if c > rest else rest)
    cap = h[0]
    return cap, _lex_min_recovery(cost, h, lambda c, rest, _: c <= cap and rest <= cap)


def min_assignment_sum(cost: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exact min over all permutations of the summed per-pair cost.

    Recovery walks forward picking the smallest column whose cost plus the
    remaining-subproblem optimum reproduces the current target exactly (the
    same expression the table stored, so float comparison is safe); the
    result is the lexicographically smallest optimal permutation.
    """
    h = _min_assignment(cost, lambda c, rest: c + rest)
    return h[0], _lex_min_recovery(cost, h, lambda c, rest, target: c + rest == target)


def _check_width(z: Diagram, w: Diagram) -> None:
    width = len(z) + len(w)
    if width > ORACLE_MAX_WIDTH:
        raise OversizeForOracle(f"augmented width {width} > {ORACLE_MAX_WIDTH}")


def bottleneck_bruteforce(z: Diagram, w: Diagram) -> tuple[float, Matching]:
    """Bottleneck distance by exhaustive minimization over permutations.

    Defined only up to augmented width 10 (factorial blow-up guard).
    """
    _check_width(z, w)
    value, phi = min_assignment_max(cost_matrix(z, w))
    return value, Matching(phi)


def wasserstein_bruteforce(z: Diagram, w: Diagram, p: float) -> tuple[float, Matching]:
    """p-Wasserstein distance by exhaustive minimization over permutations.

    Uses the same canonical argument ordering as ``metrics.wasserstein`` so
    both are bitwise symmetric and report comparable pairings.
    """
    p = _check_exponent(p)
    if w.points < z.points:
        value, m = wasserstein_bruteforce(w, z, p)
        return value, Matching(tuple(np.argsort(m.pairing).tolist()))
    _check_width(z, w)
    cost = cost_matrix(z, w)
    top = float(cost.max(initial=0.0))
    optimum, phi = min_assignment_sum((cost / top) ** p)
    value = top * optimum ** (1.0 / p)
    return value, Matching(phi)
