"""Bottleneck and p-Wasserstein distances between persistence diagrams.

Both distances are minima over matchings of the two diagrams padded with
the diagonal point to width 2 * max(n, m): the bottleneck aggregates
per-pair costs with max, the p-Wasserstein with an l_p sum.  The
bottleneck value comes from a threshold search over the discrete set of
pairwise costs with a perfect-matching feasibility test; the p-Wasserstein
value reduces to an optimal assignment on the cost-power matrix.  Both run
on scipy's ``linear_sum_assignment``, the package's one matching solver.
``bottleneck`` and ``wasserstein`` also return the lex-min optimal matching
at every width; ``bottleneck_distance``, ``wasserstein_distance`` and
``distance_matrix`` return the same values without one.  The solvers build
the padded cost matrix in blocks from coordinate arrays.  The
``*_bruteforce`` variants minimize over all permutations directly and act
as independent oracles; they build their costs point by point with ``delta``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .assignment import (
    has_perfect_matching,
    lex_min_perfect_matching,
    min_assignment_max,
    min_assignment_sum,
)
from .diagram import Diagram, Point, augment, delta, is_delta, persistence
from .errors import InvalidExponent, OversizeForOracle

ORACLE_MAX_WIDTH = 10
_TOL = 1e-9  # rounding slack of check_coarse_equiv_bounds


@dataclass(frozen=True)
class Matching:
    """A permutation of augmented indices.

    ``pairing[i] = j`` matches left index i to right index j.
    """

    pairing: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.pairing) != list(range(len(self.pairing))):
            raise ValueError("pairing is not a permutation")


def cost_matrix(left: tuple[Point, ...], right: tuple[Point, ...]) -> np.ndarray:
    """Matrix of pairwise extended-metric costs between two point tuples.

    The per-pair reference: one ``delta`` call per entry.  The oracles use
    it, so their costs share no code with the solvers' ``_cost``.
    """
    return np.array([[delta(a, b) for b in right] for a in left]).reshape(len(left), len(right))


def _cost(z: Diagram, w: Diagram) -> np.ndarray:
    """Square cost matrix of z and w padded with DELTA to width 2 * max(n, m).

    Equal to ``cost_matrix`` on the ``augment``-ed pair, built in blocks:
    the sup metric between points, each point's persistence against every
    DELTA slot, and zero between DELTA slots.
    """
    n, m = len(z), len(w)
    a = np.array(z.points, dtype=float).reshape(-1, 2)
    b = np.array(w.points, dtype=float).reshape(-1, 2)
    out = np.zeros((2 * max(n, m),) * 2)
    out[:n, :m] = np.maximum(np.abs(a[:, None, 0] - b[:, 0]), np.abs(a[:, None, 1] - b[:, 1]))
    out[:n, m:] = ((a[:, 1] - a[:, 0]) / 2.0)[:, None]
    out[n:, :m] = (b[:, 1] - b[:, 0]) / 2.0
    return out


def _bottleneck_value(cost: np.ndarray) -> float:
    """Smallest pairwise cost at which the square cost matrix has a perfect matching.

    Every row and every column must be matched, so no cost below
    max(max_i min_j c_ij, max_j min_i c_ij) is feasible.  That bound is
    itself a cost and is often the optimum, so it is tested first; the
    larger costs are bisected (the largest is always feasible).
    """
    bound = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    if has_perfect_matching(cost <= bound):
        return float(bound)
    candidates = np.unique(cost[cost > bound])
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if has_perfect_matching(cost <= candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def bottleneck(z: Diagram, w: Diagram) -> tuple[float, Matching]:
    """Exact bottleneck distance and an optimal matching.

    The optimum is always attained at one of the pairwise costs, so the
    search is over that discrete candidate set (no numeric bisection).
    Among optimal matchings the lexicographically smallest permutation is
    returned.
    """
    cost = _cost(z, w)
    if cost.size == 0:
        return 0.0, Matching(())
    value = _bottleneck_value(cost)
    phi = lex_min_perfect_matching(cost <= value)
    return value, Matching(phi)


def bottleneck_distance(z: Diagram, w: Diagram) -> float:
    """Exact bottleneck distance without a matching; equals ``bottleneck(z, w)[0]``."""
    cost = _cost(z, w)
    return _bottleneck_value(cost) if cost.size else 0.0


def _oracle_cost(z: Diagram, w: Diagram) -> np.ndarray:
    """``cost_matrix`` of the ``augment``-ed pair, up to width ORACLE_MAX_WIDTH."""
    pair = augment(z, w)
    if pair.width > ORACLE_MAX_WIDTH:
        raise OversizeForOracle(f"augmented width {pair.width} > {ORACLE_MAX_WIDTH}")
    return cost_matrix(pair.left, pair.right)


def bottleneck_bruteforce(z: Diagram, w: Diagram) -> tuple[float, Matching]:
    """Bottleneck distance by exhaustive minimization over permutations.

    Defined only up to augmented width 10 (factorial blow-up guard).
    """
    value, phi = min_assignment_max(_oracle_cost(z, w))
    return value, Matching(phi)


def _check_exponent(p: float) -> float:
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise InvalidExponent(f"p must be finite and >= 1, got {p}")
    return p


def _tight_edges(cost: np.ndarray, sigma: np.ndarray, optimum: float) -> np.ndarray:
    """Edges of zero reduced cost under optimal duals of the assignment sigma.

    Row potentials u are shortest-path distances in the residual graph,
    where u[i] <= u[k] + cost[i, sigma[k]] - cost[k, sigma[k]]; column
    potentials then make sigma's edges exactly tight.  Reduced costs within
    tol = 1e-12 * optimum count as zero: the potentials of near-optimal
    edges are on the optimum's scale, which large exponents push far below
    1, so the tolerance is relative.  Bellman-Ford stops once no potential
    falls by more than tol / n (rounding alone can keep zero-cost cycles
    falling by an ulp a round), so every reduced cost is >= -tol / n; those
    of an optimal assignment sum to zero, so each is below tol.  Every
    optimal assignment thus uses only these edges, and every perfect
    matching of them is optimal to within n * tol.
    """
    n = cost.shape[0]
    tol = 1e-12 * optimum
    held = cost[np.arange(n), sigma]
    step = cost[:, sigma] - held[None, :]
    u = np.zeros(n)
    for _ in range(n):
        relaxed = (u[None, :] + step).min(axis=1)
        if (u - relaxed).max() <= tol / n:
            break
        u = relaxed
    v = np.empty(n)
    v[sigma] = held - u
    return cost - u[:, None] - v[None, :] <= tol


def _invert_pairing(phi: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(phi)
    for i, j in enumerate(phi):
        inv[j] = i
    return tuple(inv)


def _wasserstein_solve(z: Diagram, w: Diagram, p: float,
                       pairing: bool) -> tuple[float, Optional[tuple[int, ...]]]:
    """p-Wasserstein value, and the lex-min optimal pairing if asked for.

    Arguments are ordered canonically before solving so the distance is
    bitwise symmetric (summation order cannot perturb the last ulp); a
    pairing found for the swapped order is inverted back.
    """
    # Imported here so that only W_p loads scipy.optimize, and before any
    # return so that a first call on equal diagrams loads it too.
    from scipy.optimize import linear_sum_assignment

    swapped = w.points < z.points
    if swapped:
        z, w = w, z
    cost = _cost(z, w)
    top = float(cost.max(initial=0.0))
    if top == 0.0:
        return 0.0, tuple(range(len(cost)))
    powered = (cost / top) ** p
    rows, cols = linear_sum_assignment(powered)
    optimum = float(powered[rows, cols].sum())
    value = top * optimum ** (1.0 / p)
    if not pairing:
        return value, None
    phi = lex_min_perfect_matching(_tight_edges(powered, cols, optimum))
    return value, _invert_pairing(phi) if swapped else phi


def wasserstein(z: Diagram, w: Diagram, p: float) -> tuple[float, Matching]:
    """Exact p-Wasserstein distance and an optimal matching (1 <= p < inf).

    Solved as an optimal assignment on the cost-power matrix; costs are
    rescaled by their maximum before powering so that large exponents do
    not overflow.  The matching is the lexicographically smallest one using
    only tight edges of the optimal duals.  ``p = inf`` is rejected with
    InvalidExponent: W_inf is the bottleneck distance, which ``bottleneck``
    computes.
    """
    p = _check_exponent(p)
    value, phi = _wasserstein_solve(z, w, p, pairing=True)
    return value, Matching(phi)


def wasserstein_distance(z: Diagram, w: Diagram, p: float) -> float:
    """Exact p-Wasserstein distance without a matching; equals ``wasserstein(z, w, p)[0]``."""
    return _wasserstein_solve(z, w, _check_exponent(p), pairing=False)[0]


def wasserstein_bruteforce(z: Diagram, w: Diagram, p: float) -> tuple[float, Matching]:
    """p-Wasserstein distance by exhaustive minimization over permutations.

    Uses the same canonical argument ordering as ``wasserstein`` so both
    are bitwise symmetric and report comparable pairings.
    """
    p = _check_exponent(p)
    if w.points < z.points:
        value, m = wasserstein_bruteforce(w, z, p)
        return value, Matching(_invert_pairing(m.pairing))
    cost = _oracle_cost(z, w)
    top = float(cost.max(initial=0.0))
    if top == 0.0:  # both diagrams empty: every point has positive persistence
        return 0.0, Matching(())
    optimum, phi = min_assignment_sum((cost / top) ** p)
    value = top * optimum ** (1.0 / p)
    return value, Matching(phi)


def bottleneck_1pt(a: Point, b: Point) -> float:
    """Closed-form bottleneck distance between singleton diagrams.

    The two candidate matchings are the direct pairing and the double
    diagonal route, hence min(sup distance, max persistence).  Tolerates
    DELTA arguments (empty diagram semantics).
    """
    if is_delta(a) or is_delta(b):
        return delta(a, b)
    return min(delta(a, b), max(persistence(a), persistence(b)))


def bottleneck_1pt_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``bottleneck_1pt`` of paired (births, deaths) arrays, NaN columns being DELTA."""
    a_delta, b_delta = np.isnan(a[0]), np.isnan(b[0])
    pa = np.where(a_delta, 0.0, (a[1] - a[0]) / 2.0)
    pb = np.where(b_delta, 0.0, (b[1] - b[0]) / 2.0)
    sup = np.maximum(np.abs(a[0] - b[0]), np.abs(a[1] - b[1]))
    direct = np.minimum(sup, np.maximum(pa, pb))
    return np.where(a_delta, pb, np.where(b_delta, pa, direct))


def check_coarse_equiv_bounds(z: Diagram, w: Diagram, p: float) -> bool:
    """Sandwich bound d_B <= d_{W,p} <= (2 max(n,m))^(1/p) d_B, within _TOL."""
    p = _check_exponent(p)
    d_b = bottleneck_distance(z, w)
    d_w = wasserstein_distance(z, w, p)
    width = 2 * max(len(z), len(w))
    factor = width ** (1.0 / p) if width else 0.0
    return d_b <= d_w + _TOL and d_w <= factor * d_b + _TOL


def distance_matrix(diagrams: Sequence[Diagram], metric: str = "bottleneck",
                    p: float = 2.0) -> np.ndarray:
    """Symmetric all-pairs matrix of diagram distances, values only.

    Each unordered pair is computed once.  metric is "bottleneck" or
    "wasserstein" (with exponent p).
    """
    if metric == "bottleneck":
        dist = bottleneck_distance
    elif metric == "wasserstein":
        dist = functools.partial(wasserstein_distance, p=_check_exponent(p))
    else:
        raise ValueError(f"unknown metric {metric!r}")
    rows = list(diagrams)
    out = np.zeros((len(rows), len(rows)))
    for i, j in itertools.combinations(range(len(rows)), 2):
        out[i, j] = dist(rows[i], rows[j])
    return out + out.T


def describe_matching(z: Diagram, w: Diagram, matching: Matching) -> list[tuple[Optional[int], Optional[int]]]:
    """Matching as (left index, right index) pairs with None marking DELTA.

    Pairs matching DELTA to DELTA are pruned.
    """
    out: list[tuple[Optional[int], Optional[int]]] = []
    for i, j in enumerate(matching.pairing):
        li = i if i < len(z) else None
        rj = j if j < len(w) else None
        if li is None and rj is None:
            continue
        out.append((li, rj))
    return out
