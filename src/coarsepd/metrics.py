"""Bottleneck and p-Wasserstein distances between persistence diagrams.

Both distances are minima over matchings on n + m slots, in which each
point goes to a point of the other diagram or to the diagonal: rows below
n are z's points and columns from m on are DELTA.  d_B is a threshold
search on the n x m point block, since only points whose persistence
exceeds t need a partner within t; W_p is an optimal assignment on the
cost-power matrix.  Both run on scipy's ``linear_sum_assignment``, the
package's one matching solver.  ``bottleneck`` and ``wasserstein`` also
return the lex-min optimal matching; ``bottleneck_distance``,
``wasserstein_distance`` and ``distance_matrix`` return the same values
without one, and ``distance_matrix`` certifies most d_B pairs a row at a
time without a solver call.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from .assignment import lex_min_perfect_matching, perfect_matching
from .diagram import Diagram, Matching, _check_exponent

_BLOCK_ENTRIES = 2 ** 22  # largest (pairs, K, K) cost block of distance_matrix


def _point_block(z: Diagram, w: Diagram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sup distances (n, m) between the points of z and w, and their persistences."""
    a = np.array(z.points, dtype=float).reshape(-1, 2)
    b = np.array(w.points, dtype=float).reshape(-1, 2)
    sup = np.maximum(np.abs(a[:, None, 0] - b[:, 0]), np.abs(a[:, None, 1] - b[:, 1]))
    return sup, (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0


def _square(sup: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Square cost matrix on n + m slots of a point block: DELTA-DELTA costs 0."""
    n, m = sup.shape
    out = np.zeros((n + m, n + m))
    out[:n, :m] = sup
    out[:n, m:] = pa[:, None]
    out[n:, :m] = pb
    return out


def _cost(z: Diagram, w: Diagram) -> np.ndarray:
    """Square cost matrix of z and w on n + m slots; equals ``oracle.cost_matrix``."""
    return _square(*_point_block(z, w))


def _lower_bound(sup: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Largest row or column minimum of the (n + m)-slot matrix: no smaller cost is feasible.

    ``sup`` may have leading axes, ``(..., n, m)``, against which ``pa`` and ``pb`` broadcast.
    """
    rows = np.minimum(sup.min(axis=-1, initial=np.inf), pa).max(axis=-1, initial=0.0)
    cols = np.minimum(sup.min(axis=-2, initial=np.inf), pb).max(axis=-1, initial=0.0)
    return np.maximum(rows, cols)


def _feasible(sup: np.ndarray, pa: np.ndarray, pb: np.ndarray, t: float) -> bool:
    """Whether the (n + m)-slot cost matrix has a perfect matching within t.

    Only heavy points, whose persistence exceeds t, cannot take DELTA; by Mendelsohn-Dulmage,
    one matching of the point block covers both sides' heavy points iff each side's can be.
    """
    ok = sup <= t
    return (perfect_matching(ok[pa > t]) is not None
            and perfect_matching(ok[:, pb > t].T) is not None)


def _bottleneck_value(sup: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> float:
    """Smallest pairwise cost within which the (n + m)-slot cost matrix has a perfect matching.

    The bound is a cost and often the optimum, so it is tested first.  The
    larger costs, those of sup, pa and pb, are bisected; the largest needs no test.
    """
    bound = _lower_bound(sup, pa, pb)
    if _feasible(sup, pa, pb, bound):
        return float(bound)
    candidates = np.unique(np.concatenate([sup[sup > bound], pa[pa > bound], pb[pb > bound]]))
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(sup, pa, pb, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def bottleneck(z: Diagram, w: Diagram) -> tuple[float, Matching]:
    """Exact bottleneck distance and an optimal matching.

    One solve at the value gives a perfect matching of the n + m slots, from which the lex-min
    pass, whose result depends only on the graph, finds the lex-min optimal one.
    """
    block = _point_block(z, w)
    value = _bottleneck_value(*block)
    ok = _square(*block) <= value
    return value, Matching(lex_min_perfect_matching(ok, perfect_matching(ok)))


def bottleneck_distance(z: Diagram, w: Diagram) -> float:
    """Exact bottleneck distance without a matching; equals ``bottleneck(z, w)[0]``."""
    return _bottleneck_value(*_point_block(z, w))


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


def _wasserstein_solve(z: Diagram, w: Diagram, p: float,
                       pairing: bool) -> tuple[float, Optional[tuple[int, ...]]]:
    """p-Wasserstein value, and the lex-min optimal pairing if asked for.

    Arguments are ordered canonically before solving so the distance is
    bitwise symmetric (summation order cannot perturb the last ulp); a
    pairing found for the swapped order is inverted back.
    """
    # Imported here so that only W_p loads scipy.optimize.
    from scipy.optimize import linear_sum_assignment

    swapped = w.points < z.points
    if swapped:
        z, w = w, z
    cost = _cost(z, w)
    top = float(cost.max(initial=0.0))
    powered = (cost / top) ** p
    rows, cols = linear_sum_assignment(powered)
    optimum = float(powered[rows, cols].sum())
    value = top * optimum ** (1.0 / p)
    if not pairing:
        return value, None
    phi = lex_min_perfect_matching(_tight_edges(powered, cols, optimum), cols)
    return value, tuple(np.argsort(phi).tolist()) if swapped else phi


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


def bottleneck_1pt_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bottleneck distance between paired singleton diagrams.

    ``a`` and ``b`` are (births, deaths) arrays whose NaN columns are DELTA,
    the empty diagram.  The two candidate matchings are the direct pairing
    and the double diagonal route, hence min(sup distance, max persistence)
    for two points, and the persistence of the point against DELTA.
    """
    a_delta, b_delta = np.isnan(a[0]), np.isnan(b[0])
    pa = np.where(a_delta, 0.0, (a[1] - a[0]) / 2.0)
    pb = np.where(b_delta, 0.0, (b[1] - b[0]) / 2.0)
    sup = np.maximum(np.abs(a[0] - b[0]), np.abs(a[1] - b[1]))
    direct = np.minimum(sup, np.maximum(pa, pb))
    return np.where(a_delta, pb, np.where(b_delta, pa, direct))


def rounding_slack(x: float) -> float:
    """Slack of a verdict on values up to |x| for float rounding: max(1e-9, 8 ulp(|x|))."""
    # Each float operation rounds by at most ulp(|x|) / 2, and a verdict compares values a few
    # operations apart.  In an isometric image, matched points share their birth and the
    # rounded part of their death that does not depend on the source point, so each death has
    # at most two more roundings: a cost checked against the source distance is off by at most
    # 3 ulp of the largest death.  Below 2**20 the slack is 1e-9.
    return max(1e-9, 8.0 * float(np.spacing(abs(x))))


def _certify_lower_bound(a: np.ndarray, pa: np.ndarray, b: np.ndarray,
                         pb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower bound L of d_B between z and each w_r, and whether it is d_B.

    ``a`` (n, 2) holds z's own points and ``b`` (B, K, 2) those of each w_r,
    padded to K rows with +inf, so every cost against a padding slot is
    +inf; ``pa`` (n,) and ``pb`` (B, K) are their persistences, zero-padded.
    L is ``_lower_bound`` of each pair's block, from ``_point_block``'s float expressions
    (padding, at cost +inf and persistence 0, changes no bound).  A heavy point, whose
    persistence exceeds L, cannot take DELTA, but its row minimum is <= L, so
    its nearest point of w_r is within L.  Heavy points of z take those, light
    ones DELTA.  If no point of w_r is taken twice and every untaken one is
    light, the DELTA slots complete a perfect matching within L: d_B = L.
    """
    sup = a[:, None, 0] - b[:, None, :, 0]
    np.abs(sup, out=sup)
    dy = a[:, None, 1] - b[:, None, :, 1]
    np.abs(dy, out=dy)
    np.maximum(sup, dy, out=sup)
    nearest = sup.argmin(axis=2)
    bound = _lower_bound(sup, pa, pb)
    chosen = pa > bound[:, None]
    k = pb.shape[1]
    hits = np.bincount(np.nonzero(chosen)[0] * k + nearest[chosen],
                       minlength=pb.size).reshape(pb.shape)
    certified = (hits <= 1).all(axis=1) & ~((hits == 0) & (pb > bound[:, None])).any(axis=1)
    return bound, certified


def _bottleneck_matrix(rows: list[Diagram]) -> np.ndarray:
    """Upper triangle of the all-pairs d_B matrix; see ``_certify_lower_bound``.

    Every diagram is stored once in a +inf-padded (N, K, 2) array.  Row i's own
    points are certified against all later diagrams in blocks of at most
    _BLOCK_ENTRIES costs; declined pairs go to ``bottleneck_distance``.
    """
    n = len(rows)
    out = np.zeros((n, n))
    k = max((len(z) for z in rows), default=0)
    if k == 0:
        return out
    coords = np.full((n, k, 2), np.inf)
    pers = np.zeros((n, k))
    for r, z in enumerate(rows):
        a = np.array(z.points, dtype=float).reshape(-1, 2)
        coords[r, :len(a)] = a
        pers[r, :len(a)] = (a[:, 1] - a[:, 0]) / 2.0
    step = max(1, _BLOCK_ENTRIES // (k * k))
    for i, z in enumerate(rows[:-1]):
        for start in range(i + 1, n, step):
            stop = min(start + step, n)
            bound, certified = _certify_lower_bound(coords[i, :len(z)], pers[i, :len(z)],
                                                    coords[start:stop], pers[start:stop])
            out[i, start:stop] = bound
            for j in start + np.flatnonzero(~certified):
                out[i, j] = bottleneck_distance(z, rows[j])
    return out


def distance_matrix(diagrams: Sequence[Diagram], p: Optional[float] = None) -> np.ndarray:
    """Symmetric all-pairs matrix of diagram distances, values only.

    Each unordered pair is computed once: d_B when p is None, else W_p for
    an exponent ``wasserstein`` accepts.  Every value equals the per-pair
    ``bottleneck_distance`` or ``wasserstein_distance`` bit for bit.
    """
    rows = list(diagrams)
    if p is None:
        out = _bottleneck_matrix(rows)
    else:
        p = _check_exponent(p)
        out = np.zeros((len(rows), len(rows)))
        for i, j in itertools.combinations(range(len(rows)), 2):
            out[i, j] = wasserstein_distance(rows[i], rows[j], p)
    return out + out.T


def describe_matching(z: Diagram, w: Diagram, matching: Matching) -> list[tuple[Optional[int], Optional[int]]]:
    """Matching as (left index, right index) pairs with None marking DELTA.

    Pairs matching DELTA to DELTA are pruned.
    """
    n, m = len(z), len(w)
    return [(i if i < n else None, j if j < m else None)
            for i, j in enumerate(matching.pairing) if i < n or j < m]
