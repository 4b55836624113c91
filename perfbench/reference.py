"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports coarsepd.  Diagram costs are built from raw
(birth, death) points at width n + m (the program pads to 2 * max(n, m);
both widths have the same optima because diagonal-to-diagonal pairs cost
nothing).  The bottleneck distance is a threshold search with scipy's
maximum_bipartite_matching, W_p is one linear_sum_assignment on costs
normalised by d_B, and the metric-space checks are plain numpy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

REL_TOL = 1e-9
METRIC_TOL = 1e-9


def close(value: float, expected: float, rel: float = REL_TOL) -> bool:
    return value == expected or abs(value - expected) <= rel * abs(expected)


def pair_costs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Square (n + m) cost matrix: points, then diagonal slots, on each side."""
    n, m = len(left), len(right)
    width = n + m
    cost = np.zeros((width, width))
    if n and m:
        cost[:n, :m] = np.maximum(np.abs(left[:, None, 0] - right[None, :, 0]),
                                  np.abs(left[:, None, 1] - right[None, :, 1]))
    if n:
        cost[:n, m:] = ((left[:, 1] - left[:, 0]) / 2.0)[:, None]
    if m:
        cost[n:, :m] = ((right[:, 1] - right[:, 0]) / 2.0)[None, :]
    return cost


def _perfect(mask: np.ndarray) -> bool:
    match = maximum_bipartite_matching(csr_matrix(mask), perm_type="column")
    return bool((match >= 0).all())


def bottleneck(left: np.ndarray, right: np.ndarray) -> float:
    cost = pair_costs(left, right)
    if cost.size == 0:
        return 0.0
    candidates = np.unique(cost)
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect(cost <= candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def wasserstein(left: np.ndarray, right: np.ndarray, p: float, d_b: float) -> float:
    """W_p for finite p, normalised by the bottleneck value (W_p >= d_B)."""
    if d_b == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        powered = (pair_costs(left, right) / d_b) ** p
    rows, cols = linear_sum_assignment(powered)
    return d_b * float(powered[rows, cols].sum()) ** (1.0 / p)


def matching_cost(left: np.ndarray, right: np.ndarray, pairs: list[dict],
                  p: float | None) -> float | None:
    """Cost of a printed matching, or None unless it matches every point once.

    ``pairs`` is the CLI's list of {"left": i | "Delta", "right": j | "Delta"}
    with diagonal-to-diagonal pairs left out.
    """
    seen_l, seen_r, costs = [], [], []
    for pair in pairs:
        i, j = pair["left"], pair["right"]
        if i == "Delta" and j == "Delta":
            return None
        if i != "Delta":
            seen_l.append(i)
        if j != "Delta":
            seen_r.append(j)
        if i == "Delta":
            costs.append((right[j][1] - right[j][0]) / 2.0)
        elif j == "Delta":
            costs.append((left[i][1] - left[i][0]) / 2.0)
        else:
            costs.append(max(abs(left[i][0] - right[j][0]), abs(left[i][1] - right[j][1])))
    if sorted(seen_l) != list(range(len(left))) or sorted(seen_r) != list(range(len(right))):
        return None
    top = max(costs, default=0.0)
    if p is None or top == 0.0:
        return top
    return top * math.fsum((c / top) ** p for c in costs) ** (1.0 / p)


def profile_envelopes(source: np.ndarray, image: np.ndarray) -> dict:
    """rho1/rho2 envelopes over 64 equal bins of the source distances."""
    n = source.shape[0]
    iu = np.triu_indices(n, 1)
    t, s = source[iu], image[iu]
    tmax = float(t.max())
    width = tmax / 64.0 if tmax > 0.0 else 1.0
    nbins = int(np.floor(tmax / width)) + 1
    idx = np.minimum((t / width).astype(int), nbins - 1)
    lows = np.full(nbins, np.inf)
    highs = np.full(nbins, -np.inf)
    np.minimum.at(lows, idx, s)
    np.maximum.at(highs, idx, s)
    empty = np.bincount(idx, minlength=nbins) == 0
    rho1 = np.minimum.accumulate(lows[::-1])[::-1]
    rho2 = np.maximum.accumulate(highs)
    as_list = lambda arr: [None if e else float(v) for v, e in zip(arr, empty)]
    finite = rho1[~empty]
    return {
        "bin_width": width,
        "bin_edges": (np.arange(nbins + 1) * width).tolist(),
        "rho1": as_list(rho1),
        "rho2": as_list(rho2),
        "pairs": int(t.size),
        "lower_envelope_growing": bool(finite.size >= 2 and finite[-1] > finite[0] + 1e-9),
    }


def triangle_witnesses(dist: np.ndarray, block: int = 8) -> list[tuple[int, int, int]]:
    """Every (i, j, k), pairwise distinct, with d(i, j) > d(i, k) + d(k, j) + tol."""
    n = dist.shape[0]
    found = []
    for k0 in range(0, n, block):
        ks = np.arange(k0, min(k0 + block, n))
        via = dist[:, None, ks] + dist[ks, :].T[None, :, :]
        for i, j, kk in np.argwhere(dist[:, :, None] > via + METRIC_TOL):
            k = int(ks[kk])
            if i != j and i != k and j != k:
                found.append((int(i), int(j), k))
    return sorted(found)
