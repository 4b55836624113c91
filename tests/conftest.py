"""Shared generators for randomized tests."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from coarsepd import (
    DELTA,
    Diagram,
    bottleneck_distance,
    validate_metric,
    wasserstein_distance,
)
from coarsepd.metrics import rounding_slack
from coarsepd.oracle import delta


def random_diagram(rng, max_size=5, scale=10.0, size=None):
    """Random diagram with points in a [0, 2*scale] box above the diagonal."""
    if size is None:
        size = int(rng.integers(0, max_size + 1))
    pts = []
    for _ in range(size):
        b = float(rng.uniform(0.0, scale))
        d = b + float(rng.uniform(1e-3, scale))
        pts.append((b, d))
    return Diagram(pts)


def diagram_sets(seed, sets, max_size, draw):
    """``sets`` seeded sets of 8 diagrams of 0 to max_size points each.

    ``draw(rng, k)`` returns the k births and the k lengths of one diagram.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(sets):
        dgms = []
        for _ in range(8):
            births, lengths = draw(rng, int(rng.integers(0, max_size + 1)))
            dgms.append(Diagram(list(zip(births.tolist(), (births + lengths).tolist()))))
        out.append(dgms)
    return out


def grid_sets():
    """200 sets of 8 integer-grid diagrams, 0-5 points: births below 9, lengths 1-4."""
    return diagram_sets(0, 200, 5, lambda rng, k: (rng.integers(0, 9, k), rng.integers(1, 5, k)))


def float_sets():
    """300 sets of 8 diagrams, 0-10 points: births in [0, 10), lengths in [0.05, 4)."""
    return diagram_sets(5, 300, 10, lambda rng, k: (rng.uniform(0, 10, k),
                                                    rng.uniform(0.05, 4, k)))


def sandwich_holds(z, w, p):
    """d_B <= d_W,p <= (n + m)^(1/p) d_B, both sides within rounding_slack.

    A matching has at most n + m pairs off the diagonal, each costing at
    most d_B in an optimal bottleneck matching.  The slack is taken at the
    larger side, max(d_W, factor * d_B).
    """
    d_b = bottleneck_distance(z, w)
    d_w = wasserstein_distance(z, w, p)
    factor = (len(z) + len(w)) ** (1.0 / p)
    slack = rounding_slack(max(d_w, factor * d_b))
    return d_b <= d_w + slack and d_w <= factor * d_b + slack


def padded_cost(z, w, width):
    """Point-by-point ``delta`` costs of z and w, each padded with DELTA to width."""
    left = z.points + (DELTA,) * (width - len(z))
    right = w.points + (DELTA,) * (width - len(w))
    return np.array([[delta(a, b) for b in right] for a in left]).reshape(width, width)


def exact_wasserstein_power(z, w, p):
    """Exact minimum of the sum of cost ** p over the permutations of n + m slots.

    For an integer p and n + m <= 10.  Costs are built in Fractions from the
    exact coordinates, so neither their float rounding nor any rescaling
    enters; a subset dynamic program over the columns takes the minimum.
    """
    assert len(z) + len(w) <= 10 and p == int(p)
    left = [tuple(map(Fraction, q)) for q in z.points] + [None] * len(w)
    right = [tuple(map(Fraction, q)) for q in w.points] + [None] * len(z)

    def cost(a, b):
        if a is None and b is None:
            return Fraction(0)
        if a is None or b is None:
            birth, death = a or b
            return (death - birth) / 2
        return max(abs(a[0] - b[0]), abs(a[1] - b[1]))

    rows = [[cost(a, b) ** p for b in right] for a in left]
    k = len(rows)
    h = [Fraction(0)] * (1 << k)  # h[S]: first |S| rows on the columns in S
    for S in range(1, 1 << k):
        row = rows[S.bit_count() - 1]
        h[S] = min(h[S & ~(1 << j)] + row[j] for j in range(k) if S >> j & 1)
    return h[-1]


def within_ulps_of_root(value, power_sum, p, ulps=4):
    """(value - ulps ulp)^p <= power_sum <= (value + ulps ulp)^p, exactly in Fractions.

    The lower end is clipped at zero.
    """
    step = ulps * Fraction(float(np.spacing(value)))
    low = max(Fraction(value) - step, Fraction(0))
    return low ** p <= power_sum <= (Fraction(value) + step) ** p


def random_connected_metric(rng, n):
    """Shortest-path metric of a random connected weighted graph on n points."""
    weights = np.full((n, n), np.inf)
    np.fill_diagonal(weights, 0.0)
    order = rng.permutation(n)
    for k in range(1, n):
        a = order[k]
        b = order[int(rng.integers(0, k))]
        w = float(rng.uniform(0.5, 2.0))
        weights[a, b] = weights[b, a] = w
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            w = float(rng.uniform(0.5, 2.0))
            weights[a, b] = weights[b, a] = min(weights[a, b], w)
    dist = shortest_path(np.where(np.isinf(weights), 0.0, weights), method="D",
                         directed=False, unweighted=False)
    return validate_metric(dist)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def solves(monkeypatch):
    """Shapes of the cost matrices passed to scipy's linear_sum_assignment."""
    import scipy.optimize

    calls = []
    solve = scipy.optimize.linear_sum_assignment

    def counted(cost):
        calls.append(cost.shape)
        return solve(cost)

    # Both solver imports are local to the call, so they see the patch.
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    return calls
