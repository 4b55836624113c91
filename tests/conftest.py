"""Shared generators for randomized tests."""

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


def sandwich_holds(z, w, p):
    """d_B <= d_W,p <= (2 max(n, m))^(1/p) d_B, both sides within rounding_slack.

    The slack is taken at the larger side, max(d_W, factor * d_B).
    """
    d_b = bottleneck_distance(z, w)
    d_w = wasserstein_distance(z, w, p)
    factor = (2 * max(len(z), len(w))) ** (1.0 / p)
    slack = rounding_slack(max(d_w, factor * d_b))
    return d_b <= d_w + slack and d_w <= factor * d_b + slack


def padded_cost(z, w, width):
    """Point-by-point ``delta`` costs of z and w, each padded with DELTA to width."""
    left = z.points + (DELTA,) * (width - len(z))
    right = w.points + (DELTA,) * (width - len(w))
    return np.array([[delta(a, b) for b in right] for a in left]).reshape(width, width)


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
