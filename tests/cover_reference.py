"""Per-point references for the package's covers and single-point metric.

Plain Python on one point at a time, sharing no code with
``coarsepd.cover`` or ``coarsepd.metrics``.  A label is a
``(family, set_id)`` tuple.
"""

import math

import numpy as np

from coarsepd.oracle import is_delta


def as_columns(points):
    """Scalar points as the (births, deaths) array of the array forms."""
    return np.array([(math.nan, math.nan) if is_delta(p) else p for p in points],
                    dtype=float).reshape(-1, 2).T


def interval_classify(t, R):
    """Interval k = floor(t / 2R) of the line, in family k mod 2."""
    k = math.floor(t / (2.0 * R))
    return k % 2, k


def broken_interval_classify(t, R):
    """Negative control: every interval in family 0, so adjacent sets touch."""
    return 0, math.floor(t / (2.0 * R))


def broken_interval_classify_array(t, R):
    """``broken_interval_classify`` of each coordinate: one (0, k) column each."""
    k = np.floor(np.asarray(t, dtype=float) / (2.0 * R))
    return np.stack([np.zeros_like(k), k])


def brick_classify(a, R):
    """Brick (i, j) of the cover that ``brick_classify_array`` documents, or "N"."""
    if is_delta(a):
        return 0, "N"
    birth, death = a
    L = 2.0 * R
    q = (death - birth) / 2.0
    if q <= L:
        return 0, "N"
    u = (birth + death) / 2.0
    j = math.floor((q - L) / L)
    i = math.floor((u - L * j) / (2.0 * L))
    color = (2 * i + j) % 3
    if color == 0 and j == 0:
        return 0, "N"
    return color, ("brick", i, j)


def bottleneck_1pt(a, b):
    """Bottleneck distance of singleton diagrams, DELTA being the empty one."""
    pa = 0.0 if is_delta(a) else (a[1] - a[0]) / 2.0
    pb = 0.0 if is_delta(b) else (b[1] - b[0]) / 2.0
    if is_delta(a):
        return pb
    if is_delta(b):
        return pa
    return min(max(abs(a[0] - b[0]), abs(a[1] - b[1])), max(pa, pb))
