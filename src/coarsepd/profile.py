"""Empirical coarse-map diagnostics: distance envelopes of a map."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptySpace, MetricValidationError, SizeMismatch
from .embeddings import FiniteMetricSpace


@dataclass(frozen=True, eq=False)
class CoarseProfile:
    """Lower/upper distance envelopes of a map between finite metric data.

    For every recorded pair, rho1(bin(t)) <= image distance <= rho2(bin(t));
    both envelopes are nondecreasing after monotone regularization (running
    min from the right for rho1, running max from the left for rho2).
    Empty bins hold NaN.  ``lower_envelope_growing`` is a finite-sample
    proxy for the lower envelope tending to infinity.
    """

    source_distances: np.ndarray
    image_distances: np.ndarray
    bin_edges: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    bin_width: float
    lower_envelope_growing: bool


def profile_map(X: FiniteMetricSpace, image_dist,
                bin_width: Optional[float] = None) -> CoarseProfile:
    """Envelope profile of a map given source and image pairwise distances.

    image_dist must be an |X| x |X| matrix indexed consistently with X;
    NaN or infinite entries raise MetricValidationError with their
    ("non_finite", i, j) witnesses in row-major order.  Default bin width
    is (max source distance) / 64.
    """
    n = X.n_points
    if n < 2:
        raise EmptySpace("profiling needs at least two points")
    image = np.array(image_dist, dtype=float)
    if image.shape != X.dist.shape:
        raise SizeMismatch(f"image shape {image.shape} != source shape {X.dist.shape}")
    bad = np.argwhere(~np.isfinite(image)).tolist()
    if bad:
        raise MetricValidationError([("non_finite", i, j) for i, j in bad])
    iu = np.triu_indices(n, 1)
    t = X.dist[iu]
    s = image[iu]
    tmax = float(t.max())
    if bin_width is None:
        bin_width = tmax / 64.0 if tmax > 0.0 else 1.0
    if bin_width <= 0.0:
        raise ValueError("bin_width must be positive")
    nbins = int(np.floor(tmax / bin_width)) + 1
    idx = np.minimum((t / bin_width).astype(int), nbins - 1)
    mins = np.full(nbins, np.nan)
    maxs = np.full(nbins, np.nan)
    np.fmin.at(mins, idx, s)
    np.fmax.at(maxs, idx, s)
    empty = np.isnan(mins)
    rho1 = np.fmin.accumulate(mins[::-1])[::-1]
    rho2 = np.fmax.accumulate(maxs)
    rho1[empty] = np.nan
    rho2[empty] = np.nan
    edges = np.arange(nbins + 1) * bin_width
    finite = rho1[~np.isnan(rho1)]
    growing = bool(finite.size >= 2 and finite[-1] > finite[0] + 1e-9)
    return CoarseProfile(
        source_distances=t,
        image_distances=s,
        bin_edges=edges,
        rho1=rho1,
        rho2=rho2,
        bin_width=float(bin_width),
        lower_envelope_growing=growing,
    )

