"""Scale-parametrized covers witnessing asymptotic-dimension bounds.

``interval_classify_array`` realizes the 2-family interval decomposition
of the line; ``brick_classify_array`` realizes a 3-family staggered brick
decomposition of diagram space at scale R, with a single merged set
absorbing the near-diagonal region (its bottleneck diameter stays bounded
because the diagonal shortcut caps distances at the larger persistence).
``verify_cover`` samples point pairs and checks R-disjointness and uniform
boundedness; violations are data, not errors.  It works on whole blocks of
trials at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .metrics import rounding_slack
from .oracle import DELTA, Point


@dataclass
class CoverReport:
    """Sampled verification statistics for one cover at one scale."""

    scale: float
    samples: int
    min_same_family_cross_set_distance: float
    max_set_diameter_observed: float
    uniform_bound_claimed: float
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_scale(R: float) -> None:
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError(f"R must be positive and finite, got {R}")


def interval_classify_array(t: np.ndarray, R: float) -> np.ndarray:
    """Two-family interval cover of the line at scale R.

    Coordinate t lies in interval k = floor(t / 2R), of length 2R, and
    intervals alternate families: one (k mod 2, k) column per coordinate.
    Distinct intervals of one family are 2R > R apart.  Raises ValueError
    unless R is positive and finite.
    """
    _check_scale(R)
    k = np.floor(np.asarray(t, dtype=float) / (2.0 * R))
    return np.stack([np.mod(k, 2.0), k])


def brick_classify_array(points: np.ndarray, R: float) -> np.ndarray:
    """Three-family brick cover of single-point diagram space at scale R.

    ``points`` is a (births, deaths) array whose NaN columns are DELTA.  In
    coordinates u = (birth+death)/2 and q = persistence, with L = 2R:

    - the near-diagonal set N = {q <= L} (plus DELTA) has bottleneck
      diameter <= L via the diagonal shortcut;
    - rows j >= 0 cover q in [L + jL, L + (j+1)L); row-j bricks cover
      u in [2Li + Lj, 2Li + Lj + 2L), staggered by L per row;
    - brick (i, j) gets color (2i + j) mod 3; colors 1 and 2 form families
      of separate bricks; family 0 merges N with the color-0 bricks of
      row 0 (one set of diameter <= 2L) and keeps color-0 bricks of rows
      j >= 1 as separate sets.

    Same-family distinct sets end up > 2R apart in the bottleneck metric
    and every set has diameter <= 6R.  Returns one (family, i, j) column
    per point for brick (i, j), and (0, 0, -1) for N.  Labels stay floats,
    so i and j are exact at any magnitude.  Raises ValueError unless R is
    positive and finite.
    """
    _check_scale(R)
    birth, death = points
    L = 2.0 * R
    q = (death - birth) / 2.0
    u = (birth + death) / 2.0
    j = np.floor((q - L) / L)
    i = np.floor((u - L * j) / (2.0 * L))
    # (2i + j) mod 3 from residues: 2i + j itself is inexact past 2**53.
    color = np.mod(2.0 * np.mod(i, 3.0) + np.mod(j, 3.0), 3.0)
    # A NaN q (DELTA) fails q > L.
    near = ~(q > L) | ((color == 0.0) & (j == 0.0))
    return np.where(near, np.array([[0.0], [0.0], [-1.0]]), np.stack([color, i, j]))


# Doubles that one draw of a sampler or perturber reads, at most; a trial
# reads a sample, a coin and a perturbation or second sample.
_MAX_DRAWS = 3
_TRIAL_DRAWS = 2 * _MAX_DRAWS + 1
# Trials verified per array pass; unread doubles carry into the next pass.
_BLOCK_TRIALS = 4096
# Share of sampled diagram points that are DELTA.
DELTA_PROB = 0.02
# Violations a report lists, in trial order; later ones are dropped.
MAX_RECORDED_VIOLATIONS = 100

Sampler = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
Perturber = Callable[[np.ndarray, np.ndarray, np.ndarray, float],
                     tuple[np.ndarray, np.ndarray]]


def _check_finite(extent: float, what: str) -> None:
    if not math.isfinite(extent):
        raise ValueError(f"{what} range is not finite")


def line_sampler(window: float = 1000.0) -> tuple[Sampler, Perturber]:
    """Uniform sampler on [-window, window] with a local perturber.

    Points are floats.  Each draw reads one double ``r`` and computes
    ``lo + (hi - lo) * r``, bit for bit what ``Generator.uniform(lo, hi)``
    returns for it.  Raises ValueError when ``2 * window``, or
    ``2 * scale`` for a perturbation, is not finite.
    """
    _check_finite(window - -window, "sampling")

    def sample(u: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return -window + (window - -window) * u[at], np.ones_like(at)

    def perturb(u: np.ndarray, at: np.ndarray, t: np.ndarray,
                scale: float) -> tuple[np.ndarray, np.ndarray]:
        _check_finite(scale - -scale, "perturbation")
        return t + (-scale + (scale - -scale) * u[at]), np.ones_like(at)

    return sample, perturb


def diagram_point_sampler(max_persistence: float = 1e4) -> tuple[Sampler, Perturber]:
    """Sampler over single diagram points with persistence <= max_persistence.

    Points are (births, deaths) arrays with NaN columns for DELTA.  A
    sample reads one double, and is DELTA with probability DELTA_PROB, or
    reads three and draws q = uniform(0, max_persistence), u = uniform(q,
    q + max_persistence).  The perturber reads two doubles to move a point
    in the (u, q) coordinates, or samples afresh in place of DELTA; drops
    through the diagonal become DELTA.  Raises ValueError when the largest
    coordinate sum, below ``4 * (max_persistence + scale)``, is not finite.
    """
    top = max_persistence
    _check_finite(4.0 * top, "sampling")

    def sample(u: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = 0.0 + (top - 0.0) * u[at + 1]
        mid = q + ((q + top) - q) * u[at + 2]
        early = u[at] < DELTA_PROB
        points = np.where(early | (q <= 0.0), np.nan, np.stack([mid - q, mid + q]))
        return points, np.where(early, 1, 3)

    def perturb(u: np.ndarray, at: np.ndarray, p: np.ndarray,
                scale: float) -> tuple[np.ndarray, np.ndarray]:
        _check_finite(4.0 * (top + scale), "perturbation")
        birth, death = p
        q = (death - birth) / 2.0 + (-scale + (scale - -scale) * u[at])
        mid = (birth + death) / 2.0 + (-scale + (scale - -scale) * u[at + 1])
        mid = np.maximum(mid, q)
        points = np.where(q <= 0.0, np.nan, np.stack([mid - q, mid + q]))
        used = np.full(at.size, 2)
        was_delta = np.flatnonzero(np.isnan(birth))
        points[:, was_delta], used[was_delta] = sample(u, at[was_delta])
        return points, used

    return sample, perturb


def _as_point(p: np.ndarray) -> Point | float:
    """A sampled point as a Python float, (birth, death) tuple or DELTA."""
    if p.ndim == 0:
        return float(p)
    birth, death = p.tolist()
    return DELTA if math.isnan(birth) else (birth, death)


def verify_cover(sampler: tuple[Sampler, Perturber],
                 classify: Callable[[np.ndarray, float], np.ndarray],
                 metric: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 R: float,
                 trials: int,
                 seed: int,
                 uniform_bound: float) -> CoverReport:
    """Sample point pairs and check the cover contract at scale R.

    Same-family pairs in different sets must be more than R apart;
    same-set pairs must lie within the claimed uniform bound.  Half of the
    trials use local perturbations so that same-set pairs actually occur.

    The callables work on float arrays whose last axis runs over points
    (see ``line_sampler`` and ``diagram_point_sampler``):

    - ``sampler`` is a ``(sample, perturb)`` pair.  ``sample(u, at)``
      returns the points drawn from the doubles of ``u`` starting at each
      offset in ``at``, and the count each one read; ``perturb(u, at, x,
      scale)`` does the same for perturbations of the points ``x`` within
      ``scale``.  Each reads at most three doubles.
    - ``classify(points, R)`` returns one label column per point: the
      family, then the set within the family (``interval_classify_array``,
      ``brick_classify_array``).
    - ``metric(x, y)`` returns the distances between paired points
      (``abs(x - y)`` on the line, ``bottleneck_1pt_array``).

    Trials read the doubles of ``np.random.default_rng(seed)`` in order:
    a sample, a coin, then a perturbation when the coin is below 0.5 and
    a second sample otherwise.  The first MAX_RECORDED_VIOLATIONS
    violations are listed in trial order, with points as Python floats,
    (birth, death) tuples and DELTA.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sample, perturb = sampler
    rng = np.random.default_rng(seed)
    scale = 3.0 * uniform_bound
    limit = uniform_bound + rounding_slack(uniform_bound)
    min_cross = math.inf
    max_diam = 0.0
    violations: list = []
    u = np.empty(0)
    for done in range(0, trials, _BLOCK_TRIALS):
        block = min(trials - done, _BLOCK_TRIALS)
        # Top up the carried doubles so that the block cannot run out.
        u = np.concatenate([u, rng.random(max(block * _TRIAL_DRAWS - u.size, 0))])
        # Every draw starts at an offset of `table` and reads only doubles of
        # `u`; so does every trial that starts before `count`, which all
        # trials of the block do, as each reads at most _TRIAL_DRAWS doubles.
        offsets = np.arange(u.size - _MAX_DRAWS + 1)
        table, table_used = sample(u, offsets)
        count = u.size - _TRIAL_DRAWS + 1
        at, x = offsets[:count], table[..., :count]
        nxt = at + table_used[:count]
        coin = u[nxt] < 0.5
        nxt += 1
        moved, moved_used = perturb(u, nxt, x, scale)
        y = np.where(coin, moved, np.take(table, nxt, axis=-1))
        used = np.where(coin, moved_used, table_used[nxt])
        # The trial at offset s reads steps[s] doubles; steps are small
        # ints, which Python caches, so the list and the walk are cheap.
        steps = (nxt + used - at).tolist()
        starts = [0] * block
        s = 0
        for k in range(block):
            starts[k] = s
            s += steps[s]
        u = u[s:]

        starts = np.array(starts, dtype=np.intp)
        x, y = np.take(x, starts, axis=-1), np.take(y, starts, axis=-1)
        labels = classify(np.concatenate([x, y], axis=-1), R)
        lx, ly = labels[:, :block], labels[:, block:]
        pair = np.flatnonzero(lx[0] == ly[0])
        x, y = np.take(x, pair, axis=-1), np.take(y, pair, axis=-1)
        dist = np.asarray(metric(x, y), dtype=float)
        same_set = (lx[:, pair] == ly[:, pair]).all(axis=0)
        max_diam = float(dist[same_set].max(initial=max_diam))
        min_cross = float(dist[~same_set].min(initial=min_cross))
        bad = np.where(same_set, dist > limit, dist <= R)
        for k in np.flatnonzero(bad)[:MAX_RECORDED_VIOLATIONS - len(violations)]:
            kind = "diameter_exceeded" if same_set[k] else "sets_too_close"
            violations.append((kind, _as_point(x[..., k]), _as_point(y[..., k]),
                               float(dist[k])))
    return CoverReport(
        scale=R,
        samples=trials,
        min_same_family_cross_set_distance=min_cross,
        max_set_diameter_observed=max_diam,
        uniform_bound_claimed=uniform_bound,
        violations=violations,
    )
