"""Scale-parametrized covers witnessing asymptotic-dimension bounds.

``interval_classify`` realizes the 2-family interval decomposition of the
line; ``brick_classify`` realizes a 3-family staggered brick decomposition
of diagram space at scale R, with a single merged set absorbing the
near-diagonal region (its bottleneck diameter stays bounded because the
diagonal shortcut caps distances at the larger persistence).
``verify_cover`` samples point pairs and checks R-disjointness and uniform
boundedness; violations are data, not errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional

import numpy as np

from .diagram import DELTA, Point, is_delta
from .errors import TooLarge
from .metrics import bottleneck_1pt, bottleneck_distance, wasserstein_distance
from .embeddings import embed_cube_point


@dataclass(frozen=True)
class CoverLabel:
    """(family, set) classification of a point at a fixed scale."""

    family: int
    set_id: Hashable


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


def interval_classify(t: float, R: float) -> CoverLabel:
    """Two-family interval cover of the line at scale R.

    Intervals of length 2R, alternating families; same-family distinct
    intervals are 2R > R apart.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    k = math.floor(float(t) / (2.0 * R))
    return CoverLabel(family=int(k) % 2, set_id=int(k))


def broken_interval_classify(t: float, R: float) -> CoverLabel:
    """Negative control: adjacent intervals in the same family.

    Touching sets share family 0, so cross-set distances get arbitrarily
    small and the verifier must report violations.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    return CoverLabel(family=0, set_id=int(math.floor(float(t) / (2.0 * R))))


def brick_classify(a: Point, R: float) -> CoverLabel:
    """Three-family brick cover of single-point diagram space at scale R.

    In coordinates u = (birth+death)/2 and q = persistence, with L = 2R:

    - the near-diagonal set N = {q <= L} (plus DELTA) has bottleneck
      diameter <= L via the diagonal shortcut;
    - rows j >= 0 cover q in [L + jL, L + (j+1)L); row-j bricks cover
      u in [2Li + Lj, 2Li + Lj + 2L), staggered by L per row;
    - brick (i, j) gets color (2i + j) mod 3; colors 1 and 2 form families
      of separate bricks; family 0 merges N with the color-0 bricks of
      row 0 (one set of diameter <= 2L) and keeps color-0 bricks of rows
      j >= 1 as separate sets.

    Same-family distinct sets end up > 2R apart in the bottleneck metric
    and every set has diameter <= 6R.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    if is_delta(a):
        return CoverLabel(family=0, set_id="N")
    birth, death = a
    L = 2.0 * R
    q = (death - birth) / 2.0
    if q <= L:
        return CoverLabel(family=0, set_id="N")
    u = (birth + death) / 2.0
    j = int(math.floor((q - L) / L))
    i = int(math.floor((u - L * j) / (2.0 * L)))
    color = (2 * i + j) % 3
    if color == 0 and j == 0:
        return CoverLabel(family=0, set_id="N")
    return CoverLabel(family=color, set_id=("brick", i, j))


Sampler = Callable[[np.random.Generator], object]
Perturber = Callable[[np.random.Generator, object, float], object]


def line_sampler(window: float = 1000.0) -> tuple[Sampler, Perturber]:
    """Uniform sampler on [-window, window] with a local perturber."""

    def sample(rng: np.random.Generator) -> float:
        return float(rng.uniform(-window, window))

    def perturb(rng: np.random.Generator, t, scale: float) -> float:
        return float(t + rng.uniform(-scale, scale))

    return sample, perturb


def diagram_point_sampler(max_persistence: float = 1e4,
                          delta_prob: float = 0.02) -> tuple[Sampler, Perturber]:
    """Sampler over single diagram points with persistence <= max_persistence.

    Occasionally emits DELTA.  The perturber moves a point in the (u, q)
    coordinates; drops through the diagonal become DELTA.
    """

    def sample(rng: np.random.Generator) -> Point:
        if rng.random() < delta_prob:
            return DELTA
        q = float(rng.uniform(0.0, max_persistence))
        u = float(rng.uniform(q, q + max_persistence))
        if q <= 0.0:
            return DELTA
        return (u - q, u + q)

    def perturb(rng: np.random.Generator, p, scale: float) -> Point:
        if is_delta(p):
            return sample(rng)
        birth, death = p
        q = (death - birth) / 2.0 + float(rng.uniform(-scale, scale))
        u = (birth + death) / 2.0 + float(rng.uniform(-scale, scale))
        if q <= 0.0:
            return DELTA
        u = max(u, q)
        return (u - q, u + q)

    return sample, perturb


def verify_cover(sample: Sampler,
                 classify: Callable[[object, float], CoverLabel],
                 metric: Callable[[object, object], float],
                 R: float,
                 trials: int,
                 seed: int,
                 uniform_bound: float,
                 perturb: Optional[Perturber] = None,
                 max_recorded_violations: int = 100) -> CoverReport:
    """Sample point pairs and check the cover contract at scale R.

    Same-family pairs in different sets must be more than R apart;
    same-set pairs must lie within the claimed uniform bound.  Half of the
    trials use local perturbations (when a perturber is given) so that
    same-set pairs actually occur.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    min_cross = math.inf
    max_diam = 0.0
    violations: list = []
    for _ in range(trials):
        x = sample(rng)
        if perturb is not None and rng.random() < 0.5:
            y = perturb(rng, x, 3.0 * uniform_bound)
        else:
            y = sample(rng)
        lx = classify(x, R)
        ly = classify(y, R)
        if lx.family != ly.family:
            continue
        dxy = float(metric(x, y))
        if lx.set_id == ly.set_id:
            max_diam = max(max_diam, dxy)
            if dxy > uniform_bound + 1e-9 and len(violations) < max_recorded_violations:
                violations.append(("diameter_exceeded", x, y, dxy))
        else:
            min_cross = min(min_cross, dxy)
            if dxy <= R and len(violations) < max_recorded_violations:
                violations.append(("sets_too_close", x, y, dxy))
    return CoverReport(
        scale=R,
        samples=trials,
        min_same_family_cross_set_distance=min_cross,
        max_set_diameter_observed=max_diam,
        uniform_bound_claimed=uniform_bound,
        violations=violations,
    )


@dataclass(frozen=True)
class CubeDemoReport:
    """Distance preservation statistics for sampled cube embeddings."""

    n: int
    R: float
    samples: int
    p: Optional[float]
    max_deviation: float


def lower_bound_demo(n: int, R: float, samples: int,
                     p: Optional[float] = None, seed: int = 0) -> CubeDemoReport:
    """Certify the cube-embedding hypothesis behind the lower bound.

    Samples point pairs in [0, R]^n, embeds them, and reports the largest
    deviation between diagram distance and the cube distance (sup metric
    for p=None, l_p otherwise).  Restricted to n <= 3 to keep the exact
    solvers comfortable.
    """
    if n < 1 or n > 3:
        raise TooLarge("lower_bound_demo supports 1 <= n <= 3")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.uniform(0.0, R, size=n)
        y = rng.uniform(0.0, R, size=n)
        dx = embed_cube_point(x, R)
        dy = embed_cube_point(y, R)
        if p is None:
            value = bottleneck_distance(dx, dy)
            ref = float(np.max(np.abs(x - y)))
        else:
            value = wasserstein_distance(dx, dy, p)
            ref = float(np.sum(np.abs(x - y) ** p) ** (1.0 / p))
        worst = max(worst, abs(value - ref))
    return CubeDemoReport(n=n, R=float(R), samples=samples, p=p, max_deviation=worst)
