"""Explicit embeddings of metric spaces into diagram space.

Finite metric spaces embed isometrically via one diagram point per
reference index; cubes embed coordinatewise along disjoint birth bands;
coarse disjoint unions are realized by inflating each block's embedding
scale and spacing the blocks along the diagonal.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .diagram import Diagram
from .errors import (
    DegenerateDiameter,
    EmptySpace,
    MetricValidationError,
    NonpositiveSeparation,
    OutOfCube,
    SizeMismatch,
    TooLarge,
)
from .metrics import distance_matrix, rounding_slack

_PAIR_KINDS = ("not_symmetric", "negative", "zero_off_diagonal")
_BLOCK_CELLS = 1 << 16


def _rows_per_block(n: int) -> int:
    """Rows of n cells in a block of about _BLOCK_CELLS, for the (n, n) loops that go by blocks."""
    return max(1, _BLOCK_CELLS // max(n, 1))


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Labeled point set with a distance matrix; only validate_metric checks the axioms.

    dist is held read-only.  A read-only float64 array that owns its data is
    kept as it is, which is how validate_metric, zkm_space and
    coarse_disjoint_union hand over the matrix they built; anything else is
    copied, so a caller's array is neither frozen nor shared.
    """

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self) -> None:
        mat = self.dist
        if not (isinstance(mat, np.ndarray) and mat.dtype == np.float64
                and mat.base is None and not mat.flags.writeable):
            mat = np.array(mat, dtype=float)
            mat.flags.writeable = False
        object.__setattr__(self, "dist", mat)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if mat.shape != (len(self.labels), len(self.labels)):
            raise ValueError("distance matrix shape does not match labels")

    @property
    def n_points(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n_points else 0.0


def validate_metric(matrix, labels: Optional[Sequence[str]] = None) -> FiniteMetricSpace:
    """Check all metric axioms, collecting every violation with a witness.

    The symmetric and triangle checks allow rounding_slack of the largest
    finite |entry|, as one scalar: d(i,j) fails only when it exceeds
    (d(i,k) + d(k,j)) + slack.  An entry counts as zero within 1e-9, the
    rounding_slack of every value that small.  Raises
    MetricValidationError listing violations: non_finite, then
    nonzero_diagonal, then the per-pair kinds, then triangle by k; the
    error class gives the exact order and the witness tuples.

    The triangle check by k runs only on the rows that an exact screen
    flags, so a metric runs none.  With lo = fmin(d, d.T), hi = fmax(d, d.T)
    and best(i,j) = fmin over all k of lo(i,k) + lo(k,j), rows i and j are
    flagged when hi(i,j) > best(i,j) + slack.  No violation d(i,j) >
    (d(i,k) + d(k,j)) + slack is missed: hi(i,j) >= d(i,j), and float
    addition is monotone, so best(i,j) + slack <= (lo(i,k) + lo(k,j)) +
    slack <= (d(i,k) + d(k,j)) + slack.  fmin skips a NaN sum of lo; that
    needs two NaN entries or an inf in the triple, and then d(i,k) + d(k,j)
    is NaN or inf, which no entry exceeds.
    """
    mat = np.array(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    mat.flags.writeable = False  # the returned space takes it without a copy
    n = mat.shape[0]
    if labels is None:
        labels = [f"x{i}" for i in range(n)]
    violations: list[tuple] = [
        ("non_finite", i, j) for i, j in np.argwhere(~np.isfinite(mat)).tolist()]
    # |x| <= rounding_slack(x) only for |x| <= 1e-9, as |x| > 8 ulp(|x|) for x != 0
    zero = rounding_slack(0.0)
    slack = rounding_slack(np.abs(mat[np.isfinite(mat)]).max(initial=0.0))
    violations += [("nonzero_diagonal", i)
                   for i in np.flatnonzero(np.abs(np.diagonal(mat)) > zero).tolist()]
    with np.errstate(invalid="ignore", over="ignore"):  # an overflow to inf compares correctly
        pair = np.stack([np.abs(mat - mat.T) > slack, mat < -zero, np.abs(mat) <= zero],
                        axis=-1)
        pair &= ~np.tri(n, dtype=bool)[:, :, None]
        violations += [(_PAIR_KINDS[c], i, j) for i, j, c in np.argwhere(pair).tolist()]
        rows = _triangle_rows(mat, slack).tolist()
        sub = mat[rows]
        via, bad = np.empty_like(sub), np.empty(sub.shape, dtype=bool)
        for k in range(n) if rows else ():  # via = (d(i,k) + d(k,j)) + slack
            np.copyto(via, mat[k])
            via += sub[:, k, None]
            via += slack
            np.greater(sub, via, out=bad)
            if bad.any():
                violations += [("triangle", rows[r], j, k) for r, j in np.argwhere(bad).tolist()
                               if rows[r] != j and rows[r] != k and j != k]
    if violations:
        raise MetricValidationError(violations)
    return FiniteMetricSpace(tuple(labels), mat)


def _triangle_rows(mat: np.ndarray, slack: float) -> np.ndarray:
    """Ascending rows flagged by validate_metric's triangle screen (see there).

    lo and best are symmetric, so only j >= i is filled, one row i at a
    time, from blocks of the contiguous rows lo[j] (lo(k,j) = lo(j,k)) small
    enough to stay in cache.  Call it under np.errstate(invalid="ignore",
    over="ignore"), as validate_metric does.
    """
    n = len(mat)
    step = _rows_per_block(n)
    lo = np.fmin(mat, mat.T)
    best = np.zeros_like(mat)
    buf = np.empty((min(step, n), n))
    for i in range(n):
        for j in range(i, n, step):
            terms = np.add(lo[j:j + step], lo[i], out=buf[:min(step, n - j)])
            np.fmin.reduce(terms, axis=1, out=best[i, j:j + step])
    flag = np.triu(np.fmax(mat, mat.T) > best + slack)
    return np.flatnonzero(flag.any(axis=0) | flag.any(axis=1))


def check_isometry(X: FiniteMetricSpace, diagrams: Sequence[Diagram]) -> float:
    """Max absolute deviation between source and diagram bottleneck distances."""
    if len(diagrams) != X.n_points:
        raise SizeMismatch(f"{len(diagrams)} diagrams for {X.n_points} points")
    iu = np.triu_indices(X.n_points, 1)
    image = distance_matrix(diagrams)
    return float(np.abs(image[iu] - X.dist[iu]).max(initial=0.0))


def isometry_tolerance(diagrams: Sequence[Diagram]) -> float:
    """Rounding slack of an isometric image: rounding_slack(top), top the largest death."""
    return rounding_slack(max((d for dgm in diagrams for _, d in dgm.points), default=0.0))


def embed_finite_metric(X: FiniteMetricSpace) -> list[Diagram]:
    """Isometric embedding of a finite metric space into diagram space.

    Point x_k maps to the diagram {(3*rho*i, 3*rho*i + 3*rho + d(x_k, x_i))
    for i = 1..n} where rho is the diameter.  A single-point space maps to
    one empty diagram.
    """
    n = X.n_points
    if n == 0:
        raise EmptySpace("cannot embed an empty space")
    diam = X.diameter
    if n > 1 and diam <= 0.0:
        raise DegenerateDiameter("multi-point space with zero diameter")
    return _metric_diagrams(X.dist, diam, 0.0)


def _metric_diagrams(dist: np.ndarray, rho: float, off: float) -> list[Diagram]:
    """``embed_finite_metric``'s diagrams at scale rho, both coordinates shifted by off."""
    with np.errstate(over="ignore"):  # Diagram rejects an overflow to inf
        births = 3.0 * rho * np.arange(1, dist.shape[1])
        deaths = (births + 3.0 * rho + dist[:, 1:] + off).tolist()
        births = (births + off).tolist()
    return [Diagram(tuple(zip(births, row))) for row in deaths]


def embed_cube_point(x: Sequence[float], R: float) -> Diagram:
    """Embed a point of the cube [0, R]^n as an n-point diagram.

    Coordinate i (1-based) becomes the diagram point (2iR, 2(i+1)R + x_i).
    Images of two cube points realize their sup distance under the
    bottleneck metric and their l_p distance under the p-Wasserstein.
    """
    R = float(R)
    if R <= 0.0:
        raise ValueError("R must be positive")
    xs = [float(v) for v in x]
    for v in xs:
        if v < 0.0 or v > R:
            raise OutOfCube(f"coordinate {v} outside [0, {R}]")
    pts = tuple(
        (2.0 * i * R, 2.0 * (i + 1) * R + xi) for i, xi in enumerate(xs, start=1)
    )
    return Diagram(pts)


def sup_distances(coords, period: float = math.inf) -> np.ndarray:
    """max over i of min(|x_i - y_i|, period - |x_i - y_i|), for all pairs of rows x, y of coords.

    A running max over the columns, a block of rows at a time, so the only
    (n, n) array is the result.
    """
    n = len(coords)
    dist = np.zeros((n, n))
    step = _rows_per_block(n)
    for lo in range(0, n, step):
        out = dist[lo:lo + step]
        for col in coords.T:
            diff = col[lo:lo + step, None] - col
            np.abs(diff, out=diff)
            np.maximum(out, np.minimum(diff, period - diff, out=diff), out=out)
    return dist


def _point_cap() -> int:
    """COARSE_PD_MAX_POINTS (default 4096), the cap on generated points and on profile bins."""
    raw = os.environ.get("COARSE_PD_MAX_POINTS", "4096")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"COARSE_PD_MAX_POINTS must be a positive integer, got {raw!r}")
    return cap


def _check_cap(total: int, prefix: str = "") -> int:
    """Raise TooLarge when total exceeds the point cap; return the cap."""
    cap = _point_cap()
    if total > cap:
        raise TooLarge(f"{prefix}{total} points exceeds cap {cap}")
    return cap


def _grid_points(k: int, m: int) -> int:
    """Size k ** m of (Z_k)^m, built only for k, m <= cap and, if k > 1, m <= cap.bit_length()."""
    cap = _check_cap(k, f"{k}^{m} >= ")
    if k >= 2 and m > cap.bit_length():  # k ** m >= 2 ** m > cap
        raise TooLarge(f"{k}^{m} points exceeds cap {cap}")
    if m > cap:  # (Z_1)^m has one point, but its label has m coordinates
        raise TooLarge(f"M = {m} exceeds cap {cap}")
    return k ** m


def zkm_space(k: int, m: int) -> FiniteMetricSpace:
    """The m-fold product of the cyclic group Z_k with the max metric.

    Coordinates carry the cyclic word metric min(|i-j|, k-|i-j|); the
    product distance is the max over coordinates.  Raises TooLarge above
    the COARSE_PD_MAX_POINTS cap.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    _check_cap(_grid_points(k, m), f"{k}^{m} = ")
    coords = np.array(list(itertools.product(range(k), repeat=m)), dtype=np.int32)
    labels = ["-".join(str(c) for c in row) for row in coords]
    dist = sup_distances(coords, period=k)
    dist.flags.writeable = False  # the space takes it without a copy
    return FiniteMetricSpace(tuple(labels), dist)


@dataclass(frozen=True, eq=False)
class BlockedSpace:
    """Coarse disjoint union of finite metric spaces, stored as its metric.

    Block i is the points offsets[i]:offsets[i + 1] of space, whose distances
    within a block are the block's own and across blocks c_i + c_j, with
    radius[i] = c_i = diam(block i) + s_i.  block_meta is free per-block data.
    """

    space: FiniteMetricSpace
    offsets: tuple[int, ...]
    radius: tuple[float, ...]
    block_meta: tuple = ()


def coarse_disjoint_union(blocks: Sequence[FiniteMetricSpace],
                          separations: Sequence[float],
                          block_meta: tuple = ()) -> BlockedSpace:
    """Assemble a coarse disjoint union with cross distances c_i + c_j.

    Every block needs a point (EmptySpace otherwise).  c_i = diam_i + s_i,
    from strictly positive separations s_i that keep 2 max c_i finite.  A
    union of metric blocks is then a metric, exactly, so it is not validated
    again: cross entries are symmetric, positive and c_i + c_j >= diam_i, and
    as float addition is monotone, c_i + c_j <= d(x, y) + (c_i + c_j) and
    c_i + c_j <= (c_i + c_k) + (c_k + c_j).
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    if len(separations) != len(blocks):
        raise ValueError("one separation per block required")
    sizes = [b.n_points for b in blocks]
    if 0 in sizes:
        raise EmptySpace(f"block {sizes.index(0)} has no points")
    seps = [float(s) for s in separations]
    radius = tuple(b.diameter + s for b, s in zip(blocks, seps))
    # np.max, unlike max, propagates a NaN c_i from any position
    if not (all(s > 0.0 for s in seps) and math.isfinite(2.0 * float(np.max(radius)))):
        raise NonpositiveSeparation(f"separations must be > 0 with 2 max c_i finite, got {seps}")
    per_point = np.repeat(radius, sizes)
    dist = per_point[:, None] + per_point
    offsets = tuple(itertools.accumulate(sizes, initial=0))
    for b, lo, hi in zip(blocks, offsets, offsets[1:]):
        dist[lo:hi, lo:hi] = b.dist
    dist.flags.writeable = False  # the space takes it without a copy
    labels = [f"{bi}:{lab}" for bi, b in enumerate(blocks) for lab in b.labels]
    return BlockedSpace(FiniteMetricSpace(tuple(labels), dist), offsets, radius, block_meta)


def dranishnikov_S(max_n: int, max_m: int) -> BlockedSpace:
    """Truncation of the disjoint union of the spaces (Z_n)^m.

    Blocks are (Z_n)^m for 1 <= n <= max_n, 1 <= m <= max_m under the
    separation rule s = m + n + 1, so cross distances strictly exceed
    m + n + m' + n'.  block_meta records (n, m) per block.  Raises
    TooLarge above the COARSE_PD_MAX_POINTS cap.
    """
    if max_n < 1 or max_m < 1:
        raise ValueError("max_n and max_m must be >= 1")
    _check_cap(max_n * max_m, "at least ")  # every block has a point
    dims = [(n, m) for n in range(1, max_n + 1) for m in range(1, max_m + 1)]
    _check_cap(sum(_grid_points(n, m) for n, m in dims))
    blocks = [zkm_space(n, m) for n, m in dims]
    seps = [float(m + n + 1) for n, m in dims]
    return coarse_disjoint_union(blocks, seps, block_meta=tuple(dims))


@dataclass(frozen=True)
class CrossSeparation:
    """Realized vs required bottleneck separation between two blocks."""

    block_i: int
    block_j: int
    required: float
    realized_min: float


@dataclass(frozen=True)
class UnionEmbedding:
    """Diagrams realizing a coarse disjoint union, with verification data."""

    diagrams: tuple[Diagram, ...]
    intra_max_deviation: float
    cross: tuple[CrossSeparation, ...]

    @property
    def cross_ok(self) -> bool:
        return all(c.realized_min >= c.required - rounding_slack(c.required) for c in self.cross)


def embed_coarse_union(U: BlockedSpace) -> UnionEmbedding:
    """Embed a coarse disjoint union into diagram space.

    Each block is embedded at scale C, the largest required cross distance
    or, with one block, its own c_0 = diam + s; either way C exceeds every
    block diameter.  Blocks are shifted along the diagonal into birth bands
    separated by 2C.  Every cross-block matching then costs at least
    min(band gap, 1.5 * C) >= C, so cross bottleneck distances dominate
    the required separations; intra-block distances stay exact.  A
    single-point block gets one anchor point of persistence 1.5 * C in its
    band (an empty diagram would collapse cross distances to zero).  Each
    block's distances, its intra deviation and every cross minimum are
    slices of U.space.dist and of the image, taken at U.offsets.
    """
    c, dist = U.radius, U.space.dist
    blocks = [slice(lo, hi) for lo, hi in zip(U.offsets, U.offsets[1:])]
    pairs = list(itertools.combinations(range(len(blocks)), 2))
    big_c = max((c[i] + c[j] for i, j in pairs), default=c[0])
    diagrams: list[Diagram] = []
    off = 0.0
    for b in blocks:
        n = b.stop - b.start
        # a single point's anchor is the diagram it would get beside a copy of itself
        diagrams += _metric_diagrams(dist[b, b] if n > 1 else np.zeros((1, 2)), big_c, off)
        off += 3.0 * max(n - 1, 1) * big_c + 2.0 * big_c
    image = distance_matrix(diagrams)
    intra = float(np.max([np.abs(image[b, b] - dist[b, b]).max() for b in blocks]))
    cross = tuple(CrossSeparation(i, j, c[i] + c[j], float(image[blocks[i], blocks[j]].min()))
                  for i, j in pairs)
    return UnionEmbedding(tuple(diagrams), intra, cross)
