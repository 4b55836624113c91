"""Envelope profiling and isometry deviation checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsepd import (
    Diagram,
    EmptySpace,
    FiniteMetricSpace,
    MetricValidationError,
    SizeMismatch,
    TooLarge,
    check_isometry,
    distance_matrix,
    embed_finite_metric,
    profile_map,
    validate_metric,
)
from conftest import random_connected_metric


def reference_bins(t, s, bin_width):
    """Per-bin min and max of s over the pairs whose t falls in the bin, NaN if none."""
    nbins = int(np.floor(t.max() / bin_width)) + 1
    idx = np.minimum((t / bin_width).astype(int), nbins - 1)
    mins, maxs = np.full(nbins, np.nan), np.full(nbins, np.nan)
    for b in range(nbins):
        if (idx == b).any():
            mins[b], maxs[b] = s[idx == b].min(), s[idx == b].max()
    return mins, maxs


class TestProfileMap:
    def test_identity_envelopes_within_one_bin(self, rng):
        # For the identity map both envelopes track the source distance, so
        # they can only disagree by the bin resolution.
        X = random_connected_metric(rng, 6)
        prof = profile_map(X, X.dist)
        mask = ~np.isnan(prof.rho1)
        assert np.all(prof.rho2[mask] - prof.rho1[mask] <= prof.bin_width + 1e-9)
        assert prof.lower_envelope_growing

    def test_constant_map(self, rng):
        X = random_connected_metric(rng, 5)
        prof = profile_map(X, np.zeros_like(X.dist))
        mask = ~np.isnan(prof.rho2)
        assert np.all(prof.rho2[mask] == 0.0)
        assert not prof.lower_envelope_growing

    def test_embedding_profile_is_identity(self, rng):
        X = random_connected_metric(rng, 8)
        diagrams = embed_finite_metric(X)
        image = distance_matrix(diagrams)
        prof = profile_map(X, image)
        mask = ~np.isnan(prof.rho1)
        assert np.all(prof.rho2[mask] - prof.rho1[mask] <= prof.bin_width + 1e-9)
        assert prof.lower_envelope_growing

    def test_envelopes_bracket_pairs(self, rng):
        X = random_connected_metric(rng, 7)
        image = X.dist * 2.0
        prof = profile_map(X, image)
        bins = np.minimum((prof.source_distances / prof.bin_width).astype(int),
                          len(prof.rho1) - 1)
        assert np.all(prof.rho1[bins] <= prof.image_distances + 1e-12)
        assert np.all(prof.image_distances <= prof.rho2[bins] + 1e-12)

    def test_envelopes_nondecreasing(self, rng):
        X = random_connected_metric(rng, 8)
        prof = profile_map(X, rng.uniform(size=X.dist.shape))
        for rho in (prof.rho1, prof.rho2):
            finite = rho[~np.isnan(rho)]
            assert np.all(np.diff(finite) >= -1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2**32 - 1), st.integers(1, 400))
    def test_equals_per_bin_reference(self, n, seed, bins):
        rng = np.random.default_rng(seed)
        # Distances in [10, 20] always form a metric and leave the low bins empty.
        upper = np.triu(rng.integers(10, 21, size=(n, n)), 1).astype(float)
        X = validate_metric(upper + upper.T)
        image = rng.uniform(0.0, 5.0, size=(n, n))
        prof = profile_map(X, image, bins)
        bin_width = float(upper.max()) / bins
        assert prof.bin_width == bin_width
        iu = np.triu_indices(n, 1)
        mins, maxs = reference_bins(X.dist[iu], image[iu], bin_width)
        empty = np.isnan(mins)
        rho1 = np.fmin.accumulate(mins[::-1])[::-1]
        rho2 = np.fmax.accumulate(maxs)
        assert np.array_equal(np.isnan(prof.rho1), empty)
        assert np.array_equal(np.isnan(prof.rho2), empty)
        assert np.array_equal(prof.rho1[~empty], rho1[~empty])
        assert np.array_equal(prof.rho2[~empty], rho2[~empty])

    def test_single_point_rejected(self):
        X = validate_metric([[0.0]])
        with pytest.raises(EmptySpace):
            profile_map(X, [[0.0]])

    @pytest.mark.parametrize("bins", [0.0, -1.0])
    def test_nonpositive_bin_width(self, rng, bins):
        # a bin count <= 0 would give a bin width <= 0
        X = random_connected_metric(rng, 4)
        with pytest.raises(ValueError, match="^bins must be positive$"):
            profile_map(X, X.dist, bins)

    def test_too_many_bins_rejected(self, rng, monkeypatch):
        monkeypatch.setenv("COARSE_PD_MAX_POINTS", "4096")
        X = random_connected_metric(rng, 4)
        # A count beyond the float range, and one whose bin width underflows to 0.
        tiny = FiniteMetricSpace(("a", "b"), [[0.0, 1e-300], [1e-300, 0.0]])
        for space, bins in ((X, 10**300), (X, 10**400), (tiny, 10**30)):
            with pytest.raises(TooLarge, match="^.* bins exceeds cap 4096$"):
                profile_map(space, space.dist, bins)

    @pytest.mark.parametrize("distance", [0.0, 5e-324])
    def test_zero_bin_width_falls_back_to_one(self, distance):
        # tmax / bins is 0 for tmax 0, and underflows to 0 at the smallest subnormal
        X = FiniteMetricSpace(("a", "b"), [[0.0, distance], [distance, 0.0]])
        prof = profile_map(X, X.dist, 2)
        assert prof.bin_width == 1.0 and prof.bin_edges.tolist() == [0.0, 1.0]

    def test_shape_mismatch(self, rng):
        X = random_connected_metric(rng, 4)
        with pytest.raises(SizeMismatch):
            profile_map(X, np.zeros((3, 3)))

    def test_non_finite_image_rejected(self):
        X = validate_metric([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        image = X.dist.copy()
        image[0, 2] = np.nan
        image[1, 0] = np.inf
        image[2, 1] = -np.inf
        with pytest.raises(MetricValidationError) as exc:
            profile_map(X, image)
        assert exc.value.violations == [("non_finite", 0, 2), ("non_finite", 1, 0),
                                        ("non_finite", 2, 1)]


class TestCheckIsometry:
    def test_embedding_deviation_small(self, rng):
        X = random_connected_metric(rng, 6)
        diagrams = embed_finite_metric(X)
        assert check_isometry(X, diagrams) <= 1e-9

    def test_empty_diagrams_deviation_is_diameter(self, rng):
        X = random_connected_metric(rng, 5)
        diagrams = [Diagram() for _ in range(5)]
        assert check_isometry(X, diagrams) == pytest.approx(X.diameter)

    def test_single_point(self):
        X = validate_metric([[0.0]])
        assert check_isometry(X, [Diagram()]) == 0.0

    def test_size_mismatch(self, rng):
        X = random_connected_metric(rng, 4)
        with pytest.raises(SizeMismatch):
            check_isometry(X, [Diagram()])

