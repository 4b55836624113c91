"""Point metric, canonicalization and augmentation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coarsepd import (
    DELTA,
    Diagram,
    InvalidPoint,
    augment,
    canonicalize,
    delta,
    is_delta,
    persistence,
)


def plane_points():
    return st.tuples(
        st.floats(0.0, 100.0, allow_nan=False),
        st.floats(1e-3, 100.0, allow_nan=False),
    ).map(lambda t: (t[0], t[0] + t[1]))


def points():
    return st.one_of(st.just(DELTA), plane_points())


class TestDelta:
    def test_plane_to_diagonal(self):
        assert delta((1.0, 3.0), DELTA) == 1.0

    def test_diagonal_to_diagonal(self):
        assert delta(DELTA, DELTA) == 0.0

    def test_plane_to_plane_sup(self):
        assert delta((0.0, 2.0), (1.0, 3.0)) == 1.0

    @given(points(), points())
    def test_symmetric_and_nonnegative(self, a, b):
        assert delta(a, b) == delta(b, a) >= 0.0

    @given(plane_points(), plane_points(), plane_points())
    def test_triangle_inequality_on_plane(self, a, b, c):
        assert delta(a, c) <= delta(a, b) + delta(b, c) + 1e-12

    @given(plane_points(), plane_points())
    def test_triangle_inequality_with_diagonal_endpoint(self, a, b):
        # distance to the collapsed diagonal is 1-Lipschitz in each argument
        assert delta(a, DELTA) <= delta(a, b) + delta(b, DELTA) + 1e-12

    def test_diagonal_midpoint_can_shortcut(self):
        # Collapsing the whole diagonal to one point makes a path through it
        # shorter than the direct sup distance; the point metric is therefore
        # not a metric once the diagonal point sits between two plane points.
        # The matching distances stay metrics because each point is matched
        # to its own diagonal copy (max/l_p aggregation, never a composition
        # through the diagonal).
        a, c = (0.0, 0.25), (0.0, 1.0)
        assert delta(a, c) > delta(a, DELTA) + delta(DELTA, c)

    @given(plane_points())
    def test_identity_of_indiscernibles(self, a):
        assert delta(a, a) == 0.0
        assert delta(a, DELTA) > 0.0

    @given(plane_points(), st.floats(0.0, 50.0, allow_nan=False))
    def test_diagonal_translation_invariance(self, a, t):
        shifted = (a[0] + t, a[1] + t)
        assert math.isclose(delta(a, DELTA), delta(shifted, DELTA), abs_tol=1e-12)


class TestPersistence:
    def test_values(self):
        assert persistence((0.0, 4.0)) == 2.0
        assert persistence(DELTA) == 0.0
        assert persistence((3.0, 6.0)) == 1.5

    def test_matches_delta_to_diagonal(self):
        assert persistence((2.0, 9.0)) == delta((2.0, 9.0), DELTA)


class TestCanonicalize:
    def test_sorts_and_drops_delta(self):
        dgm = canonicalize([(1.0, 2.0), DELTA, (0.0, 3.0)])
        assert dgm.points == ((0.0, 3.0), (1.0, 2.0))

    def test_only_deltas_is_empty(self):
        assert len(canonicalize([DELTA, DELTA])) == 0

    def test_multiset_preserved(self):
        dgm = canonicalize([(0.0, 3.0), (0.0, 3.0)])
        assert dgm.points == ((0.0, 3.0), (0.0, 3.0))

    def test_rejects_invalid_points(self):
        with pytest.raises(InvalidPoint):
            canonicalize([(3.0, 1.0)])
        with pytest.raises(InvalidPoint):
            canonicalize([(-1.0, 2.0)])
        with pytest.raises(InvalidPoint):
            canonicalize([(0.0, math.inf)])

    def test_coordinates_must_be_real_numbers(self):
        with pytest.raises(InvalidPoint):
            canonicalize([("3", "4.5")])
        with pytest.raises(InvalidPoint):
            canonicalize([(True, 5)])
        dgm = canonicalize([(np.float64(3.0), np.float64(4.5))])
        assert dgm.points == ((3.0, 4.5),) and type(dgm.points[0][0]) is float

    @given(st.lists(plane_points(), max_size=6), st.randoms())
    def test_permutation_invariant_and_idempotent(self, pts, pyrandom):
        shuffled = list(pts)
        pyrandom.shuffle(shuffled)
        a = canonicalize(pts)
        b = canonicalize(shuffled)
        assert a == b
        assert canonicalize(a.points) == a


class TestAugment:
    def test_unequal_sizes(self):
        z = canonicalize([(0.0, 1.0), (0.0, 2.0)])
        w = canonicalize([(0.0, 3.0)])
        pair = augment(z, w)
        assert pair.width == 4
        assert sum(is_delta(p) for p in pair.right) == 3
        assert sum(is_delta(p) for p in pair.left) == 2

    def test_empty(self):
        pair = augment(Diagram(), Diagram())
        assert pair.width == 0

    def test_equal_sizes_append_n_deltas(self):
        z = canonicalize([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        pair = augment(z, z)
        assert pair.width == 6
        assert sum(is_delta(p) for p in pair.left) == 3
        assert sum(is_delta(p) for p in pair.right) == 3
