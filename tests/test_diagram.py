"""Point metric, canonical diagrams and diagonal padding."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coarsepd import DELTA, Diagram, InvalidPoint
from coarsepd.diagram import _coordinate
from coarsepd.oracle import cost_matrix, delta, persistence


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
    def test_sorts_and_rejects_delta(self):
        dgm = Diagram([(1.0, 2.0), (0.0, 3.0)])
        assert dgm.points == ((0.0, 3.0), (1.0, 2.0))
        with pytest.raises(InvalidPoint):
            Diagram((DELTA,))

    def test_multiset_preserved(self):
        dgm = Diagram([(0.0, 3.0), (0.0, 3.0)])
        assert dgm.points == ((0.0, 3.0), (0.0, 3.0))

    def test_rejects_invalid_points(self):
        with pytest.raises(InvalidPoint):
            Diagram([(3.0, 1.0)])
        with pytest.raises(InvalidPoint):
            Diagram([(-1.0, 2.0)])
        with pytest.raises(InvalidPoint):
            Diagram([(0.0, math.inf)])

    def test_coordinates_must_be_real_numbers(self):
        with pytest.raises(InvalidPoint):
            Diagram([("3", "4.5")])
        with pytest.raises(InvalidPoint):
            Diagram([(True, 5)])
        dgm = Diagram([(np.float64(3.0), np.float64(4.5))])
        assert dgm.points == ((3.0, 4.5),) and type(dgm.points[0][0]) is float

    @pytest.mark.parametrize("raw, message", [
        ((math.nan, 1.0), "non-finite coordinates: (nan, 1.0)"),
        ((0.0, math.inf), "non-finite coordinates: (0.0, inf)"),
        ((-math.inf, 1.0), "non-finite coordinates: (-inf, 1.0)"),
        ((3.0, 1.0), "requires death > birth >= 0, got (3.0, 1.0)"),
        ((2.5, 2.5), "requires death > birth >= 0, got (2.5, 2.5)"),
        ((-1.0, 2.0), "requires death > birth >= 0, got (-1.0, 2.0)"),
        ((0.0, 5e-324), "persistence rounds to zero: (0.0, 5e-324)"),
    ])
    def test_float_point_rejections_are_worded(self, raw, message):
        # Exact floats skip the real-number check, but not the point checks.
        with pytest.raises(InvalidPoint) as exc:
            Diagram([raw])
        assert type(exc.value) is InvalidPoint and str(exc.value) == message

    def test_only_exact_floats_skip_the_real_number_check(self):
        x = 2.5
        assert _coordinate(x) is x
        # float subclasses and ints come back as plain floats
        for value in (np.float64(2.5), 2):
            assert type(_coordinate(value)) is float and _coordinate(value) == value
        for value in (True, False, "2.5", None, 2 + 0j):
            with pytest.raises(TypeError, match="not a real number"):
                _coordinate(value)
        with pytest.raises(InvalidPoint, match="not a birth-death pair"):
            Diagram([(0.0, True)])

    @given(st.lists(plane_points(), max_size=6), st.randoms())
    def test_permutation_invariant_and_idempotent(self, pts, pyrandom):
        shuffled = list(pts)
        pyrandom.shuffle(shuffled)
        a = Diagram(pts)
        b = Diagram(shuffled)
        assert a == b
        assert Diagram(a.points) == a


def delta_slots(cost):
    """Counts of DELTA rows and DELTA columns of a padded cost matrix.

    The last row and the last column are DELTA slots, and a DELTA slot costs
    0 against exactly the DELTA slots, since every plane point has positive
    persistence.
    """
    return int((cost[:, -1] == 0.0).sum()), int((cost[-1] == 0.0).sum())


class TestAugment:
    def test_unequal_sizes(self):
        z = Diagram([(0.0, 1.0), (0.0, 2.0)])
        w = Diagram([(0.0, 3.0)])
        cost = cost_matrix(z, w)
        assert cost.shape == (3, 3)
        assert delta_slots(cost) == (1, 2)

    def test_empty(self):
        assert cost_matrix(Diagram(), Diagram()).shape == (0, 0)

    def test_equal_sizes_append_n_deltas(self):
        z = Diagram([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        cost = cost_matrix(z, z)
        assert cost.shape == (6, 6)
        assert delta_slots(cost) == (3, 3)
