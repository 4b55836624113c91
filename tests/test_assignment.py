"""Assignment-search primitives checked against literal enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coarsepd.assignment import lex_min_perfect_matching, perfect_matching
from coarsepd.oracle import min_assignment_max, min_assignment_sum


def enumerate_min(cost, combine):
    """Literal minimum over all permutations, lexicographically first.

    Aggregates by folding from the last row so the float association matches
    the solver exactly and values can be compared with ==.
    """
    n = cost.shape[0]
    best_value, best_perm = None, None
    for perm in itertools.permutations(range(n)):
        value = 0.0
        for i in reversed(range(n)):
            value = combine(float(cost[i, perm[i]]), value)
        if best_value is None or value < best_value:
            best_value, best_perm = value, perm
    return best_value, best_perm


class TestSubsetProgramMatchesEnumeration:
    def test_max_aggregation(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            cost = rng.uniform(0.0, 10.0, size=(n, n))
            # duplicated entries force ties so the lex tie-break is exercised
            cost[rng.integers(0, n), rng.integers(0, n)] = cost[0, 0]
            value, perm = min_assignment_max(cost)
            ref_value, ref_perm = enumerate_min(cost, max)
            assert value == ref_value
            assert perm == ref_perm

    def test_sum_aggregation(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            cost = rng.uniform(0.0, 10.0, size=(n, n))
            value, perm = min_assignment_sum(cost)
            ref_value, ref_perm = enumerate_min(cost, lambda c, rest: c + rest)
            assert value == ref_value
            assert perm == ref_perm

    def test_sum_lex_tie_break(self):
        # every permutation of a constant matrix is optimal; the identity is
        # the lexicographically smallest
        cost = np.ones((4, 4))
        assert min_assignment_sum(cost)[1] == (0, 1, 2, 3)
        assert min_assignment_max(cost)[1] == (0, 1, 2, 3)

    @pytest.mark.parametrize("solve", [min_assignment_sum, min_assignment_max])
    def test_more_than_20_rows_rejected(self, solve):
        # the table would hold 2^21 entries
        with pytest.raises(ValueError, match="^subset DP limited to n <= 20$"):
            solve(np.zeros((21, 21)))

    def test_empty(self):
        empty = np.zeros((0, 0))
        assert min_assignment_sum(empty) == (0.0, ())
        assert min_assignment_max(empty) == (0.0, ())


class TestMatchingHelpers:
    def test_perfect_matching_detection(self):
        ok = np.array([[True, False], [True, False]])
        assert perfect_matching(ok) is None
        ok[1, 1] = True
        assert perfect_matching(ok).tolist() == [0, 1]

    def test_rectangle_without_room_for_every_row(self, solves):
        assert perfect_matching(np.ones((3, 2), dtype=bool)) is None
        assert perfect_matching(np.ones((1, 0), dtype=bool)) is None
        assert solves == []

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_no_rows_need_no_solve(self, solves, shape):
        col = perfect_matching(np.ones(shape, dtype=bool))
        assert col.shape == (0,) and solves == []

    def test_wide_rectangle(self, solves):
        # row 0 reaches only column 1, row 1 columns 1 and 2
        ok = np.array([[False, True, False], [False, True, True]])
        assert perfect_matching(ok).tolist() == [1, 2]
        # now both rows reach only column 1
        ok[1, 2] = False
        assert perfect_matching(ok) is None
        assert solves == [(2, 3), (2, 3)]

    @pytest.mark.parametrize("col", [(1, 0), (0, 0), (0, 2), (-1, 0), (0,), ((0, 1),)])
    def test_start_that_is_not_a_matching(self, col):
        # (1, 0) is a permutation that uses the missing edge (0, 1)
        ok = np.array([[True, False], [True, True]])
        with pytest.raises(ValueError, match="not a perfect matching"):
            lex_min_perfect_matching(ok, col)

    def test_lex_min_matching_prefers_small_columns(self):
        ok = np.ones((3, 3), dtype=bool)
        assert lex_min_perfect_matching(ok, (2, 0, 1)) == (0, 1, 2)

    @given(st.integers(0, 8).flatmap(lambda n: st.lists(
        st.booleans(), min_size=n * n, max_size=n * n).map(
            lambda cells: np.array(cells, dtype=bool).reshape(n, n))))
    def test_matching_agrees_with_subset_program(self, ok):
        # cost 0 on edges, 1 off them: the subset program's optimum is 0
        # exactly when a perfect matching exists, and its lex-min recovery
        # shares no code with the matching pass, which gives the same result
        # from the solver's matching and from the subset program's own
        value, perm = min_assignment_max((~ok).astype(float))
        col = perfect_matching(ok)
        assert (col is not None) == (value == 0.0)
        if value == 0.0:
            assert lex_min_perfect_matching(ok, col) == perm
            assert lex_min_perfect_matching(ok, perm) == perm

    def test_long_alternating_path(self):
        # the only perfect matching shifts every row by one column; reaching
        # it can take an augmenting path through all n rows
        n = 1200
        ok = np.zeros((n, n), dtype=bool)
        ok[np.arange(n - 1), np.arange(n - 1)] = True
        ok[np.arange(n - 1), np.arange(1, n)] = True
        ok[n - 1, 0] = True
        col = perfect_matching(ok)
        assert col is not None
        assert lex_min_perfect_matching(ok, col) == tuple(range(1, n)) + (0,)
