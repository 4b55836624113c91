"""Assignment-search primitives checked against literal enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coarsepd import assignment
from coarsepd.assignment import _bit_rows, lex_min_perfect_matching, perfect_matching
from coarsepd.oracle import min_assignment_max, min_assignment_sum
from matching_reference import square_lex_min_perfect_matching


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

    @pytest.mark.parametrize("col", [(1, 0), (0, 0), (0, 3), (-1, 0), (0,), ((0, 1),), (2, 1)])
    def test_start_that_is_not_a_matching(self, col):
        # two points a side; w0 is heavy, so the DELTA row cannot take it.
        # (1, 0) uses the missing edge from z0 to w1, and (2, 1) leaves w0 unmatched
        ok = np.array([[True, False, True], [True, True, True], [False, True, True]])
        with pytest.raises(ValueError, match="not a perfect matching"):
            lex_min_perfect_matching(ok, col)

    def test_delta_meets_delta_only_where_ok_allows(self):
        # z0 may take w0 only if the DELTA row then takes a DELTA column
        ok = np.array([[True, True], [True, False]])
        with pytest.raises(ValueError, match="not a perfect matching"):
            lex_min_perfect_matching(ok, (0,))
        assert lex_min_perfect_matching(ok, (1,)) == (1, 0)
        ok[1, 1] = True
        assert lex_min_perfect_matching(ok, (1,)) == (0, 1)

    def test_lex_min_matching_prefers_small_columns(self):
        # from both points of z on DELTA, every slot ends on its own index
        ok = np.ones((3, 3), dtype=bool)
        assert lex_min_perfect_matching(ok, (2, 2)) == (0, 1, 2, 3)

    @given(st.integers(0, 8).flatmap(lambda n: st.lists(
        st.booleans(), min_size=n * n, max_size=n * n).map(
            lambda cells: np.array(cells, dtype=bool).reshape(n, n))))
    def test_matching_agrees_with_subset_program(self, ok):
        # the (n + m)-slot reference: cost 0 on edges, 1 off them, so the
        # subset program's optimum is 0 exactly when a perfect matching
        # exists, and its lex-min recovery shares no code with the matching
        # pass, which gives the same result from the solver's matching and
        # from the subset program's own
        value, perm = min_assignment_max((~ok).astype(float))
        col = perfect_matching(ok)
        assert (col is not None) == (value == 0.0)
        if value == 0.0:
            assert square_lex_min_perfect_matching(ok, col) == perm
            assert square_lex_min_perfect_matching(ok, perm) == perm

    @given(st.integers(0, 5), st.integers(0, 5), st.randoms(use_true_random=False))
    def test_block_agrees_with_square(self, n, m, random):
        # the square graph repeats the pooled DELTA column n times and the DELTA row m times
        ok = np.array([[random.random() < 0.6 for _ in range(m + 1)] for _ in range(n + 1)])
        rows, cols = np.r_[np.arange(n), np.full(m, n)], np.r_[np.arange(m), np.full(n, m)]
        square = ok[rows][:, cols]
        value, perm = min_assignment_max((~square).astype(float))
        col = perfect_matching(square)
        assert (col is not None) == (value == 0.0)
        if value == 0.0:
            assert square_lex_min_perfect_matching(square, col) == perm
            assert lex_min_perfect_matching(ok, np.minimum(col[:n], m)) == perm
            assert lex_min_perfect_matching(ok, np.minimum(perm[:n], m)) == perm

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 8), (3, 17)])
    def test_bit_rows(self, shape):
        ok = np.random.default_rng(sum(shape)).random(shape) < 0.5
        for edges in (ok, ok.T):
            assert _bit_rows(edges) == [sum(1 << c for c in np.flatnonzero(row).tolist())
                                        for row in edges]

    def test_column_sets_only_for_a_search(self, monkeypatch):
        packed = []
        monkeypatch.setattr(assignment, "_bit_rows",
                            lambda ok, pack=_bit_rows: packed.append(ok.tolist()) or pack(ok))
        # heavy points of z each on their own point of w: no row has an edge
        # below its column, so no search
        ok = np.zeros((41, 41), dtype=bool)
        ok[:40, :40] = np.triu(np.random.default_rng(5).random((40, 40)) < 0.5)
        ok[np.arange(41), np.arange(41)] = True
        assert lex_min_perfect_matching(ok, range(40)) == tuple(range(80))
        assert packed == [ok.tolist()]
        # z0 takes w0 by a search from w1, through z1's DELTA column and the
        # DELTA row's w0; it packs ok.T once more
        del packed[:]
        ok = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
        assert lex_min_perfect_matching(ok, (1, 2)) == (0, 1, 2, 3)
        assert packed == [ok.tolist(), ok.T.tolist()]

    def test_long_alternating_path(self):
        # z_r starts on w_{r + 1}, the last point of z on DELTA and w_0 on the
        # DELTA row; z_0 reaches w_0 only along a path through all n rows and
        # the DELTA column, after which every slot ends on its own index
        n = 1200
        ok = np.zeros((n + 1, n + 1), dtype=bool)
        ok[np.arange(n), np.arange(n)] = True
        ok[np.arange(n), np.arange(1, n + 1)] = True
        ok[n, [0, n]] = True
        start = list(range(1, n)) + [n]
        assert lex_min_perfect_matching(ok, start) == tuple(range(2 * n))
