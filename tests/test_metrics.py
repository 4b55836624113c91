"""Bottleneck and Wasserstein solvers against the permutation oracle."""

import bisect
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from coarsepd import (
    DELTA,
    Diagram,
    InvalidExponent,
    InvalidPoint,
    Matching,
    OversizeForOracle,
    bottleneck,
    bottleneck_1pt_array,
    bottleneck_bruteforce,
    bottleneck_distance,
    describe_matching,
    distance_matrix,
    dranishnikov_S,
    embed_coarse_union,
    embed_finite_metric,
    wasserstein,
    wasserstein_bruteforce,
    wasserstein_distance,
    zkm_space,
)
from coarsepd import metrics
from coarsepd.assignment import perfect_matching
from coarsepd.metrics import _cost, _tight_edges, rounding_slack
from coarsepd.oracle import cost_matrix, min_assignment_max, min_assignment_sum
from conftest import (
    describe_padded,
    exact_wasserstein_power,
    float_sets,
    grid_sets,
    padded_cost,
    random_diagram,
    sandwich_holds,
    within_ulps_of_root,
)
from cover_reference import as_columns
from matching_reference import square_lex_min_perfect_matching


def d(*pts):
    return Diagram(pts)


def bottleneck_1pt(a, b):
    """The package's single-point distance of one pair of points."""
    return float(bottleneck_1pt_array(as_columns([a]), as_columns([b]))[0])


class TestBottleneckBruteforce:
    def test_single_point_vs_empty(self):
        value, _ = bottleneck_bruteforce(d((0, 2)), Diagram())
        assert value == 1.0

    def test_identical(self):
        z = d((0, 10), (3, 7))
        value, _ = bottleneck_bruteforce(z, z)
        assert value == 0.0

    def test_delta_route_beats_direct(self):
        # both matchings of the augmented 2-tuples: direct sup = 3,
        # double diagonal route = max(2, 1.5) = 2
        value, matching = bottleneck_bruteforce(d((0, 4)), d((3, 6)))
        assert value == 2.0
        assert matching.pairing == (1, 0)

    def test_oversize_guard(self):
        z = Diagram([(i, i + 1.0) for i in range(6)])
        with pytest.raises(OversizeForOracle):
            bottleneck_bruteforce(z, z)


class TestBottleneck:
    def test_tall_points_pair(self):
        value, _ = bottleneck(d((0, 10), (0, 2)), d((0, 11)))
        assert value == 1.0

    def test_self_distance_zero(self):
        z = d((0, 10), (3, 7), (1, 2))
        assert bottleneck(z, z)[0] == 0.0

    def test_both_to_diagonal(self):
        assert bottleneck(d((0, 2)), d((5, 7)))[0] == 1.0

    def test_empty_vs_empty(self):
        value, matching = bottleneck(Diagram(), Diagram())
        assert value == 0.0 and matching.pairing == ()


class TestWasserstein:
    def test_p1_direct_pairing(self):
        value, matching = wasserstein(d((0, 4)), d((3, 6)), 1)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert matching.pairing == (0, 1)

    def test_large_p_approaches_bottleneck(self):
        z, w = d((0, 4)), d((3, 6))
        v64, _ = wasserstein(z, w, 64)
        vb, _ = bottleneck(z, w)
        assert abs(v64 - vb) < 0.05

    def test_empty(self):
        for p in (1, 2, 7.5):
            assert wasserstein(Diagram(), Diagram(), p) == (0.0, metrics.Matching(()))
            assert wasserstein_bruteforce(Diagram(), Diagram(), p) == (0.0, metrics.Matching(()))

    def test_persistence_underflows_to_zero(self):
        # (5e-324 - 0) / 2 rounds to 0.0, which would put the point at
        # distance 0 from the empty diagram.
        with pytest.raises(InvalidPoint):
            d((0.0, 5e-324))
        # (1e-323 - 0) / 2 is the smallest positive double.
        z = d((0.0, 1e-323))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert wasserstein_bruteforce(z, Diagram(), 2) == wasserstein(z, Diagram(), 2)
            assert wasserstein(z, Diagram(), 2)[0] == 5e-324

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            wasserstein(Diagram(), Diagram(), 0.5)
        with pytest.raises(InvalidExponent):
            wasserstein_bruteforce(Diagram(), Diagram(), float("nan"))
        z, w = d((0, 4), (1, 3)), d((3, 6))
        for solver in (wasserstein, wasserstein_bruteforce, wasserstein_distance):
            with pytest.raises(InvalidExponent):
                solver(z, w, math.inf)

    @pytest.mark.parametrize("p", [10 ** 400, "x", None, True, False, "2", np.True_],
                             ids=["int_1e400", "string", "none", "true", "false",
                                  "numeric_string", "numpy_true"])
    def test_exponent_that_is_not_a_number(self, p):
        z, w = d((0, 4), (1, 3)), d((3, 6))
        for solver in (wasserstein, wasserstein_bruteforce, wasserstein_distance):
            with pytest.raises(InvalidExponent, match="p must be a number"):
                solver(z, w, p)
        if p is not None:  # None is d_B in distance_matrix
            with pytest.raises(InvalidExponent, match="p must be a number"):
                distance_matrix([z, w], p)


class TestBottleneck1pt:
    def test_delta_route(self):
        assert bottleneck_1pt((0, 4), (3, 6)) == 2.0

    def test_identical(self):
        assert bottleneck_1pt((0, 2), (0, 2)) == 0.0

    def test_direct_route(self):
        assert bottleneck_1pt((0, 2), (0, 2.2)) == pytest.approx(0.2)

    def test_agrees_with_solver_on_singletons(self, rng):
        for _ in range(100):
            a = random_diagram(rng, size=1).points[0]
            b = random_diagram(rng, size=1).points[0]
            value, _ = bottleneck(d(a), d(b))
            assert bottleneck_1pt(a, b) == pytest.approx(value, abs=1e-12)

    def test_delta_argument_is_empty_diagram(self):
        assert bottleneck_1pt((0, 4), DELTA) == 2.0
        assert bottleneck_1pt(DELTA, DELTA) == 0.0


class TestOracleEquivalence:
    def test_bottleneck_matches_oracle(self, rng):
        for _ in range(150):
            z = random_diagram(rng, max_size=4)
            w = random_diagram(rng, max_size=4)
            vb, mb = bottleneck_bruteforce(z, w)
            v, m = bottleneck(z, w)
            assert v == pytest.approx(vb, abs=1e-9)
            assert m.pairing == mb.pairing  # lexicographic tie-break agrees

    def test_wasserstein_matches_oracle(self, rng):
        for _ in range(60):
            z = random_diagram(rng, max_size=4)
            w = random_diagram(rng, max_size=4)
            for p in (1, 2, 3.5):
                vb, _ = wasserstein_bruteforce(z, w, p)
                v, _ = wasserstein(z, w, p)
                assert v == pytest.approx(vb, abs=1e-9)

    def test_bottleneck_pairing_above_width_12(self, rng):
        def half_grid(size):
            # half-integer coordinates force cost ties
            births, lengths = rng.integers(0, 12, size), rng.integers(1, 8, size)
            return Diagram(list(zip((births / 2).tolist(), ((births + lengths) / 2).tolist())))

        # the reference is the lex-min optimum at width 2 * max(n, m) = 14
        for _ in range(4):
            z, w = half_grid(7), half_grid(int(rng.integers(0, 8)))
            reference, phi = min_assignment_max(padded_cost(z, w, 14))
            value, m = bottleneck(z, w)
            assert value == reference
            assert describe_matching(z, w, m) == describe_padded(z, w, phi)

    def test_tight_edge_pairing_above_width_12(self, rng):
        # small integers keep every sum exact, so optimal means exactly optimal
        for width in (13, 14, 15):
            cost = rng.integers(0, 10, size=(width, width)).astype(float)
            rows, cols = linear_sum_assignment(cost)
            optimum = float(cost[rows, cols].sum())
            phi = square_lex_min_perfect_matching(_tight_edges(cost, cols, optimum, width), cols)
            assert (optimum, phi) == min_assignment_sum(cost)


class TestMetricAxioms:
    def test_symmetry_and_triangle(self, rng):
        triples = [
            tuple(random_diagram(rng, max_size=4) for _ in range(3))
            for _ in range(40)
        ]
        for x, y, z in triples:
            assert bottleneck(x, y)[0] == bottleneck(y, x)[0]
            assert bottleneck(x, z)[0] <= bottleneck(x, y)[0] + bottleneck(y, z)[0] + 1e-9
            w_xy = wasserstein(x, y, 2)[0]
            assert w_xy == pytest.approx(wasserstein(y, x, 2)[0], abs=1e-12)
            assert wasserstein(x, z, 2)[0] <= w_xy + wasserstein(y, z, 2)[0] + 1e-9

    def test_identity(self, rng):
        for _ in range(20):
            z = random_diagram(rng)
            assert bottleneck(z, z)[0] == 0.0
            assert wasserstein(z, z, 2)[0] == 0.0


class TestInvariances:
    def test_padding_invariance(self, rng):
        # DELTA slots beyond n + m, up to the width 2 max(n, m) and past it, change no optimum
        for _ in range(25):
            z = random_diagram(rng, max_size=3)
            w = random_diagram(rng, max_size=3)
            cost = padded_cost(z, w, 2 * max(len(z), len(w)) + int(rng.integers(0, 3)))
            assert min_assignment_max(cost)[0] == bottleneck(z, w)[0]
            assert min_assignment_sum(cost ** 2)[0] ** 0.5 == pytest.approx(
                wasserstein(z, w, 2)[0], abs=1e-9)

    def test_permutation_invariance(self, rng):
        for _ in range(25):
            z = random_diagram(rng, max_size=4)
            shuffled = list(z.points)
            rng.shuffle(shuffled)
            assert Diagram(shuffled) == z

    def test_monotone_in_p(self, rng):
        for _ in range(25):
            z = random_diagram(rng, max_size=4)
            w = random_diagram(rng, max_size=4)
            vb = bottleneck(z, w)[0]
            prev = math.inf
            for p in (1, 2, 4, 8):
                v = wasserstein(z, w, p)[0]
                assert v <= prev + 1e-9
                assert v >= vb - 1e-9
                prev = v


class TestSandwichBounds:
    def test_worked_example(self):
        assert sandwich_holds(d((0, 4)), d((3, 6)), 1)

    def test_equal_diagrams(self, rng):
        z = random_diagram(rng)
        assert sandwich_holds(z, z, 2)

    def test_random_pairs(self, rng):
        for _ in range(30):
            z = random_diagram(rng, max_size=3)
            w = random_diagram(rng, max_size=3)
            assert sandwich_holds(z, w, 2)

    @pytest.mark.parametrize("z,w,p", [
        (((701949476.3859894, 1158380098.2675455),),
         ((835183204.6922797, 1220278340.1730962),), 2),
        (((538757472.3946525, 1335433397.1620724),),
         ((647701711.0637228, 1241197209.369646),), 1),
    ])
    def test_large_scale_pairs(self, z, w, p):
        # d_W rounds one ulp (1.5e-8) below d_B here, which an absolute 1e-9 did not allow
        z, w = Diagram(z), Diagram(w)
        assert wasserstein_distance(z, w, p) < bottleneck_distance(z, w)
        assert sandwich_holds(z, w, p)


class TestRoundingSlack:
    @pytest.mark.parametrize("x", [0.0, 1e-300, 1.0, -3.5, 1e6, -(2.0 ** 20 - 1.0),
                                   float(np.nextafter(2.0 ** 20, 0.0))])
    def test_fixed_below_2_to_the_20(self, x):
        assert rounding_slack(x) == 1e-9

    @pytest.mark.parametrize("x", [2.0 ** 20, -1e9, 1e300])
    def test_eight_ulp_above(self, x):
        assert rounding_slack(x) == 8.0 * np.spacing(abs(x)) > 1e-9


class TestMatchingOutput:
    def test_describe_prunes_delta_delta(self):
        z, w = d((0, 4)), d((3, 6))
        value, matching = bottleneck(z, w)
        pairs = describe_matching(z, w, matching)
        assert (0, None) in pairs and (None, 0) in pairs
        assert all(a is not None or b is not None for a, b in pairs)

    @pytest.mark.parametrize("pairing", [(0, 1, 2, 3), (0, 1), ()])
    def test_describe_rejects_other_widths(self, pairing):
        z, w = d((0, 4), (1, 5)), d((3, 6))
        message = f"^matching has {len(pairing)} slots, diagrams of 2 and 1 points need 3$"
        with pytest.raises(ValueError, match=message):
            describe_matching(z, w, Matching(pairing))

    @pytest.mark.parametrize("pairing", [(0, 0), (1,), (0, 2), (True, False), (1.0, 0.0),
                                         (np.True_, np.False_)])
    def test_non_permutation_rejected(self, pairing):
        with pytest.raises(ValueError, match="^pairing is not a permutation$"):
            Matching(pairing)

    @pytest.mark.parametrize("pairing", [[1, 0], np.array([1, 0]), (np.int64(1), np.int32(0))])
    def test_pairing_is_a_tuple_of_ints(self, pairing):
        matching = Matching(pairing)
        assert matching.pairing == (1, 0) and all(type(j) is int for j in matching.pairing)
        assert hash(matching) == hash(Matching((1, 0)))

    def test_pairing_is_permutation(self, rng):
        z = random_diagram(rng, max_size=4)
        w = random_diagram(rng, max_size=4)
        _, m = bottleneck(z, w)
        assert sorted(m.pairing) == list(range(len(m.pairing)))

    def test_matching_cost_consistent(self, rng):
        for _ in range(20):
            z = random_diagram(rng, max_size=4)
            w = random_diagram(rng, max_size=4)
            cost = cost_matrix(z, w)
            value, m = bottleneck(z, w)
            if cost.size:
                realized = max(cost[i, j] for i, j in enumerate(m.pairing))
                assert realized == pytest.approx(value, abs=1e-12)
            for p in (2, 50):
                vp, mp = wasserstein(z, w, p)
                if cost.size:
                    realized = sum(cost[i, j] ** p for i, j in enumerate(mp.pairing)) ** (1 / p)
                    assert realized == pytest.approx(vp, abs=1e-9)


def diagrams(max_size=9):
    """Diagrams of up to max_size points; grid coordinates give many cost ties."""
    grid = st.tuples(st.integers(0, 40), st.integers(1, 40)).map(
        lambda t: (t[0] / 4, (t[0] + t[1]) / 4))
    free = st.tuples(st.floats(0.0, 10.0), st.floats(1e-3, 10.0)).map(
        lambda t: (t[0], t[0] + t[1]))
    return st.lists(st.one_of(grid, free), max_size=max_size).map(Diagram)


# One point against two copies of it: every row and column has a zero cost,
# but one copy must go to the diagonal at cost 1.5.
BOUND_BELOW_OPTIMUM = (d((1, 4)), d((1, 4), (1, 4)))
# Seven points a side: augmented width 14, past the brute-force oracles' limit of 10.
WIDE = (Diagram([(i, i + 2.0) for i in range(7)]),
        Diagram([(i + 0.5, i + 3.0) for i in range(7)]))


class TestCostBuilder:
    @settings(max_examples=100, deadline=None)
    @given(diagrams(), diagrams())
    @example(Diagram(), Diagram())
    @example(Diagram(), d((0, 2), (1, 4)))
    @example(d((0, 2), (1, 4)), Diagram())
    @example(*WIDE)
    def test_block_builder_equals_per_pair_reference(self, z, w):
        built, reference = _cost(z, w), cost_matrix(z, w)
        assert built.dtype == reference.dtype and built.shape == reference.shape
        assert built.tobytes() == reference.tobytes()


class TestValueOnly:
    def test_lower_bound_can_be_below_optimum(self):
        z, w = BOUND_BELOW_OPTIMUM
        cost = cost_matrix(z, w)
        bound = max(cost.min(axis=1).max(), cost.min(axis=0).max())
        assert bound == 0.0
        assert bottleneck_distance(z, w) == bottleneck(z, w)[0] == 1.5

    @settings(max_examples=60, deadline=None)
    @given(diagrams(), diagrams())
    @example(*BOUND_BELOW_OPTIMUM)
    @example(*WIDE)
    def test_bottleneck_distance_equals_solver(self, z, w):
        assert bottleneck_distance(z, w) == bottleneck(z, w)[0]

    @settings(max_examples=60, deadline=None)
    @given(diagrams(), diagrams(), st.sampled_from([1, 2, 3.5]))
    @example(*BOUND_BELOW_OPTIMUM, 2)
    @example(*WIDE, 1)
    @example(*WIDE, 3.5)
    def test_wasserstein_distance_equals_solver(self, z, w, p):
        assert wasserstein_distance(z, w, p) == wasserstein(z, w, p)[0]

    def test_distance_matrix_equals_pair_loop(self, rng):
        dgms = [random_diagram(rng, max_size=7) for _ in range(7)]
        for p, solve in ((None, lambda z, w: bottleneck(z, w)[0]),
                         (1.0, lambda z, w: wasserstein(z, w, 1.0)[0]),
                         (2.5, lambda z, w: wasserstein(z, w, 2.5)[0])):
            full = distance_matrix(dgms, p)
            assert full.shape == (7, 7)
            for i, z in enumerate(dgms):
                for j, w in enumerate(dgms):
                    expected = 0.0 if i == j else solve(z, w)
                    assert full[i, j] == expected

    def test_distance_matrix_edge_cases(self):
        assert distance_matrix([]).shape == (0, 0)
        with pytest.raises(InvalidExponent):
            distance_matrix([d((0, 2))], "sliced")
        with pytest.raises(InvalidExponent):
            distance_matrix([d((0, 2)), d((1, 3))], math.inf)

    def test_distance_matrix_exponent_is_not_ignored(self):
        # d_B is 2 (both points to the diagonal); W_1 is 3 (one point moved by 3)
        dgms = [d((0, 4)), d((3, 6))]
        assert distance_matrix(dgms)[0, 1] == 2.0
        assert distance_matrix(dgms, p=1)[0, 1] == 3.0


# d_B = 1.5 is the largest cost; the lower bound of the search is 1.0.
AT_LARGEST_COST = (d((1, 4)), d((2, 5), (2, 5)))


class TestOneSolvePerMatchedDistance:
    """The matching adds at most one solve, on the n x m point block at the value.

    The d_B search itself solves only heavy-row rectangles of the point block,
    and the matching solves only when some point is heavy at the value.
    """

    def test_bottleneck_at_lower_bound(self, solves):
        # no point is heavy at the bound 2.0, so neither the search nor the matching solves
        z, w = d((0, 4), (1, 3)), d((3, 6), (2, 5))
        cost = _cost(z, w)
        value = bottleneck_distance(z, w)
        assert value == max(cost.min(axis=1).max(), cost.min(axis=0).max())
        assert solves == []
        assert bottleneck(z, w)[0] == value
        assert solves == []

    @pytest.mark.parametrize("pair", [BOUND_BELOW_OPTIMUM, WIDE, AT_LARGEST_COST])
    def test_bottleneck_matching_adds_no_solve(self, solves, pair):
        # beyond the one on the point block; of these pairs, only WIDE has
        # heavy points at its value (the 7 of w)
        bottleneck_distance(*pair)
        tests = list(solves)
        bottleneck(*pair)
        assert solves == tests + tests + ([(7, 7)] if pair is WIDE else [])

    def test_value_at_largest_cost(self, solves):
        # the bound 1.0 is infeasible (two heavy points of w, one of z) and
        # 1.5 is the only larger cost, so no test runs at the value
        z, w = AT_LARGEST_COST
        cost = _cost(z, w)
        value = metrics._bottleneck_value(*metrics._point_block(z, w))
        assert (value, solves) == (1.5, [(1, 2)])
        assert value == cost.max()
        assert bottleneck(z, w) == bottleneck_bruteforce(z, w)

    def test_empty_pair_needs_no_solve(self, solves):
        assert metrics._bottleneck_value(*metrics._point_block(Diagram(), Diagram())) == 0.0
        assert bottleneck(Diagram(), Diagram()) == (0.0, metrics.Matching(()))
        assert solves == []

    def test_wasserstein(self, solves):
        z, w = d((0, 4), (1, 3)), d((3, 6), (2, 5))
        wasserstein_distance(z, w, 2)
        assert len(solves) == 1
        wasserstein(z, w, 2)
        assert len(solves) == 2


def integer_diagrams(max_size=5):
    """Diagrams on a small integer grid: many cost ties and duplicate points."""
    point = st.tuples(st.integers(0, 4), st.integers(1, 4)).map(lambda t: (t[0], t[0] + t[1]))
    return st.lists(point, max_size=max_size).map(Diagram)


def grid_diagrams(denominator, max_size=5):
    """Diagrams with coordinates k / denominator; tenths round in binary, and so do their costs."""
    point = st.tuples(st.integers(0, 100), st.integers(1, 100)).map(
        lambda t: (t[0] / denominator, (t[0] + t[1]) / denominator))
    return st.lists(point, max_size=max_size).map(Diagram)


class TestCoveringTest:
    """d_B's test on the point block decides the (n + m)-slot threshold graph.

    Only heavy points, whose persistence exceeds t, cannot take DELTA; by
    Mendelsohn-Dulmage, one covering of both sides' heavy points exists
    exactly when each side's can be covered on its own.
    """

    @settings(max_examples=200, deadline=None)
    @given(integer_diagrams(), integer_diagrams())
    @example(Diagram(), d((0, 2), (1, 4), (1, 4)))
    @example(d((0, 2), (0, 2), (1, 4)), Diagram())
    @example(*BOUND_BELOW_OPTIMUM)
    @example(*AT_LARGEST_COST)
    @example(*WIDE)
    def test_equals_square_perfect_matching(self, z, w):
        cost = _cost(z, w)
        block = metrics._point_block(z, w)
        for t in np.unique(cost):
            assert metrics._feasible(*block, t) == (perfect_matching(cost <= t) is not None)


class TestExactWasserstein:
    """W_p within 4 ulps of the exact p-th root of ``conftest.exact_wasserstein_power``.

    Grid coordinates bound the ratio of the largest cost to the smallest
    nonzero one, so the rescaling by the largest cost cannot underflow.
    """

    sides = st.one_of(integer_diagrams(), grid_diagrams(4), grid_diagrams(10))

    @settings(max_examples=150, deadline=None)
    @given(sides, sides, st.sampled_from([1, 2, 3]))
    @example(*BOUND_BELOW_OPTIMUM, 3)
    @example(*AT_LARGEST_COST, 2)
    @example(Diagram(), Diagram(), 1)
    @example(Diagram(), d((0.1, 0.3), (0.2, 0.7)), 3)
    def test_within_4_ulps_of_exact_root(self, z, w, p):
        exact = exact_wasserstein_power(z, w, p)
        assert within_ulps_of_root(wasserstein(z, w, p)[0], exact, p)
        assert within_ulps_of_root(wasserstein_distance(z, w, p), exact, p)


@pytest.fixture
def fallbacks(monkeypatch):
    """Pairs that distance_matrix hands to bottleneck_distance."""
    calls = []
    solve = metrics.bottleneck_distance

    def counted(z, w):
        calls.append((z, w))
        return solve(z, w)

    monkeypatch.setattr(metrics, "bottleneck_distance", counted)
    return calls


def pair_loop(dgms):
    """All-pairs matrix of per-pair ``bottleneck_distance`` calls."""
    out = np.zeros((len(dgms), len(dgms)))
    for i, j in itertools.combinations(range(len(dgms)), 2):
        out[i, j] = bottleneck_distance(dgms[i], dgms[j])
    return out + out.T


def at_both_block_sizes(dgms):
    """distance_matrix of dgms in blocks of _BLOCK_ENTRIES costs, then one later diagram a block."""
    full = distance_matrix(dgms)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_BLOCK_ENTRIES", 1)
        return full, distance_matrix(dgms)


class TestCertifiedDistanceMatrix:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(integer_diagrams(), min_size=2, max_size=8))
    @example([Diagram(), Diagram()])
    @example([Diagram(), d((0, 2)), d((0, 2), (0, 2)), d((0, 2), (1, 3)), d((1, 3))])
    # a row smaller than the later rows, and an empty diagram between non-empty ones
    @example([d((0, 2), (1, 3), (2, 5)), Diagram(), d((1, 3)), d((0, 2), (0, 2))])
    def test_equals_pair_loop_bit_for_bit(self, dgms):
        expected = pair_loop(dgms).tobytes()
        assert all(m.tobytes() == expected for m in at_both_block_sizes(dgms))

    def test_mixed_size_union_equals_pair_loop_bit_for_bit(self):
        union = embed_coarse_union(dranishnikov_S(4, 2)).diagrams
        assert len(union) == 40 and max(map(len, union)) == 15
        expected = pair_loop(union).tobytes()
        assert all(m.tobytes() == expected for m in at_both_block_sizes(union))

    @pytest.mark.parametrize("sets,most", [(grid_sets, 400), (float_sets, 2300)],
                             ids=["grid", "float"])
    def test_seeded_samples_rarely_fall_back(self, fallbacks, sets, most):
        # 5,600 integer-grid and 8,400 float pairs; 1,449 and 3,989 fell back when
        # every point within the bound took its nearest point, light ones too
        sample = sets()
        for dgms in sample:
            assert distance_matrix(dgms).tobytes() == pair_loop(dgms).tobytes()
        assert len(fallbacks) <= most

    @pytest.mark.parametrize("z,w,value", [
        # Both points of z are nearest to the one point of w.
        (d((0, 10), (0, 10.2)), d((0, 10.1)), 5.0),
        # w's second point is left unmatched with persistence above the bound.
        (d((0, 10)), d((0, 10.1), (0, 10.3)), 5.05),
    ])
    def test_declined_pair_falls_back(self, fallbacks, z, w, value):
        assert distance_matrix([z, w])[0, 1] == bottleneck_bruteforce(z, w)[0] == value
        assert fallbacks == [(z, w)]

    def test_embedding_images_need_no_solver(self, fallbacks):
        union = embed_coarse_union(dranishnikov_S(4, 2)).diagrams
        distance_matrix(union)
        distance_matrix(embed_finite_metric(zkm_space(3, 3)))
        assert fallbacks == []


def n_plus_m_bottleneck(z, w):
    """d_B by a threshold search at width n + m, on Hopcroft-Karp.

    Rows are z's points then one diagonal slot per point of w; columns are
    w's points then one diagonal slot per point of z.  Each point is joined
    only to its own diagonal slot, and diagonal slots to each other for
    free, so neither the layout nor the solver is the one ``metrics`` uses.
    """
    a, b = np.array(z.points).reshape(-1, 2), np.array(w.points).reshape(-1, 2)
    n, m = len(a), len(b)
    sup = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    pers_z, pers_w = (a[:, 1] - a[:, 0]) / 2, (b[:, 1] - b[:, 0]) / 2

    def feasible(t):
        graph = np.zeros((n + m, m + n), dtype=bool)
        graph[:n, :m] = sup <= t
        graph[np.arange(n), m + np.arange(n)] = pers_z <= t
        graph[n + np.arange(m), np.arange(m)] = pers_w <= t
        graph[n:, m:] = True
        return bool((maximum_bipartite_matching(csr_matrix(graph), perm_type="column") >= 0).all())

    candidates = np.unique(np.concatenate([sup.ravel(), pers_z, pers_w]))
    return float(candidates[bisect.bisect_left(candidates, True, key=feasible)])


def wide_bottleneck(z, w):
    """d_B and its lex-min matching at width 2 * max(n, m), from ``conftest.padded_cost``.

    The first bound, then a bisection over the larger costs with scipy's
    maximum_bipartite_matching, then the lex-min pass from that matching.
    """
    cost = padded_cost(z, w, 2 * max(len(z), len(w)))
    if cost.size == 0:
        return 0.0, Matching(())
    bound = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    candidates = np.unique(cost[cost >= bound])

    def matched(t):
        return maximum_bipartite_matching(csr_matrix(cost <= t), perm_type="column")

    value = candidates[bisect.bisect_left(candidates, True, key=lambda t: (matched(t) >= 0).all())]
    return float(value), Matching(square_lex_min_perfect_matching(cost <= value, matched(value)))


class TestNarrowBottleneck:
    """d_B at width n + m gives the value and the matching pairs of width 2 * max(n, m)."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(integer_diagrams(6), diagrams(6)), st.one_of(integer_diagrams(6), diagrams(6)))
    @example(Diagram(), Diagram())
    @example(Diagram(), d((0, 2), (1, 4), (1, 4)))
    @example(d((0, 2), (0, 2), (1, 4)), Diagram())
    @example(d((0, 2), (0, 2)), d((0, 2)))
    @example(d((0, 3), (1, 3), (2, 4)), d((1, 3), (1, 3), (0, 2), (2, 4), (2, 5)))
    # the search's matching puts the point rows on columns (3, 2), the lex-min one on (1, 3)
    @example(d((2, 5), (3, 6)), d((2, 3), (3, 4), (3, 5), (3, 6)))
    @example(*BOUND_BELOW_OPTIMUM)
    @example(*AT_LARGEST_COST)
    @example(*WIDE)
    def test_equals_wide_reference_bit_for_bit(self, z, w):
        value, matching = wide_bottleneck(z, w)
        solved, narrow = bottleneck(z, w)
        assert solved == value and bottleneck_distance(z, w) == value
        assert describe_matching(z, w, narrow) == describe_padded(z, w, matching.pairing)

    @pytest.mark.parametrize("z,w", [(d((0, 2)), d((1, 3), (2, 6), (4, 5))),
                                     (Diagram(), d((1, 3), (2, 6))), AT_LARGEST_COST])
    def test_solves_at_width_n_plus_m(self, solves, z, w):
        # W_p solves at width n + m; the d_B search solves heavy rows of one
        # side against all points of the other, and no point is heavy at any
        # of these values, so the matching adds no solve
        width = (len(z) + len(w),) * 2
        for left, right in ((z, w), (w, z)):
            del solves[:]
            bottleneck_distance(left, right)
            search = list(solves)
            assert all(r <= c and ((r <= len(left) and c == len(right))
                                   or (r <= len(right) and c == len(left))) for r, c in search)
            bottleneck(left, right)
            assert solves == search + search
        del solves[:]
        wasserstein(z, w, 2)
        wasserstein_distance(w, z, 1)
        assert solves == [width, width]


def all_rows_tight_edges(cost, sigma, optimum):
    """Reference ``_tight_edges``: Bellman-Ford relaxes every one of the n + m rows."""
    n = cost.shape[0]
    tol = 1e-12 * optimum
    held = cost[np.arange(n), sigma]
    step = cost[:, sigma] - held[None, :]
    u = np.zeros(n)
    for _ in range(n):
        relaxed = (u[None, :] + step).min(axis=1)
        if (u - relaxed).max() <= tol / n:
            break
        u = relaxed
    v = np.empty(n)
    v[sigma] = held - u
    return cost - u[:, None] - v[None, :] <= tol


class TestTightEdges:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(integer_diagrams(6), diagrams(6)), st.one_of(integer_diagrams(6), diagrams(6)),
           st.sampled_from([1, 2, 3.5]))
    @example(Diagram(), Diagram(), 2)
    @example(Diagram(), d((0, 2), (0, 2), (1, 4)), 1)
    @example(d((0, 2), (0, 2), (1, 4)), Diagram(), 3.5)
    @example(d((0, 2), (0, 2)), d((0, 2), (1, 3), (1, 3)), 2)
    @example(*WIDE, 3.5)
    @example(random_diagram(np.random.default_rng(40), size=40),
             random_diagram(np.random.default_rng(30), size=30), 2)
    def test_distinct_rows_equal_all_rows(self, z, w, p):
        # the cost-power matrix and assignment of _wasserstein_solve
        cost = _cost(z, w)
        powered = (cost / cost.max(initial=0.0)) ** p
        rows, cols = linear_sum_assignment(powered)
        optimum = float(powered[rows, cols].sum())
        tight = _tight_edges(powered, cols, optimum, len(z))
        assert np.array_equal(tight, all_rows_tight_edges(powered, cols, optimum))
        # the block pass reads only the first DELTA column and row
        n, m = len(z), len(w)
        assert (tight[:, m:] == tight[:, m:m + 1]).all()
        assert (tight[n:] == tight[n:n + 1]).all()


def square_bottleneck(z, w):
    """d_B and its lex-min matching, recovered on all n + m slots by the reference pass."""
    value = bottleneck_distance(z, w)
    ok = _cost(z, w) <= value
    return value, Matching(square_lex_min_perfect_matching(ok, linear_sum_assignment(~ok)[1]))


def square_wasserstein(z, w, p):
    """W_p's lex-min tight-edge matching, recovered on all n + m slots by the reference pass.

    As in ``wasserstein``, the pair is solved in canonical order and the pairing inverted back.
    """
    swapped = w.points < z.points
    left, right = (w, z) if swapped else (z, w)
    cost = _cost(left, right)
    powered = (cost / cost.max(initial=0.0)) ** p
    rows, cols = linear_sum_assignment(powered)
    optimum = float(powered[rows, cols].sum())
    phi = square_lex_min_perfect_matching(_tight_edges(powered, cols, optimum, len(left)), cols)
    return Matching(tuple(np.argsort(phi).tolist()) if swapped else phi)


class TestBlockRecovery:
    """The lex-min pass on the point block returns the (n + m)-slot reference's matching."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(integer_diagrams(6), diagrams(6)), st.one_of(integer_diagrams(6), diagrams(6)))
    @example(Diagram(), Diagram())
    @example(Diagram(), d((0, 2), (1, 4), (1, 4)))
    @example(d((0, 2), (0, 2), (1, 4)), d((0, 2), (1, 3), (1, 3)))
    @example(*BOUND_BELOW_OPTIMUM)
    @example(*AT_LARGEST_COST)
    @example(*WIDE)
    @example(random_diagram(np.random.default_rng(256), size=256),
             random_diagram(np.random.default_rng(257), size=300))
    def test_equals_square_reference(self, z, w):
        for left, right in ((z, w), (w, z)):
            assert bottleneck(left, right) == square_bottleneck(left, right)
            for p in (1, 2, 3.5):
                assert wasserstein(left, right, p)[1] == square_wasserstein(left, right, p)


def test_512_point_pair():
    # Width 1024, on a pair for which Hopcroft-Karp on the threshold graph
    # took about 100 s (2-vCPU VM).
    rng = np.random.default_rng(2)
    z, w = random_diagram(rng, size=512), random_diagram(rng, size=512)
    value, matching = bottleneck(z, w)
    assert bottleneck_distance(z, w) == value
    assert sorted(matching.pairing) == list(range(1024))
    assert _cost(z, w)[np.arange(1024), matching.pairing].max() == value
    assert n_plus_m_bottleneck(z, w) == value
