"""Embedding constructions and their solver-verified guarantees."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coarsepd import (
    DegenerateDiameter,
    Diagram,
    EmptySpace,
    FiniteMetricSpace,
    MetricValidationError,
    NonpositiveSeparation,
    OutOfCube,
    TooLarge,
    bottleneck,
    coarse_disjoint_union,
    dranishnikov_S,
    embed_coarse_union,
    embed_cube_point,
    embed_finite_metric,
    validate_metric,
    wasserstein,
    zkm_space,
)
from coarsepd.embeddings import _triangle_rows, sup_distances
from coarsepd.metrics import rounding_slack
from conftest import random_connected_metric


# Entries on and either side of the default tolerance 1e-9, plus values
# that make symmetric, negative and triangle violations likely.
TOL_GRID = [0.0, 1e-9, -1e-9, 2e-9, 0.5, 1.0, 1.5, 2.0, 3.0, -1.0]
NON_FINITE = [math.nan, math.inf, -math.inf]


def oracle_violations(m, tol=1e-9, slack=None):
    """Plain triple loop over the axioms, in validate_metric's documented order.

    Entries count as zero within tol; the symmetric and triangle checks allow
    slack, tol by default."""
    slack = tol if slack is None else slack
    n = len(m)
    out = [("non_finite", i, j) for i in range(n) for j in range(n)
           if not math.isfinite(m[i][j])]
    out += [("nonzero_diagonal", i) for i in range(n) if abs(m[i][i]) > tol]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(m[i][j] - m[j][i]) > slack:
                out.append(("not_symmetric", i, j))
            if m[i][j] < -tol:
                out.append(("negative", i, j))
            if abs(m[i][j]) <= tol:
                out.append(("zero_off_diagonal", i, j))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if len({i, j, k}) == 3 and m[i][j] > (m[i][k] + m[k][j]) + slack:
                    out.append(("triangle", i, j, k))
    return out


class TestValidateMetric:
    def test_valid(self):
        space = validate_metric([[0, 1], [1, 0]])
        assert space.n_points == 2
        assert space.diameter == 1.0

    def test_valid_near_float_max(self):
        # d(i,k) + d(k,j) overflows to inf, which no entry exceeds
        mat = np.full((3, 3), 1e308) - np.diag([1e308] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_metric(mat).diameter == 1e308

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            validate_metric(np.zeros((2, 3)))

    def test_shape_must_match_labels(self):
        with pytest.raises(ValueError, match="^distance matrix shape does not match labels$"):
            FiniteMetricSpace(("a", "b"), np.zeros((3, 3)))

    def test_not_symmetric(self):
        with pytest.raises(MetricValidationError) as err:
            validate_metric([[0, 1], [2, 0]])
        assert ("not_symmetric", 0, 1) in err.value.violations

    def test_triangle_violation_with_witness(self):
        with pytest.raises(MetricValidationError) as err:
            validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert ("triangle", 0, 2, 1) in err.value.violations

    def test_collects_all_violations(self):
        with pytest.raises(MetricValidationError) as err:
            validate_metric([[1, 0], [0, 1]])
        kinds = {v[0] for v in err.value.violations}
        assert "nonzero_diagonal" in kinds and "zero_off_diagonal" in kinds

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected_first(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetricValidationError) as err:
                validate_metric([[0, bad, 1], [bad, 0, 1], [1, 1, 0]])
        assert err.value.violations[:2] == [("non_finite", 0, 1), ("non_finite", 1, 0)]

    @given(st.data())
    def test_exact_violation_list(self, data):
        n = data.draw(st.integers(0, 7))
        grid = TOL_GRID + (NON_FINITE if data.draw(st.booleans()) else [])
        rows = [[data.draw(st.sampled_from(grid)) for _ in range(n)] for _ in range(n)]
        if data.draw(st.booleans()):
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if data.draw(st.booleans()):
            for i in range(n):
                rows[i][i] = 0.0
        expected = oracle_violations(rows)
        try:
            validate_metric(np.array(rows, dtype=float).reshape(n, n))
            got = []
        except MetricValidationError as err:
            got = err.violations
        assert got == expected


# Entries whose sums and differences overflow, beside the non-finite ones.
BIG_GRID = [0.0, 1.0, 2.0, 1e308, 1.7e308, -1e308, math.nan, math.inf, -math.inf]


def finite_slack(rows):
    """validate_metric's slack: rounding_slack of the largest finite |entry|."""
    return rounding_slack(max((abs(v) for r in rows for v in r if math.isfinite(v)), default=0.0))


def violations_of(mat):
    try:
        validate_metric(mat)
    except MetricValidationError as err:
        return err.violations
    return []


class TestTriangleScreen:
    """validate_metric runs its triangle loop only on the rows _triangle_rows flags."""

    @pytest.mark.parametrize("n", [4, 7])
    def test_only_reverse_entry_breaks_triangle(self, n):
        line = [[float(abs(a - b)) for b in range(n)] for a in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            rows = [r[:] for r in line]
            rows[j][i] += 3.0  # d(j, i) breaks the triangle; d(i, j) keeps its metric value
            expected = oracle_violations(rows)
            triangles = [v for v in expected if v[0] == "triangle"]
            assert triangles and all(v[1:3] == (j, i) for v in triangles)
            assert violations_of(np.array(rows)) == expected

    @given(st.data())
    def test_non_finite_and_overflowing_entries(self, data):
        n = data.draw(st.integers(3, 6))
        rows = [[data.draw(st.sampled_from(BIG_GRID)) for _ in range(n)] for _ in range(n)]
        if data.draw(st.booleans()):
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][i] = 0.0
        expected = oracle_violations(rows, slack=finite_slack(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert violations_of(np.array(rows)) == expected

    @pytest.mark.parametrize("n", [40, 300])
    def test_planted_violation_flags_its_two_rows(self, rng, n):
        # distinct points of a 20 x 20 grid under the max metric, one pair moved apart
        cells = rng.choice(400, size=n, replace=False)
        mat = sup_distances(np.stack([cells // 20, cells % 20], axis=1).astype(float))
        i, j = sorted(int(v) for v in rng.choice(np.argwhere(mat >= 4.0)))
        assert _triangle_rows(mat, 1e-9).tolist() == []
        mat[i, j] = mat[j, i] = mat[i, j] + 0.5
        with np.errstate(invalid="ignore", over="ignore"):
            assert _triangle_rows(mat, 1e-9).tolist() == [i, j]
        rows = mat.tolist()
        if n <= 40:
            expected = oracle_violations(rows)
        else:  # the oracle's triangle loop over the two rows that can hold a witness
            expected = [("triangle", a, b, k) for k in range(n) for a, b in ((i, j), (j, i))
                        if k not in (a, b) and rows[a][b] > (rows[a][k] + rows[k][b]) + 1e-9]
        assert expected and violations_of(mat) == expected


class TestOwnership:
    def test_caller_array_left_writeable_and_unchanged(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        frozen_view = a.view()
        frozen_view.flags.writeable = False
        for space in (FiniteMetricSpace(("p", "q"), a), validate_metric(a),
                      FiniteMetricSpace(("p", "q"), frozen_view)):
            assert a.flags.writeable and a.tolist() == [[0.0, 1.0], [1.0, 0.0]]
            assert not space.dist.flags.writeable and not np.shares_memory(space.dist, a)

    def test_built_matrix_taken_without_copy(self):
        X = zkm_space(3, 2)
        assert FiniteMetricSpace(X.labels, X.dist).dist is X.dist
        U = coarse_disjoint_union([X, X], [1.0, 1.0])
        assert FiniteMetricSpace(U.space.labels, U.space.dist).dist is U.space.dist
        for space in (X, U.space, validate_metric(X.dist)):
            assert not space.dist.flags.writeable and space.dist.base is None

    def test_zkm_peak_is_one_matrix(self):
        # the matrix is 8 MB; a copy of it or an (n, n) temporary would double the peak
        tracemalloc.start()
        try:
            X = zkm_space(32, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.dist.nbytes == 8 * 1024 ** 2 and peak < 1.25 * X.dist.nbytes


class TestEmbedFiniteMetric:
    def test_two_point_formula(self):
        X = validate_metric([[0, 1], [1, 0]])
        f = embed_finite_metric(X)
        assert f[0].points == ((3.0, 7.0),)
        assert f[1].points == ((3.0, 6.0),)
        assert bottleneck(f[0], f[1])[0] == 1.0

    def test_single_point(self):
        X = validate_metric([[0.0]])
        assert embed_finite_metric(X) == [Diagram()]

    def test_matches_pointwise_formula(self, rng):
        X = random_connected_metric(rng, 9)
        rho = X.diameter
        want = [Diagram(tuple((3.0 * rho * i, 3.0 * rho * i + 3.0 * rho + float(X.dist[k, i]))
                              for i in range(1, 9)))
                for k in range(9)]
        assert embed_finite_metric(X) == want

    def test_empty_space_rejected(self):
        with pytest.raises(EmptySpace, match="^cannot embed an empty space$"):
            embed_finite_metric(FiniteMetricSpace((), np.zeros((0, 0))))

    def test_zero_diameter_rejected(self):
        # validate_metric would reject the zero off-diagonal entry first
        with pytest.raises(DegenerateDiameter, match="^multi-point space with zero diameter$"):
            embed_finite_metric(FiniteMetricSpace(("a", "b"), np.zeros((2, 2))))

    def test_three_point_formula_and_isometry(self):
        X = validate_metric([[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
        f = embed_finite_metric(X)
        assert f[0].points == ((6.0, 13.0), (12.0, 20.0))
        assert f[1].points == ((6.0, 12.0), (12.0, 19.5))
        assert f[2].points == ((6.0, 13.5), (12.0, 18.0))
        for i in range(3):
            for j in range(3):
                value, _ = bottleneck(f[i], f[j])
                assert value == pytest.approx(X.dist[i, j], abs=1e-9)

    def test_random_spaces_isometric_with_perfect_equal_birth_matchings(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            X = random_connected_metric(rng, n)
            f = embed_finite_metric(X)
            for i in range(n):
                for j in range(i + 1, n):
                    value, matching = bottleneck(f[i], f[j])
                    assert value == pytest.approx(X.dist[i, j], abs=1e-9)
                    for a, b in enumerate(matching.pairing):
                        left_real = a < len(f[i])
                        right_real = b < len(f[j])
                        assert left_real == right_real  # perfect
                        if left_real:
                            assert f[i].points[a][0] == f[j].points[b][0]  # equal births

    def test_fact3_inequality(self, rng):
        X = random_connected_metric(rng, 6)
        D = X.dist
        for j in range(6):
            for k in range(6):
                for i in range(6):
                    assert abs(D[j, i] - D[k, i]) <= D[j, k] + 1e-12
                # equality attained at i = j and i = k
                assert abs(D[j, j] - D[k, j]) == pytest.approx(D[j, k])


class TestEmbedCube:
    def test_pattern_n1(self):
        assert embed_cube_point([2.0], 5.0).points == ((10.0, 22.0),)

    def test_pattern_n2(self):
        dgm = embed_cube_point([0.5, 1.0], 1.0)
        assert dgm.points == ((2.0, 4.5), (4.0, 7.0))

    def test_bottleneck_matches_sup(self):
        a = embed_cube_point([0.0], 5.0)
        b = embed_cube_point([3.0], 5.0)
        assert bottleneck(a, b)[0] == 3.0

    @pytest.mark.parametrize("R", [0.0, -1.0])
    def test_nonpositive_radius(self, R):
        with pytest.raises(ValueError, match="^R must be positive$"):
            embed_cube_point([0.0], R)

    def test_out_of_cube(self):
        with pytest.raises(OutOfCube):
            embed_cube_point([6.0], 5.0)
        with pytest.raises(OutOfCube):
            embed_cube_point([-0.1], 5.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("R", [1.0, 10.0, 1000.0])
    def test_isometry_both_metrics(self, rng, n, R):
        for _ in range(10):
            x = rng.uniform(0, R, size=n)
            y = rng.uniform(0, R, size=n)
            dx, dy = embed_cube_point(x, R), embed_cube_point(y, R)
            assert bottleneck(dx, dy)[0] == pytest.approx(np.max(np.abs(x - y)), abs=1e-9)
            for p in (1, 2):
                expected = np.sum(np.abs(x - y) ** p) ** (1 / p)
                assert wasserstein(dx, dy, p)[0] == pytest.approx(expected, abs=1e-6)


class TestSupDistances:
    @pytest.mark.parametrize("n,m", [(1, 1), (7, 1), (20, 3), (33, 5), (300, 2)])
    def test_matches_broadcast(self, rng, n, m):
        k = int(rng.integers(1, 9))
        grid = rng.integers(0, k, size=(n, m)).astype(np.int32)
        diff = np.abs(grid[:, None, :] - grid[None, :, :])
        want = np.minimum(diff, k - diff).max(axis=2).astype(float)
        assert sup_distances(grid, period=k).tobytes() == want.tobytes()
        cube = rng.uniform(0.0, 10.0 ** float(rng.integers(-3, 7)), size=(n, m))
        want = np.abs(cube[:, None, :] - cube[None, :, :]).max(axis=2)
        assert sup_distances(cube).tobytes() == want.tobytes()


class TestZkm:
    def test_wraparound(self):
        Z4 = zkm_space(4, 1)
        assert Z4.dist[0, 3] == 1.0

    def test_product_max(self):
        Z42 = zkm_space(4, 2)
        i = Z42.labels.index("0-0")
        j = Z42.labels.index("2-1")
        assert Z42.dist[i, j] == 2.0

    def test_z2_cubed_diameter(self):
        assert zkm_space(2, 3).diameter == 1.0

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("COARSE_PD_MAX_POINTS", "4096")
        with pytest.raises(TooLarge):
            zkm_space(10, 5)
        # 10^5000 is never built: the exponent alone passes the cap
        with pytest.raises(TooLarge, match="cap 4096$"):
            zkm_space(10, 5000)
        # (Z_1)^m has one point, but its label would have m coordinates
        with pytest.raises(TooLarge, match="^M = 100000000000 exceeds cap 4096$"):
            zkm_space(1, 10**11)
        assert zkm_space(1, 4096).n_points == 1

    @pytest.mark.parametrize("k,m", [(0, 1), (1, 0), (-2, 3)])
    def test_nonpositive_arguments(self, k, m):
        with pytest.raises(ValueError, match="^k and m must be >= 1$"):
            zkm_space(k, m)

    def test_is_metric(self):
        Z = zkm_space(5, 2)
        validate_metric(Z.dist, Z.labels)


class TestCoarseDisjointUnion:
    def test_two_blocks(self):
        b1 = validate_metric([[0, 1], [1, 0]])
        b2 = validate_metric([[0, 2], [2, 0]])
        U = coarse_disjoint_union([b1, b2], [1.0, 1.0])
        cross = U.space.dist[0, 2]
        assert cross == 5.0
        assert cross > max(b1.diameter, b2.diameter)
        validate_metric(U.space.dist, U.space.labels)

    def test_blocks_and_cross_distances_kept_exactly(self):
        b0, b1 = zkm_space(17, 2), zkm_space(16, 2)
        U = coarse_disjoint_union([b0, b1], [0.1, 0.2])
        assert U.space.n_points == 545
        assert U.space.labels == tuple(f"0:{lab}" for lab in b0.labels) + tuple(
            f"1:{lab}" for lab in b1.labels)
        dist = U.space.dist
        assert dist[:289, :289].tobytes() == b0.dist.tobytes()
        assert dist[289:, 289:].tobytes() == b1.dist.tobytes()
        assert U.offsets == (0, 289, 545)
        cross = U.radius[0] + U.radius[1]
        assert np.all(dist[:289, 289:] == cross) and np.all(dist[289:, :289] == cross)

    def test_single_block_is_a_union_like_any_other(self):
        b = validate_metric([[0, 1], [1, 0]], ["p", "q"])
        U = coarse_disjoint_union([b], [1.0])
        assert U.space.labels == ("0:p", "0:q")
        assert U.space.dist.tobytes() == b.dist.tobytes()
        assert U.offsets == (0, 2) and U.radius == (2.0,)

    @pytest.mark.parametrize("n_empty", [1, 2])
    def test_empty_block_rejected(self, n_empty):
        # one empty block alone, or before a (Z_2)^1 block
        empty = FiniteMetricSpace((), np.zeros((0, 0)))
        with pytest.raises(EmptySpace, match="^block 0 has no points$"):
            coarse_disjoint_union([empty, zkm_space(2, 1)][:n_empty], [1.0] * n_empty)

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_nan_block_rejected_in_any_position(self, nan_first):
        # a NaN distance makes the block's diameter, and so its c_i, NaN
        nan_block = FiniteMetricSpace(("a", "b"), [[0.0, math.nan], [math.nan, 0.0]])
        blocks = [nan_block, zkm_space(2, 1)] if nan_first else [zkm_space(2, 1), nan_block]
        with pytest.raises(NonpositiveSeparation):
            coarse_disjoint_union(blocks, [1.0, 1.0])

    @pytest.mark.parametrize("n_blocks,seps,message", [
        (0, [], "need at least one block"),
        (2, [1.0], "one separation per block required"),
        (1, [1.0, 1.0], "one separation per block required"),
    ])
    def test_block_and_separation_counts(self, n_blocks, seps, message):
        b = validate_metric([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match=f"^{message}$"):
            coarse_disjoint_union([b] * n_blocks, seps)

    def test_nonpositive_separation(self):
        b = validate_metric([[0, 1], [1, 0]])
        # 1e308 is positive and finite, but c_0 + c_1 overflows
        for bad in (0.0, math.nan, math.inf, 1e308):
            with pytest.raises(NonpositiveSeparation):
                coarse_disjoint_union([b, b], [1.0, bad])

    @pytest.mark.parametrize("max_n", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_m", [1, 2, 3])
    def test_dranishnikov_unions_are_metrics(self, max_n, max_m):
        # the union is not validated when it is built; its docstring proves it is a metric
        U = dranishnikov_S(max_n, max_m)
        validate_metric(U.space.dist, U.space.labels)

    def test_dranishnikov_rule_bound(self):
        # truncated union of (Z_2)^1 and (Z_2)^2
        U = dranishnikov_S(2, 2)
        meta = U.block_meta
        for bi in range(len(U.radius)):
            for bj in range(bi + 1, len(U.radius)):
                n_i, m_i = meta[bi]
                n_j, m_j = meta[bj]
                required = U.radius[bi] + U.radius[bj]
                assert required > m_i + n_i + m_j + n_j


class TestDranishnikov:
    def test_minimal(self):
        U = dranishnikov_S(1, 1)
        assert len(U.radius) == 1
        assert U.space.n_points == 1

    def test_2x2_blocks(self):
        U = dranishnikov_S(2, 2)
        assert U.block_meta == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert U.offsets == (0, 1, 2, 4, 8)

    def test_3x2_cardinality(self):
        U = dranishnikov_S(3, 2)
        assert len(U.radius) == 6 and len(U.offsets) == 7
        assert U.space.n_points == 20

    def test_cap(self, monkeypatch):
        # 1,274 points: below the default cap, so only a cap read from the
        # environment rejects them.
        monkeypatch.setenv("COARSE_PD_MAX_POINTS", "1000")
        with pytest.raises(TooLarge):
            dranishnikov_S(5, 4)
        with pytest.raises(TooLarge, match="cap 1000$"):
            dranishnikov_S(3, 20000)

    @pytest.mark.parametrize("max_n,max_m", [(0, 1), (1, 0)])
    def test_nonpositive_arguments(self, max_n, max_m):
        with pytest.raises(ValueError, match="^max_n and max_m must be >= 1$"):
            dranishnikov_S(max_n, max_m)


class TestEmbedCoarseUnion:
    def test_two_blocks_cross_bound(self):
        b1 = validate_metric([[0, 1], [1, 0]])
        b2 = validate_metric([[0, 2], [2, 0]])
        U = coarse_disjoint_union([b1, b2], [1.0, 1.0])
        emb = embed_coarse_union(U)
        assert emb.intra_max_deviation <= 1e-9
        assert emb.cross[0].required == 5.0
        assert emb.cross[0].realized_min >= 5.0
        # verify directly with the solver
        for di in emb.diagrams[:2]:
            for dj in emb.diagrams[2:]:
                assert bottleneck(di, dj)[0] >= 5.0

    def test_single_block(self):
        b = validate_metric([[0, 1], [1, 0]])
        U = coarse_disjoint_union([b], [1.0])
        emb = embed_coarse_union(U)
        assert emb.intra_max_deviation <= 1e-9
        assert emb.cross == ()
        # no cross distances: the scale is the block's own c_0 = 1 + 1
        assert [dgm.points for dgm in emb.diagrams] == [((6.0, 13.0),), ((6.0, 12.0),)]

    def test_blocks_are_shifted_embeddings_at_scale_c(self):
        U = dranishnikov_S(3, 2)
        emb = embed_coarse_union(U)
        big_c = max(ci + cj for ci, cj in itertools.combinations(U.radius, 2))
        start, off = 0, 0.0
        for bi, (n, m) in enumerate(U.block_meta):
            b = zkm_space(n, m)
            assert U.offsets[bi] == start
            got = emb.diagrams[start:start + b.n_points]
            if b.n_points == 1:
                want = [((off + 3.0 * big_c, off + 6.0 * big_c),)]
            else:
                # (3Ci + off, 3Ci + 3C + d(x_k, x_i) + off) for i = 1..n-1
                want = [tuple((3.0 * big_c * i + off,
                               3.0 * big_c * i + 3.0 * big_c + float(b.dist[k, i]) + off)
                              for i in range(1, b.n_points))
                        for k in range(b.n_points)]
            assert [dgm.points for dgm in got] == want
            start += b.n_points
            off += 3.0 * max(b.n_points - 1, 1) * big_c + 2.0 * big_c
        assert start == len(emb.diagrams)

    def test_truncated_union_z2_z3(self):
        b1 = zkm_space(2, 1)
        b2 = zkm_space(3, 1)
        U = coarse_disjoint_union([b1, b2], [2.0 + 1.0 + 1.0, 3.0 + 1.0 + 1.0])
        emb = embed_coarse_union(U)
        assert emb.intra_max_deviation <= 1e-9
        assert all(c.realized_min > 1 + 2 + 1 + 3 for c in emb.cross)
