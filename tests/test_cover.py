"""Cover classifications and the sampled verifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsepd import (
    DELTA,
    CoverReport,
    bottleneck_1pt,
    bottleneck_1pt_array,
    brick_classify,
    brick_classify_array,
    broken_interval_classify,
    broken_interval_classify_array,
    diagram_point_sampler,
    interval_classify,
    interval_classify_array,
    is_delta,
    line_sampler,
    verify_cover,
)
from coarsepd.cover import _BLOCK_TRIALS, DELTA_PROB, MAX_RECORDED_VIOLATIONS


def as_columns(points):
    """Scalar points as the (births, deaths) array of the array forms."""
    return np.array([(math.nan, math.nan) if is_delta(p) else p for p in points],
                    dtype=float).reshape(-1, 2).T


# Per-trial reference: scalar samplers drawing from the Generator itself,
# the scalar classifiers and metric, one Python iteration per trial.

def scalar_line_sampler(window):
    def sample(rng):
        return float(rng.uniform(-window, window))

    def perturb(rng, t, scale):
        return float(t + rng.uniform(-scale, scale))

    return sample, perturb


def scalar_point_sampler(top):
    def sample(rng):
        if rng.random() < DELTA_PROB:
            return DELTA
        q = float(rng.uniform(0.0, top))
        u = float(rng.uniform(q, q + top))
        if q <= 0.0:
            return DELTA
        return (u - q, u + q)

    def perturb(rng, p, scale):
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


def reference_report(sample, perturb, classify, metric, R, trials, seed, bound,
                     cap=MAX_RECORDED_VIOLATIONS):
    rng = np.random.default_rng(seed)
    min_cross, max_diam, violations = math.inf, 0.0, []
    for _ in range(trials):
        x = sample(rng)
        if rng.random() < 0.5:
            y = perturb(rng, x, 3.0 * bound)
        else:
            y = sample(rng)
        lx, ly = classify(x, R), classify(y, R)
        if lx.family != ly.family:
            continue
        dist = float(metric(x, y))
        if lx.set_id == ly.set_id:
            max_diam = max(max_diam, dist)
            if dist > bound + 1e-9:
                violations.append(("diameter_exceeded", x, y, dist))
        else:
            min_cross = min(min_cross, dist)
            if dist <= R:
                violations.append(("sets_too_close", x, y, dist))
    return CoverReport(R, trials, min_cross, max_diam, bound, violations[:cap])


def line_metric(a, b):
    return abs(a - b)


# (space, R, sampling half-width or top persistence, claimed bound)
STREAM_CASES = [
    ("d1", 1.0, 1e4, 6.0),
    ("d1", 0.37, 370.0, 2.22),
    ("d1", 123.456, 0.123456, 740.736),
    ("d1", 1.0, 30.0, 1.0),        # bound below the brick diameters
    ("line", 5.0, 5000.0, 10.0),
    ("line", 1e-3, 1e-3, 2e-3),
    ("broken", 1.0, 100.0, 0.5),  # adjacent sets share a family
]


class TestStreamEquivalence:
    def test_uniform_is_affine_in_random(self):
        # The property the array verifier rests on: each scalar draw reads
        # one double of the stream random(k) gives, and uniform(lo, hi) is
        # lo + (hi - lo) * u for it.
        scalar, block = np.random.default_rng(5), np.random.default_rng(5)
        u = block.random(3000)
        for k in range(3000):
            lo, hi = -3.7 * k, 11.1 * (k + 1)
            if k % 3:
                assert float(scalar.uniform(lo, hi)) == lo + (hi - lo) * u[k]
            else:
                assert scalar.random() == u[k]

    @pytest.mark.parametrize("trials", [1, 7, _BLOCK_TRIALS + 1])
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("case", STREAM_CASES, ids=lambda c: f"{c[0]}-R{c[1]}-b{c[3]}")
    def test_report_equals_per_trial_loop(self, case, seed, trials):
        space, R, extent, bound = case
        if space == "d1":
            sampler = diagram_point_sampler(extent)
            ref_sample, ref_perturb = scalar_point_sampler(extent)
            classify, ref_classify = brick_classify_array, brick_classify
            metric, ref_metric = bottleneck_1pt_array, bottleneck_1pt
        else:
            sampler = line_sampler(extent)
            ref_sample, ref_perturb = scalar_line_sampler(extent)
            classify, ref_classify = ((interval_classify_array, interval_classify)
                                      if space == "line" else
                                      (broken_interval_classify_array,
                                       broken_interval_classify))
            metric = ref_metric = line_metric
        report = verify_cover(sampler, classify, metric, R, trials, seed, bound)
        expected = reference_report(ref_sample, ref_perturb, ref_classify, ref_metric,
                                    R, trials, seed, bound)
        assert repr(report) == repr(expected)
        if space == "broken" and trials > 100:
            assert len(report.violations) == 100

    def test_violation_cap(self):
        ref_sample, ref_perturb = scalar_line_sampler(100.0)
        trials = 2 * _BLOCK_TRIALS + 5
        expected = reference_report(ref_sample, ref_perturb, broken_interval_classify,
                                    line_metric, 1.0, trials, 5, 2.0, None)
        full = expected.violations
        assert len(full) > MAX_RECORDED_VIOLATIONS == 100
        report = verify_cover(line_sampler(100.0), broken_interval_classify_array,
                              line_metric, 1.0, trials, 5, 2.0)
        expected.violations = full[:100]
        assert repr(report) == repr(expected)

    def test_block_memory_is_bounded(self):
        # Unread doubles carry into the next block; the blocks must not grow.
        sample, perturb = diagram_point_sampler(1e4)
        sizes = []

        def recording_sample(u, at):
            sizes.append(u.size)
            return sample(u, at)

        verify_cover((recording_sample, perturb), brick_classify_array,
                     bottleneck_1pt_array, 1.0, 6 * _BLOCK_TRIALS, 0, 6.0)
        assert sizes == [7 * _BLOCK_TRIALS] * 6


def grid_point(L, i, j, dq, du):
    q = L * (1 + j) + dq * L
    u = 2.0 * L * i + L * j + du * L
    return (u - q, u + q)


@st.composite
def diagram_points(draw, R):
    """DELTA, points on and near brick edges (q == L among them), or free points."""
    kind = draw(st.sampled_from(["delta", "grid", "free", "huge"]))
    if kind == "delta":
        return DELTA
    if kind == "grid":
        return grid_point(2.0 * R, draw(st.integers(-3, 30)), draw(st.integers(-1, 30)),
                          draw(st.sampled_from([0.0, 0.5, -0.25, 1e-12])),
                          draw(st.sampled_from([0.0, 1.0, 0.5, -1e-12])))
    bound = 1e300 if kind == "huge" else 1e4
    q = draw(st.floats(0.0, bound))
    u = draw(st.floats(q, 2.0 * bound))
    return (u - q, u + q)


SCALES = st.sampled_from([1.0, 0.5, 0.37, 3.0, 1e-3, 123.456])


class TestArrayForms:
    @settings(deadline=None)
    @given(st.data())
    def test_brick_labels_equal_scalar(self, data):
        R = data.draw(SCALES)
        L = 2.0 * R
        fixed = [DELTA, grid_point(L, 0, -1, 0.0, 3.0),  # q == L exactly
                 grid_point(L, 0, 0, 0.5, 0.75),          # color 0, j == 0: merged into N
                 grid_point(L, 2, 1, 0.0, 0.0)]           # on a brick corner
        points = fixed + data.draw(st.lists(diagram_points(R), max_size=20))
        labels = brick_classify_array(as_columns(points), R)
        assert labels.shape == (3, len(points))
        for p, (family, i, j) in zip(points, labels.T.tolist()):
            ref = brick_classify(p, R)
            assert family == ref.family
            assert (i, j) == (0.0, -1.0) if ref.set_id == "N" else ("brick", i, j) == ref.set_id

    @settings(deadline=None)
    @given(st.data())
    def test_interval_labels_equal_scalar(self, data):
        R = data.draw(SCALES)
        edges = st.integers(-10**6, 10**6).map(lambda k: 2.0 * R * k)
        values = st.one_of(st.floats(-1e300, 1e300), edges, st.just(-0.0))
        t = data.draw(st.lists(values, min_size=1, max_size=30))
        for array_form, scalar in ((interval_classify_array, interval_classify),
                                   (broken_interval_classify_array, broken_interval_classify)):
            labels = array_form(np.array(t), R)
            assert labels.shape == (2, len(t))
            for value, (family, k) in zip(t, labels.T.tolist()):
                ref = scalar(value, R)
                assert (family, k) == (ref.family, ref.set_id)

    @settings(deadline=None)
    @given(st.data())
    def test_bottleneck_1pt_equals_scalar(self, data):
        R = data.draw(SCALES)
        pairs = data.draw(st.lists(st.tuples(diagram_points(R), diagram_points(R)),
                                   min_size=1, max_size=20))
        pairs += [(DELTA, DELTA), (DELTA, (1.0, 4.0)), ((1.0, 4.0), DELTA)]
        left, right = zip(*pairs)
        values = bottleneck_1pt_array(as_columns(left), as_columns(right)).tolist()
        assert values == [bottleneck_1pt(a, b) for a, b in pairs]


class TestIntervalClassify:
    def test_first_interval(self):
        label = interval_classify(0.5, 1.0)
        assert (label.family, label.set_id) == (0, 0)

    def test_second_interval(self):
        label = interval_classify(2.5, 1.0)
        assert (label.family, label.set_id) == (1, 1)

    def test_same_family_sets_are_2R_apart(self):
        # set 0 covers [0, 2), set 2 covers [4, 6): gap 2 > R = 1
        assert interval_classify(1.999, 1.0).set_id == 0
        assert interval_classify(4.0, 1.0).set_id == 2
        assert interval_classify(4.0, 1.0).family == interval_classify(1.0, 1.0).family

    def test_negative_axis(self):
        label = interval_classify(-0.5, 1.0)
        assert label.set_id == -1 and label.family == 1


class TestBrickClassify:
    def test_delta_in_near_diagonal_set(self):
        label = brick_classify(DELTA, 1.0)
        assert (label.family, label.set_id) == (0, "N")

    def test_low_persistence_in_near_diagonal_set(self):
        label = brick_classify((0.0, 3.0), 1.0)
        assert (label.family, label.set_id) == (0, "N")

    def test_worked_formula(self):
        # q = 50, row j = floor((50-2)/2) = 24, brick i = floor((50-48)/4) = 0,
        # color (2*0+24) % 3 = 0 and j >= 1 keeps the brick separate
        label = brick_classify((0.0, 100.0), 1.0)
        assert label.family == 0
        assert label.set_id == ("brick", 0, 24)

    def test_row0_color0_merges_into_near_diagonal_set(self):
        # q in (2, 4], u in [0, 4) has i = j = 0, color 0
        label = brick_classify((0.0, 6.0), 1.0)  # u = 3, q = 3
        assert (label.family, label.set_id) == (0, "N")

    def test_partition_deterministic(self):
        a = (2.0, 30.0)
        assert brick_classify(a, 1.0) == brick_classify(a, 1.0)

    @pytest.mark.parametrize("s", [0.5, 3.0, 100.0])
    def test_scale_equivariance(self, s, rng):
        for _ in range(200):
            q = float(rng.uniform(0.01, 100.0))
            u = float(rng.uniform(q, q + 200.0))
            a = (u - q, u + q)
            scaled = ((u - q) * s, (u + q) * s)
            l1 = brick_classify(a, 1.0)
            l2 = brick_classify(scaled, s)
            assert l1 == l2


class TestVerifyCover:
    def test_brick_cover_no_violations(self):
        report = verify_cover(diagram_point_sampler(1e4), brick_classify_array,
                              bottleneck_1pt_array, 1.0, 10000, 7, 6.0)
        assert report.ok
        assert report.min_same_family_cross_set_distance > 1.0
        assert report.max_set_diameter_observed <= 6.0

    def test_interval_cover_no_violations(self):
        report = verify_cover(line_sampler(5000.0), interval_classify_array,
                              lambda a, b: abs(a - b), 5.0, 10000, 3, 10.0)
        assert report.ok
        assert report.uniform_bound_claimed == 10.0

    def test_broken_labeling_detected(self):
        report = verify_cover(line_sampler(100.0), broken_interval_classify_array,
                              lambda a, b: abs(a - b), 1.0, 10000, 11, 2.0)
        assert len(report.violations) >= 1
        assert not report.ok

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_cover(line_sampler(), interval_classify_array, lambda a, b: abs(a - b),
                         1.0, 0, 0, 2.0)
