"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from coarsepd import (
    Diagram,
    bottleneck,
    bottleneck_1pt_array,
    bottleneck_bruteforce,
    brick_classify_array,
    coarse_disjoint_union,
    diagram_point_sampler,
    dranishnikov_S,
    embed_coarse_union,
    embed_cube_point,
    embed_finite_metric,
    interval_classify_array,
    line_sampler,
    validate_metric,
    verify_cover,
    wasserstein,
    wasserstein_bruteforce,
)
from coarsepd.oracle import min_assignment_max
from conftest import padded_cost, random_connected_metric, sandwich_holds
from cover_reference import broken_interval_classify_array

TOL = 1e-9

# Sizes weighted toward small diagrams so the factorial oracle stays in budget
SIZE_CHOICES = [0, 1, 2, 3, 4, 5]
SIZE_WEIGHTS = [0.15, 0.20, 0.25, 0.20, 0.12, 0.08]


def _weighted_diagram(rng, scale=10.0):
    size = int(rng.choice(SIZE_CHOICES, p=SIZE_WEIGHTS))
    pts = []
    for _ in range(size):
        b = float(rng.uniform(0.0, scale))
        pts.append((b, b + float(rng.uniform(1e-3, scale))))
    return Diagram(pts)


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    pairs = 0
    while pairs < 500:
        z = _weighted_diagram(rng)
        w = _weighted_diagram(rng)
        vb_oracle, _ = bottleneck_bruteforce(z, w)
        vb, _ = bottleneck(z, w)
        assert abs(vb - vb_oracle) <= TOL
        for p in (1, 2, 3):
            vw_oracle, _ = wasserstein_bruteforce(z, w, p)
            vw, _ = wasserstein(z, w, p)
            assert abs(vw - vw_oracle) <= TOL
        pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    print(f"\nACCEPTANCE 1: PASS - {pairs} pairs match the permutation oracle "
          f"within 1e-9 in {elapsed:.1f}s")


def test_criterion_2_metric_axioms():
    rng = np.random.default_rng(1002)
    for _ in range(200):
        sizes = rng.integers(0, 7, size=3)
        x, y, z = (
            Diagram([
                (b, b + q) for b, q in zip(
                    rng.uniform(0, 10, size=s), rng.uniform(1e-3, 10, size=s))
            ])
            for s in sizes
        )
        assert bottleneck(x, y)[0] == bottleneck(y, x)[0]
        assert wasserstein(x, y, 2)[0] == wasserstein(y, x, 2)[0]
        assert bottleneck(x, z)[0] <= bottleneck(x, y)[0] + bottleneck(y, z)[0] + TOL
        assert (wasserstein(x, z, 2)[0]
                <= wasserstein(x, y, 2)[0] + wasserstein(y, z, 2)[0] + TOL)
    print("\nACCEPTANCE 2: PASS - symmetry exact and triangle inequality "
          "within 1e-9 on 200 random triples")


def test_criterion_3_sandwich_and_monotonicity():
    rng = np.random.default_rng(1003)
    for _ in range(200):
        z = _weighted_diagram(rng)
        w = _weighted_diagram(rng)
        for p in (1, 2, 4):
            assert sandwich_holds(z, w, p)
        db = bottleneck(z, w)[0]
        prev = math.inf
        for p in (1, 2, 4):
            v = wasserstein(z, w, p)[0]
            assert v <= prev + TOL
            assert v >= db - TOL
            prev = v
    print("\nACCEPTANCE 3: PASS - sandwich bound and p-monotonicity hold "
          "on 200 sampled pairs, p in {1,2,4}")


def test_criterion_4_finite_metric_isometry():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        X = random_connected_metric(rng, n)
        f = embed_finite_metric(X)
        for i in range(n):
            for j in range(i + 1, n):
                value, matching = bottleneck(f[i], f[j])
                worst = max(worst, abs(value - float(X.dist[i, j])))
                for a, b in enumerate(matching.pairing):
                    left_real = a < len(f[i])
                    right_real = b < len(f[j])
                    assert left_real == right_real, "matching not perfect"
                    if left_real:
                        assert f[i].points[a][0] == f[j].points[b][0], \
                            "matched births differ"
    assert worst <= TOL
    print(f"\nACCEPTANCE 4: PASS - 50 embedded graph metrics isometric "
          f"(max deviation {worst:.2e}), matchings perfect with equal births")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("R", [1.0, 10.0, 1000.0])
def test_criterion_5_cube_isometry(n, R):
    rng = np.random.default_rng(1005 + n * 10 + int(R))
    worst_b = worst_w = 0.0
    for _ in range(200):
        x = rng.uniform(0.0, R, size=n)
        y = rng.uniform(0.0, R, size=n)
        dx, dy = embed_cube_point(x, R), embed_cube_point(y, R)
        worst_b = max(worst_b, abs(bottleneck(dx, dy)[0] - float(np.max(np.abs(x - y)))))
        for p in (1, 2):
            ref = float(np.sum(np.abs(x - y) ** p) ** (1.0 / p))
            worst_w = max(worst_w, abs(wasserstein(dx, dy, p)[0] - ref))
    assert worst_b <= 1e-9
    assert worst_w <= 1e-6
    print(f"\nACCEPTANCE 5: PASS - cube n={n} R={R}: bottleneck dev "
          f"{worst_b:.2e} <= 1e-9, Wasserstein dev {worst_w:.2e} <= 1e-6")


def test_criterion_6_cover_witnesses():
    for R in (1.0, 10.0, 100.0):
        report = verify_cover(diagram_point_sampler(max_persistence=1e4 * R),
                              brick_classify_array, bottleneck_1pt_array,
                              R, 10000, 7, 6.0 * R)
        assert report.ok, f"brick cover violations at R={R}: {report.violations[:3]}"
        assert report.min_same_family_cross_set_distance > R
    for R in (1.0, 5.0):
        report = verify_cover(line_sampler(window=1000.0 * R), interval_classify_array,
                              lambda a, b: abs(a - b), R, 10000, 3, 2.0 * R)
        assert report.ok
    broken = verify_cover(line_sampler(window=100.0), broken_interval_classify_array,
                          lambda a, b: abs(a - b), 1.0, 10000, 11, 2.0)
    assert len(broken.violations) >= 1
    print("\nACCEPTANCE 6: PASS - brick cover clean at R in {1,10,100}, "
          "interval cover clean at R in {1,5}, negative control flagged")


def test_criterion_7_dranishnikov_construction():
    U = dranishnikov_S(3, 2)
    validate_metric(U.space.dist, U.space.labels)
    emb = embed_coarse_union(U)
    assert emb.intra_max_deviation <= TOL
    for sep in emb.cross:
        n_i, m_i = U.block_meta[sep.block_i]
        n_j, m_j = U.block_meta[sep.block_j]
        assert sep.realized_min > m_i + n_i + m_j + n_j
    # generic-rule unions also validate
    rng = np.random.default_rng(1007)
    blocks = [random_connected_metric(rng, int(rng.integers(2, 5))) for _ in range(3)]
    generic = coarse_disjoint_union(blocks, [1.0, 2.5, 0.75])
    validate_metric(generic.space.dist, generic.space.labels)
    print(f"\nACCEPTANCE 7: PASS - S(3,2) embedded with intra deviation "
          f"{emb.intra_max_deviation:.2e}; all cross distances exceed "
          f"m+n+m'+n'; unions validate")


def test_criterion_8_padding_and_permutation_invariance():
    rng = np.random.default_rng(1008)
    for _ in range(50):
        z = _weighted_diagram(rng)
        w = _weighted_diagram(rng)
        shuffled = list(z.points)
        rng.shuffle(shuffled)
        assert Diagram(shuffled) == z
        # DELTA slots beyond n + m, up to the width 2 max(n, m) and past it, leave the
        # optimum unchanged
        extra = int(rng.integers(0, 4))
        cost = padded_cost(z, w, 2 * max(len(z), len(w)) + extra)
        assert min_assignment_max(cost)[0] == bottleneck(z, w)[0]
    print("\nACCEPTANCE 8: PASS - point shuffling leaves the diagram, and extra "
          "diagonal padding the bottleneck optimum, exactly unchanged")


def test_criterion_9_out_of_scope_documented():
    # Existence results (exact asymptotic-dimension values, Hilbert-space
    # non-embeddability) are not computationally reproducible; the suite
    # substitutes the constructive certificates of criteria 4-7.
    print("\nACCEPTANCE 9: PASS - non-reproducible existence results "
          "substituted by constructive certificates (criteria 4-7)")
