"""Tour of the diagram distances.

Builds a few small persistence diagrams, computes bottleneck and
p-Wasserstein distances with their optimal matchings, and shows the
sandwich inequality that makes the two families coarsely equivalent.

Run:  python3 demos/distances.py
"""

import numpy as np

from coarsepd import (
    Diagram,
    bottleneck,
    bottleneck_bruteforce,
    bottleneck_distance,
    describe_matching,
    wasserstein,
    wasserstein_distance,
)
from coarsepd.metrics import rounding_slack


def main() -> None:
    z = Diagram([(0.0, 4.0), (1.0, 3.0)])
    w = Diagram([(3.0, 6.0)])
    print(f"z = {list(z.points)}")
    print(f"w = {list(w.points)}")

    value, matching = bottleneck(z, w)
    print(f"\nbottleneck(z, w) = {value}")
    print("optimal matching (None = diagonal):", describe_matching(z, w, matching))

    oracle_value, _ = bottleneck_bruteforce(z, w)
    print(f"brute-force oracle agrees: {abs(value - oracle_value) <= 1e-12}")

    print("\np-Wasserstein is nonincreasing in p and bounded below by bottleneck:")
    for p in (1, 2, 4, 16):
        vw, _ = wasserstein(z, w, p)
        print(f"  d_W,{p:<2}(z, w) = {vw:.6f}")
    print(f"  d_B    (z, w) = {value:.6f}")

    print("\nsandwich bound d_B <= d_W,p <= (n + m)^(1/p) d_B on random pairs:")
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(200):
        size_a, size_b = rng.integers(0, 5, size=2)
        a = Diagram([(b, b + q) for b, q in zip(
            rng.uniform(0, 10, size_a), rng.uniform(0.01, 10, size_a))])
        b_ = Diagram([(b, b + q) for b, q in zip(
            rng.uniform(0, 10, size_b), rng.uniform(0.01, 10, size_b))])
        d_b, d_w = bottleneck_distance(a, b_), wasserstein_distance(a, b_, 2)
        factor = (size_a + size_b) ** (1.0 / 2)
        slack = rounding_slack(max(d_w, factor * d_b))  # float rounding at this scale
        ok &= d_b <= d_w + slack and d_w <= factor * d_b + slack
    print(f"  holds on 200 pairs: {ok}")


if __name__ == "__main__":
    main()
