"""Dimension bounds from both sides.

Lower bound: cubes [0,R]^n embed isometrically into diagram space, so the
space is at least n-dimensional at every scale.  Upper bound: single-point
diagrams admit a three-family cover by uniformly bounded, 2R-separated
"bricks", so their asymptotic dimension is at most 2.  Both facts are
checked numerically here.

Run:  python3 demos/cube_and_covers.py
"""

from coarsepd import (
    brick_classify_array,
    diagram_point_sampler,
    bottleneck_1pt_array,
    embed_cube_point,
    interval_classify_array,
    line_sampler,
    lower_bound_demo,
    verify_cover,
    wasserstein,
)


def main() -> None:
    print("cube embedding [0,R]^n -> diagrams (sup metric preserved):")
    for n in (1, 2, 3):
        report = lower_bound_demo(n, R=100.0, samples=300, p=None, seed=3)
        print(f"  n={n}: max deviation over {report.samples} pairs = "
              f"{report.max_deviation:.2e}")

    x, y = [10.0, 70.0], [25.0, 40.0]
    dx, dy = embed_cube_point(x, 100.0), embed_cube_point(y, 100.0)
    v, _ = wasserstein(dx, dy, 2)
    print(f"  l_2 example: |x-y|_2 = {(15.0**2 + 30.0**2) ** 0.5:.6f}, "
          f"d_W,2 = {v:.6f}")

    print("\nbrick cover of single-point diagrams (3 families, scale R=1):")
    report = verify_cover(diagram_point_sampler(max_persistence=1e4),
                          brick_classify_array, bottleneck_1pt_array,
                          R=1.0, trials=20000, seed=11, uniform_bound=6.0)
    print(f"  violations: {len(report.violations)}")
    print(f"  min same-family cross-set distance: "
          f"{report.min_same_family_cross_set_distance:.3f} (> R = 1)")
    print(f"  max observed set diameter: "
          f"{report.max_set_diameter_observed:.3f} (<= 6R)")

    print("\ninterval cover of the line (2 families) as a sanity baseline:")
    report = verify_cover(line_sampler(window=1000.0), interval_classify_array,
                          lambda a, b: abs(a - b),
                          R=1.0, trials=20000, seed=5, uniform_bound=2.0)
    print(f"  violations: {len(report.violations)}, "
          f"claimed uniform bound {report.uniform_bound_claimed}")


if __name__ == "__main__":
    main()
