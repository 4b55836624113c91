"""Every finite metric space embeds isometrically into diagram space.

Generates a random shortest-path metric, maps each point to a persistence
diagram, and checks that bottleneck distances reproduce the original
metric exactly.  Also profiles the map with the lower/upper distance
envelopes used to certify coarse embeddings.

Run:  python3 demos/finite_metric_embedding.py
"""

import numpy as np
from scipy.sparse.csgraph import shortest_path

from coarsepd import (
    check_isometry,
    distance_matrix,
    embed_finite_metric,
    profile_map,
    validate_metric,
)


def random_graph_metric(rng, n: int):
    weights = np.zeros((n, n))
    for j in range(1, n):  # random spanning tree keeps the graph connected
        i = int(rng.integers(0, j))
        weights[i, j] = weights[j, i] = rng.uniform(0.5, 2.0)
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j and weights[i, j] == 0:
            weights[i, j] = weights[j, i] = rng.uniform(0.5, 3.0)
    graph = np.where(weights > 0, weights, np.inf)
    np.fill_diagonal(graph, 0.0)
    return validate_metric(shortest_path(graph))


def main() -> None:
    rng = np.random.default_rng(42)
    X = random_graph_metric(rng, 7)
    print(f"source: {X.n_points} points, diameter {X.diameter:.4f}")

    diagrams = embed_finite_metric(X)
    print(f"image diagrams have {[len(d) for d in diagrams]} points each")
    print(f"first diagram: {list(diagrams[0].points)}")

    deviation = check_isometry(X, diagrams)
    print(f"\nmax |d_X(i,j) - d_B(f(i), f(j))| = {deviation:.2e}  (isometry)")

    image = distance_matrix(diagrams)
    prof = profile_map(X, image)
    occupied = ~np.isnan(prof.rho1)
    print("\ncoarse profile (lower envelope rho1 / upper envelope rho2):")
    print(f"  occupied bins: {int(occupied.sum())} of {len(prof.rho1)}")
    print(f"  envelopes coincide within one bin width: "
          f"{bool(np.all(prof.rho2[occupied] - prof.rho1[occupied] <= prof.bin_width + 1e-9))}")
    print(f"  lower envelope growing: {prof.lower_envelope_growing}")


if __name__ == "__main__":
    main()
