"""A coarse disjoint union of torus grids inside diagram space.

Builds the disjoint union S of the word-metric spaces (Z_n)^m with cross
distances d(x,y) > m+n+m'+n', then embeds every block isometrically into
persistence diagrams while keeping the required separation between blocks.
S is the standard witness that diagram space contains subspaces with no
coarse embedding into Hilbert space.  S is stored once, as its metric:
block i is the points S.offsets[i]:S.offsets[i + 1], and S.radius[i] is
c_i = diam + s_i, half the cross distance budget of block i.

Run:  python3 demos/coarse_union.py
"""

from coarsepd import dranishnikov_S, embed_coarse_union, validate_metric, zkm_space


def main() -> None:
    Z32 = zkm_space(3, 2)
    print(f"(Z_3)^2: {Z32.n_points} points, diameter {Z32.diameter}")
    print(f"labels: {Z32.labels[:4]} ...")

    S = dranishnikov_S(max_n=3, max_m=2)
    validate_metric(S.space.dist, S.space.labels)
    print(f"\nS(3,2): {S.space.n_points} points in {len(S.radius)} blocks "
          f"(torus grids (Z_n)^m, n<=3, m<=2); metric axioms verified")

    emb = embed_coarse_union(S)
    print(f"\nembedding into diagrams:")
    print(f"  max within-block deviation from isometry: "
          f"{emb.intra_max_deviation:.2e}")
    print(f"  cross-block separation (bottleneck, required vs realized):")
    for sep in emb.cross:
        n_i, m_i = S.block_meta[sep.block_i]
        n_j, m_j = S.block_meta[sep.block_j]
        bound = m_i + n_i + m_j + n_j
        print(f"    (Z_{n_i})^{m_i} vs (Z_{n_j})^{m_j}: "
              f"required > {bound}, realized min {sep.realized_min:.3f} "
              f"{'ok' if sep.realized_min > bound else 'VIOLATED'}")
    print(f"\nall separations hold: {emb.cross_ok}")


if __name__ == "__main__":
    main()
