"""Bipartite matching and exhaustive assignment search primitives.

scipy's ``linear_sum_assignment`` on the 0/1 cost ``~ok`` decides whether a
boolean edge matrix has a perfect matching and seeds the lex-min recovery,
which improves that matching one row at a time along alternating paths.
The subset dynamic programs are exact minima over all permutations and
serve as independent oracles for the solvers.
"""

from __future__ import annotations

import math

import numpy as np


def _assignment(ok: np.ndarray) -> np.ndarray:
    """Column of each row in an assignment of ok that uses the most edges."""
    # Imported here so that commands which never match do not load scipy.
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(~ok)[1]  # cost 0 on an edge, 1 off it


def has_perfect_matching(ok: np.ndarray) -> bool:
    """Whether the boolean edge matrix admits a perfect matching."""
    return bool(ok[np.arange(len(ok)), _assignment(ok)].all())


def _bit_rows(ok: np.ndarray) -> list[int]:
    """Each row of ok as an int whose bit c is ok[r, c]."""
    packed = np.packbits(ok, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def lex_min_perfect_matching(ok: np.ndarray) -> tuple[int, ...]:
    """Lexicographically smallest permutation that is a perfect matching of ok.

    Starts from any perfect matching and fixes rows in order.  Row i can
    take exactly the columns whose holders can shift, along an alternating
    path over the unfixed rows, into row i's current column; one
    breadth-first search from that column finds them, and the row takes the
    smallest one it has an edge to.  The search is skipped when row i has
    no edge to an unfixed column below its current one, and stops once the
    smallest such column is reached.  Raises RuntimeError when ok has no
    perfect matching.
    """
    n = ok.shape[0]
    col = _assignment(ok).tolist()
    if not ok[range(n), col].all():
        raise RuntimeError("no perfect matching")
    row = [0] * n
    for r, c in enumerate(col):
        row[c] = r
    # Sets of rows or columns are ints used as bit sets; fixed holds the
    # columns of the rows before i.
    row_edges, col_edges = _bit_rows(ok), _bit_rows(ok.T)
    fixed = 0
    for i in range(n):
        start = col[i]
        below = row_edges[i] & ((1 << start) - 1) & ~fixed
        if below:
            # parent[c]: a column the holder of c can move to, one step
            # closer to start; open rows are the unfixed ones not yet reached.
            first = below & -below
            parent = {start: start}
            seen = 1 << start
            open_rows = (1 << n) - (1 << (i + 1))
            queue = [start]
            for c in queue:
                if seen & first:
                    break
                hit = col_edges[c] & open_rows
                open_rows ^= hit
                while hit:
                    r = (hit & -hit).bit_length() - 1
                    hit &= hit - 1
                    parent[col[r]] = c
                    seen |= 1 << col[r]
                    queue.append(col[r])
            reached = below & seen
            if reached:
                c, r = (reached & -reached).bit_length() - 1, i
                while True:
                    holder = row[c]
                    col[r], row[c] = c, r
                    if holder == i:
                        break
                    r, c = holder, parent[c]
        fixed |= 1 << col[i]
    return tuple(col)


def _min_assignment(cost: np.ndarray, combine) -> list[float]:
    """Exact minimum over all n! permutations of an aggregated pair cost.

    Subset dynamic program: returns the table h where h[S] is the optimum of
    assigning rows popcount(S).. to the columns outside S, so h[0] is the
    global optimum and every permutation is accounted for.
    """
    n = cost.shape[0]
    if n > 20:
        raise ValueError("subset DP limited to n <= 20")
    rows = cost.tolist()
    full = 1 << n
    h = [0.0] * full
    for S in range(full - 2, -1, -1):
        i = S.bit_count()
        if i >= n:
            continue
        row = rows[i]
        best = math.inf
        for j in range(n):
            if S >> j & 1:
                continue
            v = combine(row[j], h[S | (1 << j)])
            if v < best:
                best = v
        h[S] = best
    return h


def min_assignment_max(cost: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exact min over all permutations of the maximum per-pair cost.

    An optimal permutation is any one whose pair costs all stay within the
    optimum, so the recovery keeps the global value as a cap and picks the
    smallest feasible column per row: the lexicographically smallest optimum.
    """
    n = cost.shape[0]
    h = _min_assignment(cost, lambda c, rest: c if c > rest else rest)
    rows = cost.tolist()
    cap = h[0]
    perm: list[int] = []
    S = 0
    for i in range(n):
        row = rows[i]
        for j in range(n):
            if S >> j & 1:
                continue
            if row[j] <= cap and h[S | (1 << j)] <= cap:
                perm.append(j)
                S |= 1 << j
                break
    return cap, tuple(perm)


def min_assignment_sum(cost: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exact min over all permutations of the summed per-pair cost.

    Recovery walks forward picking the smallest column whose cost plus the
    remaining-subproblem optimum reproduces the current target exactly (the
    same expression the table stored, so float comparison is safe); the
    result is the lexicographically smallest optimal permutation.
    """
    n = cost.shape[0]
    h = _min_assignment(cost, lambda c, rest: c + rest)
    rows = cost.tolist()
    perm: list[int] = []
    S = 0
    for i in range(n):
        row = rows[i]
        for j in range(n):
            if S >> j & 1:
                continue
            if row[j] + h[S | (1 << j)] == h[S]:
                perm.append(j)
                S |= 1 << j
                break
    return h[0], tuple(perm)
