"""Bipartite matchings of boolean edge matrices.

scipy's ``linear_sum_assignment`` on the 0/1 cost ``~ok`` finds a matching
that covers every row of a boolean edge matrix when there is one; the
lex-min recovery improves a given perfect matching one row at a time along
alternating paths.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def perfect_matching(ok: np.ndarray) -> Optional[np.ndarray]:
    """Column of each row in a matching of ok that covers every row, or None when there is none.

    ok may be a rectangle; one with no rows needs no solve.
    """
    rows, cols = ok.shape
    if rows > cols:
        return None
    if rows == 0:
        return np.arange(0)
    # Imported here so that commands which never match do not load scipy.
    from scipy.optimize import linear_sum_assignment

    col = linear_sum_assignment(~ok)[1]  # cost 0 on an edge, 1 off it
    return col if ok[np.arange(rows), col].all() else None


def _bit_rows(ok: np.ndarray) -> list[int]:
    """Each row of ok as an int whose bit c is ok[r, c]."""
    packed = np.packbits(ok, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def lex_min_perfect_matching(ok: np.ndarray, col: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically smallest permutation that is a perfect matching of ok.

    Starts from col, the column of each row in any perfect matching of ok
    (ValueError if it is not one), and fixes rows in order.  Row i can
    take exactly the columns whose holders can shift, along an alternating
    path over the unfixed rows, into row i's current column; one
    breadth-first search from that column finds them, and the row takes the
    smallest one it has an edge to.  The search is skipped when row i has
    no edge to an unfixed column below its current one, and stops once the
    smallest such column is reached.
    """
    n = ok.shape[0]
    col = np.asarray(col, dtype=np.intp)
    if (col.shape != (n,) or col.min(initial=0) < 0
            or (np.bincount(col, minlength=n) != 1).any() or not ok[np.arange(n), col].all()):
        raise ValueError("col is not a perfect matching of ok")
    col = col.tolist()
    # Sets of rows or columns are ints used as bit sets; fixed holds the
    # columns of the rows before i.
    row_edges, col_edges = _bit_rows(ok), _bit_rows(ok.T)
    # Rows with the same edges can trade columns, so each group of them
    # starts with its columns in increasing order.
    groups = {}
    for r, edges in enumerate(row_edges):
        groups.setdefault(edges, []).append(r)
    for rows in groups.values():
        for r, c in zip(rows, sorted(col[r] for r in rows)):
            col[r] = c
    row = [0] * n
    for r, c in enumerate(col):
        row[c] = r
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
