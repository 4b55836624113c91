"""Lex-min perfect matching on all n + m slots, the reference for the block pass.

This is the pass that ``coarsepd.assignment.lex_min_perfect_matching`` ran on
the square threshold or tight-edge graph before it moved to the point block
with one pooled DELTA row and column.  It shares no code with the package.
"""

from typing import Sequence

import numpy as np


def _bit_rows(ok):
    """Each row of ok as an int whose bit c is ok[r, c]."""
    return [sum(1 << c for c in np.flatnonzero(row).tolist()) for row in ok]


def square_lex_min_perfect_matching(ok: np.ndarray, col: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically smallest permutation that is a perfect matching of the square ok.

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
    index = np.arange(n)
    if col.shape != (n,) or not np.array_equal(np.sort(col), index) or not ok[index, col].all():
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
    row = sorted(range(n), key=col.__getitem__)  # the row holding each column
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
