"""Bipartite matchings of boolean edge matrices.

scipy's ``linear_sum_assignment`` on the 0/1 cost ``~ok`` finds a matching
that covers every row of a boolean edge matrix when there is one; the
lex-min recovery improves a given matching of two diagrams' point block one
row at a time along alternating paths.
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
    width = (ok.shape[1] + 7) // 8
    packed = np.packbits(ok, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[r * width:(r + 1) * width], "little") for r in range(len(ok))]


def lex_min_perfect_matching(ok: np.ndarray, col: Sequence[int]) -> tuple[int, ...]:
    """Lex-min perfect matching of the n + m slots, found on the point block.

    ok is (n + 1) x (m + 1): the point block, the points of z that may take DELTA, those
    of w that may, and whether DELTA may meet DELTA; the slots repeat that DELTA column n
    times and that row m times after the points.  col holds the column of each point of z,
    m for DELTA, in a matching that completes (ValueError otherwise).  Row i in turn takes
    the smallest column below its own whose holder can shift, along an alternating path
    over the later rows and the DELTA row, into row i's column; one search finds them.
    """
    n, m = ok.shape[0] - 1, ok.shape[1] - 1
    col = np.asarray(col, dtype=np.intp)
    if col.shape != (n,):
        raise ValueError("col is not a perfect matching of ok")
    col = col.tolist()
    # Bit sets of rows or columns are ints, with bit n the DELTA row and bit m the DELTA column:
    # spare holds the DELTA row's point columns, on_delta the points of z on DELTA, and fixed
    # the columns of the rows before i.  row[c] holds point column c.
    row_edges, col_edges, row, fixed = _bit_rows(ok), None, [n] * m, 0
    full = spare = (1 << m) - 1
    for r, c in enumerate(col):
        if not 0 <= c <= m or not row_edges[r] >> c & 1 or c < m and row[c] < n:
            raise ValueError("col is not a perfect matching of ok")
        if c < m:
            row[c], spare = r, spare ^ 1 << c
    # The DELTA row takes the spare point columns, and DELTA columns while z holds points.
    if spare & ~row_edges[n] or spare != full and not row_edges[n] >> m & 1:
        raise ValueError("col is not a perfect matching of ok")
    on_delta = sum(1 << r for r, c in enumerate(col) if c == m)
    for i in range(n):
        start = col[i]
        below = row_edges[i] & ((1 << start) - 1) & ~fixed
        if below:
            col_edges = col_edges or _bit_rows(ok.T)
            # parent[c]: a column the holder of c can move to, one step closer to start; open rows
            # are unfixed and unreached.  DELTA's first holder reached moves; the others close.
            first, parent, delta_holder, seen = below & -below, {start: start}, i, 1 << start
            open_rows = ((1 << (n + 1)) - (1 << (i + 1))) & ~(on_delta if start == m else 0)
            queue = [start]
            for c in queue:
                if seen & first:
                    break
                hit = col_edges[c] & open_rows
                open_rows ^= hit
                while hit:
                    r = (hit & -hit).bit_length() - 1
                    hit &= hit - 1
                    moved = (1 << col[r] if r < n else spare | (spare != full) << m) & ~seen
                    if moved >> m:
                        delta_holder = r
                        open_rows &= ~on_delta
                        hit &= ~on_delta
                    seen |= moved
                    while moved:
                        x = (moved & -moved).bit_length() - 1
                        moved &= moved - 1
                        parent[x] = c
                        queue.append(x)
            reached = below & seen
            if reached:
                c, r = (reached & -reached).bit_length() - 1, i
                while True:
                    holder = row[c] if c < m else delta_holder
                    if r < n:
                        col[r] = c
                        on_delta = on_delta | 1 << r if c == m else on_delta & ~(1 << r)
                    if c < m:
                        row[c], spare = r, spare ^ ((r == n) != (holder == n)) << c
                    if holder == i:
                        break
                    r, c = holder, parent[c]
        fixed |= 1 << col[i]
    # z's points on DELTA take the DELTA columns in order; the DELTA rows take spare, then the rest.
    delta = iter(range(m, m + n))
    return tuple([c if c < m else next(delta) for c in col]
                 + [c for c in range(m) if row[c] == n] + list(delta))
