"""Exact sparse linear algebra used by the per-degree reduction.

Rows are lists of (column, value) pairs, sorted by column, with nonzero
integer values. Row reduction is fraction-free (cross-multiply and strip
the content), so no rational arithmetic happens inside the loop; the
rational reduced row echelon form of a returned row is the row divided by
its leading value.
"""

from __future__ import annotations

from math import gcd

# The row kernel is pure Python; the constant stays in the public API, and
# benchmark records carry it.
BACKEND = "python"


def _primitive(row):
    """Divide out the content and make the leading value positive."""
    g = 0
    for _, v in row:
        g = gcd(g, v)
        if g == 1:
            break
    if row and row[0][1] < 0:
        g = -g
    if g in (0, 1):
        return row
    return [(c, v // g) for c, v in row]


def _combine(row, v, pivot):
    """Return lead(pivot)*row - v*pivot, merged and made primitive.

    Cancels the entry of `row` at the pivot's leading column exactly.
    """
    lead = pivot[0][1]
    out = []
    i = j = 0
    nr, np = len(row), len(pivot)
    while i < nr and j < np:
        ci, cj = row[i][0], pivot[j][0]
        if ci < cj:
            out.append((ci, lead * row[i][1]))
            i += 1
        elif ci > cj:
            out.append((cj, -v * pivot[j][1]))
            j += 1
        else:
            val = lead * row[i][1] - v * pivot[j][1]
            if val:
                out.append((ci, val))
            i += 1
            j += 1
    while i < nr:
        out.append((row[i][0], lead * row[i][1]))
        i += 1
    while j < np:
        out.append((pivot[j][0], -v * pivot[j][1]))
        j += 1
    return _primitive(out)


def rref(rows: list[list[tuple[int, int]]]) -> list[list[tuple[int, int]]]:
    """Reduce sparse integer rows to (primitive) reduced row echelon form.

    Returns one row per pivot, sorted by leading column. Every returned row
    is primitive with positive leading value, and no row has a nonzero entry
    under another row's leading column. Back-substitution scans each pivot
    row once, rightmost first: eliminating an entry with an already reduced
    pivot row adds entries only at later non-pivot columns, so the scan
    resumes at the entry after it.
    """
    pivots = {}
    for row in rows:
        while row:
            p = pivots.get(row[0][0])
            if p is None:
                break
            row = _combine(row, row[0][1], p)
        if row:
            pivots[row[0][0]] = _primitive(row)

    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        i = 1
        while i < len(row):
            c, v = row[i]
            if c in pivots:
                row = _combine(row, v, pivots[c])
            else:
                i += 1
        pivots[col] = row

    return [pivots[c] for c in sorted(pivots)]


def rank(rows: list[list[tuple[int, int]]]) -> int:
    """Rank of a collection of sparse integer rows."""
    return len(rref(rows))
