"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against the same mathematics but
with different algorithms and no shared code paths: dense Gaussian
elimination over Fraction, itertools-style monomial enumeration, a
word-based Koszul sign, partition counting for Gaussian binomials,
geometric-series expansion of factored rational functions, and row
reduction modulo a prime.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache


def dense_rref(matrix: list[list[Fraction]]) -> tuple[list[int], list[list[Fraction]]]:
    """Dense reduced row echelon form; returns (pivot columns, rows)."""
    rows = [list(map(Fraction, r)) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return pivots, rows[:rank]


def dense_rank(matrix: list[list[Fraction]]) -> int:
    return len(dense_rref(matrix)[0])


def monomials(degrees: list[int], d: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree d (odd generators capped at 1),
    enumerated by brute-force cartesian product."""
    ranges = []
    for deg in degrees:
        top = d // deg
        if deg % 2 == 1:
            top = min(top, 1)
        ranges.append(range(top + 1))
    return [
        exps
        for exps in itertools.product(*ranges)
        if sum(e * deg for e, deg in zip(exps, degrees)) == d
    ]


def koszul_product(degrees, ea, eb):
    """(exponents, sign) of the product of two monomials, or None.

    The sign is computed the slow way: write both monomials as explicit
    words of odd letters, concatenate, and bubble-sort while counting
    transpositions.
    """
    odd = [i for i, d in enumerate(degrees) if d % 2 == 1]
    word = [i for i in odd if ea[i]] + [i for i in odd if eb[i]]
    if len(set(word)) != len(word):
        return None
    swaps = 0
    for i in range(len(word)):
        for j in range(len(word) - 1 - i):
            if word[j] > word[j + 1]:
                word[j], word[j + 1] = word[j + 1], word[j]
                swaps += 1
    return tuple(x + y for x, y in zip(ea, eb)), (-1) ** swaps


def relation_matrix(degrees, relations, d: int, cols) -> list[list[Fraction]]:
    """Dense rows of all degree-d monomial multiples of the relations.

    `relations` are homogeneous term dictionaries {exponents: Fraction};
    `cols` lists every degree-d monomial, in column order.
    """
    index = {m: i for i, m in enumerate(cols)}
    rows = []
    for rel in relations:
        rdeg = {sum(e * dd for e, dd in zip(exps, degrees)) for exps in rel}
        assert len(rdeg) == 1, "oracle relations must be homogeneous"
        rdeg = rdeg.pop()
        if rdeg > d:
            continue
        for m in monomials(degrees, d - rdeg):
            row = [Fraction(0)] * len(cols)
            for exps, coeff in rel.items():
                prod = koszul_product(degrees, m, exps)
                if prod is None:
                    continue
                out, sign = prod
                row[index[out]] += sign * coeff
            if any(row):
                rows.append(row)
    return rows


def quotient_dimension(degrees, relations, d: int) -> int:
    """dim of degree d of the quotient by the listed homogeneous relations.

    `relations` are term dictionaries {exponents: Fraction}. The degree-d
    slice of the ideal is spanned by monomial multiples of the relations;
    its codimension is computed by dense elimination.
    """
    cols = monomials(degrees, d)
    return len(cols) - dense_rank(relation_matrix(degrees, relations, d, cols))


def elimination_key(gens):
    """The column order of the elimination: a monomial's weight in the
    generators of rewrite priority 2, descending, then its weight in those
    of priority 1, descending, then descending lex, earlier generators
    dominant. Read from the generators' degrees and priorities alone."""
    symbols = list(gens)

    def weight(exps, priority):
        return sum(e * s.degree for e, s in zip(exps, symbols) if s.rewrite_priority == priority)

    return lambda exps: (-weight(exps, 2), -weight(exps, 1), [-e for e in exps])


def reference_table(degrees, relations, d: int, column_key):
    """(basis set, rewrite table) of degree d by dense elimination.

    Columns are the degree-d monomials sorted by `column_key`. The basis is
    the set of non-pivot columns; each pivot monomial rewrites to minus the
    rest of its reduced row, a dictionary over basis monomials.
    """
    cols = sorted(monomials(degrees, d), key=column_key)
    pivots, rows = dense_rref(relation_matrix(degrees, relations, d, cols))
    basis = set(cols) - {cols[p] for p in pivots}
    rewrite = {
        cols[p]: {cols[c]: -v for c, v in enumerate(row) if v and c != p}
        for p, row in zip(pivots, rows)
    }
    return basis, rewrite


def koszul_terms_product(degrees, a, b) -> dict:
    """Product of two term dictionaries {exponents: Fraction}, one Fraction
    product per pair of terms, with the word-based sign of koszul_product."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            prod = koszul_product(degrees, ea, eb)
            if prod is not None:
                exps, sign = prod
                out[exps] = out.get(exps, Fraction(0)) + sign * ca * cb
    return {e: c for e, c in out.items() if c}


class ReferenceQuotient:
    """Normal forms and products of a presented ring by dense elimination.

    Each degree's table is reference_table's, computed on first use; a
    monomial's normal form is its rewrite row (itself when it is a basis
    monomial), and an element's is the Fraction sum of its terms' rows.
    """

    def __init__(self, degrees, relations, column_key):
        self.degrees = list(degrees)
        self.relations = relations
        self.column_key = column_key
        self._tables: dict = {}

    def table(self, d: int):
        if d not in self._tables:
            self._tables[d] = reference_table(self.degrees, self.relations, d, self.column_key)
        return self._tables[d]

    def normal_form(self, terms) -> dict:
        out: dict = {}
        for exps, c in terms.items():
            _, rewrite = self.table(sum(e * dd for e, dd in zip(exps, self.degrees)))
            for b, v in rewrite.get(exps, {exps: Fraction(1)}).items():
                out[b] = out.get(b, Fraction(0)) + c * v
        return {e: c for e, c in out.items() if c}

    def multiply(self, a, b) -> dict:
        return self.normal_form(koszul_terms_product(self.degrees, a, b))


def rank_mod_p(rows, p: int) -> int:
    """Rank over Z/p of sparse integer rows [(column, value), ...], by
    elimination on dictionaries with each pivot row scaled to lead 1."""
    pivots: dict = {}
    for row in rows:
        r = {c: v % p for c, v in row if v % p}
        while r:
            col = min(r)
            pivot = pivots.get(col)
            if pivot is None:
                inverse = pow(r[col], -1, p)
                pivots[col] = {c: v * inverse % p for c, v in r.items()}
                break
            factor = r[col]
            for c, v in pivot.items():
                nv = (r.get(c, 0) - factor * v) % p
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
    return len(pivots)


@lru_cache(maxsize=None)
def partitions_in_box(parts: int, size: int, total: int) -> int:
    """Number of partitions of `total` into at most `parts` parts, each at
    most `size`; the Gaussian binomial coefficient [parts+size, parts]_q
    has these as its q-coefficients."""
    if total == 0:
        return 1
    if parts == 0 or size == 0 or total < 0:
        return 0
    # either no part equals `size`, or strip one part of that size
    return partitions_in_box(parts, size - 1, total) + partitions_in_box(
        parts - 1, size, total - size
    )


def complex_grassmannian_dims(k: int, n: int, upto: int) -> list[int]:
    """dim H^d(G_k(C^n)) by counting partitions in a k x (n-k) box."""
    return [
        partitions_in_box(k, n - k, d // 2) if d % 2 == 0 else 0 for d in range(upto + 1)
    ]


def expand_factors(num, den, shift, upto, coeff=1) -> list[int]:
    """Coefficients of coeff * t^shift * prod(1-t^a)/prod(1-t^b), expanded
    by explicit convolution with geometric series."""
    poly = [0] * (upto + 1)
    if shift <= upto:
        poly[shift] = coeff
    for a in num:
        nxt = poly[:]
        for i in range(upto + 1 - a):
            nxt[i + a] -= poly[i]
        poly = nxt
    for b in den:
        geo = [1 if i % b == 0 else 0 for i in range(upto + 1)]
        poly = [
            sum(poly[j] * geo[i - j] for j in range(i + 1)) for i in range(upto + 1)
        ]
    return poly
