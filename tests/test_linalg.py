"""The sparse integer RREF kernel against a dense Fraction oracle."""

import random
from fractions import Fraction

from flagcohom import linalg

from _oracles import dense_rref


def to_sparse(matrix):
    return [[(j, v) for j, v in enumerate(row) if v] for row in matrix]


def rational_rows(reduced, ncols):
    out = []
    for row in reduced:
        lead = row[0][1]
        dense = [Fraction(0)] * ncols
        for c, v in row:
            dense[c] = Fraction(v, lead)
        out.append(dense)
    return out


def test_small_fixed_matrix():
    matrix = [
        [1, 2, 0, 3],
        [2, 4, 1, 0],
        [0, 0, 2, -12],
        [1, 2, 1, -3],
    ]
    reduced = linalg.rref(to_sparse(matrix))
    pivots = [row[0][0] for row in reduced]
    oracle_pivots, oracle_rows = dense_rref([[Fraction(v) for v in r] for r in matrix])
    assert pivots == oracle_pivots == [0, 2]
    assert rational_rows(reduced, 4) == oracle_rows


def test_random_matrices_match_dense_oracle():
    rng = random.Random(20240817)
    for _ in range(60):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        density = rng.choice((0.3, 0.6, 0.9))
        matrix = [
            [rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        reduced = linalg.rref(to_sparse(matrix))
        oracle_pivots, oracle_rows = dense_rref([[Fraction(v) for v in r] for r in matrix])
        assert [row[0][0] for row in reduced] == oracle_pivots
        assert rational_rows(reduced, ncols) == oracle_rows
        # primitivity: content 1, positive leading value
        from math import gcd
        for row in reduced:
            g = 0
            for _, v in row:
                g = gcd(g, v)
            assert g == 1 and row[0][1] > 0


def test_zero_and_empty_rows():
    assert linalg.rref([]) == []
    assert linalg.rref([[], []]) == []
    assert linalg.rref([[(0, 2), (1, -4)]]) == [[(0, 1), (1, -2)]]


def test_selected_backend_is_exposed():
    import flagcohom

    assert linalg.BACKEND == flagcohom.BACKEND == "python"

