"""The sparse integer RREF kernel against a dense Fraction oracle."""

import random
from fractions import Fraction
from math import gcd

from flagcohom import linalg

from _oracles import dense_rref


def to_sparse(matrix):
    """Dense rows as the kernel's rows: dense column j of n is column
    n - 1 - j, so the dense order is the kernel's descending order."""
    return [[(len(row) - 1 - j, v) for j, v in enumerate(row) if v] for row in matrix]


def dense_pivots(reduced, ncols):
    return [ncols - 1 - row[0][0] for row in reduced]


def rational_rows(reduced, ncols):
    out = []
    for row in reduced:
        lead = row[0][1]
        dense = [Fraction(0)] * ncols
        for c, v in row:
            dense[ncols - 1 - c] = Fraction(v, lead)
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
    oracle_pivots, oracle_rows = dense_rref([[Fraction(v) for v in r] for r in matrix])
    assert [row[0][0] for row in reduced] == [3, 1]
    assert dense_pivots(reduced, 4) == oracle_pivots == [0, 2]
    assert rational_rows(reduced, 4) == oracle_rows


def check_against_oracle(matrix, ncols):
    """rref of `matrix` has the dense oracle's pivots and rows, and each row
    is primitive (content 1, positive leading value) with decreasing columns."""
    reduced = linalg.rref(to_sparse(matrix))
    oracle_pivots, oracle_rows = dense_rref([[Fraction(v) for v in r] for r in matrix])
    assert dense_pivots(reduced, ncols) == oracle_pivots
    assert rational_rows(reduced, ncols) == oracle_rows
    for row in reduced:
        assert gcd(*(v for _, v in row)) == 1 and row[0][1] > 0
        assert all(a > b for (a, _), (b, _) in zip(row, row[1:]))


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
        check_against_oracle(matrix, ncols)


def test_zero_and_empty_rows():
    assert linalg.rref([]) == []
    assert linalg.rref([[], []]) == []
    assert linalg.rref([[(1, 2), (0, -4)]]) == [[(1, 1), (0, -2)]]


def test_selected_backend_is_exposed():
    import flagcohom

    assert linalg.BACKEND == flagcohom.BACKEND == "python"


def chained_matrix(rng, ncols):
    """Rows over `ncols` columns whose reduction runs long back-substitution
    chains: most columns lead a row with entries at several later columns,
    often adjacent ones, so a row meets pivot after pivot; a few columns lead
    nothing, and some rows are combinations of others."""
    free = set(rng.sample(range(1, ncols), ncols // 8))
    matrix = []
    for lead in range(ncols):
        if lead in free:
            continue
        row = [0] * ncols
        row[lead] = rng.choice((1, 1, 2, -3))
        start = lead + 1
        for c in range(start, min(ncols, start + rng.randint(2, 6))):
            row[c] = rng.randint(-3, 3)
        for c in rng.sample(range(start, ncols), min(2, ncols - start)):
            row[c] = rng.randint(-2, 2)
        matrix.append(row)
    for _ in range(ncols // 6):
        a, b = rng.sample(matrix, 2)
        s, t = rng.randint(-2, 2), rng.randint(1, 2)
        matrix.append([s * x + t * y for x, y in zip(a, b)])
    rng.shuffle(matrix)
    return matrix


def test_long_back_substitution_chains_match_dense_oracle():
    rng = random.Random(20261020)
    for _ in range(12):
        ncols = rng.randint(30, 60)
        check_against_oracle(chained_matrix(rng, ncols), ncols)
