"""Closed-form series, truncation, and the formula catalog against
partition-counting, inversion-counting and convolution oracles."""

import hashlib
import itertools
import json

import pytest

from flagcohom import (
    ClosedFormSeries,
    SpaceDescriptor,
    TruncatedSeries,
    build_ring,
    closed_form,
    series_from_ring,
)
from flagcohom.catalog import top_degree_of
from flagcohom.verify import _catalog_descriptors

from _oracles import complex_grassmannian_dims, expand_factors


def grassmannian(k, n):
    return closed_form(SpaceDescriptor("complex-grassmannian", k, n))


def real_even(k, n):
    return closed_form(SpaceDescriptor("real-grassmannian-even", k, n))


def oriented(variant, k, n):
    return closed_form(SpaceDescriptor("oriented-grassmannian", k, n, variant))


def odd(k, n):
    return closed_form(SpaceDescriptor("odd-real-grassmannian", k, n))


def expand(series: ClosedFormSeries, upto: int) -> list[int]:
    """Oracle-side expansion of a closed form, term by term."""
    out = [0] * (upto + 1)
    for t in series.terms:
        for i, c in enumerate(expand_factors(t.num, t.den, t.shift, upto, t.coeff)):
            out[i] += c
    return out


# -- complex Grassmannian formula ---------------------------------------------


def test_projective_line_of_factors():
    s = grassmannian(1, 5)
    assert list(s.truncate(10).coefficients) == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0]


def test_point_cases_are_one():
    for k, n in ((0, 3), (3, 3), (0, 0)):
        assert grassmannian(k, n).symbolic_equal(ClosedFormSeries.one())


def test_g24_truncation_frozen_values():
    # derived by expanding the product formula with the convolution oracle
    assert list(grassmannian(2, 4).truncate(8).coefficients) == [
        1, 0, 1, 0, 2, 0, 1, 0, 1,
    ]


def test_invalid_range_rejected():
    with pytest.raises(ValueError):
        grassmannian(4, 3)


def test_formula_matches_partition_counting():
    for n in range(6):
        for k in range(n + 1):
            top = 2 * k * (n - k)
            got = list(grassmannian(k, n).truncate(top).coefficients)
            assert got == complex_grassmannian_dims(k, n, top)


def test_truncate_matches_independent_expansion():
    for series in (
        grassmannian(2, 5),
        oriented("even-even", 2, 4),
        odd(1, 3),
    ):
        assert list(series.truncate(20).coefficients) == expand(series, 20)


def test_duality_symmetry():
    for n in range(6):
        for k in range(n + 1):
            a, b = grassmannian(k, n), grassmannian(n - k, n)
            assert a.symbolic_equal(b)


# -- closed forms against the per-family formulas they replaced --------------------

# sha256 of label, str, terms and top degree of every PINNED_SPACES closed form,
# as the separate per-family formulas gave them
PINNED_CLOSED_FORMS = "91651d9c2c47ec770f58c974539636d565aaf81c1ea95898c919cbde2674c220"


def pinned_spaces():
    spaces = list(dict.fromkeys(_catalog_descriptors(7)))
    spaces += [SpaceDescriptor(f, k, n) for n in range(9) for k in range(n + 1)
               for f in ("odd-real-grassmannian", "odd-oriented-grassmannian")]
    spaces += [SpaceDescriptor("complete-flag-complex", 0, n) for n in (8, 16, 30)]
    spaces += [SpaceDescriptor("complete-flag-oriented", 0, 256, v) for v in ("even", "odd")]
    spaces += [SpaceDescriptor("complete-flag-real", 0, 256, "odd"),
               SpaceDescriptor("complex-grassmannian", 2, 66), SpaceDescriptor("sphere", 0, 100),
               SpaceDescriptor("projective-space-real", 0, 7),
               SpaceDescriptor("projective-space-complex", 0, 200)]
    return spaces


def test_closed_forms_match_pinned_digest():
    spaces = pinned_spaces()
    assert len(spaces) == 383
    records = []
    for space in spaces:
        series = closed_form(space)
        terms = [[t.coeff, t.shift, list(t.num), list(t.den)] for t in series.terms]
        records.append([space.label, str(series), terms, top_degree_of(series)])
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == PINNED_CLOSED_FORMS


def test_flag_series_count_permutations_by_inversions():
    # the Poincare polynomial of Fl(C^n) in t^2 (of the real even flag in
    # t^4) is the inversion generating function of the symmetric group
    for n in range(1, 7):
        inversions = [0] * (n * (n - 1) // 2 + 1)
        for w in itertools.permutations(range(n)):
            inversions[sum(a > b for a, b in itertools.combinations(w, 2))] += 1
        for family, variant, step in (("complete-flag-complex", "", 2), ("complete-flag-real", "even", 4)):
            top = step * (len(inversions) - 1)
            coefficients = closed_form(SpaceDescriptor(family, 0, n, variant)).truncate(top).coefficients
            assert list(coefficients[::step]) == inversions, (family, n)
            assert not any(c for d, c in enumerate(coefficients) if d % step), (family, n)


# -- real even and oriented formulas -----------------------------------------


def test_real_even_series_is_the_complex_series_in_t_squared():
    # P_real(t) = P_complex(t^2): the complex coefficient of degree d sits at
    # degree 2d, and every other degree is zero
    for n in range(7):
        for k in range(n + 1):
            top = 2 * k * (n - k)
            complex_ = grassmannian(k, n).truncate(top)
            real = real_even(k, n).truncate(2 * top)
            assert real.coefficients[::2] == complex_.coefficients, (k, n)
            assert not any(real.coefficients[1::2]), (k, n)


def test_substitute_t_squared_on_projective_space():
    # the real even form of G_1(C^4) is the complex one with t replaced by t^2
    s = real_even(1, 4)
    assert s.symbolic_equal(ClosedFormSeries.from_factors(num=(16,), den=(4,)))
    assert list(s.truncate(16).coefficients)[::4] == [1, 1, 1, 1, 0]


def test_substitute_supports_only_multiples_of_four():
    coeffs = real_even(2, 4).truncate(16).coefficients
    assert all(c == 0 for d, c in enumerate(coeffs) if d % 4)


def test_oriented_even_odd_k1_collapses():
    # (1+t^2)(1-t^4n)/(1-t^4) = (1-t^4n)/(1-t^2)
    for n in (2, 3, 4):
        s = oriented("even-odd", 1, n)
        direct = ClosedFormSeries.from_factors(num=(4 * n,), den=(2,))
        assert s.truncate(4 * n) == direct.truncate(4 * n)
        assert s.symbolic_equal(direct)


def test_oriented_odd_odd_k1_display():
    # (1 + t^(2n-2)) (1-t^4n)/(1-t^4)
    for n in (2, 3):
        s = oriented("odd-odd", 1, n)
        display = ClosedFormSeries.one_plus(2 * n - 2) * ClosedFormSeries.from_factors(
            num=(4 * n,), den=(4,)
        )
        assert s.truncate(4 * n) == display.truncate(4 * n)


def test_oriented_even_even_small_case():
    assert list(oriented("even-even", 1, 2).truncate(4).coefficients) == [1, 0, 2, 0, 1]


def test_oriented_kind_validation():
    with pytest.raises(ValueError):
        oriented("diagonal", 1, 2)
    with pytest.raises(ValueError):
        oriented("even-even", 2, 2)


# -- products and truncation ----------------------------------------------------


def test_leray_hirsch_with_trivial_base():
    fibre = grassmannian(1, 3)
    assert (ClosedFormSeries.one() * fibre).symbolic_equal(fibre)


def test_flag_series_is_product_of_projective_lines():
    n = 3
    product = ClosedFormSeries.one()
    for i in range(1, n + 1):
        product = product * grassmannian(1, i)
    flag = build_ring(SpaceDescriptor("complete-flag-complex", 0, n))
    assert series_from_ring(flag, 6) == product.truncate(6)


def test_odd_factorization_series():
    lhs = odd(2, 3)
    rhs = ClosedFormSeries.one_plus(7) * real_even(2, 3)
    assert lhs.symbolic_equal(rhs)
    assert lhs.truncate(30) == rhs.truncate(30)


def test_truncate_then_convolve_equals_product_then_truncate():
    a = grassmannian(1, 3)
    b = oriented("odd-odd", 1, 3)
    n = 14
    assert (a * b).truncate(n) == a.truncate(n).convolve(b.truncate(n))


# -- truncated series -----------------------------------------------------------


def test_series_from_ring_examples():
    cp1 = build_ring(SpaceDescriptor("projective-space-complex", 0, 2))
    assert series_from_ring(cp1, 2).coefficients == (1, 0, 1)
    rp = build_ring(SpaceDescriptor("projective-space-real", 0, 2))
    assert series_from_ring(rp, 8).coefficients == (1,) + (0,) * 8
    sphere = build_ring(SpaceDescriptor("sphere", 0, 2))
    assert series_from_ring(sphere, 4).coefficients == (1, 0, 0, 0, 1)


def test_series_from_ring_beyond_cutoff_rejected():
    ring = build_ring(SpaceDescriptor("sphere", 0, 2))
    with pytest.raises(ValueError):
        series_from_ring(ring, ring.cutoff + 1)


def test_ring_series_start_at_one_with_nonnegative_coefficients():
    for desc in (
        SpaceDescriptor("complex-grassmannian", 1, 4),
        SpaceDescriptor("oriented-grassmannian", 1, 3, "odd-odd"),
        SpaceDescriptor("complete-flag-real", 0, 3, "even"),
    ):
        ring = build_ring(desc)
        ts = series_from_ring(ring, ring.cutoff)
        assert ts[0] == 1 and all(c >= 0 for c in ts.coefficients)


def test_convolve_requires_enough_coefficients():
    a = TruncatedSeries((1, 1))
    with pytest.raises(ValueError):
        a.convolve(TruncatedSeries((1,)), cutoff=4)
