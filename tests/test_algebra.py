"""Element arithmetic, presentations and quotient normal forms."""

import hashlib
import itertools
import math
import operator
import random
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from flagcohom import (
    CutoffExceededError,
    GeneratorSymbol,
    Generators,
    PresentationError,
    QuotientRing,
    SpaceDescriptor,
    build_ring,
    build_space,
    equivariant_space,
    make_presentation,
)
from flagcohom import algebra, linalg
from flagcohom.catalog import default_cutoff
from flagcohom.expressions import MAX_NESTING, ElementSyntaxError
from flagcohom.verify import _catalog_descriptors

try:
    import sympy
except ImportError:  # the Groebner-basis oracle is skipped without it
    sympy = None

from _oracles import (
    ReferenceQuotient,
    elimination_key,
    koszul_product,
    koszul_terms_product,
    monomials,
    quotient_dimension,
    rank_mod_p,
    reference_table,
    relation_matrix,
)


def mixed_gens():
    return Generators(
        [
            GeneratorSymbol("a", 2),
            GeneratorSymbol("r", 3),
            GeneratorSymbol("b", 4),
            GeneratorSymbol("s", 5),
        ]
    )


# -- generators and monomials -------------------------------------------------


def test_duplicate_generator_names_rejected():
    with pytest.raises(PresentationError, match="duplicate"):
        Generators([GeneratorSymbol("x", 2), GeneratorSymbol("x", 4)])


def test_generator_degree_must_be_positive():
    with pytest.raises(PresentationError):
        GeneratorSymbol("x", 0)


def test_parity_follows_degree():
    assert GeneratorSymbol("r", 3).is_odd
    assert not GeneratorSymbol("x", 2).is_odd


def test_monomial_enumeration_matches_bruteforce():
    gens = mixed_gens()
    for d in range(13):
        assert sorted(gens.monomials_of_degree(d)) == sorted(monomials([2, 3, 4, 5], d))


def display_key(exps):
    # descending lex, earlier generators dominant
    return tuple(-e for e in exps)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=5),
    st.integers(0, 14),
    st.lists(st.integers(-1, 14), max_size=4),
)
def test_monomials_of_degree_come_in_display_order(degrees, d, more):
    # a table's basis comes in this order. The degrees after d are asked in random order on the same
    # generators, so the count table is both reused and rebuilt
    gens = Generators([GeneratorSymbol(f"x{i}", deg) for i, deg in enumerate(degrees)])
    for e in [d, *more]:
        expected = monomials(degrees, e)
        assert list(gens.monomials_of_degree(e)) == sorted(expected, key=display_key), e
        assert gens.monomial_count(e) == len(expected), e


def test_catalog_monomials_come_in_display_order():
    for desc in dict.fromkeys(_catalog_descriptors(4)):
        pres = build_space(desc)[0]
        gens = pres.generators
        for d in range(default_cutoff(pres) + 1):
            expected = sorted(monomials(list(gens.degrees), d), key=display_key)
            assert list(gens.monomials_of_degree(d)) == expected, (desc.label, d)


def test_monomial_degree_and_str():
    gens = mixed_gens()
    m = gens.monomial((2, 1, 0, 0))
    assert m.degree == 7
    assert str(m) == "a^2*r"
    assert str(gens.monomial((0, 0, 0, 0))) == "1"


# -- element arithmetic -------------------------------------------------------


def test_odd_square_is_zero():
    gens = mixed_gens()
    r = gens.gen("r")
    assert (r * r).is_zero


def test_odd_generators_anticommute():
    gens = mixed_gens()
    r, s = gens.gen("r"), gens.gen("s")
    assert (r * s + s * r).is_zero
    assert r * s == -(s * r)


def test_total_class_product_expansion():
    gens = Generators([GeneratorSymbol("c1", 2), GeneratorSymbol("cb1", 2)])
    c1, cb1 = gens.gen("c1"), gens.gen("cb1")
    product = (1 + c1) * (1 + cb1)
    assert product == 1 + c1 + cb1 + c1 * cb1


def test_universe_mismatch_rejected():
    a = Generators([GeneratorSymbol("x", 2)]).gen("x")
    b = Generators([GeneratorSymbol("y", 2)]).gen("y")
    with pytest.raises(ValueError, match="universe"):
        a * b


def test_reindex_moves_each_term_and_keeps_its_coefficient():
    # generators match by name and degree, in any order; one that no term
    # uses need not exist in the target. The name map is injective, so each
    # term moves on its own, with its numerator object, over the same
    # denominator
    gens = mixed_gens()
    el = gens.parse("2/3*a*r - 5*b^2*s + 7")
    names = [("s", 5), ("z", 6), ("b", 4), ("r", 3), ("a", 2)]
    target = Generators([GeneratorSymbol(n, d) for n, d in names])
    moved = el.reindex(target)
    assert moved.terms == {(0, 0, 0, 1, 1): Fraction(2, 3), (1, 0, 2, 0, 0): -5, (0,) * 5: 7}
    assert moved.den == el.den == 3
    assert sorted(map(id, moved.nums.values())) == sorted(map(id, el.nums.values()))
    assert moved.reindex(gens) == el
    wider = gens.extend([GeneratorSymbol("z", 6)])
    assert el.reindex(wider).terms == {e + (0,): c for e, c in el.terms.items()}
    a = gens.gen("a")
    assert a.reindex(Generators([GeneratorSymbol("a", 2)])).terms == {(1,): 1}
    with pytest.raises(PresentationError, match="undeclared generator 'r'"):
        el.reindex(Generators([GeneratorSymbol(n, d) for n, d in names if n != "r"]))
    with pytest.raises(PresentationError, match="generator a has degree 4 in the target universe, expected 2"):
        a.reindex(Generators([GeneratorSymbol("a", 4)]))


def test_homogeneous_components_reassemble():
    gens = mixed_gens()
    el = gens.parse("1 + 2*a - a*r + 3*b^2 - r*s")
    parts = el.homogeneous_components()
    total = gens.zero()
    for d, comp in parts.items():
        assert comp.degree() == d
        total = total + comp
    assert total == el


@pytest.mark.parametrize(
    "text, message",
    [("x/0", "division by zero at position 2"),
     ("(" * 101 + "x" + ")" * 101, "nesting deeper than 100 at position 100"),
     ("-" * 101 + "x", "nesting deeper than 100 at position 100"),
     ("(" * 1000 + "x" + ")" * 1000, "nesting deeper than 100 at position 100"),
     ("x^" + "9" * 4301, "integer literal longer than 4300 digits at position 2"),
     ("x/" + "7" * 4301, "integer literal longer than 4300 digits at position 2"),
     ("x $ 1", "unexpected character '$' at position 2"),
     ("(x", "expected ')' at position 2"),
     ("x)", "trailing input at position 1"),
     ("x / x", "can only divide by an integer literal at position 4"),
     ("x^x", "exponent must be an integer literal at position 2"),
     ("*x", "expected a name, number or '(' at position 0")],
    ids=["divide-by-zero", "parentheses-101", "signs-101", "parentheses-1000",
         "exponent-4301-digits", "divisor-4301-digits", "unexpected-character", "unclosed-parenthesis",
         "trailing-input", "divide-by-a-name", "exponent-a-name", "leading-operator"],
)
def test_parse_refuses_division_by_zero_and_deep_nesting(text, message):
    gens = Generators([GeneratorSymbol("x", 2)])
    with pytest.raises(ElementSyntaxError, match=re.escape(message)):
        gens.parse(text)


def test_parse_bounds_literal_exponents():
    gens = Generators([GeneratorSymbol("x", 2)])
    assert gens.parse("x^256") == gens.gen("x") ** 256
    assert gens.parse("x^" + "0" * 4297 + "256") == gens.gen("x") ** 256  # 4300 digits
    with pytest.raises(ElementSyntaxError, match="exponent above 256 at position 2"):
        gens.parse("x^257")
    # a power's degree bounds its size, not the work of expanding it
    gens = Generators([GeneratorSymbol(name, 2) for name in "abcdefh"])
    assert gens.parse("a^24") == gens.gen("a") ** 24
    assert gens.parse("(1+h)^256") == sum(
        math.comb(256, i) * gens.gen("h") ** i for i in range(257)
    )
    too_many = "expansion multiplies more than 200000 pairs of terms"
    with pytest.raises(ElementSyntaxError, match=rf"{too_many} at position 13"):
        gens.parse("(a+b+c+d+e+f)^24")
    with pytest.raises(ElementSyntaxError, match=rf"{too_many} at position 16"):
        gens.parse("(a+b+c+d+e+f)^10*(a+b+c+d+e+f)^10")


def test_parse_accepts_nesting_at_the_limit():
    gens = Generators([GeneratorSymbol("x", 2)])
    x = gens.gen("x")
    assert gens.parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == x
    assert gens.parse("-" * MAX_NESTING + "x") == x  # an even number of signs


def test_a_long_sum_parses_in_linear_time():
    # each product multiplies two pairs of terms, far below the term-product
    # bound; adding each summand to a copy of the sum so far made this
    # quadratic (about 5 s for 20,000 terms)
    gens = Generators([GeneratorSymbol(f"x{i}", 2) for i in range(60)])
    rng = random.Random(0)
    triples = set()
    while len(triples) < 20_000:
        triples.add(tuple(sorted(rng.sample(range(60), 3))))
    text = "+".join(f"x{a}*x{b}*x{c}" for a, b, c in sorted(triples))
    start = time.perf_counter()
    total = gens.parse(text)
    assert time.perf_counter() - start < 2.5
    assert len(total.terms) == 20_000
    assert set(total.terms.values()) == {1}
    assert gens.parse("x1*x2 - x3 + 2*x3 - x1*x2") == gens.gen("x3")


def element_strategy(gens, max_degree=10):
    degrees = list(gens.degrees)
    monos = []
    for d in range(max_degree + 1):
        monos.extend(gens.monomials_of_degree(d))
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.dictionaries(st.sampled_from(monos), coeff, max_size=4).map(gens.element)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_is_associative_and_graded_commutative(data):
    gens = mixed_gens()
    a = data.draw(element_strategy(gens, 8))
    b = data.draw(element_strategy(gens, 8))
    c = data.draw(element_strategy(gens, 6))
    assert (a * b) * c == a * (b * c)
    for p, ca in a.homogeneous_components().items():
        for q, cb in b.homogeneous_components().items():
            sign = -1 if (p % 2 and q % 2) else 1
            assert ca * cb == sign * (cb * ca)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_koszul_sign_matches_word_oracle(data):
    gens = mixed_gens()
    degrees = list(gens.degrees)
    monos = [m for d in range(9) for m in gens.monomials_of_degree(d)]
    ea = data.draw(st.sampled_from(monos))
    eb = data.draw(st.sampled_from(monos))
    product = gens.element({ea: 1}) * gens.element({eb: 1})
    expected = koszul_product(degrees, ea, eb)
    if expected is None:
        assert product.is_zero
    else:
        exps, sign = expected
        assert product == gens.element({exps: sign})


# -- presentations -------------------------------------------------------------


def test_relation_with_undeclared_generator_rejected():
    cp = Generators([GeneratorSymbol("c1", 2), GeneratorSymbol("cb1", 2)])
    rel = (1 + cp.gen("c1")) * (1 + cp.gen("cb1")) - 1
    with pytest.raises(PresentationError, match="undeclared"):
        make_presentation([GeneratorSymbol("c1", 2)], [rel])


def test_inconsistent_degree_zero_relation_rejected():
    gens = Generators([GeneratorSymbol("x", 2)])
    with pytest.raises(PresentationError, match="degree-0"):
        make_presentation(gens, [gens.gen("x") + 2])


def test_total_class_relations_split_into_components():
    gens = Generators(
        [GeneratorSymbol("c1", 2), GeneratorSymbol("cb1", 2), GeneratorSymbol("cb2", 4)]
    )
    c1, cb1, cb2 = (gens.gen(n) for n in gens.names)
    pres = make_presentation(gens, [(1 + c1) * (1 + cb1 + cb2) - 1], "G_1(C^3)")
    assert [r.degree() for r in pres.relations] == [2, 4, 6]
    assert pres.relations[0] == c1 + cb1
    assert pres.relations[1] == c1 * cb1 + cb2
    assert pres.relations[2] == c1 * cb2


def test_redundant_odd_square_relation_accepted():
    gens = Generators([GeneratorSymbol("r", 7)])
    r = gens.gen("r")
    pres = make_presentation(gens, [r * r], "RP^7-ish")
    assert pres.relations == ()  # structurally zero, nothing to store


def test_displayed_reduced_oriented_presentation_accepted():
    # generators e(2), eb(2n-2) with e^(2n-1)=0, e*eb=0, eb^2=(-1)^(n-1) e^(2n-2)
    n = 3
    gens = Generators([GeneratorSymbol("e", 2), GeneratorSymbol("eb", 2 * n - 2)])
    e, eb = gens.gen("e"), gens.gen("eb")
    pres = make_presentation(
        gens, [e ** (2 * n - 1), e * eb, eb * eb - (-1) ** (n - 1) * e ** (2 * n - 2)]
    )
    ring = QuotientRing(pres, 4 * n - 4)
    assert ring.dimensions() == [1, 0, 1, 0, 2, 0, 1, 0, 1]


# -- quotients -----------------------------------------------------------------


def cp_ring(n: int) -> QuotientRing:
    gens = Generators([GeneratorSymbol("c1", 2)])
    return QuotientRing(make_presentation(gens, [gens.gen("c1") ** n]), 2 * n)


def test_projective_space_normal_forms():
    ring = cp_ring(4)
    c1 = ring.gens.gen("c1")
    assert ring.normal_form(c1 ** 4).is_zero
    assert ring.normal_form(c1 ** 3) == c1 ** 3
    assert [str(m) for m in ring.degree_basis(6)] == ["c1^3"]
    assert ring.degree_basis(8) == ()


def test_unit_degree_zero_basis():
    ring = build_ring(SpaceDescriptor("complex-grassmannian", 2, 4))
    assert [str(m) for m in ring.degree_basis(0)] == ["1"]


def test_degree_basis_beyond_cutoff_raises():
    ring = cp_ring(2)
    with pytest.raises(CutoffExceededError):
        ring.degree_basis(ring.cutoff + 2)
    with pytest.raises(CutoffExceededError):
        ring.normal_form(ring.gens.gen("c1") ** 4)


@pytest.mark.parametrize("cutoff", [2.5, "4", None, True, -1])
def test_a_cutoff_that_is_not_a_nonnegative_int_is_refused(cutoff):
    with pytest.raises(PresentationError, match=f"^a nonnegative integer cutoff degree is required, got {cutoff!r}$"):
        QuotientRing(cp_ring(2).presentation, cutoff)


def test_is_zero_of_zero_element():
    ring = cp_ring(2)
    assert ring.is_zero(ring.gens.zero())


def test_relations_reduce_to_zero_in_catalog_rings():
    for desc in (
        SpaceDescriptor("complex-grassmannian", 2, 4),
        SpaceDescriptor("oriented-grassmannian", 1, 3, "even-even"),
        SpaceDescriptor("odd-real-grassmannian", 1, 2),
    ):
        ring = build_ring(desc)
        for rel in ring.presentation.relations:
            assert ring.is_zero(rel), f"{desc.label}: {rel}"


def test_rewrite_tables_are_idempotent():
    ring = build_ring(SpaceDescriptor("complex-grassmannian", 2, 4))
    for d in range(ring.cutoff + 1):
        for mono in ring.degree_basis(d):
            assert ring.normal_form(mono.as_element()) == mono.as_element()


def test_dimensions_match_bruteforce_oracle():
    ring = build_ring(SpaceDescriptor("complex-grassmannian", 2, 4))
    degrees = list(ring.gens.degrees)
    rels = [r.terms for r in ring.presentation.relations]
    for d in range(9):
        assert ring.dimension(d) == quotient_dimension(degrees, rels, d)


def test_frozen_derived_example_g2c4_degree4_basis():
    # brute-force dense elimination on the full presentation gives dimension
    # 2 in degree 4 with pure Chern monomials surviving
    ring = build_ring(SpaceDescriptor("complex-grassmannian", 2, 4))
    assert [str(m) for m in ring.degree_basis(4)] == ["c1^2", "c2"]


def oracle_rows(pres, d):
    """The elimination-ordered degree-d columns, and the oracle's relation
    multiples as sparse integer rows over them."""
    gens = pres.generators
    degrees = list(gens.degrees)
    cols = sorted(monomials(degrees, d), key=elimination_key(gens))
    rows = []
    for dense in relation_matrix(degrees, [r.terms for r in pres.relations], d, cols):
        den = math.lcm(*(v.denominator for v in dense))
        rows.append([(c, int(v * den)) for c, v in enumerate(dense) if v])
    return cols, rows


def test_rank_independent_of_column_order():
    ring = build_ring(SpaceDescriptor("oriented-grassmannian", 1, 3, "even-even"))
    pres = ring.presentation
    for d in range(0, ring.cutoff + 1, 2):
        cols, rows = oracle_rows(pres, d)
        ranks = []
        for order in (cols, sorted(cols), sorted(cols, key=lambda e: tuple(reversed(e)))):
            where = {m: i for i, m in enumerate(order)}
            moved = [sorted((where[cols[c]], v) for c, v in row) for row in rows]
            ranks.append(linalg.rank(moved))
        assert ranks[0] == ranks[1] == ranks[2] == len(cols) - ring.dimension(d)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_form_is_multiplicative(data):
    ring = build_ring(SpaceDescriptor("oriented-grassmannian", 1, 2, "even-even"))
    strategy = element_strategy(ring.gens, 4)
    a = data.draw(strategy)
    b = data.draw(strategy)
    nf = ring.normal_form
    assert nf(a * b) == nf(nf(a) * nf(b))
    assert nf(nf(a)) == nf(a)


def rewrite_items(ring, d):
    """Degree d's pivot rows as (pivot, (lead, ((basis monomial, v), ...))),
    in the table's row order, each row's key mapped back to its monomial;
    the basis monomials' unit rows are skipped."""
    table = ring._table(d)
    if not table.rows:
        return []
    monomial = {ring._key(m): m for m in ring.gens.monomials_of_degree(d)}
    basis, units = table.basis, set(table.basis)
    return [
        (monomial[key], (lead, tuple((basis[i], v) for i, v in entries)))
        for key, (lead, entries) in table.rows.items()
        if monomial[key] not in units
    ]


def fraction_rewrite(ring, d):
    """Degree d's integer rewrite rows as pivot -> {basis monomial: Fraction}."""
    return {
        pivot: {b: Fraction(v, lead) for b, v in entries}
        for pivot, (lead, entries) in rewrite_items(ring, d)
    }


def test_per_degree_tables_are_deterministic():
    desc = SpaceDescriptor("complex-grassmannian", 2, 5)
    r1, r2 = build_ring(desc), build_ring(desc)
    for d in range(0, 12, 2):
        assert [m.exps for m in r1.degree_basis(d)] == [m.exps for m in r2.degree_basis(d)]
        assert fraction_rewrite(r1, d) == fraction_rewrite(r2, d)


def test_concurrent_degree_computation_is_safe():
    from concurrent.futures import ThreadPoolExecutor

    # G_2(C^5) is zero above degree 12 and its largest generator degree is
    # 6; whichever degree a thread asks for first, the tables are built in
    # increasing degree under one lock, so degrees from 19 on are ruled zero
    desc = SpaceDescriptor("complex-grassmannian", 2, 5)
    ring = build_ring(desc, 24)
    reference = build_ring(desc, 24)
    degrees = list(range(ring.cutoff + 1)) * 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            dims = list(pool.map(ring.dimension, degrees))
    finally:
        sys.setswitchinterval(interval)
    assert dims == [reference.dimension(d) for d in degrees]
    for d in range(ring.cutoff + 1):
        assert ring._table(d).basis == reference._table(d).basis
        assert fraction_rewrite(ring, d) == fraction_rewrite(reference, d)


def test_degrees_past_the_vanishing_window_build_no_matrix(monkeypatch):
    steps, dead = [], []
    real, real_dead = algebra._GroebnerBasis.step, algebra._GroebnerBasis._dead

    def counting(basis, d):
        steps.append(d)
        return real(basis, d)

    def counting_dead(basis, d):
        dead.append(d)
        return real_dead(basis, d)

    monkeypatch.setattr(algebra._GroebnerBasis, "step", counting)
    monkeypatch.setattr(algebra._GroebnerBasis, "_dead", counting_dead)
    # G_2(C^4): zero above degree 8, generators of degree at most 4
    ring = build_ring(SpaceDescriptor("complex-grassmannian", 2, 4), 40)
    assert ring.dimensions() == ring.dimensions(8) + [0] * 32
    # its generators are all even, so an odd degree d has only odd degrees
    # d - deg x below it, which are zero: the zero rule skips it. Degree 14
    # and every degree above it are skipped as well
    assert steps == list(range(0, 13, 2))
    assert dead == list(range(0, 13, 2))
    # a degree asked for first builds the degrees below it, so the rule
    # applies however the degrees are asked
    steps.clear()
    fresh = build_ring(SpaceDescriptor("complex-grassmannian", 2, 4), 40)
    assert fresh.dimension(30) == 0
    assert steps == list(range(0, 13, 2))
    assert fresh.normal_form(fresh.gens.gen("c1") ** 15).is_zero


def test_the_zero_rule_skips_degrees_below_nonzero_ones(monkeypatch):
    # x (degree 2) and y (degree 6) with x^2 = xy = 0: the ring is 1, x, y,
    # y^2 and y^3 to degree 18. Degrees 10 - deg x and 16 - deg x are zero
    # for x and y, so the rule skips degrees 10 and 16 (and the odd ones),
    # though nonzero degrees lie above them. The steps of degrees 12 and 18
    # read every monomial of the degree skipped below them as zero, so each
    # monomial but y^2 or y^3 is dead and the kernel gets no row
    steps, rows = [], {}
    real_step, real_rref = algebra._GroebnerBasis.step, linalg.rref

    def step(basis, d):
        steps.append(d)
        return real_step(basis, d)

    def rref(r):
        rows[steps[-1]] = rows.get(steps[-1], 0) + len(r)
        return real_rref(r)

    monkeypatch.setattr(algebra._GroebnerBasis, "step", step)
    monkeypatch.setattr(linalg, "rref", rref)
    tables = tables_matching_dense_reference([(2, 0), (6, 0)], [{(2, 0): 1}, {(1, 1): 1}], cutoff=18)
    assert [len(t.basis) for t in tables] == [int(d in (0, 2, 6, 12, 18)) for d in range(19)]
    assert steps == [0, 2, 4, 6, 8, 12, 14, 18]
    assert rows[12] == rows[18] == 0


def test_a_table_hands_the_kernel_one_row_per_leading_monomial(monkeypatch):
    # equivariant Fl(C^3) in degree 18: 2002 monomials, of which 1757 lead an
    # ideal element; the relation multiples of that degree are 2541 rows
    sizes = []
    real = linalg.rref

    def counting(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    ring = equivariant_space("complex", 3, "flag", cutoff=18)
    assert ring.dimension(18) == 2002 - 1757
    assert max(sizes) <= 1757


def test_zero_monomials_hand_the_kernel_no_rows(monkeypatch):
    # Fl~(R^9) has four generators of degree 2 and is zero above degree 32,
    # with many zero monomials below it. Giving each dead monomial its unit
    # row after the reduction leaves the kernel 1637 rows, at most 256 at
    # once (4473 and 968 when every dead monomial had a reducer row).
    # Equivariant Fl(C^3) has no zero monomial, and hands it the same rows
    sizes = []
    real = linalg.rref

    def counting(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    ring = build_ring(SpaceDescriptor("complete-flag-oriented", 0, 4, "odd"))
    assert ring.cutoff == 32 and ring.dimension(32) == 1
    ring.dimensions()
    assert sum(sizes) <= 1637 and max(sizes) <= 256
    sizes.clear()
    equivariant_space("complex", 3, "flag", cutoff=18).dimensions()
    assert sum(sizes) == 4137


def test_a_high_degree_enumerates_no_monomial_past_the_window(monkeypatch):
    # monomials are enumerated as exponent vectors, and by the Gröbner step
    # as keys
    enumerated = set()
    real_vectors, real_keys = Generators.monomials_of_degree, algebra._GroebnerBasis._keys

    def vectors(gens, d):
        enumerated.add(d)
        return real_vectors(gens, d)

    def keys(basis, d):
        enumerated.add(d)
        return real_keys(basis, d)

    monkeypatch.setattr(Generators, "monomials_of_degree", vectors)
    monkeypatch.setattr(algebra._GroebnerBasis, "_keys", keys)
    ring = build_ring(SpaceDescriptor("complex-grassmannian", 2, 4), 60)
    assert ring.dimension(60) == 0
    assert max(enumerated) == 12


def test_monomial_counts_match_enumeration():
    gens = mixed_gens()
    assert [gens.monomial_count(d) for d in range(-1, 30)] == [
        len(gens.monomials_of_degree(d)) for d in range(-1, 30)
    ]


def test_enumeration_follows_the_output():
    # 18 odd generators of degree 1 have one monomial of degree 18; the
    # search descends only where the generators after it reach the rest of
    # the degree, so it does not walk the 2^18 partial products
    gens = Generators([GeneratorSymbol(f"x{i}", 1) for i in range(18)])
    start = time.perf_counter()
    assert gens.monomials_of_degree(18) == ((1,) * 18,)
    assert time.perf_counter() - start < 0.05


def test_a_free_generator_enumerates_in_linear_time():
    # one degree-2 generator has one monomial in each even degree. The search
    # drops a factor of the last generator in one step, where walking its
    # exponent down one unit at a time made the degrees to 20,000 take
    # quadratic time
    gens = Generators([GeneratorSymbol("x", 2)])
    ring = QuotientRing(make_presentation(gens, []), 20_000)
    start = time.perf_counter()
    assert ring.dimensions() == [1, 0] * 10_000 + [1]
    assert time.perf_counter() - start < 2


def test_many_relations_of_one_degree_are_deduplicated_in_linear_time():
    # every product of two of 200 degree-2 generators, each given twice, and
    # 2,000 multiples of one relation: one-term components that share a
    # degree and size, and components that share their monomials
    n = 200
    gens = Generators([GeneratorSymbol(f"x{i}", 2) for i in range(n)])
    rels = []
    for i in range(n):
        for j in range(i, n):
            exps = [0] * n
            exps[i] += 1
            exps[j] += 1
            rels.append(gens.element({tuple(exps): 1}))
    x0, x1 = gens.gen("x0"), gens.gen("x1")
    multiples = [x0 - k * x1 for k in range(1, 2001)]
    start = time.perf_counter()
    pres = make_presentation(gens, rels + rels + multiples + multiples)
    assert time.perf_counter() - start < 2
    assert len(pres.relations) == len(rels) + len(multiples)


def test_a_degree_with_too_many_monomials_is_refused_before_any_step():
    gens = Generators([GeneratorSymbol(f"x{i}", 2) for i in range(30)])
    ring = QuotientRing(make_presentation(gens, [gens.gen("x0") ** 5]), 20)
    assert gens.monomial_count(10) == 278256 > algebra.MAX_DEGREE_MONOMIALS
    for _ in range(2):
        with pytest.raises(algebra.TooManyMonomialsError, match="degree 10 has 278256 monomials"):
            ring.dimension(10)
        # degrees 0-9 are built; the relation of degree 10 is still to reduce
        assert len(ring._tables) == 10
        assert list(ring._basis.relations) == [10]


def test_negative_degrees_are_zero():
    ring = build_ring(SpaceDescriptor("complex-grassmannian", 2, 4))
    assert ring.dimensions() == [1, 0, 1, 0, 2, 0, 1, 0, 1]
    assert ring.dimension(-1) == 0
    assert ring.degree_basis(-1) == ()
    assert build_ring(SpaceDescriptor("complex-grassmannian", 2, 4)).dimension(-3) == 0


def test_each_degree_makes_at_most_one_row_reduction(monkeypatch):
    # a nonzero degree makes exactly one: the basis step and the table share it
    degree, calls = [None], []
    real_rref, real_table = linalg.rref, QuotientRing._compute_table

    def table(ring, d):
        degree[0] = d
        return real_table(ring, d)

    def rref(rows):
        calls.append(degree[0])
        return real_rref(rows)

    monkeypatch.setattr(QuotientRing, "_compute_table", table)
    monkeypatch.setattr(linalg, "rref", rref)
    for ring in (
        build_ring(SpaceDescriptor("complex-grassmannian", 2, 4), 30),
        QuotientRing(odd_mixing_presentation(), 24),
        equivariant_space("complex", 3, "flag", cutoff=10),
    ):
        calls.clear()
        dims = ring.dimensions()
        assert len(calls) == len(set(calls)), ring.label
        assert {d for d, n in enumerate(dims) if n} <= set(calls), ring.label


def odd_mixing_presentation():
    # three odd generators and relations whose terms carry different odd
    # factors, so the Koszul sign of a relation multiple varies from term to
    # term; fractional coefficients exercise the clearing of denominators
    gens = Generators(
        [
            GeneratorSymbol("r", 3),
            GeneratorSymbol("s", 5),
            GeneratorSymbol("t", 7),
            GeneratorSymbol("a", 2),
        ]
    )
    r, s, t, a = (gens.gen(n) for n in gens.names)
    rels = [a**6, r * t - Fraction(1, 2) * a**5, t * a + Fraction(3, 4) * s * a**2 - r * a**3]
    return make_presentation(gens, rels, "odd-mixing")


def test_tables_match_dense_reference_past_the_vanishing_window():
    # every table the engine keeps, and the normal form of every monomial,
    # against dense Fraction elimination of all relation multiples
    presentations = (build_space(desc)[0] for desc in dict.fromkeys(_catalog_descriptors(3)))
    cases = [(pres, default_cutoff(pres)) for pres in presentations]
    cases.append((odd_mixing_presentation(), 15))  # its top degree
    for pres, top in cases:
        gens = pres.generators
        window = max(gens.degrees, default=0)
        ring = QuotientRing(pres, top + window + 2)
        degrees = list(gens.degrees)
        rels = [r.terms for r in pres.relations]
        for d in range(ring.cutoff + 1):
            basis, rewrite = reference_table(degrees, rels, d, elimination_key(gens))
            table = ring._table(d)
            assert set(table.basis) == basis, (pres.label, d)
            if basis:
                assert fraction_rewrite(ring, d) == rewrite, (pres.label, d)
            for m in monomials(degrees, d):
                expected = rewrite.get(m, {m: 1}) if basis else {}
                assert ring.normal_form(gens.element({m: 1})).terms == expected, (pres.label, m)


# sha256 of every table's degree, basis and rewrite items, in order, of every
# ring of _catalog_descriptors(4) at its default cutoff + 6, of odd-mixing at
# 24 and of equivariant Fl(C^2) and Fl(C^3) at 12 and 14; recorded when each
# table was reduced from every relation multiple of its degree
PINNED_TABLES = "b0927592d58e878eb19dbd5a23c2caa3de973be0c1aa59376791cd0aaa93f8bb"


def test_tables_match_pinned_digest():
    presentations = (build_space(desc)[0] for desc in dict.fromkeys(_catalog_descriptors(4)))
    rings = [QuotientRing(pres, default_cutoff(pres) + 6) for pres in presentations]
    rings.append(QuotientRing(odd_mixing_presentation(), 24))
    rings.append(equivariant_space("complex", 2, "flag", cutoff=12))
    rings.append(equivariant_space("complex", 3, "flag", cutoff=14))
    assert len(rings) == 133
    digest = hashlib.sha256()
    for ring in rings:
        # asked in descending order, the tables are still built ascending
        tables = {d: ring._table(d) for d in reversed(range(ring.cutoff + 1))}
        for d in range(ring.cutoff + 1):
            table = tables[d]
            digest.update(repr((ring.label, d, table.basis, rewrite_items(ring, d))).encode())
    assert digest.hexdigest() == PINNED_TABLES


@st.composite
def graded_presentations(draw):
    """1-4 generators of degree 1-4 with random rewrite priorities, and 0-3
    homogeneous relations of degree at most 8 with coefficients in [-3, 3]
    over denominators 1 or 2. The draws favour three or four generators,
    half of them odd, mostly of degree 1 and 2: odd and even generators
    mixing in small degrees make the odd products x*g matter most often."""
    count = draw(st.sampled_from((3, 4, 3, 4, 3, 4, 1, 2)))
    symbols = [draw(st.tuples(st.sampled_from((1, 2, 1, 2, 3, 4)), st.integers(0, 2))) for _ in range(count)]
    degrees = [d for d, _ in symbols]
    coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        exps = monomials(degrees, draw(st.sampled_from([d for d in range(1, 9) if monomials(degrees, d)])))
        coefficients = draw(st.lists(coeff, min_size=len(exps), max_size=len(exps)))
        relation = {e: c for e, c in zip(exps, coefficients) if c}
        if relation:
            relations.append(relation)
    return symbols, relations


def tables_matching_dense_reference(symbols, relations, cutoff=10):
    """Every table of the presentation to the cutoff, each checked against
    `_oracles.reference_table`."""
    gens = Generators([GeneratorSymbol(f"x{i}", d, p) for i, (d, p) in enumerate(symbols)])
    ring = QuotientRing(make_presentation(gens, [gens.element(r) for r in relations]), cutoff)
    degrees = list(gens.degrees)
    tables = []
    for d in range(cutoff + 1):
        basis, rewrite = reference_table(degrees, relations, d, elimination_key(gens))
        table = ring._table(d)
        assert set(table.basis) == basis, d
        if basis:
            assert fraction_rewrite(ring, d) == rewrite, d
        tables.append(table)
    return tables


@settings(max_examples=200, deadline=None)
@given(graded_presentations())
def test_random_graded_presentations_match_dense_reference(presentation):
    # odd generators kill a lead but not always the rest of an element, so
    # the tables need more than the pairs of leads
    tables_matching_dense_reference(*presentation)


@st.composite
def sparse_presentations(draw):
    """2-4 generators of degree 1-3 with random rewrite priorities, and 1-4
    relations of degree at most 6 with one term, or less often two: the
    monomial relations make zero monomials in low degrees, and the steps
    above them prune their multiples."""
    count = draw(st.integers(2, 4))
    symbols = [draw(st.tuples(st.sampled_from((1, 2, 1, 2, 3)), st.integers(0, 2))) for _ in range(count)]
    degrees = [d for d, _ in symbols]
    coeff = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.sampled_from((1, 2)))
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        exps = monomials(degrees, draw(st.sampled_from([d for d in range(1, 7) if monomials(degrees, d)])))
        size = draw(st.sampled_from((1, 1, 2)))
        terms = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=size, unique=True))
        relations.append({e: draw(coeff) for e in terms})
    return symbols, relations


def test_pruned_tables_match_dense_reference(monkeypatch):
    # the tables of steps that give dead monomials their unit rows are those
    # of reducing every relation multiple; the test counts the dead columns
    # and the zero pivots it sees, so it fails if the pruning never fires
    seen = {"dead": 0, "zero pivots": 0}
    real = algebra._GroebnerBasis._dead

    def counting(basis, d):
        dead = real(basis, d)
        seen["dead"] += len(dead)
        return dead

    monkeypatch.setattr(algebra._GroebnerBasis, "_dead", counting)

    @settings(max_examples=150, deadline=None)
    @given(sparse_presentations())
    def check(presentation):
        for table in tables_matching_dense_reference(*presentation):
            seen["zero pivots"] += sum(1 for _, entries in table.rows.values() if not entries)

    check()
    assert seen["dead"] and seen["zero pivots"], seen


def exponent_vectors(degrees, d):
    """Every exponent vector of degree d, odd generators squared included."""
    ranges = [range(d // g + 1) for g in degrees]
    return [e for e in itertools.product(*ranges) if sum(map(operator.mul, e, degrees)) == d]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2)), min_size=1, max_size=4),
    st.integers(0, 12),
    st.data(),
)
def test_packed_keys_order_and_divide_as_exponent_vectors(symbols, cutoff, data):
    # the Gröbner step enumerates a degree's keys in display order, sorts its
    # columns by descending key, and takes a lead l to divide m when no field
    # of k_m - k_l borrows past its guard bit. Against the oracle's column
    # order, the display order and plain exponent arithmetic, over monomials
    # within the cutoff that fill the fields, each paired both ways with
    # every monomial: each generator's largest power, every monomial of the
    # top degree, and a sample of the rest
    gens = Generators(GeneratorSymbol(f"x{i}", d, p) for i, (d, p) in enumerate(symbols))
    ring = QuotientRing(make_presentation(gens), cutoff)
    degrees, guard, column_order = list(gens.degrees), ring._basis.guard, elimination_key(gens)
    everything = []
    for d in range(cutoff + 1):
        monos = monomials(degrees, d)
        assert sorted(monos, key=ring._key, reverse=True) == sorted(monos, key=column_order)
        assert ring._basis._keys(d) == [ring._key(m) for m in sorted(monos, key=display_key)]
        assert all(ring._key(m) >> ring._shift == d for m in monos)
        everything += monos
    powers = [
        tuple(min(cutoff // g, 1 if g % 2 else cutoff) * (j == i) for j in range(len(degrees)))
        for i, g in enumerate(degrees)
    ]
    filled = powers + monomials(degrees, cutoff) + data.draw(st.lists(st.sampled_from(everything), max_size=5))
    for m in filled:
        for other in everything:
            for a, b in ((m, other), (other, m)):
                ka, kb = ring._key(a), ring._key(b)
                divides = all(map(operator.ge, a, b))
                assert (((ka | guard) - kb) & guard == guard) == divides, (symbols, cutoff, a, b)
                if divides:
                    assert ka - kb == ring._key(tuple(map(operator.sub, a, b)))


def test_multiples_match_the_word_sign_product():
    # the Gröbner step builds each multiple u*g straight into a row over the
    # live columns, adding u's key to each term's. Every element of three
    # bases times every monomial u of degree at most 6, up to the cutoff,
    # against the word-sign product restricted to the columns kept, term by
    # term. The columns are every exponent vector of the product's degree in
    # the elimination order, odd squares included (an odd exponent of 2, as
    # a product of two monomials can have, keeps its key apart), so a
    # product that vanishes must be dropped by the sign rule and not by a
    # missing column; every third column is removed, as dead ones are
    rings = [
        QuotientRing(odd_mixing_presentation(), 24),
        build_ring(SpaceDescriptor("complete-flag-oriented", 0, 4, "odd")),
        equivariant_space("complex", 2, "flag", cutoff=12),
    ]
    seen = {"rows": 0, "sign flips": 0, "odd squares": 0}
    for ring in rings:
        ring.dimensions()
        basis, gens = ring._basis, ring.gens
        degrees, key = list(gens.degrees), elimination_key(gens)
        odd = [i for i, g in enumerate(degrees) if g % 2]
        monomial = {ring._key(m): m for d in range(ring.cutoff + 1) for m in monomials(degrees, d)}
        columns = {}
        for k, terms in enumerate(basis.elements):
            degree = gens.monomial_degree(monomial[terms[0][0]])
            for du in range(min(7, ring.cutoff - degree + 1)):
                d = degree + du
                if d not in columns:
                    vectors = [e for e in exponent_vectors(degrees, d) if all(e[i] <= 2 for i in odd)]
                    cols = sorted(vectors, key=key)
                    index = {m: c for c, m in enumerate(cols) if c % 3 != 1}
                    columns[d] = index, {ring._key(m): c for m, c in index.items()}
                index, keyed = columns[d]
                for u in monomials(degrees, du):
                    expected = []
                    for e, v, _ in terms:
                        product = koszul_product(degrees, u, monomial[e])
                        if product is None:
                            seen["odd squares"] += 1
                            continue
                        exps, sign = product
                        seen["sign flips"] += sign < 0
                        if exps in index:
                            expected.append((index[exps], sign * v))
                    row = basis._multiple(k, ring._key(u), keyed)
                    assert row == sorted(expected), (ring.label, terms, u)
                    assert all(a < b for (a, _), (b, _) in zip(row, row[1:])), (ring.label, terms, u)
                    seen["rows"] += 1
    assert all(seen.values()), seen


# Rings for the equivalence of the integer normal form and product with
# dense Fraction arithmetic. odd-mixing's rewrite rows have leads 1, 2, 3
# and 4, so its normal forms rescale the accumulator to a new lead; its
# cutoff and G~_3(R^8)'s include degrees where the quotient is zero.
EQUIVALENCE_RINGS = {
    "odd-mixing": lambda: QuotientRing(odd_mixing_presentation(), 24),
    "equivariant-Fl(C^3)": lambda: equivariant_space("complex", 3, "flag", cutoff=8),
    "G~_3(R^8)": lambda: build_ring(SpaceDescriptor("odd-oriented-grassmannian", 1, 3)),
}


@lru_cache(maxsize=None)
def ring_and_reference(name):
    ring = EQUIVALENCE_RINGS[name]()
    gens = ring.gens
    rels = [r.terms for r in ring.presentation.relations]
    return ring, ReferenceQuotient(gens.degrees, rels, elimination_key(gens))


def draw_terms(data, ring, top):
    """Inhomogeneous terms of degree at most `top` with denominators 1-6,
    plus, at times, a multiple of a relation, which reduces to zero."""
    degrees = list(ring.gens.degrees)
    monos = [m for d in range(top + 1) for m in monomials(degrees, d)]
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    terms = data.draw(st.dictionaries(st.sampled_from(monos), coeff, max_size=6))
    rels = [r for r in ring.presentation.relations if r.degree() <= top]
    if rels and data.draw(st.booleans()):
        rel = data.draw(st.sampled_from(rels))
        cofactors = [m for d in range(top - rel.degree() + 1) for m in monomials(degrees, d)]
        m = data.draw(st.sampled_from(cofactors))
        for e, c in koszul_terms_product(degrees, {m: data.draw(coeff)}, rel.terms).items():
            terms[e] = terms.get(e, Fraction(0)) + c
    return {e: c for e, c in terms.items() if c}


def assert_canonical(el):
    """el's numerators are in lowest terms over a positive denominator."""
    assert el.den > 0
    assert math.gcd(el.den, *el.nums.values()) == 1
    assert all(el.nums.values())


@pytest.mark.parametrize("name", list(EQUIVALENCE_RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_normal_form_and_multiply_match_dense_fractions(name, data):
    ring, reference = ring_and_reference(name)
    gens = ring.gens
    terms = draw_terms(data, ring, ring.cutoff)
    half = ring.cutoff // 2
    a = draw_terms(data, ring, half)
    b = draw_terms(data, ring, ring.cutoff - half)
    nf = ring.normal_form(gens.element(terms))
    assert nf.terms == reference.normal_form(terms)
    product = ring.multiply(gens.element(a), gens.element(b))
    assert product.terms == reference.multiply(a, b)
    koszul = gens.element(a) * gens.element(b)
    assert koszul.terms == koszul_terms_product(gens.degrees, a, b)
    for el in (nf, product, koszul):
        assert_canonical(el)


def test_products_and_normal_forms_on_warm_tables_build_no_fraction(monkeypatch):
    # coefficients over fresh primes: a value met before cannot be reused
    gens = Generators([GeneratorSymbol("x", 2), GeneratorSymbol("y", 2)])
    x, y = gens.gen("x"), gens.gen("y")
    ring = QuotientRing(make_presentation(gens, [2 * x**2 - 3 * x * y + y**2]), 8)
    ring.dimensions()
    a = x * Fraction(1, 7919) + y * Fraction(2, 7907)
    b = x * Fraction(3, 7901) - y * Fraction(5, 7883)
    c = a * b + x**2 * Fraction(1, 7877)
    built = 0
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    product = ring.multiply(a, b)
    nf = ring.normal_form(c)
    cubed = ring.multiply(product, a)
    monkeypatch.undo()
    assert built == 0
    assert product == ring.normal_form(a * b) and nf == ring.normal_form(c)
    assert cubed == ring.normal_form(a * a * b)
    assert not ring.normal_form(c - a * b - x**2 * Fraction(1, 7877)).nums


def test_a_large_coefficient_survives_powers_and_products():
    # the powers of a long literal have ever longer coefficients
    gens = Generators([GeneratorSymbol("x", 2)])
    big = 10**300 + 7
    assert gens.parse(f"({big}*x)^16").terms == {(16,): Fraction(big**16)}
    ring = QuotientRing(make_presentation(gens, []), 40)
    x = gens.gen("x")
    assert ring.multiply(x * Fraction(1, big), x * big).terms == {(2,): 1}
    assert ring.multiply(x, x * Fraction(big, 3)).terms == {(2,): Fraction(big, 3)}


def test_a_term_past_the_cutoff_raises_on_every_call():
    # the failed call leaves nothing behind that lets a second one pass
    ring = cp_ring(3)
    c1 = ring.gens.gen("c1")
    assert ring.normal_form(c1 + c1**2) == c1 + c1**2
    for _ in range(2):
        with pytest.raises(CutoffExceededError, match="^degree 8 exceeds cutoff 6$"):
            ring.normal_form(c1**3 + c1**4)
    assert ring.normal_form(c1**3).is_zero


@pytest.mark.parametrize("name", list(EQUIVALENCE_RINGS))
def test_integer_products_match_the_normal_form_of_the_fraction_product(name):
    # multiply reduces the pairs of terms of its factors straight into the
    # tables; the path it replaced is the normal form of the Fraction
    # product a * b
    ring, _ = ring_and_reference(name)
    gens, half = ring.gens, ring.cutoff // 2
    rng = random.Random(18)

    def element(universe, integer):
        degrees = [d for d in range(half + 1) if universe.monomial_count(d)]
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = rng.choice(universe.monomials_of_degree(rng.choice(degrees)))
            terms[exps] = Fraction(rng.randint(-6, 6), 1 if integer else rng.randint(1, 6))
        return universe.element(terms)

    sub = Generators(gens.symbols[::2])
    for _ in range(40):
        for universe, integer in ((gens, False), (gens, True), (sub, False)):
            a, b = element(universe, integer), element(universe, integer)
            expected = ring.normal_form(a.reindex(gens) * b.reindex(gens))
            assert ring.multiply(a, b) == expected == ring.normal_form(a, b)
            assert ring.multiply(a, gens.zero()).is_zero and ring.multiply(gens.zero(), b).is_zero


def test_integer_products_past_the_cutoff_in_zero_degrees_and_at_the_key_limits():
    # the degree-8 terms of (r + s)^2 cancel, so the product is 0 at cutoff 6;
    # r * s itself lies in degree 8
    ring = QuotientRing(odd_mixing_presentation(), 6)
    r, s = ring.gens.gen("r"), ring.gens.gen("s")
    assert ring.multiply(r + s, r + s).is_zero
    with pytest.raises(CutoffExceededError, match="^degree 8 exceeds cutoff 6$"):
        ring.multiply(r, s)
    # inhomogeneous factors: the degree-8 part cancels, the lower parts survive
    for x, y in ((1 + r + s, 3 + r + s), (r + s - 2, r + s), (1 + r + s, r + s)):
        assert ring.multiply(x, y) == ring.normal_form(x * y) == ring.normal_form(x, y)
    assert ring.multiply(1 + r + s, 3 + r + s) == 3 + 4 * r + 4 * s
    # a part past the cutoff that survives raises the message of the normal
    # form of the product, for its lowest such degree: degree 8 of -2*r*s,
    # degree 10 of (r + s)(r + s + a*r) = -a*r*s, whose degree-8 part
    # cancels, and degree 7 of a^2*r, below the surviving -a*r*s
    a = ring.gens.gen("a")
    for x, y, d in ((1 + r + s, r - s, 8), (r + s, r + s + a * r, 10), (a + r + s, 1 + a * r, 7)):
        for product in (lambda: ring.multiply(x, y), lambda: ring.normal_form(x * y)):
            with pytest.raises(CutoffExceededError, match=f"^degree {d} exceeds cutoff 6$"):
                product()

    # components in the zero degrees 6, 8 and 10 of Q[c1]/(c1^3)
    gens = Generators([GeneratorSymbol("c1", 2)])
    c1 = gens.gen("c1")
    ring = QuotientRing(make_presentation(gens, [c1**3]), 10)
    for x, y in ((c1 + 2 * c1**3, 1 + c1**2), (c1**3 + 1, c1**2 - c1), (c1**3, c1**2)):
        assert ring.multiply(x, y) == ring.normal_form(x * y) == ring.normal_form(x, y)
    assert ring.multiply(c1 + 2 * c1**3, 1 + c1**2) == c1
    assert ring.multiply(c1**3 + 1, c1**2 - c1) == c1**2 - c1
    assert ring.multiply(c1**3, c1**2).is_zero

    # the packed key at its limits. At cutoff 14, x^7 fills x's 3-bit field
    # and y^3 fills y's 2-bit one, each below its guard bit; past the cutoff
    # an exponent overflows its field, y's into s's and x's, the highest,
    # into the degree. Without relations the normal form of a product is the
    # product
    gens = Generators([GeneratorSymbol("x", 2), GeneratorSymbol("r", 3), GeneratorSymbol("s", 3), GeneratorSymbol("y", 4)])
    x, r, s, y = (gens.gen(n) for n in gens.names)
    ring = QuotientRing(make_presentation(gens, []), 14)
    monos = [gens.element({m: 1}) for d in range(15) for m in gens.monomials_of_degree(d)]
    for m, n in itertools.product(monos, monos):
        if m.degree() + n.degree() <= 14:
            assert ring.multiply(m, n) == m * n == ring.normal_form(m, n), (m, n)
    assert ring.multiply(x**3, x**4) == x**7 and ring.multiply(y, y**2) == y**3
    assert ring.multiply(r, s) == -ring.multiply(s, r) == r * s != 0
    # factor terms past twice the cutoff: p = x^13*(r + s) squares to zero,
    # so (1 + p)(p - 1) is -1 and (p + y)(p - y) is -y^2; a part that
    # survives names its true degree, 32 for x^16, whose key's degree field
    # reads 33
    p = x**13 * (r + s)
    for a, b in ((1 + p, p - 1), (p, p), (p + y, p - y)):
        assert ring.multiply(a, b) == ring.normal_form(a * b) == ring.normal_form(a, b)
    assert ring.multiply(1 + p, p - 1) == -1 and ring.multiply(p + y, p - y) == -y**2
    assert ring._key((16, 0, 0, 0)) >> ring._shift == 33
    for a, b, d in ((p, x, 31), (y**8, 1 + x, 32), (x**16, 1 + y, 32), (x + y**4, x**7, 16), (y**8 * r, s, 38)):
        for product in (lambda: ring.multiply(a, b), lambda: ring.normal_form(a * b)):
            with pytest.raises(CutoffExceededError, match=f"^degree {d} exceeds cutoff 14$"):
                product()


def seeded_element(rng, ring, d, size):
    """Up to `size` degree-d monomials with small fractional coefficients."""
    exps = ring.gens.monomials_of_degree(d)
    terms = {}
    for e in rng.sample(exps, min(size, len(exps))):
        terms[e] = Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 4)), rng.choice((1, 1, 2, 3)))
    return ring.gens.element(terms)


@pytest.mark.parametrize(
    "make",
    [
        lambda: equivariant_space("complex", 3, "flag", cutoff=12),
        lambda: build_ring(SpaceDescriptor("odd-oriented-grassmannian", 1, 3)),  # G~_3(R^8)
    ],
    ids=["equivariant-Fl(C^3)", "G~_3(R^8)"],
)
def test_products_in_warm_tables_make_one_normal_form_and_no_reduction(make, monkeypatch):
    # the read side of the product benchmark: once every table is built, a
    # product is one normal form, with no table or row reduction, and builds
    # no product element
    ring = make()
    ring.dimensions()
    calls = {"normal_form": 0, "table": 0, "rref": 0, "koszul_product": 0, "mul": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(QuotientRing, "normal_form", counted("normal_form", QuotientRing.normal_form))
    monkeypatch.setattr(QuotientRing, "_compute_table", counted("table", QuotientRing._compute_table))
    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    monkeypatch.setattr(algebra, "_koszul_product", counted("koszul_product", algebra._koszul_product))
    monkeypatch.setattr(algebra.GradedElement, "__mul__", counted("mul", algebra.GradedElement.__mul__))
    rng = random.Random(12)
    degrees = [d for d in range(1, ring.cutoff + 1) if len(ring.gens.monomials_of_degree(d)) >= 2]
    pairs = [(a, b) for a in degrees for b in degrees if a <= b and a + b <= ring.cutoff]
    for da, db in pairs:
        a, b = seeded_element(rng, ring, da, 6), seeded_element(rng, ring, db, 6)
        for x, y in ((a, b), (b, a)):
            before = dict(calls)
            ring.multiply(x, y)
            assert calls == {**before, "normal_form": before["normal_form"] + 1}, (da, db)
    assert calls["normal_form"] == 2 * len(pairs) > 0


def test_products_in_hundreds_of_basis_positions_obey_the_ring_laws():
    # equivariant Fl(C^4) has 174 basis monomials in degree 8 and 344 in
    # degree 10, past the dense reference's reach; every generator is even,
    # so graded commutativity is commutativity
    ring = equivariant_space("complex", 4, "flag", cutoff=10)
    nf = ring.normal_form
    rng = random.Random(7)
    for da, db, dc in ((2, 4, 4), (4, 2, 4), (2, 2, 6), (2, 6, 2), (4, 4, 2)):
        a, b, c = (seeded_element(rng, ring, d, 12) for d in (da, db, dc))
        assert ring.multiply(a, b) == ring.multiply(b, a)
        assert ring.multiply(ring.multiply(a, b), c) == ring.multiply(a, ring.multiply(b, c))
    for d in (8, 10):
        x, y = seeded_element(rng, ring, d, 60), seeded_element(rng, ring, d, 60)
        q = Fraction(rng.choice((-7, 5, 3)), rng.choice((2, 9)))
        assert nf(x + y * q) == nf(x) + nf(y) * q
        assert nf(nf(x)) == nf(x)
        assert nf(x) - nf(y) == nf(x - y)


def test_degree_ranks_agree_modulo_large_primes():
    # rank mod p never exceeds the rank over Q, and equals it for all but
    # the primes dividing some minor, so two large primes name a kernel bug
    presentations = (build_space(desc)[0] for desc in dict.fromkeys(_catalog_descriptors(3)))
    cases = [(pres, default_cutoff(pres)) for pres in presentations]
    cases.append((odd_mixing_presentation(), 15))
    for pres, top in cases:
        for d in range(top + 1):
            _, rows = oracle_rows(pres, d)
            rank = linalg.rank(rows)
            for p in (2**31 - 1, 2**61 - 1):
                assert rank_mod_p(rows, p) == rank, (pres.label, d, p)


def test_structure_constants_are_integral_in_complex_fixtures():
    ring = build_ring(SpaceDescriptor("complex-grassmannian", 2, 4))
    for d1 in range(0, ring.cutoff + 1, 2):
        for d2 in range(d1, ring.cutoff + 1 - d1, 2):
            for m1 in ring.degree_basis(d1):
                for m2 in ring.degree_basis(d2):
                    nf = ring.multiply(m1.as_element(), m2.as_element())
                    assert all(c.denominator == 1 for c in nf.terms.values())


def test_empty_generator_list_is_the_point():
    ring = QuotientRing(make_presentation(Generators(()), (), "pt"), 3)
    assert ring.dimensions() == [1, 0, 0, 0]
    assert ring.normal_form(ring.gens.scalar(Fraction(5, 2))) == ring.gens.scalar(Fraction(5, 2))


def test_relation_rows_span_matches_quotient():
    # every relation multiple must itself reduce to zero
    ring = build_ring(SpaceDescriptor("oriented-grassmannian", 1, 2, "even-even"))
    degrees = list(ring.gens.degrees)
    for rel in ring.presentation.relations:
        for d in range(ring.cutoff + 1 - rel.degree()):
            for m in monomials(degrees, d):
                row = koszul_terms_product(degrees, {m: Fraction(1)}, rel.terms)
                assert ring.is_zero(ring.gens.element(row))


@st.composite
def even_presentations(draw):
    """1-4 generators of degree 2 or 4, and 0-3 homogeneous relations of
    degree at most 8 with coefficients in [-3, 3]."""
    degrees = draw(st.lists(st.sampled_from((2, 4)), min_size=1, max_size=4))
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.sampled_from([d for d in range(2, 9, 2) if monomials(degrees, d)]))
        exps = monomials(degrees, d)
        coefficients = draw(st.lists(st.integers(-3, 3), min_size=len(exps), max_size=len(exps)))
        relations.append({e: c for e, c in zip(exps, coefficients) if c})
    return degrees, relations


@pytest.mark.skipif(sympy is None, reason="the Groebner-basis oracle needs sympy (the test extra)")
@settings(max_examples=100, deadline=None)
@given(even_presentations())
def test_random_presentations_match_sympy_groebner_standard_monomials(presentation):
    # the basis of a weighted-homogeneous ideal is weighted-homogeneous in any
    # monomial order, so its standard monomials per degree count the quotient
    degrees, relations = presentation
    cutoff = 12
    gens = Generators([GeneratorSymbol(f"x{i}", d) for i, d in enumerate(degrees)])
    elements = [gens.element(r) for r in relations]
    ring = QuotientRing(make_presentation(gens, elements), cutoff)
    xs = sympy.symbols(f"x0:{len(degrees)}")
    polys = [sum(c * math.prod(x ** k for x, k in zip(xs, e)) for e, c in r.items()) for r in relations if r]
    leads = []
    if polys:
        leads = [p.monoms(order="grevlex")[0] for p in sympy.groebner(polys, *xs, order="grevlex").polys]
    standard = [
        sum(not any(all(k >= l for k, l in zip(e, lead)) for lead in leads) for e in monomials(degrees, d))
        for d in range(cutoff + 1)
    ]
    assert standard == ring.dimensions(cutoff)
