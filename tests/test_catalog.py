"""Catalog presentations, characteristic families and verify_space."""

import math
from dataclasses import replace

import pytest

from flagcohom import (
    GeneratorSymbol,
    Generators,
    Monomial,
    QuotientRing,
    SpaceDescriptor,
    build_ring,
    build_space,
    closed_form,
    equivariant_base,
    equivariant_space,
    make_presentation,
    point_ring,
    ring_pushout,
    series_from_ring,
    verify_space,
)
from flagcohom import algebra, catalog, linalg, verify
from flagcohom.algebra import PresentationError
from flagcohom.catalog import VARIANTS, BasisFamily, FamilyPart, default_cutoff, top_degree_of
from flagcohom.series import ClosedFormSeries
from flagcohom.verify import _catalog_descriptors, _independent

from _oracles import monomials, quotient_dimension

CATALOG_RINGS = list(dict.fromkeys(_catalog_descriptors(4)))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SpaceDescriptor("complex-grassmannian", 3, 2)
    with pytest.raises(ValueError):
        SpaceDescriptor("complex-grassmannian", 4, 3)
    with pytest.raises(ValueError):
        SpaceDescriptor("oriented-grassmannian", 2, 2, "even-even")
    with pytest.raises(ValueError):
        SpaceDescriptor("oriented-grassmannian", 1, 2)  # variant required
    with pytest.raises(ValueError):
        SpaceDescriptor("oriented-grassmannian", 1, 2, "diagonal")
    with pytest.raises(ValueError):
        SpaceDescriptor("unknown-family", 1, 2)


@pytest.mark.parametrize(
    "family, variant",
    [("point", ""), ("projective-space-complex", ""), ("projective-space-real", ""), ("sphere", ""),
     ("complete-flag-complex", ""), ("complete-flag-real", "even"), ("complete-flag-oriented", "odd")],
)
def test_descriptor_rejects_k_its_family_does_not_read(family, variant):
    with pytest.raises(ValueError, match=f"{family}: takes no k, got k=1"):
        SpaceDescriptor(family, 1, 2, variant)


@pytest.mark.parametrize(
    "family",
    ["point", "complex-grassmannian", "odd-real-grassmannian", "odd-oriented-grassmannian",
     "complete-flag-complex", "projective-space-complex", "projective-space-real", "sphere"],
)
def test_descriptor_rejects_a_variant_its_family_does_not_read(family):
    with pytest.raises(ValueError, match=f"{family}: takes no variant, got 'even'"):
        SpaceDescriptor(family, 0, 2, "even")


def test_labels():
    assert SpaceDescriptor("complex-grassmannian", 2, 4).label == "G_2(C^4)"
    assert SpaceDescriptor("real-grassmannian-even", 1, 2, "even-odd").label == "G_2(R^5)"
    assert SpaceDescriptor("oriented-grassmannian", 1, 2, "odd-odd").label == "G~_3(R^5)"
    assert SpaceDescriptor("odd-real-grassmannian", 1, 2).label == "G_3(R^6)"
    assert SpaceDescriptor("projective-space-complex", 0, 4).label == "CP^3"
    assert SpaceDescriptor("sphere", 0, 3).label == "S^6"


def test_complex_grassmannian_presentation_shape():
    pres, series, family = build_space(SpaceDescriptor("complex-grassmannian", 1, 3))
    assert [(s.name, s.degree) for s in pres.generators] == [
        ("c1", 2), ("cb1", 2), ("cb2", 4),
    ]
    assert [str(r) for r in pres.relations] == ["c1 + cb1", "c1*cb1 + cb2", "c1*cb2"]


def test_oriented_even_even_presentation_has_all_relations():
    pres, _, _ = build_space(SpaceDescriptor("oriented-grassmannian", 1, 2, "even-even"))
    g = pres.generators
    e, eb, p1, pb1 = g.gen("e"), g.gen("eb"), g.gen("p1"), g.gen("pb1")
    assert e * e - p1 in pres.relations
    assert eb * eb - pb1 in pres.relations
    assert e * eb in pres.relations


def test_sphere_presentation_reduced_form():
    pres, _, family = build_space(SpaceDescriptor("sphere", 0, 2))
    assert [(s.name, s.degree) for s in pres.generators] == [("eb", 4)]
    assert [str(r) for r in pres.relations] == ["eb^2"]
    assert [str(m) for d in range(9) for m in family.monomials_of_degree(d)] == ["1", "eb"]


def test_point_presentation_empty():
    pres, series, _ = build_space(SpaceDescriptor("point"))
    assert pres.generators.symbols == ()
    assert pres.relations == ()


def test_real_even_variants_identical_presentations():
    for k, n in ((1, 2), (1, 3), (2, 3)):
        built = [
            build_space(SpaceDescriptor("real-grassmannian-even", k, n, v))[0]
            for v in VARIANTS
        ]
        for other in built[1:]:
            assert other.generators == built[0].generators
            assert other.relations == built[0].relations


# -- characteristic families ----------------------------------------------------


def family_monomials(desc, d):
    """The names of the space's characteristic family monomials of degree d."""
    return [str(m) for m in build_space(desc)[2].monomials_of_degree(d)]


def test_complex_family_monomials_g24():
    # all exponent vectors with r1 + r2 <= 2 in the right degree
    desc = SpaceDescriptor("complex-grassmannian", 2, 4)
    assert family_monomials(desc, 4) == ["c1^2", "c2"]
    assert family_monomials(desc, 8) == ["c2^2"]
    assert family_monomials(desc, 0) == ["1"]


def test_oriented_even_even_family_g2r4():
    # the three-set union at k=1, n=2 has e and eb in degree 2
    desc = SpaceDescriptor("oriented-grassmannian", 1, 2, "even-even")
    assert family_monomials(desc, 2) == ["e", "eb"]
    assert family_monomials(desc, 4) == ["p1"]


def test_even_odd_family_has_euler_prefix():
    desc = SpaceDescriptor("oriented-grassmannian", 1, 2, "even-odd")
    fam = [m for d in range(top_degree_of(closed_form(desc)) + 1) for m in family_monomials(desc, d)]
    assert fam == ["1", "e", "p1", "p1*e"]


def test_odd_grassmannian_family_prefixed_by_r():
    desc = SpaceDescriptor("odd-real-grassmannian", 1, 2)
    fam = [m for d in range(top_degree_of(closed_form(desc)) + 1) for m in family_monomials(desc, d)]
    assert fam == ["1", "p1", "r", "p1*r"]


def ring_monomials(ring, d):
    """The degree-d exponent vectors of a ring's universe, the oracle's, in
    display order: descending lex, earlier generators dominant."""
    return sorted(monomials(list(ring.gens.degrees), d), reverse=True)


def test_independent_detects_dependent_monomials():
    ring = build_ring(SpaceDescriptor("complex-grassmannian", 2, 4), 10)
    degree_4 = [Monomial(ring.gens, e) for e in ring_monomials(ring, 4)]
    assert len(degree_4) == 5
    basis = ring.degree_basis(4)
    # the basis's standard monomials at once, and the rest by its reduction
    assert _independent(ring, basis)
    assert _independent(ring, basis[::-1])
    assert not _independent(ring, degree_4)
    assert not _independent(ring, (basis[0], basis[0]))
    # a monomial of a zero degree is dependent on its own
    assert not _independent(ring, (Monomial(ring.gens, ring_monomials(ring, 10)[0]),))


def test_flags_state_no_family():
    assert build_space(SpaceDescriptor("complete-flag-complex", 0, 3))[2] is None


# -- dimensions and verification --------------------------------------------------


def test_top_degree_values():
    assert top_degree_of(closed_form(SpaceDescriptor("complex-grassmannian", 2, 5))) == 12
    assert top_degree_of(closed_form(SpaceDescriptor("oriented-grassmannian", 1, 2, "even-odd"))) == 6
    assert top_degree_of(closed_form(SpaceDescriptor("complete-flag-oriented", 0, 2, "odd"))) == 8
    assert top_degree_of(closed_form(SpaceDescriptor("projective-space-real", 0, 3))) == 0


def test_top_degree_is_the_last_nonzero_degree():
    # with g the largest generator degree, a ring that is zero in degrees
    # top+1..top+g is zero in every degree above top
    assert len(CATALOG_RINGS) == 130
    for desc in CATALOG_RINGS:
        top = top_degree_of(closed_form(desc))
        g = max(build_space(desc)[0].generators.degrees, default=0)
        ring = build_ring(desc, top + g)
        assert ring.dimension(top) > 0, desc.label
        assert [ring.dimension(d) for d in range(top + 1, top + g + 1)] == [0] * g, desc.label


def test_standard_monomials_of_a_sympy_groebner_basis_count_the_dimensions():
    # an oracle outside the engine: for any monomial order, the monomials
    # outside the leading-term ideal of a Groebner basis are a basis of the
    # quotient, degree by degree
    sympy = pytest.importorskip("sympy", reason="the Groebner-basis oracle needs sympy (the test extra)")
    even = [d for d in CATALOG_RINGS if all(g % 2 == 0 for g in build_space(d)[0].generators.degrees)]
    assert len(even) == 110
    for desc in even:
        ring = build_ring(desc)
        degrees = list(ring.gens.degrees)
        xs = sympy.symbols(f"x0:{len(degrees)}")
        relations = [
            sum(sympy.Rational(c.numerator, c.denominator) * math.prod(x ** e for x, e in zip(xs, exps))
                for exps, c in r.terms.items())
            for r in ring.presentation.relations
        ]
        leads = []
        if relations:
            basis = sympy.groebner(relations, *xs, order="grevlex")
            leads = [p.monoms(order="grevlex")[0] for p in basis.polys]
        standard = [
            sum(not any(all(e >= l for e, l in zip(exps, lead)) for lead in leads)
                for exps in monomials(degrees, d))
            for d in range(ring.cutoff + 1)
        ]
        assert standard == ring.dimensions(ring.cutoff), desc.label


def test_oracle_dimensions_for_oriented_space():
    desc = SpaceDescriptor("oriented-grassmannian", 1, 3, "even-even")
    ring = build_ring(desc)
    rels = [r.terms for r in ring.presentation.relations]
    degrees = list(ring.gens.degrees)
    for d in range(top_degree_of(closed_form(desc)) + 1):
        assert ring.dimension(d) == quotient_dimension(degrees, rels, d)


def test_verify_space_passes_on_examples():
    for desc in (
        SpaceDescriptor("projective-space-complex", 0, 4),
        SpaceDescriptor("oriented-grassmannian", 1, 2, "even-even"),
        SpaceDescriptor("projective-space-real", 0, 2),
        SpaceDescriptor("complete-flag-oriented", 0, 3, "even"),
        SpaceDescriptor("odd-oriented-grassmannian", 1, 2),
    ):
        checks = verify_space(desc)
        assert all(c.ok for c in checks), "\n".join(c.line() for c in checks)


def test_verify_space_reports_offending_degree(monkeypatch):
    space = SpaceDescriptor("complex-grassmannian", 2, 4)  # dimensions 1, 0, 1, 0, 2, 0, 1, 0, 1
    assert [(c.name, c.ok) for c in verify_space(space)] == [
        ("G_2(C^4): dimensions match closed form", True),
        ("G_2(C^4): characteristic family is a basis", True),
        ("G_2(C^4): relations vanish", True),
    ]
    pres, series, family = build_space(space)
    # the family c1^a * c2^b with a + b <= 2, capped one lower
    low = BasisFamily(
        family.gens, tuple(replace(p, max_exponent_sum=p.max_exponent_sum - 1) for p in family.parts)
    )
    # c1^a with a <= 2, and c1 * cb1^b with b <= 1: c1*cb1 = -c1^2 in degree 4
    dependent = BasisFamily(
        family.gens, (FamilyPart((0, 0, 0, 0), (0,), 2), FamilyPart((1, 0, 0, 0), (2,), 1))
    )
    for bad, detail in (
        (low, "degree 4: family has 1 monomials, dimension 2"),
        (dependent, "degree 4: family ['c1^2', 'c1*cb1'] is dependent"),
    ):
        monkeypatch.setattr(catalog, "build_space", lambda s, bad=bad: (pres, series, bad))
        failed = [(c.name, c.ok, c.detail) for c in verify_space(space) if not c.ok]
        assert failed == [("G_2(C^4): characteristic family is a basis", False, detail)]
    # a presentation stating (1+t^2) times its series, top degree 10; the
    # closed form returned beside it is right, and is not the one read
    wrong = replace(pres, closed_form=ClosedFormSeries.one_plus(2) * series)
    monkeypatch.setattr(catalog, "build_space", lambda s: (wrong, series, family))
    failed = [(c.name, c.ok, c.detail) for c in verify_space(space) if not c.ok]
    assert failed == [(
        "G_2(C^4): dimensions match closed form",
        False,
        "degrees [2, 4, 6, 8, 10]: engine [1, 2, 1, 1, 0], series [2, 3, 3, 2, 1]",
    )]


def test_generated_family_members_match_the_filtered_enumeration():
    # every monomial of the degree, the oracle's in display order, kept when
    # the family contains it, as the family was enumerated before its
    # members were generated
    spaces = list(dict.fromkeys(_catalog_descriptors(5)))
    checked = 0
    for space in spaces:
        pres, _, family = build_space(space)
        if family is None:
            continue
        ring = QuotientRing(pres, default_cutoff(pres) + 2)
        for d in range(ring.cutoff + 1):
            filtered = tuple(e for e in ring_monomials(ring, d) if family.contains(e))
            assert tuple(m.exps for m in family.monomials_of_degree(d)) == filtered, (space.label, d)
            checked += 1
    assert checked == 2412


def test_a_family_degree_builds_its_members_alone():
    # degree 128 of G_8(C^24): the family's 17,575 members, where the
    # uncapped core has 116,263 monomials, more than the limit, and
    # enumerating them was refused
    desc = SpaceDescriptor("complex-grassmannian", 8, 24)
    family = build_space(desc)[2]
    members = [m.exps for m in family.monomials_of_degree(128)]
    assert len(members) == 17_575 == closed_form(desc).truncate(128)[128]
    assert members == sorted(members, reverse=True)
    assert all(map(family.contains, members))


def count_reductions(monkeypatch):
    """Counts of QuotientRings built, basis-layer steps taken and tables
    computed, from now on."""
    counts = {"rings": 0, "steps": 0, "tables": 0}

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(algebra.QuotientRing, "__init__", counting("rings", algebra.QuotientRing.__init__))
    monkeypatch.setattr(algebra.QuotientRing, "step", counting("steps", algebra.QuotientRing.step))
    monkeypatch.setattr(algebra.QuotientRing, "_compute_table", counting("tables", algebra.QuotientRing._compute_table))
    return counts


def test_a_default_run_reduces_each_distinct_ring_once(monkeypatch):
    # the CLI's default run: one ring for each of the 98 distinct contents
    # of the 130 catalog spaces, which builds no table, and 16 for the
    # extension and equivariant checks. The zero rule skips every degree
    # whose degrees d - deg x are all zero, so the rings take 510 steps, in
    # the degrees the tables took them in when each step built its degree's
    # table, and the 16 compute 57 tables
    counts = count_reductions(monkeypatch)
    checks = verify.run_suites(list(verify.SUITES), 4)
    assert len(checks) == 445 and all(c.ok for c in checks)
    assert counts == {"rings": 114, "steps": 510, "tables": 57}


def test_the_catalog_and_odd_identity_suites_build_no_table(monkeypatch):
    # they read the standard monomials and the basis's own reduction alone
    counts = count_reductions(monkeypatch)
    checks = verify.run_suites(["catalog", "odd-identity"], 4)
    assert all(c.ok for c in checks)
    assert counts["rings"] == 98
    assert counts["tables"] == 0


def table_independent(ring, monomials) -> bool:
    """Whether the residues of the monomials are linearly independent, by
    the rank of their rows in their degree's table (scaling a rewrite row
    by its lead keeps the rank), or False in a zero degree: the check
    `verify` made before it read the basis's own reduction."""
    if not monomials:
        return True
    if not ring._table(monomials[0].degree).basis:
        return False
    rows = [ring._table(m.degree).rows.get(ring.key(m.exps), (1, ()))[1] for m in monomials]
    return len(linalg.rref([sorted(row, reverse=True) for row in rows])) == len(monomials)


def table_outcome(pres, family, cutoff):
    """`verify._check`'s outcome computed from a ring's tables: dimensions
    from `dimension`, the family by `table_independent` and the relations
    by `is_zero`."""
    ring = QuotientRing(pres, cutoff)
    dims = ring.dimensions()
    checks = [verify._series_check("dimensions match closed form", pres.closed_form, dims)]
    if family is None:
        checks.append(verify.CheckResult("characteristic family", True, "none stated; skipped"))
    else:
        bad = ""
        for d in range(cutoff + 1):
            monos = family.monomials_of_degree(d)
            if len(monos) != dims[d]:
                bad = f"degree {d}: family has {len(monos)} monomials, dimension {dims[d]}"
                break
            if not table_independent(ring, monos):
                bad = f"degree {d}: family {[str(m) for m in monos]} is dependent"
                break
        checks.append(verify.CheckResult("characteristic family is a basis", not bad, bad))
    bad_rels = [str(r) for r in pres.relations if not ring.is_zero(r)]
    checks.append(verify.CheckResult("relations vanish", not bad_rels, f"nonzero residues: {bad_rels}" if bad_rels else ""))
    return verify._Outcome(tuple(dims), tuple(checks))


def test_verify_outcomes_match_the_tables():
    # verify reads the basis's standard monomials and its own reduction, and
    # builds no table: every catalog ring to n = 5 at its default cutoff
    spaces = list(dict.fromkeys(_catalog_descriptors(5)))
    for space in spaces:
        pres, _, family = build_space(space)
        cutoff = default_cutoff(pres)
        assert verify._check(pres, family, cutoff) == table_outcome(pres, family, cutoff), space
    # equivariant Fl(C^2) to Fl(C^4), which state no family
    for n, cutoff in ((2, 12), (3, 14), (4, 12)):
        pres = equivariant_space("complex", n, "flag", cutoff=cutoff).presentation
        assert verify._check(pres, None, cutoff) == table_outcome(pres, None, cutoff), n
    # a presentation with a relation left out fails the same checks both ways
    pres, _, family = build_space(SpaceDescriptor("complex-grassmannian", 2, 4))
    wrong = replace(pres, relations=pres.relations[1:])
    outcome = verify._check(wrong, family, 8)
    assert outcome == table_outcome(wrong, family, 8)
    assert [c.ok for c in outcome.checks] == [False, False, True]


def test_a_second_run_reuses_nothing_from_the_first(monkeypatch):
    space = SpaceDescriptor("complex-grassmannian", 1, 2)  # CP^1
    assert all(c.ok for c in verify.run_suites(["catalog"], 2))
    pres, series, family = build_space(space)
    wrong_series = replace(pres, closed_form=ClosedFormSeries.one_plus(4) * series)
    wrong_relations = replace(pres, relations=pres.relations[1:])  # c1*cb1 alone
    # the duality check compares the ring's dimensions with the closed form
    # its presentation states, so it fails with either
    for wrong, failing in (
        (wrong_series, [f"{space.label}: dimensions match closed form", "complex duality G_1 vs G_1 in C^2"]),
        (wrong_relations, [f"{space.label}: dimensions match closed form",
                           f"{space.label}: characteristic family is a basis",
                           "complex duality G_1 vs G_1 in C^2"]),
    ):
        real = catalog.build_space
        monkeypatch.setattr(catalog, "build_space", lambda s, wrong=wrong: (wrong, series, family) if s == space else real(s))
        assert [c.name for c in verify.run_suites(["catalog"], 2) if not c.ok] == failing
        monkeypatch.undo()
        assert all(c.ok for c in verify.run_suites(["catalog"], 2))


def test_presentations_that_differ_in_one_value_get_separate_outcomes(monkeypatch):
    # G_1(C^3) and three presentations that differ from it in one relation
    # coefficient, one rewrite priority or the closed form; a fifth differs
    # in its label only, which no check reads, and shares the first's outcome
    pres, series, family = build_space(SpaceDescriptor("complex-grassmannian", 1, 3))
    gens = pres.generators
    coefficient = make_presentation(
        gens, [gens.parse("c1 + 2*cb1"), *pres.relations[1:]], pres.label, series
    )
    low = Generators(replace(s, rewrite_priority=0) if s.name == "cb1" else s for s in gens)
    priority = make_presentation(low, pres.relations, pres.label, series)
    stated = replace(pres, closed_form=ClosedFormSeries.one_plus(2) * series)
    relabelled = replace(pres, label="another label")
    spaces = [SpaceDescriptor("complex-grassmannian", k, 5) for k in range(5)]
    built = {
        spaces[0]: (pres, family),
        spaces[1]: (coefficient, family),
        spaces[2]: (priority, BasisFamily(low, family.parts)),
        spaces[3]: (stated, family),
        spaces[4]: (relabelled, family),
    }
    monkeypatch.setattr(catalog, "build_space", lambda s: (built[s][0], series, built[s][1]))
    counts = count_reductions(monkeypatch)
    run = verify._Run()
    outcomes = [run.space(s)[1] for s in spaces]
    assert counts["rings"] == 4 and len(run.checked) == 4
    assert outcomes[4] is outcomes[0]
    assert [c.ok for o in outcomes for c in o.checks] == [True] * 9 + [False, True, True] + [True] * 3


def test_default_cutoff_refuses_a_series_it_cannot_size():
    gens = Generators([GeneratorSymbol("x", 2)])
    cp2 = build_ring(SpaceDescriptor("projective-space-complex", 0, 3))
    for pres in (
        make_presentation(gens, [gens.gen("x") ** 3], "inline"),  # no closed form
        ring_pushout(point_ring(), cp2, build_ring(SpaceDescriptor("sphere", 0, 2)), {}, {}).presentation,
        equivariant_base(2, 4).presentation,  # 1/(1-t^2)^2
        equivariant_space("complex", 3, "flag", cutoff=6).presentation,
    ):
        with pytest.raises(PresentationError):
            default_cutoff(pres)


def test_default_cutoff_sizes_every_catalog_space():
    # the catalog up to n = 5, and the largest G_2 and complete flag that
    # catalog.MAX_SPACE_SIZE admits: top degrees 256 and 240
    spaces = list(dict.fromkeys(_catalog_descriptors(5)))
    assert len(spaces) == 174
    spaces += [SpaceDescriptor("complex-grassmannian", 2, 66), SpaceDescriptor("complete-flag-complex", 0, 16)]
    cutoffs = []
    for space in spaces:
        pres = build_space(space)[0]
        cutoffs.append(default_cutoff(pres))
        assert cutoffs[-1] == max(top_degree_of(pres.closed_form), pres.max_relation_degree())
    assert cutoffs[-2:] == [256, 240]


def test_cp3_verify_dims():
    desc = SpaceDescriptor("projective-space-complex", 0, 4)
    ring = build_ring(desc)
    assert series_from_ring(ring, 6).coefficients == (1, 0, 1, 0, 1, 0, 1)


def test_g2r4_dims_and_default_cutoff():
    desc = SpaceDescriptor("oriented-grassmannian", 1, 2, "even-even")
    ring = build_ring(desc)
    assert ring.dimensions(4) == [1, 0, 2, 0, 1]
    assert default_cutoff(ring.presentation) >= 4


def test_degenerate_grassmannians_are_points():
    for desc in (
        SpaceDescriptor("complex-grassmannian", 0, 3),
        SpaceDescriptor("complex-grassmannian", 3, 3),
        SpaceDescriptor("real-grassmannian-even", 2, 2),
    ):
        ring = build_ring(desc)
        assert series_from_ring(ring, ring.cutoff).coefficients[0] == 1
        assert all(c == 0 for c in series_from_ring(ring, ring.cutoff).coefficients[1:])
