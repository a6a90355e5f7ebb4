"""Bundle-level constructions: Whitney recursion, associated bundles,
flag bundles, equivariant rings, towers and pushouts."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import flagcohom

from flagcohom import (
    BundleData,
    BundleError,
    GeneratorSymbol,
    Generators,
    GradedElement,
    QuotientRing,
    SpaceDescriptor,
    TowerStage,
    bott_tower,
    build_ring,
    build_space,
    closed_form,
    equivariant_base,
    equivariant_space,
    extend,
    make_presentation,
    point_ring,
    ring_pushout,
    series_from_ring,
    whitney_complement,
    zero_generators,
)
from flagcohom import extension
from flagcohom.algebra import PresentationError
from flagcohom.catalog import top_degree_of
from flagcohom.cli import presentation_doc
from flagcohom.series import ClosedFormSeries
from flagcohom.verify import _catalog_descriptors


def free_ring(name: str, degree: int, cutoff: int, relation_power: int | None = None):
    gens = Generators([GeneratorSymbol(name, degree)])
    rels = [gens.gen(name) ** relation_power] if relation_power else []
    label = f"Q[{name}]" + (f"/{name}^{relation_power}" if relation_power else "")
    return QuotientRing(make_presentation(gens, rels, label), cutoff)


def projective_base(m: int) -> QuotientRing:
    """CP^m with its generator named h, so fibre classes keep c-names."""
    return free_ring("h", 2, 2 * m + 2, relation_power=m + 1)


# -- bundle data validation ------------------------------------------------------


def test_total_class_needs_unit():
    base = projective_base(2)
    h = base.gens.gen("h")
    with pytest.raises(BundleError, match="degree-0"):
        BundleData(base, "complex", 2, h)


def test_total_class_degrees_checked():
    base = projective_base(3)
    h = base.gens.gen("h")
    with pytest.raises(BundleError, match="degree 2"):
        BundleData(base, "real", 4, 1 + h)  # Pontryagin parts live in degree 4i
    with pytest.raises(BundleError, match="degree 6"):
        BundleData(base, "complex", 2, 1 + h ** 3)  # above 2*rank


def test_euler_class_rules():
    base = projective_base(2)
    with pytest.raises(BundleError, match="euler"):
        BundleData(base, "oriented", 4, 1)  # even rank needs one
    with pytest.raises(BundleError, match="euler"):
        BundleData(base, "oriented", 5, 1, euler_class=base.gens.zero())
    with pytest.raises(BundleError, match="degree"):
        BundleData(base, "oriented", 4, 1, euler_class=base.gens.gen("h"))
    ok = BundleData(base, "oriented", 4, 1, euler_class=base.gens.gen("h") ** 2)
    assert ok.euler_class.degree() == 4


# -- Whitney complement recursion --------------------------------------------------


def test_whitney_trivial_class_first_step():
    pt = point_ring()
    data = whitney_complement(pt.gens.one(), 2, 4, "complex")
    c1 = data.gens.gen("c1")
    assert data.complements[0] == -c1


def test_whitney_projective_residual():
    pt = point_ring()
    data = whitney_complement(pt.gens.one(), 1, 4, "complex")
    c1 = data.gens.gen("c1")
    assert list(data.complements) == [(-c1) ** j for j in (1, 2, 3)]
    assert list(data.residuals) == [c1 ** 4]


def test_whitney_general_residual_display_form():
    base = projective_base(3)
    h = base.gens.gen("h")
    total = (1 + h) ** 2  # c1(V) = 2h, c2(V) = h^2 for a rank-2 bundle
    data = whitney_complement(total, 1, 2, "complex", names=["g"])
    g = data.gens.gen("g")
    hh = base.gens.gen("h").reindex(data.gens)
    assert list(data.residuals) == [g ** 2 - 2 * hh * g + hh ** 2]


def test_whitney_remultiplication_reduces_to_zero():
    base = projective_base(3)
    h = base.gens.gen("h")
    total = 1 + 3 * h + h ** 2 + 2 * h ** 3
    n, k = 4, 2
    bundle = BundleData(base, "complex", n, total)
    ring = extend(bundle, "grassmannian", k, suffix="f")
    data = whitney_complement(total, k, n, "complex", names=["c1f", "c2f"])
    gens = data.gens
    total_canon = gens.one() + gens.gen("c1f") + gens.gen("c2f")
    total_bar = gens.one()
    for c in data.complements:
        total_bar = total_bar + c
    residue = total_canon * total_bar - total.reindex(gens)
    # components at or below the last solved index vanish identically
    for d, comp in residue.homogeneous_components().items():
        if d <= 2 * (n - k):
            assert comp.is_zero
    # and the rest lies in the ideal generated by the residual relations
    assert ring.is_zero(residue.reindex(ring.gens))


def test_whitney_range_check():
    with pytest.raises(BundleError):
        whitney_complement(point_ring().gens.one(), 3, 2)


# -- associated bundles -------------------------------------------------------------


def test_fibre_case_recovers_catalog():
    pt = point_ring()
    bundle = BundleData(pt, "complex", 4, 1)
    ring = extend(bundle, "grassmannian", 2)
    catalog_ring = build_ring(SpaceDescriptor("complex-grassmannian", 2, 4))
    assert ring.dimensions(8) == catalog_ring.dimensions(8)


def test_degenerate_k_returns_base():
    base = projective_base(2)
    bundle = BundleData(base, "complex", 3, 1)
    assert extend(bundle, "grassmannian", 0) is base
    assert extend(bundle, "grassmannian", 3) is base


def test_extend_derives_the_fibre_once(monkeypatch):
    calls = []
    derive = extension.fibre
    monkeypatch.setattr(extension, "fibre", lambda *args: calls.append(args) or derive(*args))
    pt = point_ring()
    for bundle, name, k in (
        (BundleData(pt, "complex", 3, 1), "grassmannian", 1),
        (BundleData(pt, "complex", 1, 1), "projectivize", None),
        (BundleData(pt, "oriented", 5, 1), "sphere", None),
        (BundleData(pt, "real", 4, 1), "flag", None),
        (BundleData(free_ring("r", 5, 13), "real", 6, 1), "odd-grassmannian", 1),
    ):
        calls.clear()
        extend(bundle, name, k)
        assert calls == [(name, bundle.kind, bundle.rank, k)]


def test_a_tower_derives_each_stage_fibre_once(monkeypatch):
    # a stage's name and k are checked by bott_tower; only extend derives
    # the fibre, under the bundle extension the stage name maps to
    calls = []
    derive = extension.fibre
    monkeypatch.setattr(extension, "fibre", lambda *args: calls.append(args) or derive(*args))
    bott_tower([TowerStage("projectivize", "complex", 2), TowerStage("grassmannianize", "complex", 3, "1 + x1", k=1)])
    assert calls == [("projectivize", "complex", 2, None), ("grassmannian", "complex", 3, 1)]


@pytest.mark.parametrize(
    "build",
    [lambda: build_ring(SpaceDescriptor("complete-flag-complex", 0, 17)),
     lambda: extend(BundleData(point_ring(), "complex", 17, 1), "flag"),
     lambda: bott_tower([TowerStage("complete-flag", "complex", 17)]),
     lambda: equivariant_space("complex", 17, cutoff=2)],
    ids=["build_ring", "extend", "bott_tower", "equivariant_space"],
)
def test_the_library_refuses_oversized_spaces_fast(build):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"Fl\(C\^17\) is too large: n = 17 and top degree 272 must be at most 256"):
        build()
    assert time.perf_counter() - start < 1


def test_equivariant_space_bounds_the_torus_rank_before_expanding():
    # G_1(C^17) is small, but prod(1 + a_i) over 17 roots multiplies
    # 2^18 - 2 pairs of terms; rank 16 (131,070 pairs) is within the bound
    start = time.perf_counter()
    with pytest.raises(BundleError, match="torus rank 17: the total class multiplies more than 200000 pairs"):
        equivariant_space("complex", 17, "grassmannian", k=1, cutoff=2)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "kind, variant, message",
    [
        ("real", "bogus", "^unknown variant 'bogus': expected 'even' or 'odd'$"),
        ("oriented", "", "^unknown variant '': expected 'even' or 'odd'$"),
        ("complex", "odd", "^a complex bundle reads no variant"),
    ],
)
def test_equivariant_space_refuses_a_variant_it_does_not_read(kind, variant, message, monkeypatch):
    # a variant is "even" or "odd", and a complex bundle reads none; the
    # refusal comes before the fibre is sized or the base is built
    built = []
    monkeypatch.setattr(extension, "check_size", lambda *args: built.append("fibre"))
    monkeypatch.setattr(extension, "equivariant_base", lambda *args: built.append("base"))
    with pytest.raises(BundleError, match=message):
        equivariant_space(kind, 1, "flag", variant=variant, cutoff=8)
    assert built == []


def test_equivariant_torus_rank_16_reads_its_total_class_few_times(monkeypatch):
    # prod(1 + a_i) over 16 roots has 2^16 terms, for a ring asked only to
    # degree 2. The bundle splits the class by degree once and
    # make_presentation splits the relation holding it once: two degree sums
    # per term, plus a few for the other relations and the pairs. The
    # Gröbner basis reads a relation's degree from one term. Summing the
    # degree of every term there made three per term, and splitting the
    # class again for its degree-0 part four
    calls = 0
    real = Generators.monomial_degree

    def counting(gens, exps):
        nonlocal calls
        calls += 1
        return real(gens, exps)

    monkeypatch.setattr(Generators, "monomial_degree", counting)
    ring = equivariant_space("complex", 16, "grassmannian", k=1, cutoff=2)
    assert ring.dimensions() == [1, 0, 17]
    assert calls <= 2 * 2**16 + 1000


def test_projectivization_spec_example():
    # V = gamma + trivial over CP^m: single relation c1^2 - h*c1
    base = projective_base(2)
    h = base.gens.gen("h")
    ring = extend(BundleData(base, "complex", 2, 1 + h), "projectivize")
    assert [str(r) for r in ring.presentation.relations] == ["h^3", "-h*c1 + c1^2"]


def test_projectivization_over_point_is_projective_space():
    ring = extend(BundleData(point_ring(), "complex", 4, 1), "projectivize")
    assert ring.dimensions(8) == [1, 0, 1, 0, 1, 0, 1, 0, 0]


def test_real_rank_two_grassmannianization_over_point():
    ring = extend(BundleData(point_ring(), "real", 6, 1), "projectivize")
    assert [str(r) for r in ring.presentation.relations] == ["p1^3"]
    assert ring.dimensions(8) == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_sphere_bundle_over_point():
    ring = extend(BundleData(point_ring(), "oriented", 5, 1), "sphere")
    assert [(s.name, s.degree) for s in ring.gens.symbols] == [("eb", 4)]
    assert ring.dimensions(4) == [1, 0, 0, 0, 1]


def test_sphere_bundle_needs_oriented_odd():
    with pytest.raises(BundleError):
        extend(BundleData(point_ring(), "real", 5, 1), "sphere")


def test_sphere_bundle_needs_rank_at_least_3():
    with pytest.raises(BundleError, match="the sphere extension needs rank at least 3, got rank 1"):
        extend(BundleData(point_ring(), "oriented", 1, 1), "sphere")


@pytest.mark.parametrize("rank, k, fibre", [(3, 1, "G_1(R^3)"), (3, 2, "G_2(R^3)"), (5, 3, "G_3(R^5)")])
def test_real_grassmannian_bundles_of_odd_rank_name_their_fibre(rank, k, fibre):
    # the label once dropped the ambient parity: G_0(R^2), G_2(R^2), G_2(R^4)
    ring = extend(BundleData(point_ring(), "real", rank, 1), "grassmannian", k)
    assert ring.label == f"{fibre} bundle over pt"


def test_oriented_fibre_euler_relation():
    pt = point_ring()
    bundle = BundleData(pt, "oriented", 4, 1, euler_class=pt.gens.zero())
    ring = extend(bundle, "grassmannian", 2)
    e, eb = ring.gens.gen("e"), ring.gens.gen("eb")
    assert ring.is_zero(e * eb)
    assert ring.dimensions(4) == [1, 0, 2, 0, 1]


def test_oriented_odd_subspace_in_even_rank_rejected():
    pt = point_ring()
    bundle = BundleData(pt, "oriented", 4, 1, euler_class=pt.gens.zero())
    with pytest.raises(BundleError):
        extend(bundle, "grassmannian", 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: extend(BundleData(point_ring(), "complex", 3, 1), "grassmannian"),
        lambda: extend(BundleData(point_ring(), "real", 4, 1), "odd-grassmannian"),
        lambda: equivariant_space("complex", 3, "grassmannian", cutoff=4),
    ],
    ids=["grassmannian", "odd-grassmannian", "equivariant-grassmannian"],
)
def test_grassmannian_extension_without_k_rejected(build):
    with pytest.raises(BundleError, match="extension needs the subspace dimension k"):
        build()


def test_leray_hirsch_dimensions_product():
    base = projective_base(3)
    h = base.gens.gen("h")
    for rank, k, total in ((2, 1, 1 + h), (3, 1, (1 + h) ** 3), (4, 2, 1 + h + h ** 2)):
        ring = extend(BundleData(base, "complex", rank, total), "grassmannian", k, suffix="f")
        n = base.cutoff
        base_series = series_from_ring(base, n)
        fibre_series = closed_form(SpaceDescriptor("complex-grassmannian", k, rank)).truncate(n)
        assert series_from_ring(ring, n) == base_series.convolve(fibre_series)


def test_a_bundle_over_a_catalog_base_carries_the_leray_hirsch_closed_form():
    cp2 = build_ring(SpaceDescriptor("projective-space-complex", 0, 3))
    s4 = build_ring(SpaceDescriptor("sphere", 0, 2))
    c1, eb = cp2.gens.gen("c1"), s4.gens.gen("eb")
    cases = [
        (BundleData(cp2, "complex", 3, (1 + c1) ** 2), "grassmannian", 1),
        (BundleData(cp2, "complex", 2, 1 + c1), "projectivize", None),
        (BundleData(cp2, "complex", 3, 1 + 2 * c1 + c1 ** 2), "flag", None),
        (BundleData(s4, "oriented", 3, 1 + eb), "sphere", None),
        (BundleData(s4, "real", 4, 1 + eb), "grassmannian", 2),
        (BundleData(point_ring(), "complex", 3, 1), "flag", None),
        (BundleData(point_ring(), "real", 6, 1), "projectivize", None),
    ]
    for bundle, ext, k in cases:
        ring = extend(bundle, ext, k, suffix="f")
        fibre = closed_form(extension.fibre(ext, bundle.kind, bundle.rank, k))
        series = ring.presentation.closed_form
        assert series == bundle.base.presentation.closed_form * fibre, ring.label
        top = top_degree_of(series)
        assert series_from_ring(ring, top) == series.truncate(top), ring.label
        assert QuotientRing(ring.presentation, top + 2).presentation.closed_form == series


def test_a_ring_of_unknown_series_has_no_closed_form():
    cp2 = build_ring(SpaceDescriptor("projective-space-complex", 0, 3))
    rings = [
        extend(BundleData(projective_base(2), "complex", 2, 1), "projectivize"),
        extend(BundleData(point_ring(), "real", 6, 1), "odd-grassmannian", 1),
        ring_pushout(point_ring(), cp2, build_ring(SpaceDescriptor("sphere", 0, 2)), {}, {}),
        zero_generators(cp2, ["c1"]),
    ]
    assert [ring.presentation.closed_form for ring in rings] == [None] * 4


# -- flag bundles -------------------------------------------------------------------


def test_complex_flag_manifold():
    ring = extend(BundleData(point_ring(), "complex", 3, 1), "flag")
    assert ring.dimensions(6) == [1, 0, 2, 0, 2, 0, 1]
    series = build_space(SpaceDescriptor("complete-flag-complex", 0, 3))[1]
    assert series_from_ring(ring, 6) == series.truncate(6)


def test_oriented_flag_over_point_has_euler_product_relation():
    pt = point_ring()
    ring = extend(BundleData(pt, "oriented", 4, 1, euler_class=pt.gens.zero()), "flag")
    e1, e2 = ring.gens.gen("e1"), ring.gens.gen("e2")
    assert ring.is_zero(e1 * e2)
    assert ring.dimensions(4) == [1, 0, 2, 0, 1]


def test_oriented_flag_full_presentation_agrees_with_reduced():
    pt = point_ring()
    bundle = BundleData(pt, "oriented", 4, 1, euler_class=pt.gens.zero())
    reduced = extend(bundle, "flag")
    full = extend(bundle, "flag", full=True)
    assert reduced.dimensions(8) == full.dimensions(8)
    # the carried u_i really is e_i^2
    u1, e1 = full.gens.gen("u1"), full.gens.gen("e1")
    assert full.is_zero(u1 - e1 * e1)


def test_flag_bundle_series_product():
    base = projective_base(2)
    h = base.gens.gen("h")
    ring = extend(BundleData(base, "complex", 3, 1 + h), "flag")
    flag_series = build_space(SpaceDescriptor("complete-flag-complex", 0, 3))[1]
    n = base.cutoff
    assert series_from_ring(ring, n) == series_from_ring(base, n).convolve(
        flag_series.truncate(n)
    )


# -- equivariant rings ----------------------------------------------------------------


def test_equivariant_base_is_free_polynomial_ring():
    ring = equivariant_base(2, 8)
    assert ring.dimensions(8) == [1, 0, 2, 0, 3, 0, 4, 0, 5]
    assert ring.presentation.closed_form == ClosedFormSeries.from_factors(den=(2, 2))
    assert series_from_ring(ring, 8) == ring.presentation.closed_form.truncate(8)


@pytest.mark.parametrize(
    "kind, torus_rank, construction, k",
    [(kind, r, "flag", None) for kind in ("complex", "real", "oriented") for r in (2, 3)]
    + [("complex", 3, "grassmannian", 1)],
)
def test_equivariant_rings_carry_their_series(kind, torus_rank, construction, k):
    # 1/(1-t^2)^n times the fibre's series, which the engine's dimensions
    # match; specializing the a_i to 0 leaves a ring of unknown series
    cutoff = 10
    ring = equivariant_space(kind, torus_rank, construction, k, cutoff=cutoff)
    rank = torus_rank if kind == "complex" else 2 * torus_rank
    space = extension.fibre(construction, kind, rank, k)
    series = ClosedFormSeries.from_factors(den=(2,) * torus_rank) * closed_form(space)
    assert ring.presentation.closed_form == series
    assert series_from_ring(ring, cutoff) == series.truncate(cutoff)
    plain = zero_generators(ring, [f"a{i}" for i in range(1, torus_rank + 1)])
    assert plain.presentation.closed_form is None


def test_equivariant_needs_cutoff():
    with pytest.raises(PresentationError):
        equivariant_base(2, None)
    with pytest.raises(PresentationError):
        equivariant_space("complex", 2, "flag")


def test_equivariant_flag_relations_identify_symmetric_functions():
    ring = equivariant_space("complex", 2, "flag", cutoff=8)
    g = ring.gens
    x1, x2, a1, a2 = g.gen("x1"), g.gen("x2"), g.gen("a1"), g.gen("a2")
    assert ring.is_zero(x1 + x2 - a1 - a2)
    assert ring.is_zero(x1 * x2 - a1 * a2)
    assert not ring.is_zero(x1 - a1)


def test_equivariant_oriented_flag_euler_identity():
    ring = equivariant_space("oriented", 2, "flag", variant="even", cutoff=8)
    g = ring.gens
    prod_e = g.gen("e1") * g.gen("e2")
    prod_a = g.gen("a1") * g.gen("a2")
    assert ring.is_zero(prod_e - prod_a)


def test_equivariant_dimensions_are_borel_convolution():
    cutoff = 10
    for kind, fam, variant in (
        ("complex", "complete-flag-complex", ""),
        ("real", "complete-flag-real", "even"),
        ("oriented", "complete-flag-oriented", "even"),
    ):
        ring = equivariant_space(kind, 2, "flag", variant=variant or "even", cutoff=cutoff)
        borel = ClosedFormSeries.from_factors(den=(2, 2)).truncate(cutoff)
        fibre = build_space(SpaceDescriptor(fam, 0, 2, variant))[1].truncate(cutoff)
        assert series_from_ring(ring, cutoff) == borel.convolve(fibre)


def test_zeroing_alphas_recovers_fibre():
    ring = equivariant_space("complex", 3, "flag", cutoff=12)
    plain = zero_generators(ring, ["a1", "a2", "a3"])
    fibre = build_ring(SpaceDescriptor("complete-flag-complex", 0, 3))
    for d in range(13):
        expected = fibre.dimension(d) if d <= fibre.cutoff else 0
        assert plain.dimension(d) == expected


# -- towers ------------------------------------------------------------------------


def test_cp1_tower_presentation_and_dims():
    stages = [
        TowerStage("projectivize", "complex", 2, "1"),
        TowerStage("projectivize", "complex", 2, "1 + 3*x1"),
    ]
    ring = bott_tower(stages)
    assert [str(r) for r in ring.presentation.relations] == ["x1^2", "-3*x1*x2 + x2^2"]
    assert ring.dimensions(4) == [1, 0, 2, 0, 1]


def test_tower_stage_expression_over_missing_generator_rejected():
    stages = [TowerStage("projectivize", "complex", 2, "1 + x7")]
    with pytest.raises(PresentationError):
        bott_tower(stages)


def test_tower_heights_give_binomial_series():
    stages = []
    classes = ["1", "1 + 2*x1", "1 + x1 - x2", "1 + x1 + x2 - 3*x3 + x1^2"]
    for height in range(1, 5):
        stages = [
            TowerStage("projectivize", "complex", 2, classes[i]) for i in range(height)
        ]
        ring = bott_tower(stages)
        dims = ring.dimensions(2 * height)
        from math import comb

        assert dims == [comb(height, d // 2) if d % 2 == 0 else 0 for d in range(2 * height + 1)]


def test_staged_tower_equals_single_call():
    stages = [
        TowerStage("projectivize", "complex", 2, "1"),
        TowerStage("grassmannianize", "complex", 3, "1 + x1", k=1),
    ]
    whole = bott_tower(stages)
    first = bott_tower(stages[:1])
    second = bott_tower(
        [TowerStage("grassmannianize", "complex", 3, "1 + x1", k=1)],
        base=first,
        start_index=2,
    )
    assert whole.dimensions(6) == second.dimensions(6)
    assert whole.gens == second.gens
    a = whole.gens.gen("x1") * whole.gens.gen("c1_2")
    assert whole.normal_form(a) == second.normal_form(a)


def test_mixed_real_tower_runs():
    stages = [
        TowerStage("projectivize", "real", 4, "1"),
        TowerStage("projectivize", "real", 4, "1 + 2*u1"),
    ]
    ring = bott_tower(stages)
    assert ring.dimensions(8) == [1, 0, 0, 0, 2, 0, 0, 0, 1]


# -- pushouts ----------------------------------------------------------------------


def test_pushout_over_point_multiplies_dimensions():
    b1 = free_ring("s", 2, 4, relation_power=2)  # CP^1 with generator s
    e0 = free_ring("w", 2, 6, relation_power=3)  # CP^2 with generator w
    push = ring_pushout(point_ring(), b1, e0, {}, {})
    conv = series_from_ring(b1, 4).convolve(series_from_ring(e0, 4))
    assert series_from_ring(push, 4) == conv


def test_pushout_identity_pullback_keeps_e0():
    b0 = free_ring("h", 2, 10)
    e0 = extend(BundleData(b0, "complex", 3, 1 + b0.gens.gen("h")), "projectivize")
    push = ring_pushout(b0, b0, e0, {"h": "h"}, {"h": "h"})
    assert series_from_ring(push, 8) == series_from_ring(e0, 8)


def test_pushout_bu1_elimination_recovers_fibre():
    b0 = free_ring("h", 2, 10)
    e0 = extend(BundleData(b0, "complex", 4, 1 + b0.gens.gen("h")), "projectivize")
    push = ring_pushout(b0, point_ring(), e0, {"h": "0"}, {"h": "h"})
    fibre = build_ring(SpaceDescriptor("projective-space-complex", 0, 4))
    assert push.dimensions(8) == fibre.dimensions(8)


def test_pushout_symmetry_in_dimensions():
    b1 = free_ring("s", 2, 6, relation_power=3)
    e0 = free_ring("w", 4, 8, relation_power=2)
    a = ring_pushout(point_ring(), b1, e0, {}, {})
    b = ring_pushout(point_ring(), e0, b1, {}, {})
    assert a.dimensions(6) == b.dimensions(6)


def test_pushout_degree_mismatch_rejected():
    b0 = free_ring("h", 2, 8)
    e0 = free_ring("w", 4, 8)
    with pytest.raises(BundleError, match="degree"):
        ring_pushout(b0, point_ring(), e0, {"h": "0"}, {"h": "w"})


def test_pushout_non_ring_map_rejected():
    b0 = free_ring("s", 2, 8, relation_power=2)  # s^2 = 0
    e0 = free_ring("w", 2, 8, relation_power=4)  # w^2 != 0
    with pytest.raises(BundleError, match="ring map"):
        ring_pushout(b0, point_ring(), e0, {"s": "0"}, {"s": "w"})
    # s^2 = 0 omits t, whose image the map skips
    gens = Generators([GeneratorSymbol("s", 2), GeneratorSymbol("t", 2)])
    b0 = QuotientRing(make_presentation(gens, [gens.gen("s") ** 2], "Q[s,t]/s^2"), 8)
    with pytest.raises(BundleError, match=r"relation s\^2 has nonzero image w\^2"):
        ring_pushout(b0, point_ring(), e0, {"s": "0", "t": "0"}, {"s": "w", "t": "w"})


def test_pushout_missing_image_rejected():
    b0 = free_ring("h", 2, 8)
    with pytest.raises(BundleError, match="missing"):
        ring_pushout(b0, point_ring(), point_ring(), {}, {})


def test_pushout_renames_colliding_generators():
    b1 = free_ring("s", 2, 4, relation_power=2)
    e0 = free_ring("s", 2, 4, relation_power=2)
    push = ring_pushout(point_ring(), b1, e0, {}, {})
    assert push.gens.names == ("s", "s_r")
    assert push.dimensions(4) == [1, 0, 2, 0, 1]


def test_pushout_renames_e0_without_multiplying(monkeypatch):
    # renaming a generator moves exponents: e0's relations keep their terms
    b0, b1 = point_ring(), free_ring("s", 2, 4, relation_power=2)
    gens = Generators([GeneratorSymbol("s", 2), GeneratorSymbol("t", 2)])
    e0 = QuotientRing(make_presentation(gens, [gens.parse("(s + t/2)^3")]), 6)
    products = 0
    real = GradedElement.__mul__

    def counting(self, other):
        nonlocal products
        products += 1
        return real(self, other)

    monkeypatch.setattr(GradedElement, "__mul__", counting)
    push = ring_pushout(b0, b1, e0, {}, {})
    monkeypatch.undo()
    assert products == 0
    assert push.gens.names == ("s", "s_r", "t")
    expected = push.gens.parse("(s_r + t/2)^3")
    assert push.presentation.relations == (push.gens.parse("s^2"), expected)


# -- odd Grassmannian bundle version --------------------------------------------------


def test_odd_extension_over_point_matches_catalog():
    rp = free_ring("r", 5, 13)  # H*(RP^5;Q) = Q[r]/r^2 (r odd, square structural)
    bundle = BundleData(rp, "real", 6, 1)
    ring = extend(bundle, "odd-grassmannian", 1)
    catalog_ring = build_ring(SpaceDescriptor("odd-real-grassmannian", 1, 2))
    assert ring.dimensions(9) == catalog_ring.dimensions(9)


def test_odd_extension_series_identity():
    rp = free_ring("r", 7, 23)  # RP(V^8) over a point
    bundle = BundleData(rp, "real", 8, 1)
    ring = extend(bundle, "odd-grassmannian", 1)
    top = 4 * 1 * 2 + 7
    series = closed_form(SpaceDescriptor("odd-real-grassmannian", 1, 3))
    assert series_from_ring(ring, top) == series.truncate(top)


def test_odd_extension_degenerate_k_returns_input():
    rp = free_ring("r", 5, 13)
    bundle = BundleData(rp, "real", 6, 1)
    assert extend(bundle, "odd-grassmannian", 0) is rp
    assert extend(bundle, "odd-grassmannian", 2) is rp


# -- name clashes -----------------------------------------------------------------


def test_extension_name_clash_needs_suffix():
    base = build_ring(SpaceDescriptor("projective-space-complex", 0, 3))  # generator c1
    bundle = BundleData(base, "complex", 2, 1)
    with pytest.raises(BundleError, match="suffix"):
        extend(bundle, "grassmannian", 1)
    ring = extend(bundle, "grassmannian", 1, suffix="f")
    assert "c1f" in ring.gens.names


def test_equivariant_grassmannian_borel_convolution():
    cutoff = 10
    ring = equivariant_space("complex", 3, "grassmannian", k=1, cutoff=cutoff)
    borel = ClosedFormSeries.from_factors(den=(2, 2, 2)).truncate(cutoff)
    fibre = closed_form(SpaceDescriptor("complex-grassmannian", 1, 3)).truncate(cutoff)
    assert series_from_ring(ring, cutoff) == borel.convolve(fibre)
    # relation components of (1+c1)(1+cb1+cb2) = prod(1+a_i) hold
    g = ring.gens
    lhs = (1 + g.gen("c1")) * (1 + g.gen("cb1") + g.gen("cb2"))
    rhs = (1 + g.gen("a1")) * (1 + g.gen("a2")) * (1 + g.gen("a3"))
    assert ring.is_zero(lhs - rhs)


def test_sphere_bundle_series_product_over_base():
    base = free_ring("h", 2, 8, relation_power=4)  # CP^3 with generator h
    h = base.gens.gen("h")
    bundle = BundleData(base, "oriented", 5, 1 + h ** 2)
    ring = extend(bundle, "sphere")
    upto = 8
    expected = series_from_ring(base, upto).convolve(
        ClosedFormSeries.one_plus(4).truncate(upto)
    )
    assert series_from_ring(ring, upto) == expected


def test_fibre_specialization_sweep():
    """Every bundle constructor over a point with trivial classes matches
    the catalog fibre's dimensions."""
    pt = point_ring()

    def compare(built, desc):
        reference = build_ring(desc)
        upto = min(built.cutoff, reference.cutoff)
        assert built.dimensions(upto) == reference.dimensions(upto), desc.label

    for n in range(1, 5):
        for k in range(1, n):
            compare(
                extend(BundleData(pt, "complex", n, 1), "grassmannian", k),
                SpaceDescriptor("complex-grassmannian", k, n),
            )
    for n in range(1, 4):
        for k in range(1, n):
            compare(
                extend(BundleData(pt, "real", 2 * n, 1), "grassmannian", 2 * k),
                SpaceDescriptor("real-grassmannian-even", k, n, "even-even"),
            )
            compare(
                extend(
                    BundleData(pt, "oriented", 2 * n, 1, euler_class=pt.gens.zero()), "grassmannian", 2 * k
                ),
                SpaceDescriptor("oriented-grassmannian", k, n, "even-even"),
            )
        for k in range(1, n + 1):
            compare(
                extend(BundleData(pt, "oriented", 2 * n + 1, 1), "grassmannian", 2 * k),
                SpaceDescriptor("oriented-grassmannian", k, n, "even-odd"),
            )
        for k in range(n):
            compare(
                extend(BundleData(pt, "oriented", 2 * n + 1, 1), "grassmannian", 2 * k + 1),
                SpaceDescriptor("oriented-grassmannian", k, n, "odd-odd"),
            )
    for n in range(1, 4):
        compare(
            extend(BundleData(pt, "complex", n, 1), "flag"),
            SpaceDescriptor("complete-flag-complex", 0, n),
        )
        compare(
            extend(BundleData(pt, "real", 2 * n, 1), "flag"),
            SpaceDescriptor("complete-flag-real", 0, n, "even"),
        )
        compare(
            extend(BundleData(pt, "oriented", 2 * n, 1, euler_class=pt.gens.zero()), "flag"),
            SpaceDescriptor("complete-flag-oriented", 0, n, "even"),
        )
        compare(
            extend(BundleData(pt, "oriented", 2 * n + 1, 1), "flag"),
            SpaceDescriptor("complete-flag-oriented", 0, n, "odd"),
        )
        compare(
            extend(BundleData(pt, "oriented", 2 * n + 1, 1), "sphere"),
            SpaceDescriptor("sphere", 0, n),
        )
        compare(
            extend(BundleData(pt, "complex", n + 1, 1), "projectivize"),
            SpaceDescriptor("projective-space-complex", 0, n + 1),
        )



# sha256 of pinned_presentations() as JSON with sorted keys; re-recorded
# when real Grassmannian bundles of odd rank took their ambient-parity
# labels and the sphere messages stopped naming sphere_bundle (12 labels and
# 16 messages changed, nothing else)
PINNED_DIGEST = "a148315b6f2f609557b0a11eb652a04b652cf8c2bbcea49f2b3c59ed3a239958"


def pinned_presentations() -> list:
    """Presentation, default cutoff and characteristic family of every
    catalog space to n = 4, and the presentation and cutoff (or the error)
    of every bundle extension over CP^4 with nontrivial classes."""
    out = []
    for desc in dict.fromkeys(_catalog_descriptors(4)):
        pres, _, family = build_space(desc)
        cutoff = build_ring(desc).cutoff
        monomials = None
        if family is not None:
            monomials = [list(m.exps) for d in range(cutoff + 1) for m in family.monomials_of_degree(d)]
        out.append([desc.label, presentation_doc(pres), cutoff, monomials])

    def record(name, build):
        try:
            ring = build()
        except ValueError as exc:
            out.append([name, type(exc).__name__, str(exc)])
        else:
            out.append([name, presentation_doc(ring.presentation), ring.cutoff])

    base = projective_base(4)
    h = base.gens.gen("h")
    for kind in ("complex", "real", "oriented"):
        for rank in range(1, 7):
            if kind == "complex":
                total = (1 + h) ** rank
            else:
                total = 1 + (2 * h ** 2 if rank >= 2 else 0) + (h ** 4 if rank >= 4 else 0)
            euler = h ** (rank // 2) if kind == "oriented" and rank % 2 == 0 else None
            bundle = BundleData(base, kind, rank, total, euler)
            name = f"{kind} rank {rank}"
            for k in range(rank + 1):
                for suffix in ("", "f"):
                    record(f"{name} G_{k} {suffix}", lambda: extend(bundle, "grassmannian", k, suffix=suffix))
            for full in (False, True):
                record(f"{name} flag {full}", lambda: extend(bundle, "flag", full=full, suffix="f"))
            for k in range(rank // 2 + 1):
                record(f"{name} odd G_{k}", lambda: extend(bundle, "odd-grassmannian", k, suffix="f"))
            record(f"{name} P", lambda: extend(bundle, "projectivize"))
            record(f"{name} S", lambda: extend(bundle, "sphere"))
    cp2 = build_ring(SpaceDescriptor("projective-space-complex", 0, 3))
    record("name clash", lambda: extend(BundleData(cp2, "complex", 2, 1), "grassmannian", 1))
    return out


def test_presentations_match_pinned_digest():
    # catalog spaces and bundle extensions share one builder per fibre
    # family; this digest pins what the separate builders produced
    text = json.dumps(pinned_presentations(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGEST

def test_real_grassmannian_bundle_over_quaternionic_base():
    base = free_ring("q", 4, 12, relation_power=2)  # HP^1-style base
    q = base.gens.gen("q")
    bundle = BundleData(base, "real", 4, 1 + q)
    ring = extend(bundle, "grassmannian", 2)
    fibre = build_space(SpaceDescriptor("real-grassmannian-even", 1, 2, "even-even"))[1]
    upto = 8
    expected = series_from_ring(base, upto).convolve(fibre.truncate(upto))
    assert series_from_ring(ring, upto) == expected
    # Whitney relation p1 + pb1 = p1(V) holds in the quotient
    g = ring.gens
    assert ring.is_zero(g.gen("p1") + g.gen("pb1") - q.reindex(g))


REIMPORT = """
import gc, importlib, sys, weakref

first = None
for _ in range(3):
    for name in [m for m in sys.modules if m == "flagcohom" or m.startswith("flagcohom.")]:
        del sys.modules[name]
    for name in ("flagcohom", "flagcohom.cli", "flagcohom.verify"):
        pkg = importlib.import_module(name)
    first = first or weakref.ref(sys.modules["flagcohom"].GradedElement)
del pkg
gc.collect()
print("freed" if first() is None else "alive")
"""


def test_reimported_package_frees_the_old_modules():
    # a module-level alias such as Union[GradedElement, ...] lands in typing's
    # cache and would keep every earlier import of the engine alive
    src = Path(flagcohom.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", REIMPORT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "freed"
