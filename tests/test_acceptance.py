"""Acceptance suite: every documented identity at its stated parameter
range. Arithmetic is exact throughout, so every comparison is equality.

Each criterion prints one PASS/FAIL line (visible with pytest -s); run

    pytest tests/test_acceptance.py -v
"""

import functools

import pytest

from flagcohom import (
    BundleData,
    BundleError,
    GeneratorSymbol,
    Generators,
    QuotientRing,
    SpaceDescriptor,
    bott_tower,
    build_ring,
    build_space,
    closed_form,
    equivariant_space,
    extend,
    make_presentation,
    point_ring,
    ring_pushout,
    series_from_ring,
    whitney_complement,
    zero_generators,
)
from flagcohom import TowerStage
from flagcohom.catalog import ORIENTED_K_RANGE, VARIANTS, top_degree_of
from flagcohom.series import ClosedFormSeries
from flagcohom.verify import verify_space


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE FAIL [{number}]: {title}")
                raise
            print(f"ACCEPTANCE PASS [{number}]: {title}")

        return run

    return wrap


@functools.lru_cache(maxsize=None)
def ring(family, k=0, n=0, variant=""):
    return build_ring(SpaceDescriptor(family, k, n, variant))


def dims(r, upto):
    return [r.dimension(d) for d in range(upto + 1)]


@criterion(1, "complex Grassmannian dimensions equal the product formula, k <= n <= 5")
def test_criterion_1_complex_catalog_agreement():
    for n in range(6):
        for k in range(n + 1):
            top = 2 * k * (n - k)
            r = ring("complex-grassmannian", k, n)
            expected = closed_form(SpaceDescriptor("complex-grassmannian", k, n)).truncate(top)
            assert dims(r, top) == list(expected.coefficients), (k, n)


@criterion(2, "complex characteristic monomial family is a basis, k <= n <= 5")
def test_criterion_2_complex_characteristic_basis():
    from flagcohom.verify import _independent

    for n in range(6):
        for k in range(n + 1):
            desc = SpaceDescriptor("complex-grassmannian", k, n)
            r = ring("complex-grassmannian", k, n)
            family = build_space(desc)[2]
            for d in range(top_degree_of(closed_form(desc)) + 1):
                monos = family.monomials_of_degree(d)
                assert len(monos) == r.dimension(d), (k, n, d)
                assert _independent(r, monos), (k, n, d)


@criterion(3, "real even Grassmannians: dims equal P(t^2), all ambient variants identical")
def test_criterion_3_real_even():
    for n in range(1, 5):
        for k in range(1, n + 1):
            top = 4 * k * (n - k)
            r = ring("real-grassmannian-even", k, n, "even-even")
            expected = closed_form(SpaceDescriptor("real-grassmannian-even", k, n)).truncate(top)
            assert dims(r, top) == list(expected.coefficients), (k, n)
            built = [
                build_space(SpaceDescriptor("real-grassmannian-even", k, n, v))[0]
                for v in VARIANTS
            ]
            for other in built[1:]:
                assert other.generators == built[0].generators, (k, n)
                assert other.relations == built[0].relations, (k, n)


@criterion(4, "oriented even Grassmannians: three closed forms, Euler relations, derived identities")
def test_criterion_4_oriented_even():
    for n in range(1, 5):
        for k in (1, 2):
            for variant in VARIANTS:
                lo, gap = ORIENTED_K_RANGE[variant]
                if not lo <= k <= n - gap:
                    continue
                desc = SpaceDescriptor("oriented-grassmannian", k, n, variant)
                r = ring("oriented-grassmannian", k, n, variant)
                top = top_degree_of(closed_form(desc))
                expected = closed_form(desc).truncate(top)
                assert dims(r, top) == list(expected.coefficients), (k, n, variant)
                for rel in r.presentation.relations:
                    assert r.is_zero(rel), (k, n, variant, str(rel))
    # derived identities in G~_2(R^2n) for n = 2, 3
    for n in (2, 3):
        r = ring("oriented-grassmannian", 1, n, "even-even")
        e, eb = r.gens.gen("e"), r.gens.gen("eb")
        assert r.is_zero(eb * eb - (-1) ** (n - 1) * e ** (2 * n - 2)), n
        assert r.is_zero(e ** (2 * n - 1)), n


@criterion(5, "worked examples: CP, RP, spheres, and the rank-2 oriented families")
def test_criterion_5_worked_examples():
    for n in range(1, 6):  # CP^(n-1)
        r = ring("projective-space-complex", 0, n)
        assert dims(r, 2 * n) == [1 if d % 2 == 0 and d < 2 * n else 0 for d in range(2 * n + 1)]
    for n in (1, 2, 3):  # RP^2n is a point over Q
        r = ring("projective-space-real", 0, n)
        assert dims(r, r.cutoff) == [1] + [0] * r.cutoff
    for n in (1, 2, 3):  # S^2n
        r = ring("sphere", 0, n)
        assert dims(r, 2 * n) == [1] + [0] * (2 * n - 1) + [1]
    for n in (2, 3, 4):  # G~_2(R^2n): (1+t^(2n-2))(1-t^2n)/(1-t^2)
        r = ring("oriented-grassmannian", 1, n, "even-even")
        display = ClosedFormSeries.one_plus(2 * n - 2) * ClosedFormSeries.from_factors(
            num=(2 * n,), den=(2,)
        )
        top = 4 * (n - 1)
        assert dims(r, top) == list(display.truncate(top).coefficients), n
    for n in (1, 2, 3, 4):  # G~_2(R^(2n+1)): (1-t^4n)/(1-t^2)
        r = ring("oriented-grassmannian", 1, n, "even-odd")
        display = ClosedFormSeries.from_factors(num=(4 * n,), den=(2,))
        top = 4 * n - 2
        assert dims(r, top) == list(display.truncate(top).coefficients), n
    for n in (2, 3, 4):  # G~_3(R^(2n+1)): (1+t^(2n-2))(1-t^4n)/(1-t^4)
        r = ring("oriented-grassmannian", 1, n, "odd-odd")
        display = ClosedFormSeries.one_plus(2 * n - 2) * ClosedFormSeries.from_factors(
            num=(4 * n,), den=(4,)
        )
        top = top_degree_of(closed_form(SpaceDescriptor("oriented-grassmannian", 1, n, "odd-odd")))
        assert dims(r, top) == list(display.truncate(top).coefficients), n


@criterion(6, "odd Grassmannians factor as (1+t^(2n+1)) times the even series, k <= n <= 3")
def test_criterion_6_odd_grassmannians():
    for n in range(4):
        for k in range(n + 1):
            stated = closed_form(SpaceDescriptor("odd-real-grassmannian", k, n))
            even = closed_form(SpaceDescriptor("real-grassmannian-even", k, n))
            product = ClosedFormSeries.one_plus(2 * n + 1) * even
            assert stated.symbolic_equal(product), (k, n)
            top = 4 * k * (n - k) + 2 * n + 1
            assert stated.truncate(top) == product.truncate(top), (k, n)
            for family in ("odd-real-grassmannian", "odd-oriented-grassmannian"):
                r = ring(family, k, n)
                assert dims(r, top) == list(stated.truncate(top).coefficients), (family, k, n)


def _projective_base(m: int) -> QuotientRing:
    gens = Generators([GeneratorSymbol("h", 2)])
    pres = make_presentation(gens, [gens.gen("h") ** (m + 1)], f"CP^{m}")
    return QuotientRing(pres, 2 * m + 2)


@criterion(7, "bundle extensions over CP^m: Leray-Hirsch product and Whitney re-expansion")
def test_criterion_7_bundle_extensions():
    for m in (1, 2, 3):
        base = _projective_base(m)
        h = base.gens.gen("h")
        synthetic = {
            2: 1 + 2 * h,
            3: 1 + h + h ** 2,
            4: (1 + h) ** 2 + h ** 3,
        }
        for rank in (2, 3, 4):
            total = synthetic[rank]
            bundle = BundleData(base, "complex", rank, total)
            for k in range(1, rank):
                r = extend(bundle, "grassmannian", k, suffix="f")
                upto = base.cutoff
                got = series_from_ring(r, upto)
                expected = series_from_ring(base, upto).convolve(
                    closed_form(SpaceDescriptor("complex-grassmannian", k, rank)).truncate(upto)
                )
                assert got == expected, (m, rank, k)

                names = [f"c{i}f" for i in range(1, k + 1)]
                data = whitney_complement(total, k, rank, "complex", names=names)
                gens = data.gens
                total_canon = gens.one()
                for name in names:
                    total_canon = total_canon + gens.gen(name)
                total_bar = gens.one()
                for c in data.complements:
                    total_bar = total_bar + c
                residue = total_canon * total_bar - total.reindex(gens)
                for d, comp in residue.homogeneous_components().items():
                    if d <= 2 * (rank - k):
                        assert comp.is_zero, (m, rank, k, d)
                assert r.is_zero(residue.reindex(r.gens)), (m, rank, k)


@criterion(8, "flag manifolds and CP^1 towers: product series and staged builds")
def test_criterion_8_flags_and_towers():
    for n in range(1, 5):
        r = ring("complete-flag-complex", 0, n)
        series = build_space(SpaceDescriptor("complete-flag-complex", 0, n))[1]
        top = n * (n - 1)
        assert dims(r, top) == list(series.truncate(top).coefficients), n

    from math import comb

    stage_classes = ["1", "1 + 2*x1", "1 + x1 - x2", "1 - x3 + x1^2 + x1*x2"]
    for height in range(1, 5):
        stages = [
            TowerStage("projectivize", "complex", 2, stage_classes[i]) for i in range(height)
        ]
        whole = bott_tower(stages)
        expected = [comb(height, d // 2) if d % 2 == 0 else 0 for d in range(2 * height + 1)]
        assert dims(whole, 2 * height) == expected, height

        if height >= 2:
            first = bott_tower(stages[:1])
            rest = bott_tower(stages[1:], base=first, start_index=2)
            assert dims(rest, 2 * height) == dims(whole, 2 * height), height
            assert rest.gens == whole.gens
            for i in range(1, height + 1):
                for j in range(i, height + 1):
                    prod = whole.gens.gen(f"x{i}") * whole.gens.gen(f"x{j}")
                    assert whole.normal_form(prod) == rest.normal_form(prod), (height, i, j)


@criterion(9, "equivariant flag rings: Borel convolution at cutoff 12 and specialization")
def test_criterion_9_equivariant():
    cutoff = 12
    for rank in (1, 2, 3):
        for kind, fam, variant in (
            ("complex", "complete-flag-complex", ""),
            ("real", "complete-flag-real", "even"),
            ("oriented", "complete-flag-oriented", "even"),
            ("oriented", "complete-flag-oriented", "odd"),
        ):
            eq = equivariant_space(kind, rank, "flag", variant=variant or "even", cutoff=cutoff)
            borel = ClosedFormSeries.from_factors(den=(2,) * rank).truncate(cutoff)
            fibre_desc = SpaceDescriptor(fam, 0, rank, variant)
            fibre = build_space(fibre_desc)[1].truncate(cutoff)
            assert series_from_ring(eq, cutoff) == borel.convolve(fibre), (kind, rank, variant)

            plain = zero_generators(eq, [f"a{i}" for i in range(1, rank + 1)])
            fibre_ring = build_ring(fibre_desc)
            for d in range(cutoff + 1):
                expected = fibre_ring.dimension(d) if d <= fibre_ring.cutoff else 0
                assert plain.dimension(d) == expected, (kind, rank, variant, d)


@criterion(10, "pushouts: trivial base, identity pullback, BU(1) elimination, rejections")
def test_criterion_10_pushout():
    s_gens = Generators([GeneratorSymbol("s", 2)])
    b1 = QuotientRing(make_presentation(s_gens, [s_gens.gen("s") ** 2], "CP^1"), 4)
    w_gens = Generators([GeneratorSymbol("w", 2)])
    e0 = QuotientRing(make_presentation(w_gens, [w_gens.gen("w") ** 3], "CP^2"), 6)
    push = ring_pushout(point_ring(), b1, e0, {}, {})
    conv = series_from_ring(b1, 4).convolve(series_from_ring(e0, 4))
    assert series_from_ring(push, 4) == conv

    bu1 = QuotientRing(make_presentation(Generators([GeneratorSymbol("h", 2)]), [], "BU(1)"), 10)
    e0 = extend(BundleData(bu1, "complex", 4, 1 + bu1.gens.gen("h")), "projectivize")
    pulled = ring_pushout(bu1, bu1, e0, {"h": "h"}, {"h": "h"})
    assert dims(pulled, 8) == dims(e0, 8)

    collapsed = ring_pushout(bu1, point_ring(), e0, {"h": "0"}, {"h": "h"})
    fibre = ring("projective-space-complex", 0, 4)
    assert dims(collapsed, 8) == dims(fibre, 8)

    with pytest.raises(BundleError, match="degree"):
        ring_pushout(bu1, point_ring(), e0, {"h": "0"}, {"h": "h^2"})
    torsionish = QuotientRing(
        make_presentation(s_gens, [s_gens.gen("s") ** 2], "CP^1"), 6
    )
    with pytest.raises(BundleError, match="ring map"):
        ring_pushout(torsionish, e0, e0, {"s": "h"}, {"s": "h"})


@criterion(11, "integrality: complex-case structure constants have denominator 1")
def test_criterion_11_integrality():
    fixtures = [("complex-grassmannian", k, n) for n in range(6) for k in range(n + 1)]
    fixtures += [("projective-space-complex", 0, n) for n in range(1, 6)]
    for family, k, n in fixtures:
        r = ring(family, k, n)
        bases = {d: r.degree_basis(d) for d in range(r.cutoff + 1)}
        for d1, b1 in bases.items():
            for d2, b2 in bases.items():
                if d1 > d2 or d1 + d2 > r.cutoff:
                    continue
                for m1 in b1:
                    for m2 in b2:
                        nf = r.multiply(m1.as_element(), m2.as_element())
                        assert all(
                            c.denominator == 1 for c in nf.terms.values()
                        ), (family, k, n, str(m1), str(m2))


@criterion(0, "full catalog verifies: dimensions, families and relations for every space")
def test_criterion_catalog_sweep():
    # not a numbered criterion: the catalog-wide invariant (complex n <= 5,
    # real and oriented n <= 4) that backs the per-criterion checks above
    descriptors = []
    for n in range(6):
        for k in range(n + 1):
            descriptors.append(SpaceDescriptor("complex-grassmannian", k, n))
    for n in range(1, 5):
        for k in range(n + 1):
            for v in VARIANTS:
                descriptors.append(SpaceDescriptor("real-grassmannian-even", k, n, v))
        for v in VARIANTS:
            lo, gap = ORIENTED_K_RANGE[v]
            for k in range(lo, n - gap + 1):
                descriptors.append(SpaceDescriptor("oriented-grassmannian", k, n, v))
        descriptors.append(SpaceDescriptor("complete-flag-complex", 0, n))
        descriptors.append(SpaceDescriptor("complete-flag-real", 0, n, "even"))
        descriptors.append(SpaceDescriptor("complete-flag-oriented", 0, n, "even"))
        descriptors.append(SpaceDescriptor("complete-flag-oriented", 0, n, "odd"))
    for n in range(4):
        for k in range(n + 1):
            descriptors.append(SpaceDescriptor("odd-real-grassmannian", k, n))
            descriptors.append(SpaceDescriptor("odd-oriented-grassmannian", k, n))
    descriptors.append(SpaceDescriptor("complete-flag-complex", 0, 5))
    for desc in descriptors:
        checks = verify_space(desc)
        assert all(c.ok for c in checks), "\n".join(c.line() for c in checks)
