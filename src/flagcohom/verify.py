"""Verification suites behind `flagcohom verify`.

Each suite returns a list of `CheckResult`; the CLI prints them and maps
any failure to a nonzero exit status. Every dimensions check reads the
closed form that the code building the ring stated on its presentation
(`_series_check`). The pytest acceptance module runs the same identities
at the full documented parameter ranges.

One `run_suites` call reduces each distinct catalog ring once (`_Run`):
spaces whose presentations, closed forms, families and cutoffs are equal
share one outcome, and each still reports its own lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import catalog, extension, linalg
from .algebra import QuotientRing
from .catalog import SpaceDescriptor, closed_form
from .series import ClosedFormSeries, series_from_ring

# the largest max_n whose suites complete: at 6 the catalog suite reaches
# Fl~(R^12), whose degree 48 has 118755 monomials, more than
# algebra.MAX_DEGREE_MONOMIALS, and is refused there after 7-8 s on a
# 2-CPU machine (Python 3.11)
MAX_N = 5


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        """One report line; the detail is shown only when the check fails."""
        suffix = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}{suffix}"


def _series_check(name: str, ring: QuotientRing) -> CheckResult:
    """Whether the ring's dimensions up to its cutoff match the closed form
    its presentation carries; a failure names the degrees that differ."""
    n = ring.cutoff
    expected = ring.presentation.closed_form.truncate(n)
    engine = series_from_ring(ring, n)
    bad = [d for d in range(n + 1) if expected[d] != engine[d]]
    detail = f"degrees {bad}: engine {[engine[d] for d in bad]}, series {[expected[d] for d in bad]}"
    return CheckResult(name, not bad, detail if bad else "")


def verify_space(space: SpaceDescriptor) -> list[CheckResult]:
    """Check a catalog space against its own closed form and basis family.

    Verifies per-degree dimensions, up to `catalog.default_cutoff`, against
    the presentation's closed form, linear independence and spanning of the
    characteristic family (when stated), and that every relation reduces
    to zero. Each check's name starts with the space's label.
    """
    return _labelled(space, _Run().space(space)[1])


def _labelled(space: SpaceDescriptor, outcome: _Outcome) -> list[CheckResult]:
    return [CheckResult(f"{space.label}: {c.name}", c.ok, c.detail) for c in outcome.checks]


class _Content(NamedTuple):
    """Everything a catalog space's checks read, as values: generator
    symbols (name, degree, priority), relations as (denominator, terms),
    closed form, family parts (None when no family is stated) and cutoff."""

    symbols: tuple
    relations: tuple
    closed_form: ClosedFormSeries
    parts: tuple | None
    cutoff: int


class _Outcome(NamedTuple):
    """A ring's dimensions up to its cutoff, and its checks named without a
    label: dimensions, characteristic family, relations."""

    dimensions: tuple[int, ...]
    checks: tuple[CheckResult, ...]


class _Run:
    """The record of one `run_suites` call: each catalog space's content and
    outcome, its presentation built once, and each distinct content checked
    once and held once. It holds values only, no ring, presentation or
    generators, and goes when the call returns, so no run sees another's."""

    def __init__(self):
        self.spaces: dict[SpaceDescriptor, tuple[_Content, _Outcome]] = {}
        self.checked: dict[_Content, tuple[_Content, _Outcome]] = {}

    def space(self, space: SpaceDescriptor) -> tuple[_Content, _Outcome]:
        """The space's content and outcome, checking it unless an equal
        content has been checked."""
        found = self.spaces.get(space)
        if found is None:
            pres, _, family = catalog.build_space(space)
            content = _Content(
                pres.generators.symbols,
                tuple((r.den, tuple(sorted(r.nums.items()))) for r in pres.relations),
                pres.closed_form,
                None if family is None else family.parts,
                catalog.default_cutoff(pres),
            )
            found = self.checked.get(content)
            if found is None:
                found = self.checked[content] = (content, _check(pres, family, content.cutoff))
            self.spaces[space] = found
        return found


def _check(pres, family, cutoff: int) -> _Outcome:
    """Reduce the presentation to the cutoff and check it; the ring is dropped on return."""
    ring = QuotientRing(pres, cutoff)
    checks = [_series_check("dimensions match closed form", ring)]

    if family is None:
        checks.append(CheckResult("characteristic family", True, "none stated; skipped"))
    else:
        bad_detail = ""
        for d in range(ring.cutoff + 1):
            monos = family.monomials_of_degree(d)
            dim = ring.dimension(d)
            if len(monos) != dim:
                bad_detail = f"degree {d}: family has {len(monos)} monomials, dimension {dim}"
                break
            if not _independent(ring, monos):
                bad_detail = f"degree {d}: family {[str(m) for m in monos]} is dependent"
                break
        checks.append(CheckResult("characteristic family is a basis", not bad_detail, bad_detail))

    bad_rels = [str(r) for r in pres.relations if not ring.is_zero(r)]
    checks.append(CheckResult(
        "relations vanish",
        not bad_rels,
        "" if not bad_rels else f"nonzero residues: {bad_rels}",
    ))
    return _Outcome(tuple(ring.dimensions()), tuple(checks))


def _independent(ring: QuotientRing, monomials) -> bool:
    """Whether the residues of the monomials are linearly independent: the
    rank of their rows in their degree's table (scaling a rewrite row by
    its lead keeps the rank), or False in a zero degree; True at once for
    the degree's basis monomials in display order."""
    if not monomials:
        return True
    table = ring._table(monomials[0].degree)
    if not table.basis:
        return False
    if tuple(m.exps for m in monomials) == table.basis:
        return True
    rows = [sorted(ring._row(mono.exps)[1]) for mono in monomials]
    return linalg.rank(rows) == len(monomials)


def _catalog_descriptors(max_n: int):
    for n in range(max_n + 1):
        for k in range(n + 1):
            yield SpaceDescriptor("complex-grassmannian", k, n)
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            for variant in catalog.VARIANTS:
                yield SpaceDescriptor("real-grassmannian-even", k, n, variant)
    for n in range(1, max_n + 1):
        for variant in catalog.VARIANTS:
            lo, gap = catalog.ORIENTED_K_RANGE[variant]
            for k in range(lo, n - gap + 1):
                yield SpaceDescriptor("oriented-grassmannian", k, n, variant)
    for n in range(min(max_n, 3) + 1):
        for k in range(n + 1):
            yield SpaceDescriptor("odd-real-grassmannian", k, n)
            yield SpaceDescriptor("odd-oriented-grassmannian", k, n)
    for n in range(1, max_n + 1):
        yield SpaceDescriptor("complete-flag-complex", 0, n)
        yield SpaceDescriptor("complete-flag-real", 0, n, "even")
        yield SpaceDescriptor("complete-flag-oriented", 0, n, "even")
        yield SpaceDescriptor("complete-flag-oriented", 0, n, "odd")
        yield SpaceDescriptor("projective-space-complex", 0, n)
        yield SpaceDescriptor("projective-space-real", 0, min(n, 2))
        yield SpaceDescriptor("sphere", 0, n)
    yield SpaceDescriptor("point")


def suite_catalog(max_n: int, run: _Run) -> list[CheckResult]:
    checks: list[CheckResult] = []
    for desc in dict.fromkeys(_catalog_descriptors(max_n)):
        checks.extend(_labelled(desc, run.space(desc)[1]))
    # the three ambient variants share one presentation
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            contents = [run.space(SpaceDescriptor("real-grassmannian-even", k, n, v))[0] for v in catalog.VARIANTS]
            same = len({(c.symbols, c.relations) for c in contents}) == 1
            checks.append(CheckResult(f"real even (k={k}, n={n}): ambient variants agree", same))
    # complex duality k <-> n-k: closed forms, and the engine's G_{n-k} against G_k
    for n in range(max_n + 1):
        for k in range(n // 2 + 1):
            a = run.space(SpaceDescriptor("complex-grassmannian", k, n))[0].closed_form
            content, dual = run.space(SpaceDescriptor("complex-grassmannian", n - k, n))
            b = content.closed_form
            ok = a.symbolic_equal(b) and a.truncate(2 * n) == b.truncate(2 * n)
            top = catalog.top_degree_of(b)
            ok = ok and dual.dimensions[: top + 1] == a.truncate(top).coefficients
            checks.append(CheckResult(f"complex duality G_{k} vs G_{n - k} in C^{n}", ok))
    return checks


def suite_odd_identity(max_n: int, run: _Run) -> list[CheckResult]:
    checks = []
    for n in range(min(max_n, 3) + 1):
        for k in range(n + 1):
            content, outcome = run.space(SpaceDescriptor("odd-real-grassmannian", k, n))
            stated = content.closed_form
            even = closed_form(SpaceDescriptor("real-grassmannian-even", k, n))
            product = ClosedFormSeries.one_plus(2 * n + 1) * even
            top = catalog.top_degree_of(stated)
            sym = stated.symbolic_equal(product)
            num = stated.truncate(top) == product.truncate(top)
            label = f"G_{2 * k + 1}(R^{2 * n + 2})"
            checks.append(CheckResult(f"odd factorization {label}: symbolic", sym))
            checks.append(CheckResult(f"odd factorization {label}: numeric", num))
            dims = outcome.checks[0]
            checks.append(CheckResult(f"odd engine dims {label}", dims.ok, dims.detail))
    return checks


def suite_extensions(max_n: int, run: _Run) -> list[CheckResult]:
    checks = []
    # Leray-Hirsch product over a projective base with nontrivial classes
    base = catalog.build_ring(SpaceDescriptor("projective-space-complex", 0, 3))
    h = base.gens.gen("c1")
    total = (1 + h) * (1 + h)  # rank-2 classes c1=2h, c2=h^2, padded to rank 3
    bundle = extension.BundleData(base, "complex", 3, total)
    ring = extension.extend(bundle, "grassmannian", 1, suffix="f")
    checks.append(_series_check("Leray-Hirsch product over CP^2 base", ring))

    # Whitney residuals regenerate the ideal
    data = extension.whitney_complement(total, 1, 3, "complex", names=["g1"])
    gens = data.gens
    total_bar = sum(data.complements, gens.one())
    residue = (gens.one() + gens.gen("g1")) * total_bar - total.reindex(gens)
    proj = extension.extend(bundle, "projectivize", gen_name="g1")
    ok = all(c.is_zero for d, c in residue.homogeneous_components().items() if d <= 2 * (3 - 1))
    ok = ok and proj.is_zero(residue)
    checks.append(CheckResult("Whitney complement residual expansion", ok))

    # pushout over a point multiplies dimensions
    b1 = catalog.build_ring(SpaceDescriptor("projective-space-complex", 0, 2))
    e0 = catalog.build_ring(SpaceDescriptor("sphere", 0, 2))
    pt = extension.point_ring()
    push = extension.ring_pushout(pt, b1, e0, {}, {})
    sb = series_from_ring(b1, 2)
    se = series_from_ring(e0, 4)
    conv = sb.convolve(se, cutoff=2)
    ok = all(push.dimension(d) == conv[d] for d in range(3))
    checks.append(CheckResult("pushout over a point multiplies dimensions", ok))

    # staged tower equals the single call
    stages = [
        extension.TowerStage("projectivize", "complex", 2, "1"),
        extension.TowerStage("projectivize", "complex", 2, "1 + 2*x1"),
    ]
    whole = extension.bott_tower(stages)
    first = extension.bott_tower(stages[:1])
    second = extension.bott_tower(
        [extension.TowerStage("projectivize", "complex", 2, first.gens.parse("1 + 2*x1"))],
        base=first,
        start_index=2,
    )
    ok = whole.dimensions(4) == second.dimensions(4) == [1, 0, 2, 0, 1]
    checks.append(CheckResult("tower staged vs single call", ok))
    return checks


def suite_equivariant(max_n: int, run: _Run) -> list[CheckResult]:
    rank, cutoff = 2, 8
    ring = extension.equivariant_space("complex", rank, "flag", cutoff=cutoff)
    checks = [_series_check(f"equivariant flag rank {rank}: dims = Borel convolution", ring)]
    plain = extension.zero_generators(ring, [f"a{i}" for i in range(1, rank + 1)])
    fl_dims = run.space(SpaceDescriptor("complete-flag-complex", 0, rank))[1].dimensions
    ok = all(
        plain.dimension(d) == (fl_dims[d] if d < len(fl_dims) else 0)
        for d in range(cutoff + 1)
    )
    checks.append(CheckResult(f"equivariant flag rank {rank}: a_i -> 0 recovers the fibre", ok))
    return checks


SUITES = {
    "catalog": suite_catalog,
    "odd-identity": suite_odd_identity,
    "extensions": suite_extensions,
    "equivariant": suite_equivariant,
}


def run_suites(names, max_n: int) -> list[CheckResult]:
    run = _Run()
    checks: list[CheckResult] = []
    for name in names:
        checks.extend(SUITES[name](max_n, run))
    return checks
