"""Catalog of the classical spaces: presentations, closed-form series and
characteristic monomial bases.

Naming is canonical for stable serialization: c1..ck / cb1..cb(n-k) for
Chern classes of the canonical and complementary bundle, p/pb for
Pontryagin classes, e/eb for Euler classes, r/rt for the odd-degree
classes of the odd-dimensional Grassmannians, x/u/e for flag generators
and a1..an for the polynomial generators of the torus-equivariant base.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    GeneratorSymbol,
    Generators,
    GradedElement,
    Monomial,
    QuotientRing,
    make_presentation,
)
from .series import (
    ClosedFormSeries,
    complex_grassmannian_series,
    odd_grassmannian_series,
    oriented_series,
    real_even_grassmannian_series,
    series_from_ring,
)
from . import linalg

FAMILIES = (
    "point",
    "complex-grassmannian",
    "real-grassmannian-even",
    "oriented-grassmannian",
    "odd-real-grassmannian",
    "odd-oriented-grassmannian",
    "complete-flag-complex",
    "complete-flag-real",
    "complete-flag-oriented",
    "projective-space-complex",
    "projective-space-real",
    "sphere",
)

# ambient-parity variants for the real and oriented even Grassmannians:
# (subspace, ambient) = even-even (2k, 2n), even-odd (2k, 2n+1),
# odd-odd (2k+1, 2n+1)
VARIANTS = ("even-even", "even-odd", "odd-odd")


@dataclass(frozen=True)
class SpaceDescriptor:
    """A space family plus its parameters.

    For Grassmannian families, (k, n) are the reduced presentation
    parameters (the complex shadow), with `variant` fixing the ambient
    parity where it matters. Examples: complex-grassmannian(2, 4)
    is G_2(C^4); real even (1, 2, even-even) is G_2(R^4); odd-real (1, 2)
    is G_3(R^6); sphere(n) is S^2n; projective-space-complex(n) is CP^(n-1);
    projective-space-real(n) is RP^2n.
    """

    family: str
    k: int = 0
    n: int = 0
    variant: str = ""

    def __post_init__(self):
        f = self.family
        if f not in FAMILIES:
            raise ValueError(f"unknown space family {f!r}")
        k, n, v = self.k, self.n, self.variant
        if f == "point":
            return
        if f == "complex-grassmannian":
            if not 0 <= k <= n:
                raise ValueError(f"{f}: need 0 <= k <= n, got k={k}, n={n}")
        elif f == "real-grassmannian-even":
            variant = v or "even-even"
            if variant not in VARIANTS:
                raise ValueError(f"{f}: bad variant {v!r}")
            if not 0 <= k <= n:
                raise ValueError(f"{f}: need 0 <= k <= n, got k={k}, n={n}")
        elif f == "oriented-grassmannian":
            if v not in VARIANTS:
                raise ValueError(f"{f}: variant must be one of {VARIANTS}, got {v!r}")
            lo, hi = {"even-even": (1, n - 1), "even-odd": (1, n), "odd-odd": (0, n - 1)}[v]
            if not lo <= k <= hi:
                raise ValueError(f"{f} ({v}): need {lo} <= k <= {hi}, got k={k}, n={n}")
        elif f in ("odd-real-grassmannian", "odd-oriented-grassmannian"):
            if not 0 <= k <= n:
                raise ValueError(f"{f}: need 0 <= k <= n, got k={k}, n={n}")
        elif f in ("complete-flag-complex", "complete-flag-real", "complete-flag-oriented"):
            if n < 1:
                raise ValueError(f"{f}: need n >= 1")
            if f == "complete-flag-real" and v not in ("", "even", "odd"):
                raise ValueError(f"{f}: variant must be even or odd, got {v!r}")
            if f == "complete-flag-oriented" and v not in ("even", "odd"):
                raise ValueError(f"{f}: variant must be even or odd, got {v!r}")
        elif f == "projective-space-complex":
            if n < 1:
                raise ValueError(f"{f}: need n >= 1")
        elif f in ("projective-space-real", "sphere"):
            if n < 1:
                raise ValueError(f"{f}: need n >= 1")

    @property
    def label(self) -> str:
        f, k, n, v = self.family, self.k, self.n, self.variant
        if f == "point":
            return "pt"
        if f == "complex-grassmannian":
            return f"G_{k}(C^{n})"
        if f == "real-grassmannian-even":
            K, N = _ambient(k, n, v or "even-even")
            return f"G_{K}(R^{N})"
        if f == "oriented-grassmannian":
            K, N = _ambient(k, n, v)
            return f"G~_{K}(R^{N})"
        if f == "odd-real-grassmannian":
            return f"G_{2 * k + 1}(R^{2 * n + 2})"
        if f == "odd-oriented-grassmannian":
            return f"G~_{2 * k + 1}(R^{2 * n + 2})"
        if f == "complete-flag-complex":
            return f"Fl(C^{n})"
        if f == "complete-flag-real":
            return f"Fl(R^{2 * n + (1 if v == 'odd' else 0)})"
        if f == "complete-flag-oriented":
            return f"Fl~(R^{2 * n + (1 if v == 'odd' else 0)})"
        if f == "projective-space-complex":
            return f"CP^{n - 1}"
        if f == "projective-space-real":
            return f"RP^{2 * n}"
        return f"S^{2 * n}"


def _ambient(k: int, n: int, variant: str) -> tuple[int, int]:
    return {
        "even-even": (2 * k, 2 * n),
        "even-odd": (2 * k, 2 * n + 1),
        "odd-odd": (2 * k + 1, 2 * n + 1),
    }[variant]


@dataclass(frozen=True)
class FamilyPart:
    """Monomials prefix * (product over core indices) with a capped
    exponent sum over the core."""

    prefix: tuple[int, ...]
    core: tuple[int, ...]
    max_exponent_sum: int


@dataclass(frozen=True)
class BasisFamily:
    """A characteristic monomial family: union of capped monomial sets."""

    gens: Generators
    parts: tuple[FamilyPart, ...]

    def monomials_of_degree(self, d: int) -> tuple[Monomial, ...]:
        out = []
        for part in self.parts:
            base = self.gens.monomial_degree(part.prefix)
            rest = d - base
            if rest < 0:
                continue
            for exps in _capped_exponents(self.gens, part.core, part.max_exponent_sum, rest):
                combined = tuple(p + e for p, e in zip(part.prefix, exps))
                out.append(combined)
        out.sort(key=lambda e: tuple(-x for x in e))
        return tuple(Monomial(self.gens, e) for e in out)

    def contains(self, monomial: Monomial) -> bool:
        exps = monomial.exps
        for part in self.parts:
            core = set(part.core)
            if any(e != p for i, (e, p) in enumerate(zip(exps, part.prefix)) if i not in core):
                continue
            if sum(exps[i] for i in part.core) <= part.max_exponent_sum:
                return True
        return False

    def all_monomials(self, upto: int) -> list[Monomial]:
        out: list[Monomial] = []
        for d in range(upto + 1):
            out.extend(self.monomials_of_degree(d))
        return out


def _capped_exponents(gens, core, cap, degree):
    """Exponent vectors supported on `core` with sum <= cap and given degree."""
    out = []
    exps = [0] * len(gens)

    def rec(pos: int, remaining: int, budget: int) -> None:
        if remaining == 0:
            out.append(tuple(exps))
            return
        if pos == len(core):
            return
        i = core[pos]
        top = min(remaining // gens.degrees[i], budget)
        for e in range(top, -1, -1):
            exps[i] = e
            rec(pos + 1, remaining - e * gens.degrees[i], budget - e)
        exps[i] = 0

    rec(0, degree, cap)
    return out


def _unit(width: int) -> tuple[int, ...]:
    return (0,) * width


def _basis_vector(width: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(width))


def _total_class(gens: Generators, names: list[str]) -> GradedElement:
    total = gens.one()
    for name in names:
        total = total + gens.gen(name)
    return total


def top_degree(space: SpaceDescriptor) -> int:
    """Largest degree with a nonzero component (real dimension for the
    closed orientable fixtures, 0 for the rationally trivial ones)."""
    f, k, n = space.family, space.k, space.n
    if f == "point" or f == "projective-space-real":
        return 0
    if f == "complex-grassmannian":
        return 2 * k * (n - k)
    if f == "real-grassmannian-even":
        return 4 * k * (n - k)
    if f == "oriented-grassmannian":
        return {
            "even-even": 4 * k * (n - k),
            "even-odd": 4 * k * (n - k) + 2 * k,
            "odd-odd": 4 * k * (n - k) + 2 * (n - k),
        }[space.variant]
    if f in ("odd-real-grassmannian", "odd-oriented-grassmannian"):
        return 4 * k * (n - k) + 2 * n + 1
    if f == "complete-flag-complex":
        return n * (n - 1)
    if f == "complete-flag-real":
        return 2 * n * (n - 1)
    if f == "complete-flag-oriented":
        return 2 * n * (n - 1) if space.variant == "even" else 2 * n * n
    if f == "projective-space-complex":
        return 2 * (n - 1)
    return 2 * n  # sphere


def build_space(space: SpaceDescriptor):
    """(presentation, closed-form series, characteristic family or None)."""
    f, k, n, v = space.family, space.k, space.n, space.variant
    label = space.label

    if f == "point":
        pres = make_presentation(Generators(()), (), label)
        return pres, ClosedFormSeries.one(), BasisFamily(pres.generators, (FamilyPart((), (), 0),))

    if f == "complex-grassmannian":
        return _whitney_space(label, "c", "cb", 2, k, n, complex_grassmannian_series(k, n))

    if f == "real-grassmannian-even":
        return _whitney_space(label, "p", "pb", 4, k, n, real_even_grassmannian_series(k, n))

    if f == "oriented-grassmannian":
        return _oriented_space(space)

    if f in ("odd-real-grassmannian", "odd-oriented-grassmannian"):
        odd_name = "r" if f == "odd-real-grassmannian" else "rt"
        pres, _, family = _whitney_space("", "p", "pb", 4, k, n, None)
        gens = pres.generators.extend([GeneratorSymbol(odd_name, 2 * n + 1)])
        odd = gens.gen(odd_name)
        relations = tuple(r.reindex(gens) for r in pres.relations) + (odd * odd,)
        pres = make_presentation(gens, relations, label)
        width = len(gens)
        parts = tuple(
            FamilyPart(prefix, tuple(range(k)), n - k)
            for prefix in (_unit(width), _basis_vector(width, width - 1))
        )
        return pres, odd_grassmannian_series(k, n), BasisFamily(gens, parts)

    if f == "complete-flag-complex":
        gens = Generators([GeneratorSymbol(f"x{i}", 2) for i in range(1, n + 1)])
        product = gens.one()
        for name in gens.names:
            product = product * (gens.one() + gens.gen(name))
        pres = make_presentation(gens, (product - 1,), label)
        num = tuple(2 * i for i in range(2, n + 1))
        series = ClosedFormSeries.from_factors(num=num, den=(2,) * (n - 1))
        return pres, series, None

    if f == "complete-flag-real":
        gens = Generators([GeneratorSymbol(f"u{i}", 4) for i in range(1, n + 1)])
        product = gens.one()
        for name in gens.names:
            product = product * (gens.one() + gens.gen(name))
        pres = make_presentation(gens, (product - 1,), label)
        num = tuple(4 * i for i in range(2, n + 1))
        series = ClosedFormSeries.from_factors(num=num, den=(4,) * (n - 1))
        return pres, series, None

    if f == "complete-flag-oriented":
        gens = Generators([GeneratorSymbol(f"e{i}", 2) for i in range(1, n + 1)])
        product = gens.one()
        euler = gens.one()
        for name in gens.names:
            g = gens.gen(name)
            product = product * (gens.one() + g * g)
            euler = euler * g
        relations = [product - 1]
        if v == "even":
            relations.append(euler)
            series = ClosedFormSeries.one()
            for i in range(2, n + 1):
                series = series * ClosedFormSeries.one_plus(2 * i - 2)
                series = series * ClosedFormSeries.from_factors(num=(2 * i,), den=(2,))
        else:
            series = ClosedFormSeries.from_factors(
                num=tuple(4 * i for i in range(1, n + 1)), den=(2,) * n
            )
        pres = make_presentation(gens, relations, label)
        return pres, series, None

    if f == "projective-space-complex":
        gens = Generators([GeneratorSymbol("c1", 2)])
        c1 = gens.gen("c1")
        pres = make_presentation(gens, (c1 ** n,), label)
        series = ClosedFormSeries.from_factors(num=(2 * n,), den=(2,))
        family = BasisFamily(gens, (FamilyPart((0,), (0,), n - 1),))
        return pres, series, family

    if f == "projective-space-real":
        gens = Generators(
            [GeneratorSymbol(f"pb{j}", 4 * j, rewrite_priority=2) for j in range(1, n + 1)]
        )
        total = _total_class(gens, list(gens.names))
        pres = make_presentation(gens, (total - 1,), label)
        family = BasisFamily(gens, (FamilyPart(_unit(n), (), 0),))
        return pres, ClosedFormSeries.one(), family

    # sphere S^2n, presented in its reduced single-generator form
    gens = Generators([GeneratorSymbol("eb", 2 * n)])
    eb = gens.gen("eb")
    pres = make_presentation(gens, (eb * eb,), label)
    series = ClosedFormSeries.one_plus(2 * n)
    family = BasisFamily(gens, (FamilyPart((0,), (0,), 1),))
    return pres, series, family


def _whitney_space(label, canon, comp, step, k, n, series):
    """Presentation <canonical classes; complement classes | product = 1>."""
    symbols = [GeneratorSymbol(f"{canon}{i}", step * i) for i in range(1, k + 1)]
    symbols += [
        GeneratorSymbol(f"{comp}{j}", step * j, rewrite_priority=2) for j in range(1, n - k + 1)
    ]
    gens = Generators(symbols)
    total = _total_class(gens, [f"{canon}{i}" for i in range(1, k + 1)])
    total_bar = _total_class(gens, [f"{comp}{j}" for j in range(1, n - k + 1)])
    pres = make_presentation(gens, (total * total_bar - 1,), label)
    family = BasisFamily(gens, (FamilyPart(_unit(len(gens)), tuple(range(k)), n - k),))
    return pres, series, family


def _oriented_space(space: SpaceDescriptor):
    k, n, v = space.k, space.n, space.variant
    symbols = [GeneratorSymbol(f"p{i}", 4 * i) for i in range(1, k + 1)]
    symbols += [GeneratorSymbol(f"pb{j}", 4 * j, rewrite_priority=2) for j in range(1, n - k + 1)]
    if v in ("even-even", "even-odd"):
        symbols.append(GeneratorSymbol("e", 2 * k, rewrite_priority=1))
    if v in ("even-even", "odd-odd"):
        symbols.append(GeneratorSymbol("eb", 2 * (n - k), rewrite_priority=1))
    gens = Generators(symbols)
    total = _total_class(gens, [f"p{i}" for i in range(1, k + 1)])
    total_bar = _total_class(gens, [f"pb{j}" for j in range(1, n - k + 1)])
    relations = [total * total_bar - 1]
    if v in ("even-even", "even-odd"):
        e = gens.gen("e")
        relations.append(e * e - gens.gen(f"p{k}"))
    if v in ("even-even", "odd-odd"):
        eb = gens.gen("eb")
        relations.append(eb * eb - gens.gen(f"pb{n - k}"))
    if v == "even-even":
        relations.append(gens.gen("e") * gens.gen("eb"))
    pres = make_presentation(gens, relations, space.label)

    width = len(gens)
    p_core = tuple(range(k))
    parts = [FamilyPart(_unit(width), p_core, n - k)]
    if v == "even-odd":
        parts.append(FamilyPart(_basis_vector(width, gens.index("e")), p_core, n - k))
    elif v == "odd-odd":
        parts.append(FamilyPart(_basis_vector(width, gens.index("eb")), p_core, n - k))
    else:
        # e * (complement monomials up to pb_(n-k-1)), eb * (canonical up to p_(k-1))
        pb_core = tuple(gens.index(f"pb{j}") for j in range(1, n - k))
        parts.append(FamilyPart(_basis_vector(width, gens.index("e")), pb_core, k))
        parts.append(FamilyPart(_basis_vector(width, gens.index("eb")), p_core[:-1], n - k))
    return pres, oriented_series(v, k, n), BasisFamily(gens, tuple(parts))


def default_cutoff(space: SpaceDescriptor) -> int:
    pres, _, _ = build_space(space)
    return max(top_degree(space), pres.max_relation_degree())


def build_ring(space: SpaceDescriptor, cutoff: int | None = None) -> QuotientRing:
    pres, _, _ = build_space(space)
    return QuotientRing(pres, default_cutoff(space) if cutoff is None else cutoff)


def characteristic_basis_monomials(space: SpaceDescriptor, degree: int) -> tuple[Monomial, ...]:
    """The space's characteristic monomial family in one degree."""
    _, _, family = build_space(space)
    if family is None:
        raise ValueError(f"{space.label} has no stated characteristic basis family")
    return family.monomials_of_degree(degree)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        """One report line; the detail is shown only when the check fails."""
        suffix = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}{suffix}"


@dataclass
class VerifyReport:
    label: str
    cutoff: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, ok, detail))

    def labelled(self) -> list[CheckResult]:
        """The checks, each name prefixed by the space's label."""
        return [CheckResult(f"{self.label}: {c.name}", c.ok, c.detail) for c in self.checks]

    def lines(self) -> list[str]:
        return [c.line() for c in self.labelled()]


def verify_space(space: SpaceDescriptor, cutoff: int | None = None) -> VerifyReport:
    """Check a catalog space against its own closed form and basis family.

    Verifies per-degree dimensions against the series expansion, linear
    independence and spanning of the characteristic family (when stated),
    and that every relation reduces to zero.
    """
    pres, series, family = build_space(space)
    n = default_cutoff(space) if cutoff is None else cutoff
    ring = QuotientRing(pres, max(n, pres.max_relation_degree()))
    report = VerifyReport(space.label, n)

    expected = series.truncate(n)
    engine = series_from_ring(ring, n)
    bad = [d for d in range(n + 1) if expected[d] != engine[d]]
    report.add(
        "dimensions match closed form",
        not bad,
        "" if not bad else f"degrees {bad}: engine {[engine[d] for d in bad]}, "
        f"series {[expected[d] for d in bad]}",
    )

    if family is None:
        report.add("characteristic family", True, "none stated; skipped")
    else:
        bad_detail = ""
        for d in range(n + 1):
            monos = family.monomials_of_degree(d)
            dim = ring.dimension(d)
            if len(monos) != dim:
                bad_detail = f"degree {d}: family has {len(monos)} monomials, dimension {dim}"
                break
            if not _independent(ring, monos):
                bad_detail = f"degree {d}: family {[str(m) for m in monos]} is dependent"
                break
        report.add("characteristic family is a basis", not bad_detail, bad_detail)

    bad_rels = [str(r) for r in pres.relations if not ring.is_zero(r)]
    report.add(
        "relations vanish",
        not bad_rels,
        "" if not bad_rels else f"nonzero residues: {bad_rels}",
    )
    return report


def _independent(ring: QuotientRing, monomials) -> bool:
    """Whether the residues of the monomials are linearly independent."""
    if not monomials:
        return True
    d = monomials[0].degree
    basis_index = {m: i for i, m in enumerate(e for e in ring._table(d).basis)}
    rows = []
    for mono in monomials:
        nf = ring.normal_form(mono.as_element())
        entries = sorted((basis_index[e], c) for e, c in nf.terms.items())
        rows.append(linalg.integer_row(entries))
    return linalg.rank(rows) == len(monomials)
