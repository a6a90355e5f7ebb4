"""Catalog of the classical spaces: presentations, closed-form series and
characteristic monomial bases.

Naming is canonical for stable serialization: c1..ck / cb1..cb(n-k) for
Chern classes of the canonical and complementary bundle, p/pb for
Pontryagin classes, e/eb for Euler classes, r/rt for the odd-degree
classes of the odd-dimensional Grassmannians, x/u/e for flag generators
and a1..an for the polynomial generators of the torus-equivariant base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (
    GeneratorSymbol,
    Generators,
    GradedElement,
    Monomial,
    PresentationError,
    QuotientRing,
    RingPresentation,
    make_presentation,
)
from .series import ClosedFormSeries

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

# the oriented Grassmannian's k range by variant, as (lowest k, n - highest k)
ORIENTED_K_RANGE = {"even-even": (1, 1), "even-odd": (1, 0), "odd-odd": (0, 1)}

# Largest n and top degree of a catalog space or bundle fibre. Presentations
# grow fast past it: Fl(C^n) expands a product of 2^n terms.
MAX_SPACE_SIZE = 256

# the families that read k, and those that read a variant
_READS_K = ("complex-grassmannian", "real-grassmannian-even", "oriented-grassmannian",
            "odd-real-grassmannian", "odd-oriented-grassmannian")
_READS_VARIANT = ("real-grassmannian-even", "oriented-grassmannian", "complete-flag-real",
                  "complete-flag-oriented")


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
        if k and f not in _READS_K:
            raise ValueError(f"{f}: takes no k, got k={k}")
        if v and f not in _READS_VARIANT:
            raise ValueError(f"{f}: takes no variant, got {v!r}")
        if n and f == "point":
            raise ValueError(f"{f}: takes no n, got n={n}")
        if f in ("complex-grassmannian", "odd-real-grassmannian", "odd-oriented-grassmannian"):
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
            lo, gap = ORIENTED_K_RANGE[v]
            hi = n - gap
            if not lo <= k <= hi:
                raise ValueError(f"{f} ({v}): need {lo} <= k <= {hi}, got k={k}, n={n}")
        elif f in ("complete-flag-complex", "complete-flag-real", "complete-flag-oriented"):
            if n < 1:
                raise ValueError(f"{f}: need n >= 1")
            if f == "complete-flag-real" and v not in ("", "even", "odd"):
                raise ValueError(f"{f}: variant must be even or odd, got {v!r}")
            if f == "complete-flag-oriented" and v not in ("even", "odd"):
                raise ValueError(f"{f}: variant must be even or odd, got {v!r}")
        elif f in ("projective-space-complex", "projective-space-real", "sphere"):
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
    exponent sum over the core. The prefix is an exponent vector, read
    off the core."""

    prefix: tuple[int, ...]
    core: tuple[int, ...]
    max_exponent_sum: int


@dataclass(frozen=True)
class BasisFamily:
    """A characteristic monomial family: union of capped monomial sets. A
    degree's members are built by a search over each part's core, not by
    the ring's enumeration of its monomials: it builds no monomial outside
    the family, so no degree is counted against `MAX_DEGREE_MONOMIALS`."""

    gens: Generators
    parts: tuple[FamilyPart, ...]

    def monomials_of_degree(self, d: int) -> tuple[Monomial, ...]:
        """The family's monomials of degree d, in the ring's display order:
        each part's prefix times the core monomials of the remaining degree
        whose exponent sum is within its cap. The search over the core
        carries the degree and the exponent sum left, and stops where the
        degree left is below every core degree left."""
        degrees = self.gens.degrees
        members = set()
        for part in self.parts:
            core = part.core
            exps = [0 if i in core else e for i, e in enumerate(part.prefix)]
            # the smallest degree of the core generators from each position on
            low = [min(degrees[i] for i in core[p:]) for p in range(len(core))] + [d + 1]

            def search(p: int, left: int, cap: int) -> None:
                if not left:
                    members.add(tuple(exps))
                elif left >= low[p]:
                    i = core[p]
                    g = degrees[i]
                    # an odd generator's exponent is at most 1; the loop leaves it 0
                    for e in range(min(left // g, cap, 1 if g % 2 else cap), -1, -1):
                        exps[i] = e
                        search(p + 1, left - e * g, cap - e)

            search(0, d - self.gens.monomial_degree(exps), part.max_exponent_sum)
        return tuple(Monomial(self.gens, e) for e in sorted(members, reverse=True))

    def contains(self, exps: tuple[int, ...]) -> bool:
        """Whether the family holds the monomial with these exponents."""
        for part in self.parts:
            if any(e != p for i, (e, p) in enumerate(zip(exps, part.prefix)) if i not in part.core):
                continue
            if sum(exps[i] for i in part.core) <= part.max_exponent_sum:
                return True
        return False


def _unit(width: int) -> tuple[int, ...]:
    return (0,) * width


def _basis_vector(width: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(width))


def top_degree_of(series: ClosedFormSeries) -> int:
    """Largest degree with a nonzero coefficient of a catalog closed form,
    or of a product of them: the degree of the Poincare polynomial (the real
    dimension of a closed orientable space, 0 for the rationally trivial
    ones). Every catalog closed form is a sum of polynomials with positive
    coefficients, so no leading term cancels and the degree is the largest
    degree of a term."""
    return max(t.shift + sum(t.num) - sum(t.den) for t in series.terms)


def check_size(space: SpaceDescriptor) -> ClosedFormSeries:
    """The space's closed form, after refusing a space whose presentation
    would take long to build. n is tested first, since the closed form costs
    O(n^2) to derive; its top degree is tested next."""
    if space.n > MAX_SPACE_SIZE:
        raise ValueError(f"{space.label} is too large: n = {space.n} must be at most {MAX_SPACE_SIZE}")
    series = closed_form(space)
    top = top_degree_of(series)
    if top > MAX_SPACE_SIZE:
        raise ValueError(
            f"{space.label} is too large: n = {space.n} and top degree {top} "
            f"must be at most {MAX_SPACE_SIZE}"
        )
    return series


_FLAG_ROOTS = {
    "complete-flag-complex": ("x", 2),
    "complete-flag-real": ("u", 4),
    "complete-flag-oriented": ("e", 2),
}


def fibre_symbols(fibre: SpaceDescriptor, suffix: str = "", full: bool = False) -> list[GeneratorSymbol]:
    """Generators of a Grassmannian or complete-flag family, names ending in
    `suffix`: c_i or p_i, then cb_j or pb_j (rewrite priority 2), then the
    oriented Euler classes e, eb (priority 1); or the flag roots x_i, u_i or
    e_i, then for `full` the oriented flag's redundant u_i = e_i^2."""
    f, k, n, v = fibre.family, fibre.k, fibre.n, fibre.variant
    if f in _FLAG_ROOTS:
        root, degree = _FLAG_ROOTS[f]
        symbols = [GeneratorSymbol(f"{root}{i}{suffix}", degree) for i in range(1, n + 1)]
        if full and f == "complete-flag-oriented":
            symbols += [GeneratorSymbol(f"u{i}{suffix}", 4, rewrite_priority=2) for i in range(1, n + 1)]
        return symbols
    canon, step = ("c", 2) if f == "complex-grassmannian" else ("p", 4)
    symbols = [GeneratorSymbol(f"{canon}{i}{suffix}", step * i) for i in range(1, k + 1)]
    symbols += [
        GeneratorSymbol(f"{canon}b{j}{suffix}", step * j, rewrite_priority=2) for j in range(1, n - k + 1)
    ]
    if f == "oriented-grassmannian":
        if v != "odd-odd":
            symbols.append(GeneratorSymbol(f"e{suffix}", 2 * k, rewrite_priority=1))
        if v != "even-odd":
            symbols.append(GeneratorSymbol(f"eb{suffix}", 2 * (n - k), rewrite_priority=1))
    return symbols


def fibre_relations(
    gens: Generators, fibre: SpaceDescriptor, total, euler, suffix: str = "", full: bool = False
) -> list[GradedElement]:
    """Relations of a Grassmannian or complete-flag family over a base whose
    bundle has classes `total` and `euler` (read for oriented even rank):
    c*cbar = total or prod(1 + x_i) = total, e^2 = p_k, eb^2 = pb_(n-k),
    e*eb = euler, prod(e_i) = euler. A catalog space has total = 1 and
    euler = 0. `gens` must contain fibre_symbols(fibre, suffix, full)."""
    f, k, n, v = fibre.family, fibre.k, fibre.n, fibre.variant
    one = gens.one()
    g = [gens.gen(s.name) for s in fibre_symbols(fibre, suffix, full)]
    if f in _FLAG_ROOTS:
        roots, full_squares = g[:n], g[n:]
        squares = full_squares or ([e * e for e in roots] if f == "complete-flag-oriented" else roots)
        relations = [math.prod((one + s for s in squares), start=one) - total]
        relations += [e * e - u for e, u in zip(roots, full_squares)]
        if f == "complete-flag-oriented" and v == "even":
            relations.append(math.prod(roots, start=one) - euler)
        return relations
    canon, bar = g[:k], g[k:n]
    relations = [sum(canon, one) * sum(bar, one) - total]
    if f == "oriented-grassmannian":
        e, eb = g[n], g[-1]  # e comes first and eb last among the Euler classes
        if v != "odd-odd":
            relations.append(e * e - canon[-1])
        if v != "even-odd":
            relations.append(eb * eb - bar[-1])
        if v == "even-even":
            relations.append(e * eb - euler)
    return relations


def _borel(step: int, n: int, blocks) -> ClosedFormSeries:
    """Borel's quotient for block ranks r_j summing to n:
    prod_{i<=n}(1-t^(step*i)) / prod_j prod_{i<=r_j}(1-t^(step*i)), with
    step 2 for Chern classes and 4 for Pontryagin classes."""
    return ClosedFormSeries.from_factors(
        num=tuple(step * i for i in range(1, n + 1)),
        den=tuple(step * i for r in blocks for i in range(1, r + 1)),
    )


def closed_form(space: SpaceDescriptor) -> ClosedFormSeries:
    """The space's Poincare polynomial: the one statement of each family's
    series, derived once per space built, by check_size (see build_space).

    Flag-type families are Borel quotients of their block ranks: CP^(n-1)
    is (1, n-1), a Grassmannian (k, n-k) (RP^2n the real k = 0 case), a
    complete flag (1, ..., 1). The odd Grassmannians, and the oriented ones
    with an odd-rank side, multiply theirs by the 1 + t^s of the odd or
    Euler class; the even-even oriented Grassmannian is a three-term sum.
    """
    f, k, n, v = space.family, space.k, space.n, space.variant
    if f == "point":
        return ClosedFormSeries.one()
    if f == "sphere":
        return ClosedFormSeries.one_plus(2 * n)
    if f == "complete-flag-oriented":
        # (1-t^4)...(1-t^(4n-4)) (1-t^2n) / (1-t^2)^n; odd ambient rank ends in (1-t^4n)
        last = 4 * n if v == "odd" else 2 * n
        return ClosedFormSeries.from_factors(num=tuple(4 * i for i in range(1, n)) + (last,), den=(2,) * n)
    if f == "projective-space-complex":
        return _borel(2, n, (1, n - 1))
    if f == "projective-space-real":
        return _borel(4, n, (0, n))  # build_space's G_1(R^(2n+1))
    step = 2 if f in ("complex-grassmannian", "complete-flag-complex") else 4
    if f in _FLAG_ROOTS:
        return _borel(step, n, (1,) * n)
    series = _borel(step, n, (k, n - k))
    if f in ("odd-real-grassmannian", "odd-oriented-grassmannian"):
        return ClosedFormSeries.one_plus(2 * n + 1) * series
    if f != "oriented-grassmannian":
        return series
    if v == "even-odd":
        return ClosedFormSeries.one_plus(2 * k) * series
    if v == "odd-odd":
        return ClosedFormSeries.one_plus(2 * (n - k)) * series
    return (
        series
        + ClosedFormSeries.monomial(2 * k) * _borel(4, n - 1, (k, n - 1 - k))
        + ClosedFormSeries.monomial(2 * n - 2 * k) * _borel(4, n - 1, (k - 1, n - k))
    )


def build_space(space: SpaceDescriptor):
    """(presentation, its closed form, characteristic family or None).

    Grassmannians and complete flags are their family's presentation over
    a point (fibre_relations with total = 1, euler = 0). The odd
    Grassmannians add r (or rt) to the real even presentation, and RP^2n
    is its k = 0 case. A space past MAX_SPACE_SIZE is refused (check_size).
    """
    series = check_size(space)
    f, k, n, v = space.family, space.k, space.n, space.variant
    label = space.label

    if f == "point":
        pres = make_presentation(Generators(()), (), label, series)
        return pres, series, BasisFamily(pres.generators, (FamilyPart((), (), 0),))

    if f in ("projective-space-complex", "sphere"):
        # CP^(n-1) = Q[c1]/(c1^n), and S^2n in its reduced form Q[eb]/(eb^2)
        name, degree, power = ("c1", 2, n) if f == "projective-space-complex" else ("eb", 2 * n, 2)
        gens = Generators([GeneratorSymbol(name, degree)])
        pres = make_presentation(gens, (gens.gen(name) ** power,), label, series)
        return pres, series, BasisFamily(gens, (FamilyPart((0,), (0,), power - 1),))

    odd = f in ("odd-real-grassmannian", "odd-oriented-grassmannian")
    fibre = space
    if odd:
        fibre = SpaceDescriptor("real-grassmannian-even", k, n)
    elif f == "projective-space-real":
        fibre = SpaceDescriptor("real-grassmannian-even", 0, n, "odd-odd")  # G_1(R^(2n+1))
    gens = Generators(fibre_symbols(fibre))
    relations = fibre_relations(gens, fibre, 1, 0)
    if odd:
        name = "r" if f == "odd-real-grassmannian" else "rt"
        gens = gens.extend([GeneratorSymbol(name, 2 * n + 1)])
        relations.append(gens.gen(name) * gens.gen(name))
    pres = make_presentation(gens, relations, label, series)

    if f in _FLAG_ROOTS:
        return pres, series, None
    width = len(gens)
    p_core = tuple(range(k))
    parts = [FamilyPart(_unit(width), p_core, n - k)]
    if odd or (f == "oriented-grassmannian" and v != "even-even"):
        # the last generator (r, rt, e or eb) times the canonical monomials
        parts.append(FamilyPart(_basis_vector(width, width - 1), p_core, n - k))
    elif f == "oriented-grassmannian":
        # e * (complement monomials up to pb_(n-k-1)), eb * (canonical up to p_(k-1))
        pb_core = tuple(gens.index(f"pb{j}") for j in range(1, n - k))
        parts.append(FamilyPart(_basis_vector(width, gens.index("e")), pb_core, k))
        parts.append(FamilyPart(_basis_vector(width, gens.index("eb")), p_core[:-1], n - k))
    return pres, series, BasisFamily(gens, tuple(parts))


def default_cutoff(pres: RingPresentation) -> int:
    """The larger of the top degree of the presentation's closed form and its
    highest relation degree; PresentationError when that form is None or a
    term is no polynomial, as an equivariant ring's: more of its denominator
    factors 1-t^b than numerator ones 1-t^a hold some Phi_m (m | b, m | a)."""
    series = pres.closed_form
    if series is None or any(
        sum(b % m == 0 for b in t.den) > sum(a % m == 0 for a in t.num)
        for t in series.terms for b in t.den for m in range(1, b + 1) if b % m == 0
    ):
        raise PresentationError(f"{pres.label or 'the ring'} has no polynomial closed form to size a cutoff by")
    return max(top_degree_of(series), pres.max_relation_degree())


def build_ring(space: SpaceDescriptor, cutoff: int | None = None) -> QuotientRing:
    pres, _, _ = build_space(space)
    return QuotientRing(pres, default_cutoff(pres) if cutoff is None else cutoff)
