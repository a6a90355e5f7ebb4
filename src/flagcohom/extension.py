"""Ring extensions over a presented base: Grassmannian, projectivization,
sphere and flag bundles, Whitney complement recursion, torus-equivariant
bases, towers of iterated extensions, and pushouts of presented rings.

`extend` is the one constructor of a bundle extension. It returns a
QuotientRing whose presentation is the base presentation extended by the
fibre's generators and the Whitney-type relations, with right-hand sides
taken from the bundle's total classes, or the base itself when the fibre
adds nothing (the point, or the odd Grassmannian's ends k = 0 and n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import (
    GeneratorSymbol,
    Generators,
    GradedElement,
    PresentationError,
    QuotientRing,
    make_presentation,
)
from .catalog import SpaceDescriptor, build_ring, check_size, fibre_relations, fibre_symbols, top_degree_of
from .expressions import MAX_TERM_PRODUCTS
from .series import ClosedFormSeries

ElementLike = GradedElement | str | int

_STEP = {"complex": 2, "real": 4, "oriented": 4}
_CANON = {"complex": "c", "real": "p", "oriented": "p"}

BUNDLE_EXTENSIONS = ("grassmannian", "projectivize", "sphere", "flag", "odd-grassmannian")
# a tower stage's name, and the bundle extension it applies
TOWER_EXTENSIONS = {"projectivize": "projectivize", "grassmannianize": "grassmannian", "complete-flag": "flag"}


class BundleError(ValueError):
    """Invalid bundle data or extension parameters."""


def _check_kind_rank(kind: str, rank: int) -> None:
    if kind not in _STEP:
        raise BundleError(f"unknown bundle kind {kind!r}")
    if rank < 1:
        raise BundleError("rank must be a positive integer")


@dataclass
class BundleData:
    """A vector bundle over a presented base ring, given by its classes.

    `total_class` is the full total characteristic class (including the 1)
    as an element of the base ring; `euler_class` is required exactly for
    oriented bundles of even rank (it may be the zero element).
    """

    base: QuotientRing
    kind: str
    rank: int
    total_class: GradedElement
    euler_class: GradedElement | None = None

    def __post_init__(self):
        _check_kind_rank(self.kind, self.rank)
        gens = self.base.gens
        self.total_class = _as_element(gens, self.total_class)
        # the total class split by degree, once: it may have 2^rank terms
        self._components = self.total_class.homogeneous_components()
        if self._components.get(0) != gens.one():
            raise BundleError("total class must have degree-0 component 1")
        step = _STEP[self.kind]
        limit = step * (self.rank if self.kind == "complex" else self.rank // 2)
        for d in self._components:
            if d == 0:
                continue
            if d % step or d > limit:
                raise BundleError(
                    f"total class component in degree {d} is invalid for a "
                    f"{self.kind} bundle of rank {self.rank}"
                )
        needs_euler = self.kind == "oriented" and self.rank % 2 == 0
        if needs_euler:
            if self.euler_class is None:
                raise BundleError("oriented bundle of even rank needs an euler_class")
            self.euler_class = _as_element(gens, self.euler_class)
            if not self.euler_class.is_zero and self.euler_class.degree() != self.rank:
                raise BundleError(f"euler class must be homogeneous of degree {self.rank}")
        elif self.euler_class is not None:
            raise BundleError(f"euler_class is only meaningful for oriented even rank")

    def component(self, i: int) -> GradedElement:
        """The i-th characteristic class of the bundle (degree step*i)."""
        return self._components.get(_STEP[self.kind] * i, self.total_class.gens.zero())


def _as_element(gens: Generators, value: ElementLike) -> GradedElement:
    if isinstance(value, GradedElement):
        return value.reindex(gens)
    if isinstance(value, str):
        return gens.parse(value)
    return gens.scalar(value)


def _extend(base: Generators, extra: Sequence[GeneratorSymbol]) -> Generators:
    clash = set(base.names) & {s.name for s in extra}
    if clash:
        raise BundleError(
            f"generator name(s) {sorted(clash)} already exist in the base; "
            "pass a suffix to namespace the new generators"
        )
    return base.extend(extra)


def fibre(extension: str, kind: str, rank: int, k: int | None = None) -> SpaceDescriptor:
    """The catalog space, in reduced parameters, that a bundle extension (one
    of BUNDLE_EXTENSIONS) adds as fibre over a rank-`rank` bundle; BundleError
    if it does not apply. A Grassmannian of 0- or rank-dimensional subspaces
    is the point; a real or oriented one's variant follows the parities of k
    and rank."""
    _check_kind_rank(kind, rank)
    if k is None and extension in ("grassmannian", "odd-grassmannian"):
        raise BundleError(f"the {extension} extension needs the subspace dimension k")
    if extension == "projectivize":
        # the reduced form is the bundle of lines (complex) or of 2-planes (real)
        if kind not in ("complex", "real"):
            raise BundleError("projectivization applies to complex or real bundles")
        if kind == "real" and rank < 2:
            raise BundleError(f"rank {rank} is too small to projectivize")
        extension, k = "grassmannian", 1 if kind == "complex" else 2
    if extension == "grassmannian":
        if not 0 <= k <= rank:
            raise BundleError(f"need 0 <= k <= rank, got k={k}, rank={rank}")
        if k in (0, rank):
            return SpaceDescriptor("point")
        if kind == "complex":
            return SpaceDescriptor("complex-grassmannian", k, rank)
        if rank % 2 == 0 and k % 2 == 1:
            raise BundleError(
                f"a rank-{rank} {kind} bundle has no displayed presentation for "
                f"odd subspace dimension {k}"
            )
        family = "real-grassmannian-even" if kind == "real" else "oriented-grassmannian"
        if rank % 2 == 0:
            variant = "even-even"
        else:
            variant = "even-odd" if k % 2 == 0 else "odd-odd"
        return SpaceDescriptor(family, k // 2, rank // 2, variant)
    if extension == "sphere":
        if kind != "oriented" or rank % 2 == 0:
            raise BundleError("the sphere extension needs an oriented bundle of odd rank")
        if rank < 3:
            raise BundleError(f"the sphere extension needs rank at least 3, got rank {rank}")
        return SpaceDescriptor("sphere", 0, rank // 2)
    if extension == "flag":
        n = rank if kind == "complex" else rank // 2
        if n < 1:
            raise BundleError(f"rank {rank} has no even-rank flag")
        if kind == "complex":
            return SpaceDescriptor("complete-flag-complex", 0, n)
        return SpaceDescriptor(f"complete-flag-{kind}", 0, n, "even" if rank % 2 == 0 else "odd")
    if extension == "odd-grassmannian":
        if kind not in ("real", "oriented"):
            raise BundleError("odd Grassmannian extension needs a real or oriented bundle")
        if rank % 2 or rank < 2:
            raise BundleError("odd Grassmannian extension needs even rank 2n+2")
        n = (rank - 2) // 2
        if not 0 <= k <= n:
            raise BundleError(f"need 0 <= k <= n = {n}, got k={k}")
        return SpaceDescriptor("real-grassmannian-even", k, n)
    raise BundleError(f"unknown extension {extension!r}")


def extend(
    bundle: BundleData, extension: str, k: int | None = None, suffix: str = "", full: bool = False,
    cutoff: int | None = None, gen_name: str | None = None,
) -> QuotientRing:
    """The bundle's base extended by the fibre that the bundle extension
    `extension` names (see `fibre`), with the bundle's classes on the right
    of the Whitney-type relations. A fibre past catalog.MAX_SPACE_SIZE is
    refused before anything is built. Every new generator name ends in
    `suffix`, unless `gen_name` names the one new generator of projectivize
    or sphere. Only flags read `full`. The ring's closed form is the base's
    times the fibre's (Leray-Hirsch), or None when the base has none or the
    extension is odd-grassmannian.

    - grassmannian: the bundle of k-dimensional subspaces, on canonical and
      complement classes subject to c*cbar = c(V) (Chern or Pontryagin), plus
      the Euler relations in the oriented case. k = 0 or k = rank gives the
      base ring unchanged.
    - projectivize: projectivization (complex) or rank-2 Grassmannianization
      (real) in the reduced single-generator form, one new generator g with
      g^n - v_1 g^(n-1) + v_2 g^(n-2) -+ ... + (-1)^n v_n = 0.
    - sphere: the sphere bundle of an oriented bundle of odd rank at least 3,
      one generator eb of degree rank-1 with eb^2 = p_n(V).
    - flag: the complete (even-rank) flag bundle. Complex:
      x_i of degree 2 with prod(1+x_i) = c(V). Real: u_i of degree 4 with
      prod(1+u_i) = p(V). Oriented: the reduced form on Euler generators e_i
      with prod(1+e_i^2) = p(V) (and prod e_i = e(V) for even rank);
      full=True also carries the redundant u_i = e_i^2.
    - odd-grassmannian: the Pontryagin extension presenting
      G_(2k+1)(V^(2n+2)) over the ring of the real projectivization RP(V)
      (or of S(V) in the oriented case). `bundle.base` is that ring;
      producing it from the base is a Gysin computation that does not
      determine the ring structure, hence out of scope here. k = 0 and k = n
      give the base ring unchanged.
    """
    kind, rank, base = bundle.kind, bundle.rank, bundle.base
    space = fibre(extension, kind, rank, k)
    fibre_series = check_size(space)
    if extension == "projectivize":
        # a rank-1 complex or rank-2 real bundle has the point as fibre, but
        # P(V) still adds its generator
        n = rank if kind == "complex" else rank // 2
        name = gen_name or f"{_CANON[kind]}1{suffix}"
        data = whitney_complement(bundle.total_class, 1, n, kind, names=[name])
        gens = data.gens
        relations = data.residuals
        label = f"P(V^{rank})"
    elif space.family == "point" or (extension == "odd-grassmannian" and k in (0, space.n)):
        return base
    elif extension == "sphere":
        name = gen_name or f"eb{suffix}"
        gens = _extend(base.gens, [GeneratorSymbol(name, 2 * space.n)])
        eb = gens.gen(name)
        relations = [eb * eb - bundle.component(space.n).reindex(gens)]
        label = f"S(V^{rank})"
    else:
        gens = _extend(base.gens, fibre_symbols(space, suffix, full))
        euler = None if bundle.euler_class is None else bundle.euler_class.reindex(gens)
        relations = fibre_relations(gens, space, bundle.total_class.reindex(gens), euler, suffix, full)
        if extension == "odd-grassmannian":
            label = f"G_{2 * k + 1}(V^{rank})"
        elif extension == "flag":
            label = f"Fl(V^{rank})"
        else:
            label = f"{space.label} bundle"
    known = base.presentation.closed_form is not None and extension != "odd-grassmannian"
    series = base.presentation.closed_form * fibre_series if known else None
    carried = [r.reindex(gens) for r in base.presentation.relations]
    pres = make_presentation(gens, [*carried, *relations], f"{label} over {base.label or 'base'}", series)
    if cutoff is None:
        cutoff = max(base.cutoff + top_degree_of(fibre_series), pres.max_relation_degree())
    return QuotientRing(pres, cutoff)


@dataclass(frozen=True)
class WhitneyData:
    """Solved complement classes and the residual relations they force."""

    gens: Generators  # base generators followed by the canonical classes
    complements: tuple[GradedElement, ...]
    residuals: tuple[GradedElement, ...]


def whitney_complement(
    total_class: GradedElement,
    k: int,
    n: int,
    kind: str = "complex",
    names: Sequence[str] | None = None,
) -> WhitneyData:
    """Solve c*cbar = c(V) for the complement classes, degree by degree.

    Returns the solved cbar_1..cbar_(n-k) in terms of the canonical classes
    and the bundle's classes, plus the residual expressions (indices
    n-k+1..n) that must vanish in the quotient; the residuals are sign
    normalized so the pure power of the first canonical class is positive.
    """
    if not 0 <= k <= n:
        raise BundleError(f"need 0 <= k <= n, got k={k}, n={n}")
    step = _STEP[kind]
    if names is None:
        names = [f"{_CANON[kind]}{i}" for i in range(1, k + 1)]
    gens = _extend(total_class.gens, [GeneratorSymbol(nm, step * i) for i, nm in enumerate(names, 1)])
    parts = total_class.reindex(gens).homogeneous_components()
    canon = [gens.gen(nm) for nm in names]

    solved: list[GradedElement] = [gens.one()]
    for j in range(1, n + 1):
        value = parts.get(step * j, gens.zero())
        for i in range(1, min(j, k) + 1):
            value = value - canon[i - 1] * solved[j - i]
        solved.append(value)
    complements = tuple(solved[1 : n - k + 1])
    residuals = tuple(
        solved[j] if j % 2 == 0 else -solved[j] for j in range(n - k + 1, n + 1)
    )
    return WhitneyData(gens, complements, residuals)


# -- torus-equivariant rings -------------------------------------------------


def equivariant_base(torus_rank: int, cutoff: int) -> QuotientRing:
    """The polynomial base ring H_T(pt) on degree-2 generators a_1..a_n, with
    closed form 1/(1-t^2)^n. It is infinite dimensional, so the cutoff is
    mandatory: QuotientRing refuses None with a PresentationError."""
    gens = Generators([GeneratorSymbol(f"a{i}", 2) for i in range(1, torus_rank + 1)])
    series = ClosedFormSeries.from_factors(den=(2,) * torus_rank)
    pres = make_presentation(gens, (), f"H_T^{torus_rank}(pt)", series)
    return QuotientRing(pres, cutoff)


def equivariant_space(
    kind: str,
    torus_rank: int,
    construction: str = "flag",
    k: int | None = None,
    variant: str = "even",
    cutoff: int | None = None,
) -> QuotientRing:
    """Equivariant flag or Grassmannian ring over the Borel base.

    The bundle's equivariant total class is prod(1+a_i) (complex) or
    prod(1+a_i^2) (real, oriented), with Euler class prod(a_i) in the
    oriented even case. The fibre's size is checked before the total class,
    with its 2^torus_rank terms, is expanded, and then the torus rank:
    the expansion multiplies 2^(torus_rank+1) - 2 pairs of terms, at most
    expressions.MAX_TERM_PRODUCTS, the bound the same product meets when
    written as an expression. `variant` is "even" or "odd", the parity of
    a real or oriented bundle's rank; a complex bundle reads none, so takes
    "even" alone.
    """
    if cutoff is None:
        raise PresentationError("equivariant rings need an explicit cutoff")
    if variant not in ("even", "odd"):
        raise BundleError(f"unknown variant {variant!r}: expected 'even' or 'odd'")
    if kind == "complex" and variant == "odd":
        raise BundleError("a complex bundle reads no variant: 'odd' is for real and oriented bundles")
    if kind == "complex":
        rank = torus_rank
    elif kind in ("real", "oriented"):
        rank = 2 * torus_rank + (1 if variant == "odd" else 0)
    else:
        raise BundleError(f"unknown bundle kind {kind!r}")
    if construction not in ("flag", "grassmannian"):
        raise BundleError(f"unknown construction {construction!r}")
    check_size(fibre(construction, kind, rank, k))
    if 2 ** (torus_rank + 1) - 2 > MAX_TERM_PRODUCTS:
        raise BundleError(
            f"torus rank {torus_rank}: the total class multiplies more than "
            f"{MAX_TERM_PRODUCTS} pairs of terms"
        )
    base = equivariant_base(torus_rank, cutoff)
    one = base.gens.one()
    roots = [base.gens.gen(name) for name in base.gens.names]
    euler = None
    if kind == "complex":
        total = math.prod((one + a for a in roots), start=one)
    else:
        total = math.prod((one + a * a for a in roots), start=one)
        if kind == "oriented" and variant == "even":
            euler = math.prod(roots, start=one)
    return extend(BundleData(base, kind, rank, total, euler), construction, k, cutoff=cutoff)


def zero_generators(ring: QuotientRing, names: Sequence[str]) -> QuotientRing:
    """Specialize the named generators to zero and re-present the ring."""
    drop = {ring.gens.index(name) for name in names}
    gens = Generators([s for i, s in enumerate(ring.gens.symbols) if i not in drop])
    images = {
        name: gens.zero() if i in drop else gens.gen(name) for i, name in enumerate(ring.gens.names)
    }
    relations = [_apply_map(rel, images, gens) for rel in ring.presentation.relations]
    pres = make_presentation(gens, relations, f"{ring.label} at 0")
    return QuotientRing(pres, ring.cutoff)


# -- towers ------------------------------------------------------------------


@dataclass
class TowerStage:
    """One stage of a tower: how to extend, and the bundle over the
    previous stage, with class expressions in the generators accumulated
    so far."""

    extension: str  # projectivize | grassmannianize | complete-flag
    kind: str = "complex"
    rank: int = 2
    total_class: ElementLike = 1
    euler_class: ElementLike | None = None
    k: int | None = None


def point_ring() -> QuotientRing:
    return build_ring(SpaceDescriptor("point"))


def bott_tower(
    stages: Sequence[TowerStage],
    base: QuotientRing | None = None,
    start_index: int = 1,
) -> QuotientRing:
    """Iterated tower of associated bundles, starting from `base` (default a
    point). Each stage's name must be a key of TOWER_EXTENSIONS, and
    grassmannianize needs k; both are checked first, naming the stage. The
    stage then applies its bundle extension through `extend`. Stage i's new
    generators carry the stage index: x{i} for a complex projectivization,
    u{i} real, and suffix _{i} otherwise."""
    ring = base if base is not None else point_ring()
    for offset, stage in enumerate(stages):
        idx = start_index + offset
        if stage.extension not in TOWER_EXTENSIONS:
            raise BundleError(f"stage {idx}: unknown extension {stage.extension!r}")
        if stage.extension == "grassmannianize" and stage.k is None:
            raise BundleError(f"stage {idx}: grassmannianize needs k")
        gens = ring.gens
        euler = None if stage.euler_class is None else _as_element(gens, stage.euler_class)
        bundle = BundleData(ring, stage.kind, stage.rank, _as_element(gens, stage.total_class), euler)
        name = ("x" if stage.kind == "complex" else "u") + str(idx)
        ring = extend(bundle, TOWER_EXTENSIONS[stage.extension], stage.k, suffix=f"_{idx}", gen_name=name)
    return ring


# -- pushouts -----------------------------------------------------------------


def _apply_map(
    element: GradedElement, images: Mapping[str, GradedElement], gens: Generators
) -> GradedElement:
    """The image of `element` under the substitution of each generator by
    its image in `images`, an element over `gens`."""
    values = []
    for exps, coeff in element.terms.items():
        value = gens.scalar(coeff)
        for name, e in zip(element.gens.names, exps):
            if e:
                value = value * images[name] ** e
        values.append(value)
    return gens._sum(values)


def _prepare_map(
    source: QuotientRing, target: QuotientRing, images: Mapping[str, ElementLike]
) -> dict[str, GradedElement]:
    prepared = {}
    for name, value in images.items():
        i = source.gens.index(name)
        img = _as_element(target.gens, value)
        if not img.is_zero and img.degree() != source.gens.degrees[i]:
            raise BundleError(
                f"image of {name} has degree {img.degree()}, "
                f"expected {source.gens.degrees[i]}"
            )
        prepared[name] = img
    missing = set(source.gens.names) - set(prepared)
    if missing:
        raise BundleError(f"map is missing images for generator(s) {sorted(missing)}")
    return prepared


def ring_pushout(
    b0: QuotientRing,
    b1: QuotientRing,
    e0: QuotientRing,
    map_to_b1: Mapping[str, ElementLike],
    map_to_e0: Mapping[str, ElementLike],
    cutoff: int | None = None,
) -> QuotientRing:
    """Tensor product of b1 and e0 over b0, as a presented ring.

    Generators are the disjoint union of b1's and e0's (e0 names that
    clash get an `_r` suffix); relations are both relation sets plus one
    identification per generator of b0. Both maps must be ring maps: the
    images of b0's relations are checked to vanish, up to the target
    cutoffs.
    """
    phi1 = _prepare_map(b0, b1, map_to_b1)
    phi0 = _prepare_map(b0, e0, map_to_e0)
    for rel in b0.presentation.relations:
        for target, phi, side in ((b1, phi1, "b1"), (e0, phi0, "e0")):
            image = _apply_map(rel, phi, target.gens)
            if not target.is_zero(image):
                raise BundleError(
                    f"map to {side} is not a ring map: relation {rel} has "
                    f"nonzero image {target.normal_form(image)}"
                )

    taken = set(b1.gens.names)
    rename: dict[str, str] = {}
    for s in e0.gens.symbols:
        name = s.name
        while name in taken:
            name += "_r"
        taken.add(name)
        rename[s.name] = name
    symbols = b1.gens.symbols + tuple(
        GeneratorSymbol(rename[s.name], s.degree, s.rewrite_priority) for s in e0.gens.symbols
    )
    gens = Generators(symbols)
    renamed = Generators(symbols[len(b1.gens) :])

    def from_e0(el: GradedElement) -> GradedElement:
        # renaming keeps every position, so the exponents carry over as they are
        return GradedElement(renamed, el.nums, el.den).reindex(gens)

    relations = [r.reindex(gens) for r in b1.presentation.relations]
    relations += [from_e0(r) for r in e0.presentation.relations]
    for name in b0.gens.names:
        relations.append(phi1[name].reindex(gens) - from_e0(phi0[name]))

    label = f"{b1.label or 'b1'} (x)_{{{b0.label or 'b0'}}} {e0.label or 'e0'}"
    pres = make_presentation(gens, relations, label)
    if cutoff is None:
        cutoff = max(b1.cutoff, e0.cutoff)
    return QuotientRing(pres, cutoff)
