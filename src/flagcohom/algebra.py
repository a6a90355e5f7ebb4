"""Graded-commutative polynomial algebra over exact rationals.

Elements are sparse rational combinations of monomials in a fixed ordered
family of graded generators. Odd-degree generators anticommute and square
to zero; even-degree generators are central. A finitely presented quotient
keeps a homogeneous Gröbner basis of its ideal in the elimination order
(the weight of priority-2 generators, then of priority-1 generators, then
lex), built one degree at a time in increasing degree, in the manner of
Buchberger's algorithm with the row reduction and symbolic preprocessing
of Faugère's F4, in two layers. The basis layer reduces, in one row
reduction per degree, only that degree's relations, pairs and odd
products and the multiples of basis elements their monomials reach, and
lists the degree's standard monomials, those no lead divides: its
additive monomial basis. The table layer builds a degree's rewrite table
(the normal-form map) from them, by one row reduction of one multiple of
a basis element per other monomial, whose reduced echelon form is the
ideal's degree-d slice's own. Each row is built once, as the column list
the reduction reads: a multiple u*g of a basis element comes out in column
order, which multiplying by a monomial keeps. A table holds a row for every
monomial of its degree, keyed by the ring's packed key of the monomial, as
(position, value) pairs over the positions of its basis monomials: a basis
monomial's unit row or a pivot's primitive reduced row with positive lead.
The packed key is one integer per monomial, linear in its exponents. Its
bit fields, from the top down, are the degree, the priority-2 and the
priority-1 weight (each only when some generator has that priority) and the
exponents, generator 0 highest, each one guard bit wider than its largest
value within the cutoff. So the key of a product of monomials within the
cutoff is the sum of their keys, a degree's descending keys are its column
order, and divisibility is one subtraction that clears no guard bit. The
Gröbner basis enumerates, reduces and hands the tables keys alone.
An element holds integer numerators over one denominator, in lowest terms.
A product of elements forms the Koszul product of their numerators, in
integers, over the product of their denominators. A product in a quotient
forms none: `normal_form(a, b)` keys each term of the two factors once and
adds, for each pair of terms, the Koszul-signed integer product times the
row at the sum of their keys into one list per degree over a common lead,
grown to the lcm of the leads met, and puts the output over that lead times
the denominators. Neither a product nor a normal form builds a `Fraction`.
`Fraction`s appear only where coefficients come in and go out.

One rule finds zeros without a reduction: a monomial m is zero in the
quotient when m/x is, for some generator x of m, since m is plus or minus
x times m/x and m/x lies in the ideal (odd generators included). Applied
to whole degrees, degree d > 0 is zero when, for each generator x with
deg x <= d, degree d - deg x is: the basis layer takes no step there. A
degree with no standard monomial, found so by the rule or by a step, is
zero exactly, and its table is the shared zero table, built with no
reduction. Applied to the monomials of a degree whose table is built, the
rule gives the dead ones, x times a zero monomial of degree d - deg x:
the table layer builds no row over their columns and gives them unit
rows. The reduced echelon form of the slice holds those unit rows anyway,
with a zero in their columns in every other row, so the tables do not
change.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

from . import linalg
from .series import ClosedFormSeries

Scalar = Union[int, Fraction]


class PresentationError(ValueError):
    """Malformed generator family, relation, or ring presentation."""


class CutoffExceededError(ValueError):
    """A degree beyond the ring's computed range was requested."""


# The most monomials one degree may have. Every list of a degree's keys the
# Gröbner basis builds, of its monomials for a table or of its candidate
# standard monomials for a step, is counted from the lists below it and
# refused before it is built when it has more.
MAX_DEGREE_MONOMIALS = 100_000


class TooManyMonomialsError(ValueError):
    """A degree has more than `MAX_DEGREE_MONOMIALS` monomials."""


@dataclass(frozen=True)
class GeneratorSymbol:
    """A named generator with a positive cohomological degree.

    ``rewrite_priority`` steers pivot selection during elimination: monomials
    containing high-priority generators are rewritten in terms of the others
    whenever the relations allow it (2 = complement classes, 1 = Euler
    classes, 0 = canonical classes, kept in the basis when possible).
    """

    name: str
    degree: int
    rewrite_priority: int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum() or self.name[0].isdigit():
            raise PresentationError(f"bad generator name {self.name!r}")
        if self.degree < 1:
            raise PresentationError(f"generator {self.name}: degree must be a positive integer")
        if self.rewrite_priority not in (0, 1, 2):
            raise PresentationError(f"generator {self.name}: rewrite_priority must be 0, 1 or 2")

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


class Generators:
    """Ordered generator universe shared by monomials and elements."""

    __slots__ = ("symbols", "degrees", "names", "_index", "_odd")

    def __init__(self, symbols: Iterable[GeneratorSymbol]):
        self.symbols: tuple[GeneratorSymbol, ...] = tuple(symbols)
        self.names: tuple[str, ...] = tuple(s.name for s in self.symbols)
        if len(set(self.names)) != len(self.names):
            dup = sorted({n for n in self.names if self.names.count(n) > 1})
            raise PresentationError(f"duplicate generator name(s): {', '.join(dup)}")
        self.degrees: tuple[int, ...] = tuple(s.degree for s in self.symbols)
        self._index = {s.name: i for i, s in enumerate(self.symbols)}
        self._odd = tuple(i for i, s in enumerate(self.symbols) if s.is_odd)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[GeneratorSymbol]:
        return iter(self.symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Generators) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Generators({', '.join(f'{s.name}:{s.degree}' for s in self.symbols)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PresentationError(f"undeclared generator {name!r}") from None

    def monomial_degree(self, exps: Sequence[int]) -> int:
        return sum(map(mul, exps, self.degrees))

    def zero(self) -> GradedElement:
        return GradedElement(self, {})

    def one(self) -> GradedElement:
        return self.scalar(1)

    def scalar(self, value: Scalar) -> GradedElement:
        value = Fraction(value)
        if not value:
            return GradedElement(self, {})
        return GradedElement(self, {(0,) * len(self.symbols): value.numerator}, value.denominator)

    def gen(self, name: str) -> GradedElement:
        i = self.index(name)
        exps = (0,) * i + (1,) + (0,) * (len(self.symbols) - i - 1)
        return GradedElement(self, {exps: 1})

    def element(self, terms: Mapping[Sequence[int], Scalar]) -> GradedElement:
        """Build an element from an exponent-vector -> coefficient mapping."""
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(self.symbols):
                raise PresentationError(f"exponent vector {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise PresentationError(f"negative exponent in {exps}")
            if any(exps[i] > 1 for i in self._odd):
                raise PresentationError(f"odd generator squared in {exps}")
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
        # the lcm of the denominators of values in lowest terms leaves no
        # common factor; a value that cancels has denominator 1
        den = lcm(*(c.denominator for c in clean.values()))
        nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items() if c}
        return GradedElement(self, nums, den)

    def _sum(self, elements: Iterable[GradedElement]) -> GradedElement:
        """The sum of elements over this universe, added into one dict over
        the lcm of their denominators: linear in their terms, where a chain
        of `+` copies the sum so far at each step."""
        elements = list(elements)
        den = lcm(*(el.den for el in elements))
        nums: dict[tuple[int, ...], int] = {}
        for el in elements:
            scale = den // el.den
            for exps, n in el.nums.items():
                nums[exps] = nums.get(exps, 0) + n * scale
        return _lowest(self, nums, den)

    def parse(self, text: str) -> GradedElement:
        from .expressions import parse_element

        return parse_element(self, text)

    def monomial(self, exps: Sequence[int]) -> Monomial:
        return Monomial(self, tuple(exps))

    def extend(self, extra: Iterable[GeneratorSymbol]) -> Generators:
        return Generators(self.symbols + tuple(extra))


def _lowest(gens: Generators, nums: dict[tuple[int, ...], int], den: int) -> GradedElement:
    """The element nums / den, for a positive den, in lowest terms: zero
    numerators dropped and the gcd of den and the numerators divided out."""
    nums = {e: n for e, n in nums.items() if n}
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {e: n // g for e, n in nums.items()}
    return GradedElement(gens, nums, den // g)


def _koszul_terms(odd: tuple[int, ...], terms: Iterable[tuple[tuple[int, ...], int]]) -> list:
    """Integer terms as the [(exps, n, odd indices present), ...] that
    `_koszul_product` takes; without odd generators `odd`, no index lists."""
    return [(e, n, [i for i in odd if e[i]] if odd else ()) for e, n in terms]


def _koszul_sign(ea: tuple[int, ...], odd_a, odd_b) -> int:
    """The sign of monomials a*b with odd indices odd_a, odd_b: 0 if they share
    one, else the parity of moving b's odd factors left past a's later ones."""
    if any(ea[i] for i in odd_b):
        return 0
    return -1 if sum(1 for i in odd_b for j in odd_a if j > i) % 2 else 1


def _koszul_product(ia, ib) -> dict[tuple[int, ...], int]:
    """Koszul-signed product of two integer term lists
    [(exps, n, odd indices present), ...]; terms that square an odd
    generator vanish, and the sums may be zero."""
    out: dict[tuple[int, ...], int] = {}
    for ea, na, odd_a in ia:
        for eb, nb, odd_b in ib:
            n = na * nb
            if odd_a and odd_b:
                n *= _koszul_sign(ea, odd_a, odd_b)
                if not n:
                    continue
            exps = tuple(map(add, ea, eb))
            out[exps] = out.get(exps, 0) + n
    return out


@dataclass(frozen=True)
class Monomial:
    """A single monomial bound to its generator universe."""

    gens: Generators
    exps: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.gens.monomial_degree(self.exps)

    def as_element(self) -> GradedElement:
        return GradedElement(self.gens, {self.exps: 1})

    def __str__(self) -> str:
        return format_monomial(self.gens, self.exps)

    def __repr__(self) -> str:
        return f"Monomial({self})"


def format_monomial(gens: Generators, exps: Sequence[int]) -> str:
    parts = []
    for name, e in zip(gens.names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_coefficient(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class GradedElement:
    """Sparse rational combination of monomials over a generator universe:
    integer numerators `nums` (exponent vector -> int) over one denominator
    `den`. The constructor checks nothing and takes them in lowest terms:
    den > 0, no zero numerator, gcd(den, *nums) == 1. A value has one form,
    so equality compares fields. `terms`, the coefficients as `Fraction`s,
    is a view that builds a new dict on each call."""

    __slots__ = ("gens", "nums", "den")

    def __init__(self, gens: Generators, nums: dict[tuple[int, ...], int], den: int = 1):
        self.gens = gens
        self.nums = nums
        self.den = den

    # -- queries ---------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """A new dict: exponent vector -> coefficient."""
        den = self.den
        return {e: Fraction(n, den) for e, n in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        """Degree of a homogeneous element (0 for the zero element)."""
        degrees = {self.gens.monomial_degree(e) for e in self.nums}
        if not degrees:
            return 0
        if len(degrees) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def homogeneous_components(self) -> dict[int, GradedElement]:
        parts: dict[int, dict[tuple[int, ...], int]] = {}
        for exps, n in self.nums.items():
            parts.setdefault(self.gens.monomial_degree(exps), {})[exps] = n
        return {d: _lowest(self.gens, t, self.den) for d, t in sorted(parts.items())}

    def _sorted_exps(self) -> list[tuple[int, ...]]:
        # by degree, then in display order: descending lex, earlier generators dominant
        return sorted(self.nums, key=lambda e: (-self.gens.monomial_degree(e), e), reverse=True)

    # -- arithmetic ------------------------------------------------------

    def _check_universe(self, other: GradedElement) -> None:
        if self.gens != other.gens:
            raise ValueError("elements live over different generator universes")

    def __add__(self, other) -> GradedElement:
        if isinstance(other, (int, Fraction)):
            other = self.gens.scalar(other)
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check_universe(other)
        den = self.den
        if other.den != den:
            return self.gens._sum((self, other))
        nums = dict(self.nums)
        for exps, n in other.nums.items():
            s = nums[exps] + n if exps in nums else n
            if s:
                nums[exps] = s
            else:
                nums.pop(exps, None)
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                return GradedElement(self.gens, {e: n // g for e, n in nums.items()}, den // g)
        return GradedElement(self.gens, nums, den)

    __radd__ = __add__

    def __neg__(self) -> GradedElement:
        return GradedElement(self.gens, {e: -n for e, n in self.nums.items()}, self.den)

    def __sub__(self, other) -> GradedElement:
        if isinstance(other, (int, Fraction)):
            other = self.gens.scalar(other)
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> GradedElement:
        return (-self).__add__(other)

    def __mul__(self, other) -> GradedElement:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            nums = {e: n * c.numerator for e, n in self.nums.items()}
            return _lowest(self.gens, nums, self.den * c.denominator)
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check_universe(other)
        odd = self.gens._odd
        product = _koszul_product(_koszul_terms(odd, self.nums.items()), _koszul_terms(odd, other.nums.items()))
        return _lowest(self.gens, product, self.den * other.den)

    def __rmul__(self, other) -> GradedElement:
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other) -> GradedElement:
        if isinstance(other, (int, Fraction)):
            return self.__mul__(Fraction(1, 1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> GradedElement:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.gens.one()
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.gens.scalar(other)
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.gens == other.gens and self.den == other.den and self.nums == other.nums

    __hash__ = None  # type: ignore[assignment]

    def reindex(self, target: Generators) -> GradedElement:
        """Re-express over `target`, matching generators by name and degree."""
        if target == self.gens:
            return self
        width = len(self.gens)
        if target.symbols[:width] == self.gens.symbols:
            # an extension of this universe: every term gains trailing zeros
            pad = (0,) * (len(target) - width)
            return GradedElement(target, {e + pad: n for e, n in self.nums.items()}, self.den)
        # each target position's source position, or the padding zero past
        # the end of the source exponents
        pick = [width] * len(target)
        for i, (s, used) in enumerate(zip(self.gens.symbols, map(any, zip(*self.nums)))):
            if used:
                j = target.index(s.name)
                if target.symbols[j].degree != s.degree:
                    raise PresentationError(
                        f"generator {s.name} has degree {target.symbols[j].degree} "
                        f"in the target universe, expected {s.degree}"
                    )
                pick[j] = i
        # distinct names map to distinct positions, so no two terms meet
        return GradedElement(
            target, {tuple(map((e + (0,)).__getitem__, pick)): n for e, n in self.nums.items()}, self.den
        )

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        terms = self.terms
        chunks = []
        for exps in self._sorted_exps():
            c = terms[exps]
            mono = format_monomial(self.gens, exps)
            if mono == "1":
                body = format_coefficient(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{format_coefficient(abs(c))}*{mono}"
            chunks.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(chunks)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"GradedElement({self})"


@dataclass(frozen=True)
class RingPresentation:
    """Ordered generators plus homogeneous relations of positive degree, and
    the ring's Poincare series in closed form, or None when unknown."""

    generators: Generators
    relations: tuple[GradedElement, ...]
    label: str = ""
    closed_form: ClosedFormSeries | None = None

    def max_relation_degree(self) -> int:
        return max((r.degree() for r in self.relations), default=0)

    def describe(self) -> str:
        gens = ", ".join(f"{s.name}({s.degree})" for s in self.generators)
        rels = "; ".join(str(r) for r in self.relations)
        return f"[{gens} | {rels}]"


def make_presentation(
    generators: Iterable[GeneratorSymbol] | Generators,
    relations: Iterable[GradedElement] = (),
    label: str = "",
    closed_form: ClosedFormSeries | None = None,
) -> RingPresentation:
    """Validate and normalize a presentation.

    Relations may be inhomogeneous (total-class equations); they are split
    into homogeneous components here. A nonzero component of degree zero
    means the equation is inconsistent and is rejected. `closed_form` is
    the ring's Poincare series, kept as given, or None when unknown.
    """
    gens = generators if isinstance(generators, Generators) else Generators(generators)
    split: list[GradedElement] = []
    # the fields of the components kept: an element in lowest terms has one
    # form, so they name it
    seen: set[tuple[int, frozenset]] = set()
    for rel in relations:
        rel = rel.reindex(gens)
        for d, comp in rel.homogeneous_components().items():
            if d == 0:
                raise PresentationError(
                    f"relation has a nonzero degree-0 component ({comp}); "
                    "the presentation is inconsistent"
                )
            key = (comp.den, frozenset(comp.nums.items()))
            if key not in seen:
                seen.add(key)
                split.append(comp)
    return RingPresentation(gens, tuple(split), label, closed_form)


@dataclass(frozen=True)
class _DegreeTable:
    basis: tuple[tuple[int, ...], ...]  # exponent vectors in display order
    # key -> (lead, ((position, value), ...)) for every monomial of the
    # degree, by the ring's packed key (`QuotientRing._key`) of its
    # exponents, as the Gröbner basis enumerates them, so the table keys
    # nothing: the monomial equals the sum of value/lead times
    # basis[position]. A basis monomial's row is (1, ((its position, 1),));
    # a zero monomial's is (1, ()); a pivot's is its reduced row, primitive
    # with positive lead, with its other entries negated. Rows are in column
    # order, and equal pairs are shared within a table
    rows: dict[int, tuple[int, tuple[tuple[int, int], ...]]]


# The table of every degree with no standard monomial, and of every
# negative degree.
_ZERO_TABLE = _DegreeTable((), {})


class _GroebnerBasis:
    """A homogeneous Gröbner basis of a presentation's ideal, truncated at a
    cutoff, in the elimination order, in two layers: the basis and its
    standard monomials, and the tables built from them.

    A monomial is its packed key; `_exps` reads one back only for a new
    lead, an odd multiplier's sign and a table's basis. A lead l divides m
    exactly when no field of k_m - k_l borrows, ((k_m | G) - k_l) & G == G
    for the guard-bit mask G, and then k_m - k_l is the key of m/l.

    The basis layer, `standard(d)`, extends the basis in increasing degree
    and lists each degree's standard monomials, those no lead divides,
    which are its basis in the quotient. A degree the zero rule rules zero
    takes no step and has none. `step(d)` reduces, in one call to
    `linalg.rref`, the relations of degree d, both halves u*g of every pair
    of elements whose leads have their lcm in degree d, and x*g for every
    odd generator x in the lead of an element g of degree d - deg x (x
    kills the lead but not always the tail), with a reducer u*g for each
    monomial these rows, or the reducers, reach that a lead divides (F4's
    symbolic preprocessing, `_reduce`). A reduced row whose lead no older
    lead divides is a new element. In a ring with no odd generator a pair
    whose leads share no generator is dropped (Buchberger's first
    criterion). The step's candidates are x_i times the standard monomials
    of degree d - deg x_i in generators i.., built from the lower lists as
    `_monomials` builds every key list, counted and refused past
    `MAX_DEGREE_MONOMIALS` before the step reduces anything. `_multiple`
    builds each u*g as a row in descending key order, adding u's key to
    each term's, with the sign rule of element products; only relations
    are sorted.

    The table layer, `table(d)`, builds degree d's table when the degree
    has a standard monomial: one reducer u*g per other live monomial of
    the degree, in one call to `linalg.rref`, with no relation, pair or new
    element. The reducers lie in the ideal's degree-d slice and lead every
    column but the standard ones, so their reduced echelon form is the
    slice's own, and the table is that of reducing every relation multiple.
    A degree-d monomial m is dead when m/x is zero for a generator x of m:
    `_dead` adds x's key to the zero monomials of each degree d - deg x,
    those its table kept in `zeros`, or all of them if that degree had no
    standard monomial. A dead m lies in the ideal, so the slice's reduced
    echelon form holds its unit row and has a zero in its column in every
    other row: a dead column gets no reducer and no entry, and the table
    writes its unit row.
    """

    def __init__(self, presentation: RingPresentation, cutoff: int):
        self.gens = gens = presentation.generators
        self.cutoff = cutoff
        degrees, n = gens.degrees, len(gens)
        # the key's fields from the lowest up, as the module docstring lays
        # them out: the exponents, as (offset, mask) by generator, then the
        # priority-1 and priority-2 weights where used, and the degree
        self.fields: list[tuple[int, int]] = [(0, 0)] * n
        offset = self.guard = 0
        for i in reversed(range(n)):
            width = min(cutoff // degrees[i], 1 if degrees[i] % 2 else cutoff).bit_length() + 1
            self.fields[i] = (offset, (1 << width) - 1)
            offset += width
            self.guard |= 1 << (offset - 1)
        self.weights = [1 << start for start, _ in self.fields]
        weighted = [[g * (s.rewrite_priority == q) for g, s in zip(degrees, gens)] for q in (1, 2)]
        for part in [*filter(any, weighted), degrees]:
            self.shift = offset
            self.weights = [w + (x << offset) for w, x in zip(self.weights, part)]
            offset += cutoff.bit_length() + 1
            self.guard |= 1 << (offset - 1)
        # an odd generator's exponent is its field's low bit
        self.odd = [(i, 1 << self.fields[i][0]) for i in gens._odd]
        # the leads' keys, and their exponent vectors for the pairs' lcms
        self.leads: list[int] = []
        self.lead_exps: list[tuple[int, ...]] = []
        # the leads' keys by their first generator
        self.first_leads: list[list[int]] = [[] for _ in range(n)]
        # keyed terms of each element, lead first, with their odd indices
        self.elements: list[list] = []
        # rows still to reduce, by degree: relations as keyed terms, and
        # multiples u*g as (element, key of u); one term gives a relation's degree
        self.relations: dict[int, list[list[tuple[int, int]]]] = {}
        for rel in presentation.relations:
            if (d := gens.monomial_degree(next(iter(rel.nums)))) <= cutoff:
                self.relations.setdefault(d, []).append([(self.key(e), v) for e, v in rel.nums.items()])
        self.pending: dict[int, set[tuple[int, int]]] = {}
        # the keys of each degree's standard monomials, in display order, and
        # where those in generators i.. begin
        self.standard_keys: list[list[int]] = []
        self.standard_starts: list[list[int]] = []
        # the table layer's: the keys of the zero monomials of each degree whose
        # table was built, in column order, and the keys of each degree
        # enumerated, in display order, and where those in generators i.. begin
        self.zeros: dict[int, list[int]] = {}
        self.degree_keys: list[list[int]] = []
        self.starts: list[list[int]] = []

    def key(self, exps: Sequence[int]) -> int:
        return sum(map(mul, exps, self.weights))

    def _exps(self, key: int) -> tuple[int, ...]:
        return tuple([(key >> offset) & mask for offset, mask in self.fields])

    def _monomials(self, lists: list[list[int]], starts: list[list[int]], d: int) -> tuple[list[int], list[int]]:
        """Degree d's keys built from the lower `lists` (every monomial, or
        the standard ones), in display order, and where those in generators
        i.. begin: the monomials whose first generator is x_0, then those
        whose first is x_1, and so on, the unit last; those whose first is
        x_i are x_i times the degree-(d - deg x_i) keys in generators i..
        (i+1.. for an odd x_i), which begin at `starts[.][i]`. The lower
        lists count the keys first, and more than `MAX_DEGREE_MONOMIALS`
        are refused before they are built."""
        degrees, weights = self.gens.degrees, self.weights
        count = sum(len(lists[d - g]) - starts[d - g][i + g % 2] for i, g in enumerate(degrees) if g <= d)
        if count > MAX_DEGREE_MONOMIALS:
            raise TooManyMonomialsError(f"degree {d} has {count} monomials, more than the limit {MAX_DEGREE_MONOMIALS}")
        row, start = [], [0]
        for i, (g, w) in enumerate(zip(degrees, weights)):
            if g <= d:
                row += [k + w for k in lists[d - g][starts[d - g][i + g % 2]:]]
            start.append(len(row))
        if not d:
            row.append(0)
        return row, start

    # -- the basis layer ---------------------------------------------------

    def standard(self, d: int) -> list[int]:
        """The keys of degree d's standard monomials in display order,
        extending the basis to degree d first. Degree d > 0 is zero, and
        takes no step, when each degree d - deg x of a generator x with
        deg x <= d is zero."""
        keys = self.standard_keys
        for j in range(len(keys), d + 1):
            if j and not any(keys[j - g] for g in self.gens.degrees if g <= j):
                keys.append([])
                self.standard_starts.append([0] * (len(self.gens) + 1))
            else:
                self.step(j)
        return keys[d]

    def step(self, d: int) -> None:
        """Extend the basis to degree d and list its standard monomials. A
        candidate m is x_i times a standard monomial m/x_i, so a lead that
        divides m has x_i as its first generator: m is standard when no such
        lead, the new ones included, divides it."""
        guard = self.guard
        row, start = self._monomials(self.standard_keys, self.standard_starts, d)
        relations = [sorted(rel, reverse=True) for rel in self.relations.pop(d, ())]
        for terms in self._reduce(relations, self.pending.pop(d, ())):
            self._add(d, terms)
        standard, kept = [], [0]
        for i, leads in enumerate(self.first_leads):
            block = row[start[i]:start[i + 1]]
            for lead in leads:
                block = [m for m in block if ((m | guard) - lead) & guard != guard]
            standard += block
            kept.append(len(standard))
        if not d:
            standard.append(0)
        self.standard_keys.append(standard)
        self.standard_starts.append(kept)

    def _reduce(self, rows: list[list[tuple[int, int]]], multiples: Iterable[tuple[int, int]] = ()) -> list:
        """Reduce rows of one degree, each (key, value) pairs in descending
        key order, and the multiples u*g given as (element, key of u), in one
        call to `linalg.rref`, with a reducer u*g for each monomial they
        reach, or the reducers reach, that a lead divides and no multiple
        leads. Returns the reduced rows whose lead no lead divides, as
        (key, value) pairs: the new elements of a step, or the echelon form
        of the rows' residues. The kernel's columns are the negated keys, so
        its column order is the monomial order."""
        rows = list(rows)
        # the monomials reached that a lead divides: a multiple's own lead first
        divisible = set()
        for k, u in multiples:
            if row := self._multiple(k, u):
                rows.append(row)
                if row[0][0] == u + self.leads[k]:
                    divisible.add(row[0][0])
        if not rows:
            return []
        reached = set(divisible)
        todo = [m for row in rows for m, _ in row]
        while todo:
            m = todo.pop()
            if m not in reached:
                reached.add(m)
                if row := self._reducer(m):
                    rows.append(row)
                    divisible.add(m)
                    todo += [t for t, _ in row]
        reduced = linalg.rref([[(-m, v) for m, v in row] for row in rows])
        return [[(-c, v) for c, v in row] for row in reduced if -row[0][0] not in divisible]

    def rank(self, d: int, elements: Iterable[Mapping[tuple[int, ...], int]]) -> int:
        """The rank of the residues of degree-d elements, each given as integer
        terms, modulo the ideal: the number of rows `_reduce` leaves led by a
        standard monomial."""
        self.standard(d)
        key = self.key
        return len(self._reduce([sorted([(key(e), n) for e, n in el.items()], reverse=True) for el in elements]))

    def _reducer(self, m: int) -> list[tuple[int, int]] | None:
        """u*g for the first element g whose lead divides the monomial m, or
        None when no lead divides it."""
        guard = self.guard
        high = m | guard
        for k, lead in enumerate(self.leads):
            if (high - lead) & guard == guard:
                return self._multiple(k, m - lead)
        return None

    def _multiple(self, k: int, u: int) -> list[tuple[int, int]]:
        """The Koszul-signed product u*g of a monomial key u and element k,
        in g's order, which u keeps; a term an odd factor of u squares is
        left out."""
        terms = self.elements[k]
        odd_u = [i for i, bit in self.odd if u & bit] if self.odd else ()
        if not odd_u:
            return [(u + e, v) for e, v, _ in terms]
        exps_u = self._exps(u)
        return [
            (u + e, v * s) for e, v, odd_e in terms if (s := _koszul_sign(exps_u, odd_u, odd_e) if odd_e else 1)
        ]

    def _add(self, d: int, terms: list[tuple[int, int]]) -> None:
        gens, cutoff, odd = self.gens, self.cutoff, self.odd
        k, lead = len(self.leads), terms[0][0]
        exps = self._exps(lead)
        self.elements.append([(e, v, [i for i, bit in odd if e & bit] if odd else ()) for e, v in terms])
        for j, other in enumerate(self.lead_exps):
            # the lcm's exponents fit their fields, so its key's top field is
            # its degree; leads that share no generator have the lcm of key
            # lead + other, and with no odd generator their pair is dropped
            t = self.key(tuple(map(max, exps, other)))
            if (e := t >> self.shift) <= cutoff and (odd or t != lead + self.leads[j]):
                self.pending.setdefault(e, set()).update(((k, t - lead), (j, t - self.leads[j])))
        self.leads.append(lead)
        self.lead_exps.append(exps)
        self.first_leads[next(i for i, e in enumerate(exps) if e)].append(lead)
        for i, bit in odd:
            if lead & bit and d + gens.degrees[i] <= cutoff:
                self.pending.setdefault(d + gens.degrees[i], set()).add((k, self.weights[i]))

    # -- the table layer ---------------------------------------------------

    def table(self, d: int) -> _DegreeTable:
        """Degree d's table: the shared zero table when it has no standard
        monomial, and else each column's row. The columns are the keys of
        the degree-d monomials in descending order; the reducers of the live
        columns that are not standard reduce to the pivots' rows. A standard
        column's row is its unit row; a dead column's, or one whose reduced
        row is a unit row, is empty, and it is a zero monomial."""
        standard = self.standard(d)
        if not standard:
            return _ZERO_TABLE
        cols = sorted(self._keys(d), reverse=True)
        dead = self._dead(d)
        position = {m: i for i, m in enumerate(standard)}
        # every live monomial that is not standard has a lead that divides it
        rows = [
            [(-t, v) for t, v in self._reducer(m) if t not in dead]
            for m in cols
            if m not in dead and m not in position
        ]
        pivots = {-row[0][0]: row for row in linalg.rref(rows)}
        # equal (position, value) pairs are one tuple across the table's rows,
        # which keeps a table smaller than separate position and value tuples
        shared: dict[tuple[int, int], tuple[int, int]] = {}
        table: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
        self.zeros[d] = zeros = []
        for m in cols:
            i, row = position.get(m), pivots.get(m)
            if i is not None:
                table[m] = (1, (shared.setdefault((i, 1), (i, 1)),))
            elif row is None or len(row) == 1:
                table[m] = (1, ())
                zeros.append(m)
            else:
                tail = [shared.setdefault(p, p) for c, v in row[1:] for p in [(position[-c], -v)]]
                table[m] = (row[0][1], tuple(tail))
        return _DegreeTable(tuple(map(self._exps, standard)), table)

    def _keys(self, d: int) -> list[int]:
        """The keys of the degree-d monomials in display order, each degree
        up to d built by `_monomials` from those below it."""
        keys, starts = self.degree_keys, self.starts
        for j in range(len(keys), d + 1):
            row, start = self._monomials(keys, starts, j)
            keys.append(row)
            starts.append(start)
        return keys[d]

    def _dead(self, d: int) -> set[int]:
        """The keys of the degree-d monomials x*m of a generator x and a zero
        monomial m of degree d - deg x, an odd x only where m lacks it. A
        degree whose table is the zero table has no `zeros`: all its
        monomials are zero, and `_keys(d)` has enumerated them."""
        dead: set[int] = set()
        for g, w, (start, _) in zip(self.gens.degrees, self.weights, self.fields):
            if g <= d:
                bit = (1 << start) * (g % 2)  # an odd x's exponent bit
                zeros = self.zeros.get(d - g)
                dead.update([m + w for m in (self._keys(d - g) if zeros is None else zeros) if not m & bit])
        return dead


class QuotientRing:
    """A presented graded-commutative ring with per-degree normal forms.

    Tables are built in increasing degree under one lock, each by the
    Gröbner basis's table layer from that degree's standard monomials, with
    no reduction where there are none; asking for degree d builds every
    missing degree up to d, and extends the basis as far. A built table is
    immutable, and reads take no lock.
    """

    def __init__(self, presentation: RingPresentation, cutoff: int):
        if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
            raise PresentationError(f"a nonnegative integer cutoff degree is required, got {cutoff!r}")
        self.presentation = presentation
        self.cutoff = cutoff
        self._tables: list[_DegreeTable] = []  # indexed by degree
        self._lock = threading.Lock()
        self._basis = basis = _GroebnerBasis(presentation, cutoff)
        # the basis's packed key sum(e_i * w_i), whose top field, from bit `_shift`
        # up, is the degree. An overflow carries upward, so a key whose degree
        # is in range is exact
        self._key, self._weights, self._shift = basis.key, basis.weights, basis.shift

    @property
    def gens(self) -> Generators:
        return self.presentation.generators

    @property
    def label(self) -> str:
        return self.presentation.label

    def __repr__(self) -> str:
        name = self.label or self.presentation.describe()
        return f"QuotientRing({name}, cutoff={self.cutoff})"

    def _row(self, exps: Sequence[int]) -> tuple[int, tuple[tuple[int, int], ...]]:
        """A monomial's row (lead, ((position, value), ...)) in its degree's nonzero table."""
        return self._table(self.gens.monomial_degree(exps)).rows[self._key(exps)]

    def _table(self, d: int) -> _DegreeTable:
        if d < 0:
            return _ZERO_TABLE
        tables = self._tables
        if d >= len(tables):
            if d > self.cutoff:
                raise CutoffExceededError(f"degree {d} exceeds cutoff {self.cutoff}")
            with self._lock:
                while len(tables) <= d:
                    tables.append(self._compute_table(len(tables)))
        return tables[d]

    def _compute_table(self, d: int) -> _DegreeTable:
        """Degree d's table, from the basis's standard monomials of degree d:
        the shared zero table when there are none (`_GroebnerBasis.table`)."""
        return self._basis.table(d)

    # -- public queries ----------------------------------------------------

    def dimension(self, d: int) -> int:
        return len(self._table(d).basis)

    def dimensions(self, upto: int | None = None) -> list[int]:
        upto = self.cutoff if upto is None else upto
        return [self.dimension(d) for d in range(upto + 1)]

    def degree_basis(self, d: int) -> tuple[Monomial, ...]:
        """Monomials whose residues form a basis of the degree-d component."""
        return tuple(Monomial(self.gens, e) for e in self._table(d).basis)

    def normal_form(self, element: GradedElement, other: GradedElement | None = None) -> GradedElement:
        """The canonical representative of `element * other`, or of `element`
        when `other` is None, supported on basis monomials.

        Each factor's integer terms are keyed and split by degree once. The
        product is reduced one degree at a time, in increasing degree,
        without forming it: each pair of terms, one from each factor, adds
        its Koszul-signed integer product times the row at the sum of their
        keys into one list over a common lead, first rescaling the list to
        the lcm of the two leads when the row's lead does not divide the
        common one. The lists' nonzero entries, over the lcm of their leads
        times the factors' denominators, are the output. A degree past the
        cutoff raises unless its part of the product, formed over the
        exponent vectors, cancels.
        """
        gens, cutoff, shift, weights, odd = self.gens, self.cutoff, self._shift, self._weights, self.gens._odd
        if other is None:
            other = GradedElement(gens, {(0,) * len(weights): 1})
        # each factor's terms (key, n, odd indices present, exps) by degree; a
        # key whose degree reads past the cutoff may carry, so is not trusted
        fa, fb = {}, {}
        for el, split in ((element, fa), (other, fb)):
            for e, n in el.reindex(gens).nums.items():
                k = sum(map(mul, e, weights))
                d = k >> shift if k >> shift <= cutoff else gens.monomial_degree(e)
                split.setdefault(d, []).append((k, n, [i for i in odd if e[i]] if odd else (), e))
        # (basis, sum of the rows, their common lead) per nonzero degree
        parts = []
        for d in sorted({da + db for da in fa for db in fb}):
            pairs = [(ta, fb[d - da]) for da, ta in fa.items() if d - da in fb]
            if d > cutoff:
                # past the cutoff, only a degree whose part cancels passes
                exps_terms = [[[(e, n, o) for _, n, o, e in t] for t in ab] for ab in pairs]
                if gens._sum(_lowest(gens, _koszul_product(*ab), 1) for ab in exps_terms).nums:
                    raise CutoffExceededError(f"degree {d} exceeds cutoff {cutoff}")
                continue
            table = self._table(d)
            basis = table.basis
            if not basis:
                continue
            rows = table.rows
            # the sum of the rows so far, times their common lead
            acc = [0] * len(basis)
            common = 1
            for ta, tb in pairs:
                for ka, na, odd_a, ea in ta:
                    for kb, nb, odd_b, _ in tb:
                        n = na * nb
                        if odd_a and odd_b:
                            n *= _koszul_sign(ea, odd_a, odd_b)
                            if not n:
                                continue
                        lead, entries = rows[ka + kb]
                        if lead != common:
                            if common % lead:
                                scale = lcm(common, lead) // common
                                acc = [v * scale for v in acc]
                                common *= scale
                            n *= common // lead
                        for i, v in entries:
                            acc[i] += n * v
            parts.append((basis, acc, common))
        # the nonzero entries over one lead times the denominators, in lowest terms
        top = lcm(*(common for _, _, common in parts))
        out: dict[tuple[int, ...], int] = {}
        for basis, acc, common in parts:
            scale = top // common
            out.update({m: v * scale for m, v in zip(basis, acc) if v})
        den = top * element.den * other.den
        g = gcd(den, *out.values())
        if g != 1:
            out = {m: v // g for m, v in out.items()}
        return GradedElement(gens, out, den // g)

    def is_zero(self, element: GradedElement) -> bool:
        return self.normal_form(element).is_zero

    def multiply(self, a: GradedElement, b: GradedElement) -> GradedElement:
        """The normal form of a * b: one `normal_form` call, which forms no
        product element."""
        return self.normal_form(a, b)
