"""Poincare series algebra: closed forms as factored rational terms, plus
exact truncated expansions.

A closed form is a sum of terms coeff * t^shift * prod(1-t^a)/prod(1-t^b).
Binomial factors fold into this shape via 1+t^s = (1-t^2s)/(1-t^s), so the
catalog formulas are mostly single terms and identities can be checked both
symbolically (normalized factor multisets) and numerically (coefficients up
to a cutoff). The families' formulas themselves are stated once, in
catalog.closed_form.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients a_0..a_N of a power series, exactly."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a truncated series needs at least the constant term")

    @property
    def cutoff(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, d: int) -> int:
        return self.coefficients[d]

    def convolve(self, other: TruncatedSeries, cutoff: int | None = None) -> TruncatedSeries:
        n = min(self.cutoff, other.cutoff) if cutoff is None else cutoff
        if n > min(self.cutoff, other.cutoff):
            raise ValueError("convolution cutoff exceeds the factors' truncations")
        out = [0] * (n + 1)
        for i, a in enumerate(self.coefficients[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coefficients[j]
        return TruncatedSeries(tuple(out))

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.coefficients)


@dataclass(frozen=True)
class _Term:
    coeff: int
    shift: int
    num: tuple[int, ...]  # factors (1 - t^a)
    den: tuple[int, ...]  # factors 1/(1 - t^b)


def _normalize_term(coeff: int, shift: int, num, den) -> _Term:
    remaining = list(num)
    new_den = []
    for b in den:
        try:
            remaining.remove(b)
        except ValueError:
            new_den.append(b)
    return _Term(coeff, shift, tuple(sorted(remaining)), tuple(sorted(new_den)))


class ClosedFormSeries:
    """A sum of shifted quotients of products of (1 - t^a) factors."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: dict[tuple, int] = {}
        for t in terms:
            if any(x <= 0 for x in t.num) or any(x <= 0 for x in t.den) or t.shift < 0:
                raise ValueError("factor exponents and shifts must be positive")
            t = _normalize_term(t.coeff, t.shift, t.num, t.den)
            key = (t.shift, t.num, t.den)
            merged[key] = merged.get(key, 0) + t.coeff
        self.terms = tuple(
            _Term(c, s, n, d) for (s, n, d), c in sorted(merged.items()) if c
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> ClosedFormSeries:
        return cls.from_factors()

    @classmethod
    def from_factors(cls, num=(), den=()) -> ClosedFormSeries:
        return cls([_Term(1, 0, tuple(num), tuple(den))])

    @classmethod
    def monomial(cls, shift: int) -> ClosedFormSeries:
        return cls([_Term(1, shift, (), ())])

    @classmethod
    def one_plus(cls, s: int) -> ClosedFormSeries:
        """1 + t^s, folded into factor form (1 - t^2s)/(1 - t^s)."""
        return cls.from_factors(num=(2 * s,), den=(s,))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: ClosedFormSeries) -> ClosedFormSeries:
        return ClosedFormSeries(self.terms + other.terms)

    def __mul__(self, other: ClosedFormSeries) -> ClosedFormSeries:
        terms = [
            _Term(a.coeff * b.coeff, a.shift + b.shift, a.num + b.num, a.den + b.den)
            for a in self.terms
            for b in other.terms
        ]
        return ClosedFormSeries(terms)

    def __eq__(self, other: object) -> bool:
        """Equality of normalized factor forms (no expansion involved)."""
        return isinstance(other, ClosedFormSeries) and self.terms == other.terms

    symbolic_equal = __eq__

    def __hash__(self) -> int:
        return hash(self.terms)

    # -- expansion -----------------------------------------------------------

    def truncate(self, n: int) -> TruncatedSeries:
        """Exact coefficients of t^0..t^n by polynomial long division."""
        if n < 0:
            raise ValueError("cutoff must be nonnegative")
        total = [0] * (n + 1)
        for t in self.terms:
            if t.shift > n:
                continue
            poly = [0] * (n + 1)
            poly[t.shift] = t.coeff
            for a in t.num:  # multiply by (1 - t^a)
                for i in range(n, a - 1, -1):
                    poly[i] -= poly[i - a]
            for b in t.den:  # divide by (1 - t^b): p + t^b*p + t^2b*p + ...
                for i in range(b, n + 1):
                    poly[i] += poly[i - b]
            for i in range(n + 1):
                total[i] += poly[i]
        return TruncatedSeries(tuple(total))

    def __str__(self) -> str:
        if not self.terms:
            return "0"

        def fmt(t: _Term) -> str:
            parts = []
            if t.coeff != 1 or (not t.num and not t.den and not t.shift):
                parts.append(str(t.coeff))
            if t.shift:
                parts.append(f"t^{t.shift}")
            if t.num:
                parts.append("".join(f"(1-t^{a})" for a in t.num))
            body = "*".join(parts) if parts else "1"
            if t.den:
                body += "/" + "".join(f"(1-t^{b})" for b in t.den)
            return body

        return " + ".join(fmt(t) for t in self.terms)

    def __repr__(self) -> str:
        return f"ClosedFormSeries({self})"


def series_from_ring(ring, n: int) -> TruncatedSeries:
    """Per-degree dimensions of a QuotientRing as a truncated series."""
    if n > ring.cutoff:
        raise ValueError(f"truncation {n} exceeds the ring cutoff {ring.cutoff}")
    return TruncatedSeries(tuple(ring.dimension(d) for d in range(n + 1)))
