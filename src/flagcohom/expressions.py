"""Parser for ring elements written as plain text.

Grammar: sums of products of generator names, integer literals and
parenthesized subexpressions, with `^` (or `**`) powers and `/` restricted
to division by nonzero integer literals. Every name must be declared in
the generator universe the expression is parsed against. Parentheses and
unary signs nest at most MAX_NESTING deep, an integer literal has at most
MAX_LITERAL_DIGITS digits, a literal exponent is at most MAX_EXPONENT, and
the products and powers of one expression multiply at most
MAX_TERM_PRODUCTS pairs of terms in all. Inside `one_budget`, every
expression parsed shares that one count.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction

from .algebra import GradedElement, Generators

# deepest nesting of parentheses and unary signs; the parser recurses once
# per level, so deeper input would exhaust the interpreter's stack
MAX_NESTING = 100

# largest literal exponent: the largest top degree a space may have; a power
# costs one multiplication per unit of its exponent
MAX_EXPONENT = 256

# most pairs of terms the products and powers of one expression multiply:
# the degree of a power bounds its size, not the work of expanding it, and
# (a+b+c+d+e+f)^24 multiplies 2.9 million pairs into 118,755 terms. The
# bound admits (1+h)^256 (65,792 pairs), and stops an expression after
# about a quarter of a second of multiplying on a 2-CPU machine
MAX_TERM_PRODUCTS = 200_000

# longest integer literal: Python's default limit on converting a digit
# string to an int, past which int() itself refuses
MAX_LITERAL_DIGITS = 4300

# an error message quotes inputs up to this length whole, and a window of
# this width around the position of longer ones
QUOTE_WIDTH = 80

# the pairs of terms multiplied so far by the expressions parsed inside
# `one_budget`, as a one-item list, or None outside it. A context variable
# reaches the parses inside library calls (a pushout's maps, a bundle's
# classes) without a parameter on each
_SHARED_PRODUCTS: ContextVar[list[int] | None] = ContextVar("shared_products", default=None)


@contextmanager
def one_budget():
    """Count the pairs of terms that every expression parsed in the block
    multiplies against one MAX_TERM_PRODUCTS; an inner block joins the
    outer one's count."""
    if _SHARED_PRODUCTS.get() is not None:
        yield
        return
    token = _SHARED_PRODUCTS.set([0])
    try:
        yield
    finally:
        _SHARED_PRODUCTS.reset(token)

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/^]))"
)


class ElementSyntaxError(ValueError):
    """Raised for malformed element expressions, with a position."""

    def __init__(self, text: str, pos: int, message: str):
        quoted = repr(text)
        if len(text) > QUOTE_WIDTH:
            start = max(0, min(pos - QUOTE_WIDTH // 2, len(text) - QUOTE_WIDTH))
            end = start + QUOTE_WIDTH
            quoted = f"{'...' if start else ''}{text[start:end]!r}{'...' if end < len(text) else ''}"
        super().__init__(f"{message} at position {pos}: {quoted}")
        self.pos = pos


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            # the character after any whitespace is the one no token starts with
            raise ElementSyntaxError(text, len(text) - len(rest), f"unexpected character {rest[0]!r}")
        if m.lastgroup == "int":
            digits = m.group("int")
            if len(digits) > MAX_LITERAL_DIGITS:
                raise ElementSyntaxError(
                    text, m.start("int"), f"integer literal longer than {MAX_LITERAL_DIGITS} digits"
                )
            tokens.append(("int", int(digits), m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op, m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, gens: Generators, text: str):
        self.gens = gens
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        # [pairs of terms multiplied], shared inside `one_budget`
        self.products = _SHARED_PRODUCTS.get() or [0]

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def nested(self, pos: int, parse):
        """parse() one nesting level deeper, refusing input past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ElementSyntaxError(self.text, pos, f"nesting deeper than {MAX_NESTING}")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def multiply(self, pos: int, lhs: GradedElement, rhs: GradedElement) -> GradedElement:
        """lhs * rhs for the operator at `pos`, refusing the expression once
        its products, with those of the expressions that share its count,
        multiply more than MAX_TERM_PRODUCTS pairs of terms."""
        self.products[0] += len(lhs.nums) * len(rhs.nums)
        if self.products[0] > MAX_TERM_PRODUCTS:
            raise ElementSyntaxError(
                self.text, pos, f"expansion multiplies more than {MAX_TERM_PRODUCTS} pairs of terms"
            )
        return lhs * rhs

    def expect_op(self, op: str):
        kind, value, pos = self.take()
        if kind != "op" or value != op:
            raise ElementSyntaxError(self.text, pos, f"expected {op!r}")

    def parse(self) -> GradedElement:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ElementSyntaxError(self.text, pos, "trailing input")
        return value

    def expr(self) -> GradedElement:
        summands = [self.term()]
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.take()
                rhs = self.term()
                summands.append(rhs if op == "+" else -rhs)
            else:
                return self.gens._sum(summands)

    def term(self) -> GradedElement:
        value = self.atom()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op == "*":
                self.take()
                value = self.multiply(pos, value, self.atom())
            elif kind == "op" and op == "/":
                self.take()
                k, v, p = self.take()
                if k != "int":
                    raise ElementSyntaxError(self.text, p, "can only divide by an integer literal")
                if v == 0:
                    raise ElementSyntaxError(self.text, p, "division by zero")
                value = value / Fraction(v)
            else:
                return value

    def atom(self) -> GradedElement:
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            inner = self.nested(pos, self.atom)
            return inner if value == "+" else -inner
        base = self.base()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "^":
                self.take()
                k, v, p = self.take()
                if k != "int":
                    raise ElementSyntaxError(self.text, p, "exponent must be an integer literal")
                if v > MAX_EXPONENT:
                    raise ElementSyntaxError(self.text, p, f"exponent above {MAX_EXPONENT}")
                power = self.gens.one()
                for _ in range(v):
                    power = self.multiply(pos, power, base)
                base = power
            else:
                return base

    def base(self) -> GradedElement:
        kind, value, pos = self.take()
        if kind == "int":
            return self.gens.scalar(value)
        if kind == "name":
            return self.gens.gen(value)
        if kind == "op" and value == "(":
            inner = self.nested(pos, self.expr)
            self.expect_op(")")
            return inner
        raise ElementSyntaxError(self.text, pos, "expected a name, number or '('")


def parse_element(gens: Generators, text: str) -> GradedElement:
    """Parse `text` into an element over `gens`."""
    return _Parser(gens, text).parse()
