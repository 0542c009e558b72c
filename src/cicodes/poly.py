"""Sparse multivariate polynomials over F_q in variables x0..xm.

Terms are stored as a dict mapping exponent tuples (length m+1) to nonzero
field element encodings.  Monomial order everywhere is graded-lex with
x0 > x1 > ... , which fixes the column order of all evaluation matrices.
"""

from __future__ import annotations

import re
from math import comb

from .errors import FieldMismatchError, PolySyntaxError, UnknownVariableError
from .gf import Field, power


def monomial_count(m: int, a: int) -> int:
    """dim R_a: the C(a+m, m) monomials of degree a in m+1 variables, 0 for a < 0."""
    return comb(a + m, m) if a >= 0 else 0


def monomials_of_degree(m: int, a: int):
    """All `monomial_count(m, a)` exponent tuples of total degree a in m+1
    variables, graded-lex order; negative a yields the empty list."""
    if a < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining, -1, -1):
            rec(prefix + (first,), remaining - first, slots - 1)

    rec((), a, m + 1)
    return out


class Polynomial:
    """Immutable sparse polynomial; zero is the empty term map."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            for expo, coef in terms.items():
                if coef:
                    clean[tuple(expo)] = coef
        self.terms = clean

    # -- constructors --

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, field, nvars, index, power=1):
        expo = [0] * nvars
        expo[index] = power
        return cls(field, nvars, {tuple(expo): 1})

    # -- predicates --

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def _check(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise FieldMismatchError("polynomials over different rings")

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.field == other.field
                and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    # -- ring operations --

    def __add__(self, other):
        self._check(other)
        f = self.field
        terms = dict(self.terms)
        for expo, coef in other.terms.items():
            terms[expo] = f.add(terms.get(expo, 0), coef)
        return Polynomial(f, self.nvars, terms)

    def __neg__(self):
        f = self.field
        return Polynomial(f, self.nvars,
                          {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = f.add(terms.get(expo, 0), f.mul(c1, c2))
        return Polynomial(f, self.nvars, terms)

    def evaluate(self, point) -> int:
        """Value at a point given as a list of m+1 element encodings."""
        if len(point) != self.nvars:
            raise FieldMismatchError(
                f"point has {len(point)} coordinates, expected {self.nvars}")
        return self.field.value(self.field.log_terms(self.terms), point)

    def partial_derivative(self, var: int):
        """Formal partial derivative; exponent multiples of char p vanish."""
        f = self.field
        terms = {}
        for expo, coef in self.terms.items():
            k = expo[var]
            if k == 0:
                continue
            c = f.mul(coef, f.from_int(k))
            if c == 0:
                continue
            new = list(expo)
            new[var] = k - 1
            new = tuple(new)
            terms[new] = f.add(terms.get(new, 0), c)
        return Polynomial(f, self.nvars, terms)

    # -- display --

    def __repr__(self):
        return poly_text(self)


def poly_text(poly: Polynomial) -> str:
    """Render a polynomial in the grammar accepted by parse().

    Extension-field coefficients are spelled out in powers of w so the
    output round-trips exactly.
    """
    if not poly.terms:
        return "0"
    field = poly.field
    parts = []
    for expo in sorted(poly.terms, key=lambda e: (sum(e),) + tuple(-x for x in e)):
        coef = poly.terms[expo]
        factors = []
        if field.e == 1 or coef < field.p:
            if coef != 1 or not any(expo):
                factors.append(str(coef))
        else:
            digits = field.coeffs(coef)
            bits = []
            for i, d in enumerate(digits):
                if not d:
                    continue
                if i == 0:
                    bits.append(str(d))
                else:
                    wterm = "w" if i == 1 else f"w^{i}"
                    bits.append(wterm if d == 1 else f"{d}*{wterm}")
            factors.append(f"({' + '.join(bits)})")
        for i, k in enumerate(expo):
            if k == 1:
                factors.append(f"x{i}")
            elif k > 1:
                factors.append(f"x{i}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts)


# -- parsing --

MAX_DIGITS = 4300  # the longest integer Python 3.11+ converts to or from text by default


def read_int(key, text):
    """A variety-file integer: a header value, a literal or an exponent.  A
    missing, non-integer or over-long value raises a one-line ValueError
    before any conversion, so no Python version spends time on a huge one."""
    if text is None:
        raise ValueError(f"missing {key}=<integer>")
    if not re.fullmatch(rf"[+-]?\d{{1,{MAX_DIGITS}}}", text):
        shown = repr(text[:20]) + ("..." if len(text) > 20 else "")
        raise ValueError(f"{key}={shown} is not an integer of at most {MAX_DIGITS} digits")
    return int(text)


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]\w*|\^|\*|\+|-|\(|\))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN.match(text, pos)
        if not mo:
            if text[pos:].strip():
                raise PolySyntaxError(f"bad character near {text[pos:pos+10]!r}")
            break
        tokens.append(mo.group(1))
        pos = mo.end()
    return tokens


MAX_NESTING = 100  # parenthesis depth; keeps the recursive descent off Python's limit
MAX_TERM_PAIRS = 10 ** 6  # term products in all of one polynomial's multiplications


class _Parser:
    def __init__(self, tokens, m, field):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.pairs = 0  # term products so far, against MAX_TERM_PAIRS
        self.m = m
        self.field = field

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self):
        """A sum of terms, added into one map: no copy per term."""
        field, terms = self.field, {}
        sign = self.next() if self.peek() == "-" else "+"
        while sign:
            t = self.term()
            for expo, c in (t if sign == "+" else -t).terms.items():
                terms[expo] = field.add(terms.get(expo, 0), c)
            sign = self.next() if self.peek() in ("+", "-") else None
        return Polynomial(field, self.m + 1, terms)

    def term(self):
        result = self.factor()
        while self.peek() == "*":
            self.next()
            result = self.mul(result, self.factor())
        return result

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.next()
            tok = self.next()
            if tok is None or not tok.isdigit():
                raise PolySyntaxError("exponent must be a non-negative integer")
            return power(base, read_int("exponent", tok), self.mul,
                         Polynomial.constant(self.field, self.m + 1, 1))
        return base

    def mul(self, left, right):
        # a product of two monomials is not counted: the text bounds how many there are
        pairs = len(left.terms) * len(right.terms)
        self.pairs += pairs if pairs > 1 else 0
        if self.pairs > MAX_TERM_PAIRS:
            raise PolySyntaxError(
                f"product of {len(left.terms)} and {len(right.terms)} terms takes "
                f"the polynomial past {MAX_TERM_PAIRS} term pairs")
        return left * right

    def atom(self):
        tok = self.next()
        if tok is None:
            raise PolySyntaxError("unexpected end of expression")
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolySyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}")
            inner = self.expr()
            if self.next() != ")":
                raise PolySyntaxError("missing closing parenthesis")
            self.depth -= 1
            return inner
        if tok.isdigit():
            return Polynomial.constant(self.field, self.m + 1,
                                       self.field.from_int(read_int("literal", tok)))
        if tok == "w":
            if self.field.e < 2:
                raise PolySyntaxError("token 'w' needs an extension field (e >= 2)")
            return Polynomial.constant(self.field, self.m + 1,
                                       self.field.generator_element)
        mo = re.fullmatch(r"x(\d+)", tok)
        if mo:
            idx = read_int("variable index", mo.group(1))
            if idx > self.m:
                raise UnknownVariableError(f"variable x{idx} exceeds x{self.m}")
            return Polynomial.variable(self.field, self.m + 1, idx)
        raise UnknownVariableError(f"unknown symbol {tok!r}")


def parse(text: str, m: int, field: Field) -> Polynomial:
    """Parse an expression in x0..xm with +, -, *, ^, integer literals and w."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolySyntaxError("empty expression")
    parser = _Parser(tokens, m, field)
    result = parser.expr()
    if parser.peek() is not None:
        raise PolySyntaxError(f"trailing input at {parser.peek()!r}")
    return result
