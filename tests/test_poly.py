"""Polynomial parsing, evaluation, products, derivatives, monomial order."""

import time
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cicodes import Polynomial, field_new, monomials_of_degree, parse, poly_text
from cicodes.errors import PolySyntaxError, UnknownVariableError
from cicodes.poly import _Parser, _tokenize


def random_poly(field, nvars, draw_coef, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(max_terms):
        expo = tuple(draw_coef(max_exp + 1) for _ in range(nvars))
        terms[expo] = draw_coef(field.q)
    return Polynomial(field, nvars, terms)


def test_parse_basic(f3=None):
    f3 = field_new(3, 1)
    p = parse("x1^3 - x0^2*x1", 2, f3)
    assert p.terms == {(0, 3, 0): 1, (2, 1, 0): 2}


def test_parse_hermitian_form():
    f4 = field_new(2, 2)
    p = parse("x2^2 + x2*x0 + x0^2", 2, f4)
    assert len(p.terms) == 3
    assert p.is_homogeneous()
    assert p.degree() == 2
    # oracle: expand (x2 - w*x0)(x2 - w^2*x0) by evaluating on all affine pairs
    w = f4.generator_element
    w2 = f4.mul(w, w)
    for x0, x2 in product(range(4), repeat=2):
        lhs = p.evaluate((x0, 0, x2))
        rhs = f4.mul(f4.sub(x2, f4.mul(w, x0)), f4.sub(x2, f4.mul(w2, x0)))
        assert lhs == rhs


def test_parse_unknown_variable():
    f3 = field_new(3, 1)
    with pytest.raises(UnknownVariableError):
        parse("x0 + y", 2, f3)
    with pytest.raises(UnknownVariableError):
        parse("x3", 2, f3)


def test_parse_w_in_prime_field_rejected():
    with pytest.raises(PolySyntaxError):
        parse("w*x0", 1, field_new(5, 1))


def test_parse_empty_and_garbage():
    f3 = field_new(3, 1)
    with pytest.raises(PolySyntaxError):
        parse("", 2, f3)
    with pytest.raises(PolySyntaxError):
        parse("x0 + ", 2, f3)


def test_parse_4000_digit_exponent():
    big = "9" * 4000
    assert parse(f"x1^{big}", 2, field_new(5, 1)).degree() == int(big)


def test_long_sum_parses_in_linear_time():
    """20,000 terms are added into one map: a copy of the sum per term is
    quadratic, about 20 s here."""
    n = 20000
    text = " + ".join(f"x0^{i}*x1^{n - i}" for i in range(n))
    start = time.perf_counter()
    poly = parse(text, 1, field_new(5, 1))
    assert time.perf_counter() - start < 8
    assert len(poly.terms) == n and poly.degree() == n


def test_monomial_products_are_not_counted():
    """The term-pair bound counts the products of sums: (x0 + x1)^2 is 1 x 2
    then 2 x 2 pairs.  The 1 x 1 products of a monomial's power are left out,
    since the text bounds how many there are."""
    parser = _Parser(_tokenize("x0^99999*x1 + (x0 + x1)^2"), 1, field_new(5, 1))
    assert len(parser.expr().terms) == 4
    assert parser.pairs == 6


def test_signs_of_a_sum():
    f5 = field_new(5, 1)
    assert parse("-x0 + x1 - x0 - 2*x1 + 2*x0", 1, f5) == parse("4*x1", 1, f5)
    assert parse("-x0", 1, f5) == parse("4*x0", 1, f5)
    assert parse("x0 - x0", 1, f5).is_zero()


def test_zero_constant_allowed():
    f3 = field_new(3, 1)
    p = parse("3", 2, f3)  # 3 = 0 in F_3
    assert p.is_zero()


def test_evaluate_examples():
    f3 = field_new(3, 1)
    p = parse("x1^3 - x0^2*x1", 2, f3)
    assert p.evaluate((1, 0, 0)) == 0
    # 2^3 - 2 = 6 = 0 mod 3; cross-checked term by term
    expected = f3.sub(f3.pow(2, 3), f3.mul(f3.pow(1, 2), 2))
    assert p.evaluate((1, 2, 0)) == expected == 0


def test_homogeneous_scaling():
    f5 = field_new(5, 1)
    p = parse("x1^3 - x0^2*x1", 2, f5)
    pt = (1, 2, 0)
    lam = 2
    scaled = tuple(f5.mul(lam, c) for c in pt)
    assert p.evaluate(scaled) == f5.mul(f5.pow(lam, 3), p.evaluate(pt))


def test_multiply_identity_and_zero():
    f5 = field_new(5, 1)
    p = parse("x0^2 + 3*x1*x2", 2, f5)
    one = Polynomial.constant(f5, 3, 1)
    zero = Polynomial(f5, 3)
    assert p * one == p
    assert (p * zero).is_zero()


def test_multiply_f4_product():
    f4 = field_new(2, 2)
    a = parse("x2 - w*x0", 2, f4)
    b = parse("x2 - w^2*x0", 2, f4)
    assert a * b == parse("x2^2 + x2*x0 + x0^2", 2, f4)


def test_derivative_examples():
    f5 = field_new(5, 1)
    p = parse("x1^5", 1, f5)
    assert p.partial_derivative(1).is_zero()  # 5 = 0 in F_5
    p = parse("x1^3", 1, f5)
    assert p.partial_derivative(1) == parse("3*x1^2", 1, f5)
    f4 = field_new(2, 2)
    p = parse("x2^2 + x2*x0 + x0^2", 2, f4)
    assert p.partial_derivative(2) == parse("x0", 2, f4)


def test_derivative_term_rule_oracle():
    # d/dxv of each term c * x^e is (e_v mod p) * c * x^(e - delta_v)
    f3 = field_new(3, 1)
    p = parse("x0^3 + 2*x0^2*x1 + x1^2*x2 + x2^3", 2, f3)
    for v in range(3):
        got = p.partial_derivative(v)
        expected = {}
        for expo, coef in p.terms.items():
            k = expo[v] % 3
            c = (coef * k) % 3
            if c:
                e2 = list(expo)
                e2[v] -= 1
                expected[tuple(e2)] = c
        assert got.terms == expected


def test_monomials_of_degree_order():
    mons = monomials_of_degree(2, 2)
    assert mons == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert len(monomials_of_degree(1, 3)) == 4
    assert monomials_of_degree(3, 0) == [(0, 0, 0, 0)]
    assert monomials_of_degree(2, -1) == []


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("a", range(11))
def test_monomial_counts(m, a):
    assert len(monomials_of_degree(m, a)) == comb(a + m, m)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_multiply_commutative_associative(data):
    field = field_new(*data.draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])))
    nvars = 3
    draw = lambda n: data.draw(st.integers(0, n - 1))
    p = random_poly(field, nvars, draw)
    q = random_poly(field, nvars, draw)
    r = random_poly(field, nvars, draw)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evaluate_is_multiplicative(data):
    field = field_new(*data.draw(st.sampled_from([(3, 1), (5, 1), (2, 2)])))
    nvars = 3
    draw = lambda n: data.draw(st.integers(0, n - 1))
    p = random_poly(field, nvars, draw)
    q = random_poly(field, nvars, draw)
    pt = tuple(draw(field.q) for _ in range(nvars))
    assert (p * q).evaluate(pt) == field.mul(p.evaluate(pt), q.evaluate(pt))


def test_poly_text_roundtrip():
    f9 = field_new(3, 2)
    p = Polynomial(f9, 3, {(2, 0, 0): 5, (0, 1, 1): 1, (0, 0, 2): 7})
    assert parse(poly_text(p), 2, f9) == p
    assert parse(repr(p), 2, f9) == p  # repr spells coefficients >= p in w
    f5 = field_new(5, 1)
    p = parse("x1^2 - x0^2", 2, f5)
    assert parse(poly_text(p), 2, f5) == p
