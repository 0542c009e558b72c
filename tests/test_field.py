"""Field arithmetic tests, checked against a brute-force polynomial oracle."""

import random
import tracemalloc

import pytest

from cicodes import field_new
from cicodes.errors import (
    DivisionByZeroError,
    FieldTooLargeError,
    NotPrimeError,
    ReducibleModulusError,
)
from cicodes.gf import Field, _is_prime, _prime_factors, _prime_power, power
from cicodes.poly import Polynomial

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2),
                (2, 4), (5, 2), (3, 3), (7, 2), (2, 6)]


# -- oracle: schoolbook polynomial arithmetic mod the modulus --

def oracle_mul(field, a, b):
    p, e = field.p, field.e

    def digits(x):
        out = []
        for _ in range(e):
            out.append(x % p)
            x //= p
        return out

    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(digits(a)):
        for j, bj in enumerate(digits(b)):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: w^e = -(c0 + c1 w + ... + c_{e-1} w^{e-1})
    mod = list(field.modulus)
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(e):
                prod[k - e + i] = (prod[k - e + i] - c * mod[i]) % p
    x = 0
    for d in reversed(prod[:e]):
        x = x * p + d
    return x


def oracle_add(field, a, b):
    p, e = field.p, field.e
    x, shift = 0, 1
    for _ in range(e):
        x += ((a + b) % p) * shift
        a //= p
        b //= p
        shift *= p
    return x


def oracle_neg(field, a):
    return field.encode(-c for c in field.coeffs(a))


def test_default_modulus_f5():
    f = field_new(5, 1)
    assert f.modulus == (0, 1)
    assert f.q == 5


def test_default_modulus_f4():
    # only monic irreducible quadratic over F_2, found by exhausting all four
    f = field_new(2, 2)
    assert f.modulus == (1, 1, 1)


def test_modulus_degree_mismatch():
    with pytest.raises(ReducibleModulusError):
        field_new(2, 1, modulus=[0, 1, 1])


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ReducibleModulusError):
        field_new(2, 2, modulus=[1, 0, 1])


def test_not_prime():
    with pytest.raises(NotPrimeError):
        field_new(4, 1)


def test_too_large():
    with pytest.raises(FieldTooLargeError):
        field_new(2, 17)


def test_prime_factors_against_divisor_scan():
    for n in range(-3, 2000):
        assert _prime_factors(n) == [d for d in range(2, n + 1)
                                     if n % d == 0 and all(d % r for r in range(2, d))], n


def test_prime_power_up_to_1024():
    """(p, e) for every prime power q <= 1024; today's message for the rest."""
    powers = {p ** e: (p, e) for p, e in _fields_up_to(1024)}
    for q in range(2, 1025):
        if q in powers:
            assert _prime_power(q) == powers[q]
        else:
            with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
                _prime_power(q)


@pytest.mark.parametrize("q,error,message", [
    (1, ValueError, "q must be a prime power >= 2, got 1"),
    (-7, ValueError, "q must be a prime power >= 2, got -7"),
    (65537, FieldTooLargeError, "q = 65537 exceeds 65536"),
    (2 ** 127 - 1, FieldTooLargeError, f"q = {2 ** 127 - 1} exceeds 65536"),  # a prime
])
def test_prime_power_refused(q, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        _prime_power(q)


def test_f4_forced_products():
    f4 = field_new(2, 2)
    assert f4.mul(2, 2) == 3  # w * w = w + 1
    assert f4.mul(3, 2) == 1  # (w+1) * w = 1


def test_f4_full_table_against_oracle():
    f4 = field_new(2, 2)
    for a in range(4):
        for b in range(4):
            assert f4.mul(a, b) == oracle_mul(f4, a, b)


def test_f5_inverse():
    f5 = field_new(5, 1)
    assert f5.inv(2) == 3


def test_inv_of_zero_raises():
    f5 = field_new(5, 1)
    with pytest.raises(DivisionByZeroError):
        f5.inv(0)


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_mul_matches_oracle(p, e):
    f = field_new(p, e)
    step = max(1, f.q // 16)
    for a in range(0, f.q, step):
        for b in range(0, f.q, step):
            assert f.mul(a, b) == oracle_mul(f, a, b)


@pytest.mark.parametrize("p,e", SMALL_FIELDS + [(3, 6)])
def test_add_matches_oracle(p, e):
    f = field_new(p, e)
    step = max(1, f.q // 16)
    for a in range(f.q):
        assert f.neg(a) == oracle_neg(f, a)
    for a in range(0, f.q, step):
        for b in range(0, f.q, step):
            assert f.add(a, b) == oracle_add(f, a, b)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (2, 4), (5, 2), (2, 5),
                                 (3, 3), (2, 6)])
def test_field_axioms_exhaustive(p, e):
    """Associativity, commutativity, distributivity over the whole field (q <= 64)."""
    f = field_new(p, e)
    q = f.q
    assert q <= 64
    elems = range(q)
    for x in elems:
        assert f.add(x, 0) == x
        assert f.mul(x, 1) == x
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
    for x in elems:
        for y in elems:
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            for z in elems:
                assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
                assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
                assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2),
                                 (2, 4), (13, 1), (2, 8)])
def test_frobenius_fixed_points(p, e):
    f = field_new(p, e)
    for x in range(f.q):
        assert f.pow(x, f.q) == x


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_multiplicative_group_cyclic(p, e):
    f = field_new(p, e)
    g = f.multiplicative_generator
    seen = set()
    x = 1
    for _ in range(f.q - 1):
        seen.add(x)
        x = f.mul(x, g)
    assert x == 1
    assert len(seen) == f.q - 1
    for y in range(1, g):  # g is the smallest element of order q - 1
        x, order = y, 1
        while x != 1:
            x, order = f.mul(x, y), order + 1
        assert order < f.q - 1


def test_pow_square_and_multiply_consistency():
    """pow agrees with repeated mul, for n >= q and negative n too."""
    for p, e in [(3, 2), (2, 4), (7, 1)]:
        f = field_new(p, e)
        for x in range(1, f.q):
            for base, sign in ((x, 1), (f.inv(x), -1)):
                acc = 1
                for n in range(2 * f.q + 2):
                    assert f.pow(x, sign * n) == acc
                    acc = f.mul(acc, base)
    f = field_new(3, 2)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(DivisionByZeroError):
        f.pow(0, -1)


def test_encoding_roundtrip():
    f = field_new(3, 3)
    for x in range(f.q):
        assert f.encode(f.coeffs(x)) == x


# -- table builder: order test and split-table walk against the candidate walk --

def reference_tables(field):
    """The earlier builder: walk each candidate g = 1, 2, ... until one has
    order q - 1; exp lists its powers and log inverts exp."""
    q = field.q
    for g in range(1, q):
        exp, x = [1], g
        while x != 1:
            exp.append(x)
            x = oracle_mul(field, x, g)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    return g, exp, log


def _fields_up_to(bound):
    for p in filter(_is_prime, range(2, bound + 1)):
        e = 1
        while p ** e <= bound:
            yield p, e
            e += 1


def test_tables_match_candidate_walk():
    for p, e in _fields_up_to(1024):
        f = field_new(p, e)
        g, exp, log = reference_tables(f)
        assert (f.multiplicative_generator, f._exp, f._log) == (g, exp, log), (p, e)


def test_odd_extension_add_tables_match_digits():
    """The split-digit add, every pair, on every odd extension field with q <= 512."""
    fields = [(p, e) for p, e in _fields_up_to(512) if p > 2 and e > 1]
    assert len(fields) == 12
    for p, e in fields:
        f = field_new(p, e)
        for a in range(f.q):
            assert [f.add(a, b) for b in range(f.q)] == \
                [f._add_digits(a, b) for b in range(f.q)], (p, e, a)


@pytest.mark.parametrize("p,e", [(3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (5, 5), (5, 6),
                                 (7, 4), (7, 5), (23, 2), (251, 2)])
def test_odd_extension_add_sampled_above_512(p, e):
    """The split-digit add on 20,000 sampled pairs of larger odd extension
    fields: odd e, where the high table has one digit more than the low one,
    and the largest tables, 243^2 entries each on F_3^10."""
    f, rng = field_new(p, e), random.Random(p * 100 + e)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(20000)]
    assert [f.add(a, b) for a, b in pairs] == [f._add_digits(a, b) for a, b in pairs]


# the corpus fields: `cicodes family rs --q 65536 | --q 6561` and the prime 65521
CORPUS_FIELDS = [((2, 16, (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,)), 3),
                 ((3, 8, (2, 0, 1, 0, 0, 0, 0, 0, 1)), 38),
                 ((65521, 1, None), 17)]


@pytest.mark.parametrize("args,g", CORPUS_FIELDS)
def test_corpus_field_tables(args, g):
    p, e, modulus = args
    f = field_new(p, e)
    assert modulus is None or f.modulus == modulus  # the default the corpus uses
    assert f.multiplicative_generator == g
    assert sorted(f._exp) == list(range(1, f.q))
    assert all(f._log[x] == i for i, x in enumerate(f._exp))
    n = f.q - 1
    for i in random.Random(8).sample(range(n), 300):
        assert f._exp[(i + 1) % n] == f._mul_slow(f._exp[i], g)


@pytest.mark.parametrize("p,e", [(2, 16), (3, 8), (65521, 1)])
def test_table_build_is_few_slow_products(monkeypatch, p, e):
    """The order test and the split tables make at most 4,096 polynomial-remainder
    products (the candidate walk made 87,378, 40,813 and 212,417 here)."""
    calls = []
    mul_slow = Field._mul_slow

    def counted(self, a, b):
        calls.append(None)
        return mul_slow(self, a, b)

    monkeypatch.setattr(Field, "_mul_slow", counted)
    field_new(p, e)
    assert len(calls) <= 4096


def test_power_is_repeated_mul():
    """Square-and-multiply equals n products by x, for n = 0..40, over the
    integers mod 101 and over a polynomial in F_7[x0, x1]."""
    f7 = Field(7, 1)
    poly = Polynomial(f7, 2, {(1, 0): 3, (0, 1): 1})
    for x, mul, one in ((3, lambda a, b: a * b % 101, 1),
                        (poly, Polynomial.__mul__, Polynomial.constant(f7, 2, 1))):
        product = one
        for n in range(41):
            assert power(x, n, mul, one) == product, n
            product = mul(product, x)


def test_lines_leave_nothing_on_the_field():
    """A compiled line holds its own index of k log t: after the lines of
    x1^k + x0^k for k = 2..41 are evaluated and dropped, the field holds
    no more than before (40 indexes of 4,095 entries would be about 6 MB)."""
    field = Field(2, 12)
    tracemalloc.start()
    try:
        for k in range(2, 42):
            line = field.line_terms({(0, k): 1, (k, 0): 1})
            assert field.line_values(line, (1,))[1] == 0  # 1^k + 1^k
            del line
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 100_000
