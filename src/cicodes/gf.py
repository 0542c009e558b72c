"""Arithmetic in finite fields F_q, q = p^e <= 2^16.

Elements are plain ints in [0, q): the base-p encoding of the coefficient
vector c0..c_{e-1} with respect to the residue w of the modulus variable,
i.e. x = sum c_i * w^i.  Products, inverses, powers, negatives and the
values of compiled polynomial terms at a point (`value`) or along a line
(`line_values`, through an index compiled into the line) are lookups in
the log/antilog tables, all that a field holds; addition is XOR (p = 2),
mod p (e = 1), or else the sum of two lookups, by the low e // 2 base-p
digits and by the rest.
"""

from __future__ import annotations

import operator
from itertools import accumulate, repeat

from .errors import (
    DivisionByZeroError,
    FieldTooLargeError,
    NotPrimeError,
    ReducibleModulusError,
)

MAX_Q = 1 << 16


def power(x, n: int, mul, one):
    """x^n for an integer n >= 0 by left-to-right square-and-multiply: per bit
    of n, square the result, then multiply it by x if the bit is set."""
    out = one
    for bit in bin(n)[2:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n, ascending, by trial division ([] for n < 2)."""
    primes, r = [], 2
    while r * r <= n:
        if n % r == 0:
            primes.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        primes.append(n)
    return primes


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _prime_power(q: int):
    """(p, e) with q = p^e, for a field order 2 <= q <= MAX_Q; a larger q is
    refused before any factoring."""
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    if q > MAX_Q:
        raise FieldTooLargeError(f"q = {q} exceeds {MAX_Q}")
    primes = _prime_factors(q)
    if len(primes) > 1:
        raise ValueError(f"{q} is not a prime power")
    p = primes[0]
    return p, next(e for e in range(1, 17) if p ** e == q)


# -- polynomial helpers over F_p, coefficient lists in ascending powers --

def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, b, p):
    """Remainder of a divided by monic b over F_p."""
    a = _ptrim(list(a))
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        coef = a[-1]
        shift = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
        _ptrim(a)
    return a


def _monic_polys(degree, p):
    """All monic polynomials of the given degree over F_p, ascending coeffs."""
    for t in range(p ** degree):
        yield [t // p ** i % p for i in range(degree)] + [1]


def _is_irreducible(f, p):
    """Ben-Or's test: a monic f of degree e is irreducible over F_p iff
    gcd(x^(p^i) - x, f) = 1 for i = 1..e // 2, since a factor of degree
    d <= e / 2 divides x^(p^d) - x.  x^(p^i) mod f is the p-th power of
    x^(p^(i-1)) mod f; Euclid makes each divisor monic for `_pmod`."""
    h, mul = [0, 1], lambda a, b: _pmod(_pmul(a, b, p), f, p)
    for _ in range((len(f) - 1) // 2):
        h = power(h, p, mul, [1])
        a, b = f, h + [0] * (2 - len(h))
        b[1] = (b[1] - 1) % p
        while _ptrim(b):
            inv = pow(b[-1], -1, p)
            a, b = b, _pmod(a, [c * inv % p for c in b], p)
        if len(a) > 1:
            return False
    return True


def _digit_sums(p, n, unit):
    """unit * (a + b, digit by digit mod p) for all a, b < p^n, as rows
    [a][b], built one base-p digit at a time: digits d of a and d' of b at
    place p^j add ((d + d') mod p) * unit * p^j to the table of the lower
    j digits."""
    table, size = [[0]], unit
    for _ in range(n):
        shifts = [d % p * size for d in range(2 * p - 1)]
        table = [[x + s for s in shifts[d:d + p] for x in row]
                 for d in range(p) for row in table]
        size *= p
    return table


def _default_modulus(p, e):
    """Monic irreducible of degree e with the smallest base-p encoding."""
    for cand in _monic_polys(e, p):
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # cannot happen


class Field:
    """Immutable F_q descriptor plus table-driven arithmetic."""

    def __init__(self, p: int, e: int, modulus=None):
        if p > MAX_Q or e > 16:  # too large for any prime, so p is not tested
            raise FieldTooLargeError(f"q = {p}^{e} exceeds {MAX_Q}")
        if not _is_prime(p):
            raise NotPrimeError(f"p={p} is not prime")
        if e < 1:
            raise ReducibleModulusError(f"extension degree must be >= 1, got {e}")
        q = p ** e
        if q > MAX_Q:
            raise FieldTooLargeError(f"q = {p}^{e} exceeds {MAX_Q}")
        if modulus is None:
            modulus = _default_modulus(p, e)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ReducibleModulusError(
                    f"modulus must be monic of degree {e}, got {modulus}")
            if not _is_irreducible(modulus, p):
                raise ReducibleModulusError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = tuple(modulus)
        self._build_tables()

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"Field(p={self.p})"
        return f"Field(p={self.p}, e={self.e}, modulus={list(self.modulus)})"

    # -- encoding helpers --

    def coeffs(self, x: int):
        """Base-p digits of x, ascending powers of w, length e."""
        return [x // self.p ** i % self.p for i in range(self.e)]

    def encode(self, coeffs) -> int:
        x = 0
        for c in reversed(list(coeffs)):
            x = x * self.p + c % self.p
        return x

    @property
    def generator_element(self) -> int:
        """The residue class w of the modulus variable (only nontrivial for e > 1)."""
        return self.p % self.q

    # -- table construction --

    def _mul_slow(self, a: int, b: int) -> int:
        prod = _pmul(self.coeffs(a), self.coeffs(b), self.p)
        rem = _pmod(prod, list(self.modulus), self.p)
        return self.encode(rem)

    def _span(self, images):
        """sum_i d_i * images[i] at each index sum_i d_i * p^i, d_i < p: the
        F_p-span of `images`, built one digit at a time by `add`."""
        table = [0]
        for v in images:
            multiples = list(accumulate(repeat(v, self.p - 1), self.add, initial=0))
            table = [self.add(x, c) for c in multiples for x in table]
        return table

    def _build_tables(self):
        """exp lists the powers of the first g = 1, 2, ... of order q - 1.

        g passes the order test g^((q-1)/r) != 1 for every prime r | q - 1
        (vacuous for q = 2, where g = 1).  The walk then multiplies by g in
        the integer encoding: mod p for e = 1; for e > 1, x -> x*g is
        F_p-linear, so x*g = lo[x mod p^k] + hi[x div p^k] with k = e // 2,
        two tables spanned by the images w^i * g, i < e: e slow products,
        the sum inlined per kind of field, as XOR or by `add`'s digit tables.
        """
        p, e, q = self.p, self.e, self.q
        k, base = e // 2, p ** (e // 2)
        primes = _prime_factors(q - 1)
        mul = (lambda a, b: a * b % p) if e == 1 else self._mul_slow
        g = next(g for g in range(1, q)
                 if all(power(g, (q - 1) // r, mul, 1) != 1 for r in primes))
        if p == 2:
            self.add = operator.xor
        elif e == 1:
            self.add = lambda a, b: (a + b) % p
        else:  # a + b = low[a_lo][b_lo] + high[a_hi][b_hi], split at p^(e//2)
            low, high = _digit_sums(p, k, 1), _digit_sums(p, e - k, base)
            self.add = lambda a, b: low[a % base][b % base] + high[a // base][b // base]
        if e > 1:
            images = [self._mul_slow(p ** i, g) for i in range(e)]
            lo, hi = self._span(images[:k]), self._span(images[k:])
        exp, x = [1], 1  # each walk inlined, with no Python call per element
        if e == 1:
            for _ in range(q - 2):
                exp.append(x := x * g % p)
        elif p == 2:
            for _ in range(q - 2):
                exp.append(x := lo[x % base] ^ hi[x // base])
        else:
            for _ in range(q - 2):
                a, b = lo[x % base], hi[x // base]
                exp.append(x := low[a % base][b % base] + high[a // base][b // base])
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log
        self.multiplicative_generator = g

    # -- arithmetic --

    def neg(self, a: int) -> int:
        if a == 0 or self.p == 2:  # otherwise -1 = g^((q-1)/2)
            return a
        return self._exp[(self._log[a] + (self.q - 1) // 2) % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZeroError("inverse of 0")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        """a^n for any integer n: a multiple of log a (0^0 = 1)."""
        if a == 0:
            if n < 0:
                self.inv(a)  # raises DivisionByZeroError
            return 0 if n else 1
        return self._exp[self._log[a] * n % (self.q - 1)]

    def log_terms(self, terms):
        """A polynomial's {exponents: nonzero coefficient} map as (log c,
        ((i, k), ...)) pairs with every k > 0: compiled once for `value`."""
        return [(self._log[c], tuple((i, k) for i, k in enumerate(expo) if k))
                for expo, c in terms.items()]

    def value(self, log_terms, point) -> int:
        """The sum of `log_terms` at a point, each term one sum of logs: the
        one evaluation of a polynomial or a monomial at a point."""
        log, exp, add, order = self._log, self._exp, self.add, self.q - 1
        total = 0
        for lc, factors in log_terms:
            for i, k in factors:
                if not point[i]:
                    break
                lc += k * log[point[i]]
            else:
                total = add(total, exp[lc % order])
        return total

    def line_terms(self, terms):
        """A polynomial's {exponents: nonzero coefficient} map as a sum
        sum_k c_k * t^k along its last variable t: ((k, log_terms of c_k in
        the other variables, index), ...), for `line_values`, with no triple
        for a c_k that cancels.  A k > 0 is reduced into 1..q-1, where t^k is
        unchanged, so equal powers share one c_k.  The index, freed with the
        line, reads c * t^k at each t from exp rotated by log c, 0 appended:
        at k log t, or at t = 0 the 0 (c for k = 0)."""
        order, log, groups, line = self.q - 1, self._log, {}, []
        for expo, c in terms.items():
            k = expo[-1] and (expo[-1] - 1) % order + 1
            group = groups.setdefault(k, {})
            group[expo[:-1]] = self.add(group.get(expo[:-1], 0), c)
        for k, group in groups.items():  # the tail k log t, t != 0, with no sums for k < 2
            if not any(group.values()):
                continue  # a c_k that cancels is 0 on every line: no group, no index
            tail = log[1:] if k == 1 else [k * x % order for x in log[1:]] if k else [0] * order
            line.append((k, self.log_terms({e: c for e, c in group.items() if c}),
                         operator.itemgetter(order if k else 0, *tail)))
        return tuple(line)

    def line_values(self, line_terms, base):
        """The list of sum_k c_k * t^k at t = 0, 1, ..., q - 1 on the line
        x_0..x_{m-1} = base, x_m = t: one `value` per c_k at `base`, then
        per nonzero c_k one pass of its index over the rotated exp table, and
        the rows summed by `add`, or in F_p as integers reduced once."""
        exp, log, rows = self._exp, self._log, []
        for _, terms, index in line_terms:
            c = self.value(terms, base)
            if c:
                rows.append(index(exp[log[c]:] + exp[:log[c]] + [0]))
        plus = operator.add if self.e == 1 else self.add
        values = list(rows.pop()) if rows else [0] * self.q
        for row in rows:
            values = list(map(plus, values, row))
        if rows and self.e == 1:
            values = list(map(operator.mod, values, repeat(self.p)))
        return values

    def from_int(self, n: int) -> int:
        """Reduce an integer literal into F_q (image of n under Z -> F_p <= F_q)."""
        return n % self.p


def field_new(p: int, e: int, modulus=None) -> Field:
    """Construct a validated field; auto-selects the smallest irreducible modulus."""
    return Field(p, e, modulus)
