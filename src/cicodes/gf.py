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
from itertools import repeat

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
    a = list(a)
    _ptrim(a)
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
        coeffs = []
        v = t
        for _ in range(degree):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        yield coeffs


def _is_irreducible(modulus, p):
    e = len(modulus) - 1
    if e == 1:
        return True
    for deg in range(1, e // 2 + 1):
        for div in _monic_polys(deg, p):
            if not _pmod(modulus, div, p):
                return False
    return True


def _default_modulus(p, e):
    """Monic irreducible of degree e with the smallest base-p encoding."""
    if e == 1:
        return [0, 1]
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
        out = []
        for _ in range(self.e):
            out.append(x % self.p)
            x //= self.p
        return out

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

    def _build_tables(self):
        """exp lists the powers of the first g = 1, 2, ... of order q - 1.

        g passes the order test g^((q-1)/r) != 1 for every prime r | q - 1
        (vacuous for q = 2, where g = 1).  The walk then multiplies by g in
        the integer encoding: mod p for e = 1; for e > 1, x -> x*g is
        F_p-linear, so x*g = lo[x mod p^k] + hi[x div p^k] with k = e // 2:
        two tables of p^k and p^(e-k) slow products (256 each for 2^16).
        """
        p, e, q = self.p, self.e, self.q
        base = p ** (e // 2)
        if p == 2:
            self.add = operator.xor
        elif e == 1:
            self.add = lambda a, b: (a + b) % p
        else:  # a + b = low[a_lo][b_lo] + high[a_hi][b_hi], split at p^(e//2)
            low = [[self._add_digits(a, b) for b in range(base)] for a in range(base)]
            high = [[base * self._add_digits(a, b) for b in range(q // base)]
                    for a in range(q // base)]
            self.add = lambda a, b: low[a % base][b % base] + high[a // base][b // base]
        primes = _prime_factors(q - 1)
        mul = (lambda a, b: a * b % p) if e == 1 else self._mul_slow
        g = next(g for g in range(1, q)
                 if all(power(g, (q - 1) // r, mul, 1) != 1 for r in primes))
        if e == 1:
            step = lambda x: x * g % p
        else:
            add = self.add
            lo = [self._mul_slow(x, g) for x in range(base)]
            hi = [self._mul_slow(x * base, g) for x in range(q // base)]
            step = lambda x: add(lo[x % base], hi[x // base])
        exp = [1]
        for _ in range(q - 2):
            exp.append(step(exp[-1]))
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log
        self.multiplicative_generator = g

    # -- arithmetic --

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        x, shift = 0, 1
        while a or b:
            x += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return x

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
