"""Arithmetic in finite fields F_q, q = p^e <= 2^16.

Elements are plain ints in [0, q): the base-p encoding of the coefficient
vector c0..c_{e-1} with respect to the residue w of the modulus variable,
i.e. x = sum c_i * w^i.  Products, inverses, powers, monomials and negatives
are lookups in log/antilog tables; addition is digitwise mod p.
"""

from __future__ import annotations

from .errors import (
    DivisionByZeroError,
    FieldTooLargeError,
    NotPrimeError,
    ReducibleModulusError,
)

MAX_Q = 1 << 16


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

    def elements(self):
        return range(self.q)

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
        if e == 1:
            self.add = lambda a, b: (a + b) % p
        elif p == 2:
            self.add = lambda a, b: a ^ b
        elif q <= 512:  # a + b = lo[a_lo][b_lo] + hi[a_hi][b_hi], split at p^(e//2)
            base = p ** (e // 2)
            lo = [[self._add_digits(a, b) for b in range(base)] for a in range(base)]
            hi = [[base * self._add_digits(a, b) for b in range(q // base)]
                  for a in range(q // base)]
            table = [[h + x for h in hi[a // base] for x in lo[a % base]] for a in range(q)]
            self.add = lambda a, b: table[a][b]
        else:
            self.add = self._add_digits
        primes = _prime_factors(q - 1)

        def power(x, n):  # square-and-multiply
            if e == 1:
                return pow(x, n, p)
            out = 1
            while n:
                if n & 1:
                    out = self._mul_slow(out, x)
                n >>= 1
                if n:
                    x = self._mul_slow(x, x)
            return out

        g = next(g for g in range(1, q)
                 if all(power(g, (q - 1) // r) != 1 for r in primes))
        if e == 1:
            step = lambda x: x * g % p
        else:
            base, add = p ** (e // 2), self.add
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

    def monomial(self, point, expo) -> int:
        """The product of the x_i^k_i (k_i >= 0) over the coordinates: one sum of logs."""
        log, total = self._log, 0
        for x, k in zip(point, expo):
            if k:
                if x == 0:
                    return 0
                total += k * log[x]
        return self._exp[total % (self.q - 1)]

    def from_int(self, n: int) -> int:
        """Reduce an integer literal into F_q (image of n under Z -> F_p <= F_q)."""
        return n % self.p


def field_new(p: int, e: int, modulus=None) -> Field:
    """Construct a validated field; auto-selects the smallest irreducible modulus."""
    return Field(p, e, modulus)
