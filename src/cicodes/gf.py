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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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
        """One walk: exp lists the powers of the first g = 1, 2, ... of order q - 1."""
        q = self.q
        for g in range(1, q):
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = self._mul_slow(x, g)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log
        self.multiplicative_generator = g
        if self.e == 1:
            self.add = lambda a, b: (a + b) % self.p
        elif self.p == 2:
            self.add = lambda a, b: a ^ b
        elif q <= 512:
            table = [[self._add_digits(a, b) for b in range(q)] for a in range(q)]
            self.add = lambda a, b: table[a][b]
        else:
            self.add = self._add_digits

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
