"""The three named code families: extended Reed-Solomon, Reed-Muller
complete intersections, and the Hermitian-curve construction over F_{q^2}."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeOutOfRangeError
from .gf import Field, field_new
from .poly import Polynomial


@dataclass(frozen=True)
class FamilySpec:
    kind: str  # extended_rs | reed_muller | hermitian
    q_base: int
    m: int
    degrees: tuple
    field: Field

    @property
    def s(self):
        return sum(self.degrees) - self.m - 1


def _field_for(q: int) -> Field:
    """Field of order q from its prime-power factorization."""
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    p = 2
    while q % p:
        p += 1
    e = 0
    t = q
    while t > 1:
        if t % p:
            raise ValueError(f"{q} is not a prime power")
        t //= p
        e += 1
    return field_new(p, e)


def _affine_binomial(field, nvars, j, q):
    """x_j^q - x0^{q-1} x_j, cutting out the affine values of coordinate j."""
    lead = [0] * nvars
    lead[j] = q
    trail = [0] * nvars
    trail[0] = q - 1
    trail[j] = 1
    return Polynomial(field, nvars, {tuple(lead): 1, tuple(trail): field.neg(1)})


def extended_rs(q: int, m: int = 1, field: Field = None):
    """Hyperplanes x1..x_{m-1} plus the affine-line binomial in x_m.

    Gamma is the q affine rational points on the line they cut out; the
    evaluation codes are the extended Reed-Solomon codes.
    """
    if field is None:
        field = _field_for(q)
    nvars = m + 1
    polys = [Polynomial.variable(field, nvars, j) for j in range(1, m)]
    polys.append(_affine_binomial(field, nvars, m, q))
    spec = FamilySpec("extended_rs", q, m, (1,) * (m - 1) + (q,), field)
    return polys, spec


def reed_muller_ci(q: int, m: int, field: Field = None):
    """The m binomials whose common zeros are all q^m affine points of A^m."""
    if field is None:
        field = _field_for(q)
    nvars = m + 1
    polys = [_affine_binomial(field, nvars, j, q) for j in range(1, m + 1)]
    spec = FamilySpec("reed_muller", q, m, (q,) * m, field)
    return polys, spec


def rm_exact_distance(q: int, m: int, a: int) -> int:
    """Reference formula (q - beta) * q^(m-1-alpha) with a = alpha(q-1) + beta."""
    if not 0 <= a <= m * (q - 1):
        raise DegreeOutOfRangeError(f"need 0 <= a <= {m * (q - 1)}, got {a}")
    alpha, beta = divmod(a, q - 1)
    # a = m(q-1) lands on alpha = m, beta = 0: fold back to beta = q-1
    if alpha > 0 and beta == 0 and alpha == m:
        alpha, beta = m - 1, q - 1
    num = (q - beta) * q ** (m - 1)
    denom = q ** alpha
    assert num % denom == 0
    return num // denom


def hermitian_ci(q: int):
    """Hermitian curve x1^{q+1} - x2^q x0 - x2 x0^q over F_{q^2}, intersected
    with the product of the lines x2 = alpha*x0 over alpha with
    alpha^q + alpha != 0.  Gamma is the q^3 - q affine points with x1 != 0."""
    base = _field_for(q)
    field = field_new(base.p, 2 * base.e)
    nvars = 3
    lead = [0, q + 1, 0]
    t1 = [1, 0, q]
    t2 = [q, 0, 1]
    curve = Polynomial(field, nvars, {
        tuple(lead): 1,
        tuple(t1): field.neg(1),
        tuple(t2): field.neg(1),
    })
    product = Polynomial.constant(field, nvars, 1)
    nfactors = 0
    for alpha in field.elements():
        if field.add(field.pow(alpha, q), alpha) == 0:
            continue
        line = Polynomial(field, nvars, {
            (0, 0, 1): 1,
            (1, 0, 0): field.neg(alpha),
        })
        product = product * line
        nfactors += 1
    assert nfactors == q * q - q
    spec = FamilySpec("hermitian", q, 2, (q + 1, q * q - q), field)
    return [curve, product], spec
