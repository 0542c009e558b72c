"""The three named code families: extended Reed-Solomon, Reed-Muller
complete intersections, and the Hermitian-curve construction over F_{q^2}."""

from __future__ import annotations

from collections import namedtuple

from .errors import DegreeOutOfRangeError
from .geometry import check_space
from .gf import _prime_power, field_new
from .poly import parse


class FamilySpec(namedtuple("FamilySpec", "kind q_base m degrees field")):
    """kind is extended_rs, reed_muller or hermitian."""

    __slots__ = ()

    @property
    def s(self):
        return sum(self.degrees) - self.m - 1


def _check_m(m: int, q: int) -> None:
    """Refuse an ambient P^m that the variety-file loader would refuse."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    check_space(m, q)


def _affine_family(kind: str, q: int, m: int, h: int):
    """Hyperplanes x_1..x_h, then for j = h+1..m the binomial
    x_j^q - x0^{q-1} x_j, which cuts out the affine values of coordinate j:
    Gamma is the q^(m-h) affine points of F_q^(m-h) in the last coordinates."""
    field = field_new(*_prime_power(q))
    _check_m(m, q)
    texts = [f"x{j}" for j in range(1, h + 1)]
    texts += [f"x{j}^{q} - x0^{q - 1}*x{j}" for j in range(h + 1, m + 1)]
    polys = [parse(text, m, field) for text in texts]
    return polys, FamilySpec(kind, q, m, (1,) * h + (q,) * (m - h), field)


def extended_rs(q: int, m: int = 1):
    """Hyperplanes x1..x_{m-1} plus the affine-line binomial in x_m.

    Gamma is the q affine rational points on the line they cut out; the
    evaluation codes are the extended Reed-Solomon codes.
    """
    return _affine_family("extended_rs", q, m, m - 1)


def reed_muller_ci(q: int, m: int):
    """The m binomials whose common zeros are all q^m affine points of A^m."""
    return _affine_family("reed_muller", q, m, 0)


def rm_exact_distance(q: int, m: int, a: int) -> int:
    """Reference formula (q - beta) * q^(m-1-alpha) with a = alpha(q-1) + beta."""
    if not 0 <= a <= m * (q - 1):
        raise DegreeOutOfRangeError(f"need 0 <= a <= {m * (q - 1)}, got {a}")
    alpha, beta = divmod(a, q - 1)
    num = (q - beta) * q ** (m - 1)
    denom = q ** alpha
    assert num % denom == 0
    return num // denom


def hermitian_ci(q: int):
    """Hermitian curve x1^{q+1} - x2^q x0 - x2 x0^q over F_{q^2}, intersected
    with the product of the lines x2 = alpha*x0 over alpha with alpha^q +
    alpha != 0: T^{q-1} - x0^{q^2-q} for T = x2^q + x0^{q-1} x2, since at x0 = 1
    the product over all alpha, X^{q^2} - X, is T^q - T, and T the one over
    the rest.  Gamma is the q^3 - q affine points with x1 != 0."""
    p, e = _prime_power(q)
    field = field_new(p, 2 * e)
    _check_m(2, q * q)
    texts = (f"x1^{q + 1} - x2^{q}*x0 - x2*x0^{q}",
             f"(x2^{q} + x0^{q - 1}*x2)^{q - 1} - x0^{q * q - q}")
    spec = FamilySpec("hermitian", q, 2, (q + 1, q * q - q), field)
    return [parse(text, 2, field) for text in texts], spec
