"""Rational points of P^m over F_q and complete-intersection validation."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .errors import NonHomogeneousError, SpaceTooLargeError, WrongCountError
from .gf import Field
from .linalg import rank as matrix_rank
from .poly import MAX_DIGITS, Polynomial

MAX_POINTS = 10 ** 7
MAX_CUT_WORK = 10 ** 6


@dataclass(frozen=True)
class PointSet:
    """Ordered distinct normalized points of P^m."""

    points: tuple
    m: int
    field: Field

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def subset(self, indices):
        """Subset by point indices, keeping the ambient enumeration order."""
        indices = sorted(set(indices))
        return PointSet(tuple(self.points[i] for i in indices), self.m, self.field)

    def subset_mask(self, mask: int):
        return self.subset([i for i in range(len(self.points)) if mask >> i & 1])

    def complement(self, other: "PointSet"):
        keep = set(other.points)
        return PointSet(tuple(p for p in self.points if p not in keep),
                        self.m, self.field)


def check_space(m: int, q: int) -> int:
    """The number of points of P^m(F_q); refuses more than MAX_POINTS, summing
    1 + q + ... + q^m only until the sum passes the limit, so a huge m costs
    nothing."""
    total, term = 0, 1
    for _ in range(m + 1):
        total += term
        if total > MAX_POINTS:
            raise SpaceTooLargeError(f"P^{m}(F_{q}) has more than {MAX_POINTS} points")
        term *= q
    return total


def enumerate_projective(m: int, field: Field) -> PointSet:
    """All points of P^m(F_q) in lexicographic order of normalized encodings."""
    q = field.q
    check_space(m, q)
    points = []
    # First nonzero coordinate is 1 at position `lead`; lex order on the
    # full coordinate tuple means larger lead (more leading zeros) sorts first.
    for lead in range(m, -1, -1):
        prefix = (0,) * lead + (1,)
        for tail in product(range(q), repeat=m - lead):
            points.append(prefix + tail)
    return PointSet(tuple(points), m, field)


def variety_points(polys, m: int, field: Field) -> PointSet:
    """Common zero locus in P^m(F_q) of a list of homogeneous polynomials.
    Refuses a cut whose points times (1 + terms) pass MAX_CUT_WORK: the
    worst case builds every point and evaluates every term at it."""
    for poly in polys:
        if not poly.is_homogeneous():
            raise NonHomogeneousError(f"not homogeneous: {poly}")
    terms = sum(len(poly.terms) for poly in polys)
    size = check_space(m, field.q)
    if size * (1 + terms) > MAX_CUT_WORK:
        raise SpaceTooLargeError(
            f"cutting the {size} points of P^{m}(F_{field.q}) by {terms} terms "
            f"would take more than {MAX_CUT_WORK} point-term evaluations")
    ambient = enumerate_projective(m, field)
    points = tuple(pt for pt in ambient
                   if all(poly.evaluate(pt) == 0 for poly in polys))
    return PointSet(points, m, field)


@dataclass(frozen=True)
class CIValidation:
    degrees: tuple
    expected: int
    found: int
    split: bool
    smooth: bool

    def line(self):
        return (f"expected={self.expected} found={self.found} "
                f"split={str(self.split).lower()} smooth={str(self.smooth).lower()}")


def validate_ci(polys, pts: PointSet) -> CIValidation:
    """Check the split/smooth proxy for a reduced complete intersection.

    split: the F_q point count equals the product of the degrees.
    smooth: the m x (m+1) Jacobian has rank m at every point.
    A product of more than MAX_DIGITS digits, which `line` could not print,
    is refused before the Jacobian is built.
    """
    m = pts.m
    if len(polys) != m:
        raise WrongCountError(f"need exactly {m} hypersurfaces in P^{m}, "
                              f"got {len(polys)}")
    degrees = tuple(p.degree() for p in polys)
    expected = prod(degrees)
    if abs(expected) >= 10 ** MAX_DIGITS:
        raise SpaceTooLargeError(f"the product of the degrees has more than "
                                 f"{MAX_DIGITS} digits")
    found = len(pts)
    split = found == expected
    jac = [[p.partial_derivative(v) for v in range(m + 1)] for p in polys]
    smooth = all(matrix_rank([[f.evaluate(pt) for f in row] for row in jac], pts.field) == m
                 for pt in pts)
    return CIValidation(degrees, expected, found, split, smooth)
