"""Rational points of P^m over F_q and complete-intersection validation."""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, groupby, product
from math import prod

from .errors import NonHomogeneousError, SpaceTooLargeError, WrongCountError
from .gf import Field
from .linalg import rank as matrix_rank
from .poly import MAX_DIGITS

MAX_POINTS = 10 ** 7
MAX_CUT_WORK = 10 ** 6


class PointSet:
    """Ordered distinct normalized points of P^m, immutable.  Not a tuple:
    its length, iteration and membership are those of its points."""

    __slots__ = ("points", "m", "field")

    def __init__(self, points: tuple, m: int, field: Field):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete PointSet.{name}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not PointSet:
            return NotImplemented
        return (self.points, self.m, self.field) == (other.points, other.m, other.field)

    def __hash__(self):
        return hash((self.points, self.m, self.field))

    def __repr__(self):
        return f"PointSet(points={self.points!r}, m={self.m!r}, field={self.field!r})"

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
    """All points of P^m(F_q) in lexicographic order of normalized encodings:
    the cut of no polynomial."""
    check_space(m, field.q)
    return PointSet(tuple(_zeros((), m, field)), m, field)


def variety_points(polys, m: int, field: Field) -> PointSet:
    """Common zero locus in P^m(F_q) of a list of homogeneous polynomials, in
    the order of `enumerate_projective`.  Refuses a cut whose points times
    (1 + terms) pass MAX_CUT_WORK, its work within a constant factor: per
    line of q points, one `value` and at most one q-list per term, and one
    q-list per nonzero polynomial (zero ones are dropped); the compiled lines'
    (groups of k) x q <= MAX_CUT_WORK index entries are freed after the cut."""
    for poly in polys:
        if not poly.is_homogeneous():
            raise NonHomogeneousError(f"not homogeneous: {poly}")
    terms = sum(len(poly.terms) for poly in polys)
    size = check_space(m, field.q)
    if size * (1 + terms) > MAX_CUT_WORK:
        raise SpaceTooLargeError(
            f"cutting the {size} points of P^{m}(F_{field.q}) by {terms} terms "
            f"would take more than {MAX_CUT_WORK} point-term evaluations")
    return PointSet(tuple(_zeros(polys, m, field)), m, field)


def _zeros(polys, m: int, field: Field):
    """The common zeros of homogeneous polynomials in lexicographic order,
    line by line along x_m: on the line x_0..x_{m-1} = base, x_m = t, the t
    where the `Field.line_values` of every nonzero polynomial vanish, and
    (0:...:0:1) first, as t = 1 on the line of base 0.  A generator, so that
    `variety_points` builds its tuple with no list in between."""
    lines = [field.line_terms(poly.terms) for poly in polys if not poly.is_zero()]
    elements = tuple(range(field.q))  # one int object per element, shared by the points
    walk = (((0,) * lead + (1,) + head, elements) for lead in range(m - 1, -1, -1)
            for head in product(elements, repeat=m - 1 - lead))
    for base, ts in chain([((0,) * m, (1,))], walk):
        for line in lines:
            values = field.line_values(line, base)
            ts = [t for t in ts if not values[t]]
        for t in ts:
            yield base + (t,)


class CIValidation(namedtuple("CIValidation", "degrees expected found split smooth")):
    __slots__ = ()

    def line(self):
        return (f"expected={self.expected} found={self.found} "
                f"split={str(self.split).lower()} smooth={str(self.smooth).lower()}")


def ci_degrees(polys, m: int) -> tuple:
    """The degrees of the m hypersurfaces of a complete intersection in P^m.
    Refuses another count, a zero polynomial, whose cut would be all of P^m,
    and a degree product of more than MAX_DIGITS digits, which
    `CIValidation.line` could not print: cheap, so callers check before the
    cut."""
    if len(polys) != m:
        raise WrongCountError(f"need exactly {m} hypersurfaces in P^{m}, "
                              f"got {len(polys)}")
    if any(p.is_zero() for p in polys):
        raise WrongCountError("the zero polynomial cuts out no hypersurface")
    degrees = tuple(p.degree() for p in polys)
    if prod(degrees) >= 10 ** MAX_DIGITS:
        raise SpaceTooLargeError(f"the product of the degrees has more than "
                                 f"{MAX_DIGITS} digits")
    return degrees


def validate_ci(polys, pts: PointSet) -> CIValidation:
    """Check the split/smooth proxy for a reduced complete intersection.

    split: the F_q point count equals the product of the degrees.
    smooth: the m x (m+1) Jacobian has rank m at every point.
    Precondition: `pts` are common zeros of `polys`.  Euler's relation
    sum_i x_i dF/dx_i = deg F * F then makes column j of the Jacobian a
    combination of the others where x_j != 0, so its rank is that of the
    m x m minor without the first nonzero coordinate's column.  The points
    are grouped by x_0..x_{m-1}, the cut's lines, and each group reads its
    minors from m^2 `Field.line_values` of the partials, compiled once by
    `Field.line_terms`.  `ci_degrees` refuses first.
    """
    m, field = pts.m, pts.field
    degrees = ci_degrees(polys, m)
    expected, found = prod(degrees), len(pts)
    jac = [[field.line_terms(p.partial_derivative(v).terms) for v in range(m + 1)]
           for p in polys]

    def regular(base, group):
        j = next((j for j, x in enumerate(base) if x), m)
        lines = [[field.line_values(row[v], base) for v in range(m + 1) if v != j]
                 for row in jac]
        if m == 1:  # the minor is one partial: nonzero, with no elimination
            return all(lines[0][0][pt[1]] for pt in group)
        return all(matrix_rank([[values[pt[m]] for values in row] for row in lines],
                               field) == m for pt in group)

    smooth = all(regular(base, group) for base, group in groupby(pts, lambda pt: pt[:m]))
    return CIValidation(degrees, expected, found, found == expected, smooth)
