"""Projective point enumeration and complete-intersection validation."""

from itertools import product
from unittest.mock import patch

import pytest

from cicodes import (
    enumerate_projective,
    field_new,
    parse,
    validate_ci,
    variety_points,
)
from cicodes.errors import NonHomogeneousError, SpaceTooLargeError, WrongCountError
from cicodes.geometry import PointSet, check_space
from cicodes.gf import Field
from cicodes.linalg import rank


@pytest.mark.parametrize("m,q_spec,expected", [
    (2, (2, 1), 7),
    (1, (5, 1), 6),
    (2, (3, 1), 13),
    (3, (2, 1), 15),
    (2, (2, 2), 21),
])
def test_projective_counts(m, q_spec, expected):
    field = field_new(*q_spec)
    pts = enumerate_projective(m, field)
    q = field.q
    assert len(pts) == expected == (q ** (m + 1) - 1) // (q - 1) == check_space(m, q)


def test_points_normalized_distinct_sorted():
    """Normalized, distinct, sorted and (q^(m+1) - 1)/(q - 1) in number: that
    fixes the list, without the walk that makes it."""
    for (p, e), m in product([(2, 1), (2, 2), (5, 1), (3, 2)], [1, 2, 3]):
        field = field_new(p, e)
        q = field.q
        pts = enumerate_projective(m, field)
        assert len(set(pts.points)) == len(pts) == (q ** (m + 1) - 1) // (q - 1)
        for pt in pts:
            assert len(pt) == m + 1 and all(0 <= c < q for c in pt)
            nz = [c for c in pt if c]
            assert nz and nz[0] == 1
        assert list(pts.points) == sorted(pts.points)


def test_space_too_large():
    field = field_new(251, 1)
    with pytest.raises(SpaceTooLargeError):
        enumerate_projective(4, field)


def test_two_conic_points():
    f5 = field_new(5, 1)
    polys = [parse("x1^2 - x0^2", 2, f5), parse("x2^2 - x0^2", 2, f5)]
    pts = variety_points(polys, 2, f5)
    assert pts.points == ((1, 1, 1), (1, 1, 4), (1, 4, 1), (1, 4, 4))


def test_reed_muller_points_q3():
    f3 = field_new(3, 1)
    polys = [parse("x1^3 - x0^2*x1", 2, f3), parse("x2^3 - x0^2*x2", 2, f3)]
    pts = variety_points(polys, 2, f3)
    assert len(pts) == 9
    assert all(pt[0] == 1 for pt in pts)  # all affine


def test_hermitian_points_q2():
    f4 = field_new(2, 2)
    polys = [parse("x1^3 + x2^2*x0 + x2*x0^2", 2, f4),
             parse("x2^2 + x2*x0 + x0^2", 2, f4)]
    pts = variety_points(polys, 2, f4)
    assert len(pts) == 6  # q^3 - q


def test_cut_work_limit():
    """|P^m| x (1 + terms) is bounded before the walk: 30,784 x 1,772 here."""
    f31 = field_new(31, 1)
    poly = parse("(x0 + x1 + x2 + x3)^20", 3, f31)
    with pytest.raises(SpaceTooLargeError, match="^cutting the 30784 points of "
                       "P\\^3\\(F_31\\) by 1771 terms would take more than 1000000 "
                       "point-term evaluations$"):
        variety_points([poly], 3, f31)


def test_zero_polynomials_cost_the_cut_nothing():
    """A zero polynomial has no terms, so MAX_CUT_WORK does not count it, and
    restricts no line: the cut drops it before the walk and makes exactly
    the `Field.line_values` calls of the other polynomials alone."""
    f7 = field_new(7, 1)
    f, zero = parse("x0*x2 - x1^2", 2, f7), parse("0", 2, f7)

    def cut(polys):
        with patch.object(Field, "line_values", autospec=True,
                          side_effect=Field.line_values) as spy:
            points = variety_points(polys, 2, f7)
        return points, spy.call_count

    alone = cut([f])
    assert alone[1] == 7 + 1  # the lines of base (1, x1) and (0, 1); (0:0:1) is one `value`
    for k in (1, 50):
        assert cut([zero] * k + [f]) == cut([f] + [zero] * k) == alone


def test_non_homogeneous_rejected():
    f3 = field_new(3, 1)
    with pytest.raises(NonHomogeneousError):
        variety_points([parse("x1^2 + x0", 2, f3)], 2, f3)


def test_variety_monotone():
    f5 = field_new(5, 1)
    p1 = parse("x1^2 - x0^2", 2, f5)
    p2 = parse("x2^2 - x0^2", 2, f5)
    a = set(variety_points([p1], 2, f5).points)
    b = set(variety_points([p1, p2], 2, f5).points)
    assert b <= a


def test_validate_ci_two_conic():
    f5 = field_new(5, 1)
    polys = [parse("x1^2 - x0^2", 2, f5), parse("x2^2 - x0^2", 2, f5)]
    pts = variety_points(polys, 2, f5)
    val = validate_ci(polys, pts)
    assert (val.expected, val.found) == (4, 4)
    assert val.split and val.smooth
    # oracle: Jacobian rows at each point, independence by direct 2x2 minors
    f = f5
    for (x0, x1, x2) in pts:
        row1 = (f.mul(f.neg(2), x0), f.mul(2, x1), 0)
        row2 = (f.mul(f.neg(2), x0), 0, f.mul(2, x2))
        minors = [
            f.sub(f.mul(row1[0], row2[1]), f.mul(row1[1], row2[0])),
            f.sub(f.mul(row1[0], row2[2]), f.mul(row1[2], row2[0])),
            f.sub(f.mul(row1[1], row2[2]), f.mul(row1[2], row2[1])),
        ]
        assert any(minors)


def test_validate_ci_reed_muller():
    f3 = field_new(3, 1)
    polys = [parse("x1^3 - x0^2*x1", 2, f3), parse("x2^3 - x0^2*x2", 2, f3)]
    pts = variety_points(polys, 2, f3)
    val = validate_ci(polys, pts)
    assert val.expected == val.found == 9
    assert val.split and val.smooth


def test_validate_ci_non_split():
    f3 = field_new(3, 1)
    polys = [parse("x1^2", 2, f3), parse("x2^2", 2, f3)]
    pts = variety_points(polys, 2, f3)
    val = validate_ci(polys, pts)
    assert val.expected == 4
    assert val.found == 1  # double structure at (1,0,0)
    assert not val.split


def jacobian_rank(polys, pt, field):
    return rank([[f.partial_derivative(v).evaluate(pt) for v in range(len(pt))]
                 for f in polys], field)


def test_euler_minor_needs_common_zeros():
    """The minor is a submatrix of the Jacobian, so its rank m gives the
    Jacobian's at any point of P^m; the converse needs Euler's relation, so
    every F(pt) = 0, which validate_ci takes as its precondition."""
    f5 = field_new(5, 1)
    systems = [[parse("x1^2 - x0^2", 2, f5), parse("x2^2 - x0^2", 2, f5)],
               [parse("x0*x1 + x2^2", 2, f5), parse("x1^2 - 2*x0*x2", 2, f5)],
               [parse("x1^3 - x0*x2^2", 2, f5), parse("x2", 2, f5)]]
    for polys in systems:
        for pt in enumerate_projective(2, f5):
            if validate_ci(polys, PointSet((pt,), 2, f5)).smooth:
                assert jacobian_rank(polys, pt, f5) == 2
    # off Gamma: F = x0 at (1:0) has Jacobian (1, 0), but the minor without
    # the column of x0 is dF/dx1 = 0
    polys, pt = [parse("x0", 1, f5)], (1, 0)
    assert polys[0].evaluate(pt) != 0 and jacobian_rank(polys, pt, f5) == 1
    assert not validate_ci(polys, PointSet((pt,), 1, f5)).smooth


def test_validate_ci_zero_polynomial():
    """Refused before the degree product, which would count -1 points."""
    f5 = field_new(5, 1)
    polys = [parse("x1", 2, f5), parse("0", 2, f5)]
    with pytest.raises(WrongCountError, match="^the zero polynomial cuts out no hypersurface$"):
        validate_ci(polys, variety_points(polys, 2, f5))


def test_validate_ci_wrong_count():
    f3 = field_new(3, 1)
    polys = [parse("x1^2", 2, f3)]
    pts = variety_points(polys, 2, f3)
    with pytest.raises(WrongCountError):
        validate_ci(polys, pts)


def test_split_implies_product_count(corpus):
    from math import prod
    for setup in corpus.values():
        assert len(setup.gamma) == prod(setup.degrees)
