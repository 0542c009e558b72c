"""Projective point enumeration and complete-intersection validation."""

import pytest

from cicodes import (
    enumerate_projective,
    field_new,
    parse,
    validate_ci,
    variety_points,
)
from cicodes.errors import NonHomogeneousError, SpaceTooLargeError, WrongCountError
from cicodes.geometry import check_space


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
    field = field_new(3, 1)
    pts = enumerate_projective(2, field)
    seen = set(pts.points)
    assert len(seen) == len(pts)
    for pt in pts:
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
