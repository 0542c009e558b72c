"""Named families: extended Reed-Solomon, Reed-Muller, Hermitian."""

import pytest

from cicodes import (
    Polynomial,
    build_code,
    ci_setup,
    extended_rs,
    field_new,
    hermitian_ci,
    min_distance,
    parse,
    poly_text,
    reed_muller_ci,
    rm_exact_distance,
    validate_ci,
    variety_points,
    verify_main_theorem,
)
from cicodes.errors import DegreeOutOfRangeError
from cicodes.families import FamilySpec
from cicodes.gf import _prime_power


def test_extended_rs_q5_m2():
    polys, spec = extended_rs(5, 2)
    assert spec.degrees == (1, 5)
    assert spec.s == 3 == 5 - 2  # q - 2
    setup = ci_setup(polys, 2, spec.field)
    assert len(setup.gamma) == 5


def test_extended_rs_q5_m1():
    polys, spec = extended_rs(5, 1)
    assert len(polys) == 1
    setup = ci_setup(polys, 1, spec.field)
    assert len(setup.gamma) == 5
    assert all(pt[0] == 1 for pt in setup.gamma)  # affine points of P^1


@pytest.mark.parametrize("q,m", [(4, 1), (7, 1), (8, 2), (9, 2)])
def test_extended_rs_validates(q, m):
    polys, spec = extended_rs(q, m)
    pts = variety_points(polys, m, spec.field)
    val = validate_ci(polys, pts)
    assert val.split and val.smooth
    assert val.found == q


def test_extended_rs_mds_sweep():
    polys, spec = extended_rs(5, 1)
    setup = ci_setup(polys, 1, spec.field)
    for a in range(1, setup.s + 1):
        r = verify_main_theorem(setup, a)
        assert r.mds and r.d_exact == 5 - a


def test_reed_muller_q3_m2():
    polys, spec = reed_muller_ci(3, 2)
    assert spec.s == 3  # m(q-1) - 1
    setup = ci_setup(polys, 2, spec.field)
    assert len(setup.gamma) == 9


def test_reed_muller_q2_m3():
    polys, spec = reed_muller_ci(2, 3)
    assert spec.s == 2
    setup = ci_setup(polys, 3, spec.field)
    assert len(setup.gamma) == 8


def test_reed_muller_m1_is_rs():
    rm_polys, _ = reed_muller_ci(4, 1)
    rs_polys, _ = extended_rs(4, 1)
    assert rm_polys[0] == rs_polys[0]


@pytest.mark.parametrize("q,m,a,expected", [
    (3, 2, 1, 6), (3, 2, 2, 3), (3, 2, 3, 2),
    (2, 3, 1, 4), (2, 3, 2, 2),
])
def test_rm_exact_distance_values(q, m, a, expected):
    assert rm_exact_distance(q, m, a) == expected


def _old_affine_binomial(field, nvars, j, q):
    lead = [0] * nvars
    lead[j] = q
    trail = [0] * nvars
    trail[0] = q - 1
    trail[j] = 1
    return Polynomial(field, nvars, {tuple(lead): 1, tuple(trail): field.neg(1)})


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_affine_families_match_separate_builders(q, m):
    """The shared builder gives what RS (hyperplanes x1..x_{m-1}, then a
    binomial) and RM (m binomials) were built as on their own."""
    p, e = _prime_power(q)
    field = field_new(p, e)
    rs = [Polynomial.variable(field, m + 1, j) for j in range(1, m)]
    rs.append(_old_affine_binomial(field, m + 1, m, q))
    rm = [_old_affine_binomial(field, m + 1, j, q) for j in range(1, m + 1)]
    for (polys, spec), old, kind, degrees in [
            (extended_rs(q, m), rs, "extended_rs", (1,) * (m - 1) + (q,)),
            (reed_muller_ci(q, m), rm, "reed_muller", (q,) * m)]:
        assert spec == FamilySpec(kind, q, m, degrees, field)
        assert polys == old
        assert [poly_text(f) for f in polys] == [poly_text(f) for f in old]


def test_rm_exact_distance_range():
    with pytest.raises(DegreeOutOfRangeError):
        rm_exact_distance(3, 2, 5)
    with pytest.raises(DegreeOutOfRangeError):
        rm_exact_distance(3, 2, -1)


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (4, 2)])
def test_rm_distance_matches_formula(q, m):
    polys, spec = reed_muller_ci(q, m)
    setup = ci_setup(polys, m, spec.field)
    from cicodes import rank_e
    # up to a = s + 1 = m(q-1), the top of the formula's range, where d = 1
    for a in range(1, spec.s + 2):
        k = rank_e(setup.gamma, a)
        if spec.field.q ** k - 1 > (1 << 22):
            continue
        code = build_code(setup.gamma, a)
        assert min_distance(code).d == rm_exact_distance(q, m, a), (q, m, a)


def test_hermitian_q2():
    polys, spec = hermitian_ci(2)
    field = spec.field
    assert field.q == 4
    curve, product = polys
    assert spec.degrees == (3, 2)
    assert spec.s == 2  # q^2 - 2
    assert product == parse("x2^2 + x2*x0 + x0^2", 2, field)
    setup = ci_setup(polys, 2, field)
    assert len(setup.gamma) == 6  # q^3 - q
    # product-expansion oracle: F agrees with the two linear factors everywhere
    w = field.generator_element
    w2 = field.mul(w, w)
    from itertools import product as iproduct
    for pt in iproduct(range(4), repeat=3):
        expect = field.mul(
            field.sub(pt[2], field.mul(w, pt[0])),
            field.sub(pt[2], field.mul(w2, pt[0])))
        assert product.evaluate(pt) == expect


def test_hermitian_q3():
    polys, spec = hermitian_ci(3)
    assert spec.field.q == 9
    curve, product = polys
    assert product.degree() == 6  # q^2 - q factors
    setup = ci_setup(polys, 2, spec.field)
    assert len(setup.gamma) == 24  # q^3 - q
    assert setup.s == 7  # q^2 - 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_hermitian_product_is_the_lines(q):
    """The second polynomial, T^(q-1) - x0^(q^2-q) with T = x2^q + x0^(q-1) x2,
    equals the product of the q^2 - q lines x2 - alpha*x0 over the alpha with
    alpha^q + alpha != 0, multiplied out one line at a time."""
    (_, product), spec = hermitian_ci(q)
    field = spec.field
    lines = Polynomial.constant(field, 3, 1)
    for alpha in range(field.q):
        if field.add(field.pow(alpha, q), alpha) != 0:
            line = Polynomial(field, 3, {(0, 0, 1): 1, (1, 0, 0): field.neg(alpha)})
            lines = lines * line
    assert lines.degree() == q * q - q
    assert product == lines


def test_hermitian_points_have_x1_nonzero():
    polys, spec = hermitian_ci(2)
    setup = ci_setup(polys, 2, spec.field)
    for pt in setup.gamma:
        assert pt[0] == 1 and pt[1] != 0


def test_family_outputs_all_validate(corpus):
    for setup in corpus.values():
        assert setup.s >= -1
