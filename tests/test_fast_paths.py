"""Differential checks against the straightforward definitions: the
log-domain monomial kernel behind every evaluation, the upward sigma scan,
the truncated profile, the one-elimination CB-scheme test, the CB sweep
and the combination walks over incremental echelon bases, rank and RREF by
row insertion, and the minimum distance folded over the codeword odometer."""

import random
import sys
from itertools import combinations, product
from math import comb

from hypothesis import example, given, settings, strategies as st

from cicodes import (
    CBReport,
    CISetup,
    Polynomial,
    build_code,
    cb_identity,
    field_new,
    h0,
    h1,
    is_cb_scheme,
    min_distance,
    profile,
    rank_e,
    sigma,
    verify_cb_all,
    verify_mds_corollary,
    verify_projection_injectivity,
    weight_distribution,
)
from cicodes.code import evaluation_matrix
from cicodes.geometry import PointSet, enumerate_projective
from cicodes.linalg import rank, rref
from cicodes.poly import monomials_of_degree

KERNEL_FIELDS = {q: field_new(p, e) for q, p, e in (
    (2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (8, 2, 3), (9, 3, 2), (16, 2, 4))}
PLANES = {q: enumerate_projective(2, field_new(p, e))
          for q, p, e in ((4, 2, 2), (5, 5, 1), (8, 2, 3), (9, 3, 2))}


def monomial_reference(field, point, expo):
    """Product of the coordinate powers, one mul and one pow per coordinate."""
    v = 1
    for x, k in zip(point, expo):
        v = field.mul(v, field.pow(x, k))
    return v


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from(sorted(KERNEL_FIELDS)), m=st.integers(1, 2), data=st.data())
def test_monomial_kernel_matches_power_products(q, m, data):
    """Field.monomial, the rows of evaluation_matrix and Polynomial.evaluate,
    at points with zero coordinates drawn often and degrees up to q + 2."""
    field = KERNEL_FIELDS[q]
    coord = st.one_of(st.just(0), st.integers(0, q - 1))
    points = data.draw(st.lists(st.tuples(*[coord] * (m + 1)),
                                min_size=1, max_size=4))
    a = data.draw(st.integers(0, q + 2))
    monomials = monomials_of_degree(m, a)
    matrix = evaluation_matrix(PointSet(tuple(points), m, field), a)
    for pt, row in zip(points, matrix.rows):
        expected = [monomial_reference(field, pt, expo) for expo in monomials]
        assert [field.monomial(pt, expo) for expo in monomials] == expected
        assert list(row) == expected
    coefs = data.draw(st.lists(st.integers(0, q - 1), min_size=len(monomials),
                               max_size=len(monomials)))
    poly = Polynomial(field, m + 1, dict(zip(monomials, coefs)))
    for pt in points:
        expected = 0
        for expo, c in zip(monomials, coefs):
            term = field.mul(c, monomial_reference(field, pt, expo))
            expected = field.add(expected, term)
        assert poly.evaluate(pt) == expected


def sigma_reference(gamma):
    """Largest a <= n-2 with h1 > 0, scanning down from n-2."""
    for a in range(len(gamma) - 2, -1, -1):
        if h1(gamma, a) > 0:
            return a
    return -1


def profile_reference(gamma, a_max):
    """Every row eliminated, a = -1 .. a_max."""
    rows = []
    for a in range(-1, a_max + 1):
        dim_ra = comb(a + gamma.m, gamma.m) if a >= 0 else 0
        rows.append((a, dim_ra, rank_e(gamma, a), h0(gamma, a), h1(gamma, a)))
    return tuple(rows), sigma_reference(gamma)


def is_cb_scheme_reference(gamma):
    """Drop each point in turn and compare h0 in degree sigma."""
    sg = sigma_reference(gamma)
    if sg < 0:
        return True
    full = h0(gamma, sg)
    n = len(gamma)
    return all(h0(gamma.subset([j for j in range(n) if j != i]), sg) == full
               for i in range(n))


# Indices into PLANES[5]: 0..5 are the line x0 = 0; (1, x, y) is 6 + 5x + y.
LINE_AT_INFINITY = list(range(6))
GRID_3X3 = [6 + 5 * x + y for x in range(3) for y in range(3)]  # a (3,3) CI
TWO_CONICS = [12, 15, 27, 30]  # (1, +-1, +-1), a (2,2) CI


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from(sorted(PLANES)),
       picks=st.lists(st.integers(0, 90), unique=True, max_size=14),
       a_max=st.integers(-1, 16))
@example(q=5, picks=[], a_max=3)
@example(q=9, picks=[], a_max=-1)
@example(q=5, picks=[0], a_max=2)
@example(q=9, picks=[40], a_max=2)
@example(q=5, picks=LINE_AT_INFINITY, a_max=7)
@example(q=5, picks=LINE_AT_INFINITY + [6], a_max=7)
@example(q=5, picks=GRID_3X3, a_max=10)
@example(q=5, picks=TWO_CONICS, a_max=4)
@example(q=9, picks=list(range(10)), a_max=12)
def test_fast_paths_match_reference(q, picks, a_max):
    space = PLANES[q]
    gamma = space.subset(i % len(space) for i in picks)
    prof = profile(gamma, a_max)
    assert sigma(gamma) == prof.sigma
    assert (prof.table, prof.sigma) == profile_reference(gamma, a_max)
    assert is_cb_scheme(gamma) == is_cb_scheme_reference(gamma)


def test_examples_cover_both_verdicts():
    plane = PLANES[5]
    assert is_cb_scheme(plane.subset(GRID_3X3))
    assert is_cb_scheme(plane.subset(TWO_CONICS))
    assert not is_cb_scheme(plane.subset(LINE_AT_INFINITY + [6]))


def verify_cb_all_reference(setup, a, budget, seed):
    """The per-split path: one subset PointSet per mask through cb_identity."""
    n = setup.n
    total = 1 << n
    if total <= budget:
        masks, exhaustive = range(total), True
    else:
        rng = random.Random(seed)
        picked = {0, total - 1}
        for i in range(n):
            picked.add(1 << i)
            picked.add((total - 1) ^ (1 << i))
        while len(picked) < budget:
            picked.add(rng.randrange(total))
        masks, exhaustive = sorted(picked), False
    violations = []
    for mask in masks:
        lhs, rhs = cb_identity(setup, a, setup.gamma.subset_mask(mask))
        if lhs != rhs:
            violations.append((mask, lhs, rhs))
    return CBReport(a, len(masks), tuple(violations), exhaustive, seed)


# Not complete intersections with these s, so the identity fails on some splits.
NOT_CI_LINE = (LINE_AT_INFINITY[:4], 1, 0)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(sorted(PLANES)),
       picks=st.lists(st.integers(0, 90), unique=True, max_size=12),
       s=st.integers(-2, 6), a=st.integers(-2, 9),
       budget=st.sampled_from([1, 7, 40, 1000]), seed=st.integers(0, 3))
@example(q=5, picks=TWO_CONICS, s=1, a=0, budget=1000, seed=0)
@example(q=5, picks=GRID_3X3[:8], s=3, a=5, budget=40, seed=1)
@example(q=5, picks=[], s=0, a=1, budget=1, seed=0)
@example(q=5, picks=NOT_CI_LINE[0], s=NOT_CI_LINE[1], a=NOT_CI_LINE[2],
         budget=1000, seed=0)
@example(q=4, picks=list(range(0, 18, 2)), s=2, a=1, budget=1000, seed=0)  # F_4
@example(q=9, picks=list(range(12)), s=3, a=1, budget=1000, seed=2)  # deep prefixes
@example(q=5, picks=GRID_3X3 + [0], s=3, a=2, budget=7, seed=3)  # budget < 2n+2
def test_cb_sweep_matches_per_split_identity(q, picks, s, a, budget, seed):
    space = PLANES[q]
    setup = CISetup(space.subset(i % len(space) for i in picks), (), s)
    assert verify_cb_all(setup, a, budget, seed) == \
        verify_cb_all_reference(setup, a, budget, seed)


def test_cb_sweep_examples_have_violations():
    picks, s, a = NOT_CI_LINE
    setup = CISetup(PLANES[5].subset(picks), (), s)
    assert verify_cb_all(setup, a).violations


def test_cb_sweep_deeper_than_recursion_limit():
    """The walk keeps its own stack: n points nest n levels deep."""
    gamma = enumerate_projective(2, field_new(37, 1))
    n = len(gamma)
    assert n > sys.getrecursionlimit()
    report = verify_cb_all(CISetup(gamma, (), 0), 0, budget=1)
    # In degree 0 only the empty mask and the single points miss the identity.
    assert report.splits_checked == 2 * n + 2
    assert report.violations == ((0, 1, n - 1),) + tuple(
        (1 << i, 0, n - 2) for i in range(n))


def projection_injectivity_reference(setup, a):
    """h0 in degree a of every subset of n - (s-a+1) points, one by one."""
    n = setup.n
    size = n - (setup.s - a + 1)
    if size > n:
        return True
    full = h0(setup.gamma, a)
    return all(h0(setup.gamma.subset(combo), a) == full
               for combo in combinations(range(n), max(size, 0)))


def mds_corollary_reference(setup, a):
    """h1 in degree s-a of every subset of h1(Gamma, a) points, one by one."""
    code = build_code(setup.gamma, a)
    mds_exact = min_distance(code).d == code.n - code.k + 1
    vanishes = all(h1(setup.gamma.subset(combo), setup.s - a) == 0
                   for combo in combinations(range(setup.n), h1(setup.gamma, a)))
    return mds_exact == vanishes


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from(sorted(PLANES)),
       picks=st.lists(st.integers(0, 90), unique=True, max_size=6),
       s=st.integers(-2, 6), a=st.integers(-2, 5))
@example(q=5, picks=TWO_CONICS, s=1, a=1)
@example(q=5, picks=GRID_3X3[:6], s=3, a=2)
@example(q=4, picks=[0, 1, 2, 5, 9], s=2, a=0)
@example(q=5, picks=[], s=0, a=0)
@example(q=5, picks=[10, 18, 21, 29], s=1, a=1)  # fails only with the last point
@example(q=5, picks=[0, 2, 10, 13, 20, 24], s=2, a=1)  # likewise for the MDS side
def test_combination_walks_match_reference(q, picks, s, a):
    space = PLANES[q]
    picks = picks[:6 if q <= 5 else 4]  # at most 5^6, 8^4 or 9^4 codewords
    setup = CISetup(space.subset(i % len(space) for i in picks), (), s)
    assert verify_projection_injectivity(setup, a) == \
        projection_injectivity_reference(setup, a)
    if picks and a >= 0:  # else the code is zero and has no distance
        assert verify_mds_corollary(setup, a) == mds_corollary_reference(setup, a)


FIELDS = {q: field_new(p, e) for q, p, e in ((2, 2, 1), (4, 2, 2), (5, 5, 1), (9, 3, 2))}


@st.composite
def matrices(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    ncols = draw(st.integers(0, 6))
    row = st.lists(st.integers(0, field.q - 1), min_size=ncols, max_size=ncols)
    return field, draw(st.lists(row, max_size=6))


def rref_reference(rows, field):
    """Gauss-Jordan: each pivot in turn clears its whole column."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_is_rref_pivot_count(case):
    field, rows = case
    assert rank(rows, field) == len(rref(rows, field)[1])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_gauss_jordan(case):
    field, rows = case
    snapshot = [list(row) for row in rows]
    assert rref(rows, field) == rref_reference(rows, field)
    assert rows == snapshot  # inputs are not modified


def weight_distribution_reference(code):
    """Weight -> count over all q^k - 1 nonzero messages, each encoded directly."""
    field, dist = code.field, {}
    for msg in product(range(field.q), repeat=code.k):
        if any(msg):
            word = [0] * code.n
            for c, row in zip(msg, code.gen):
                word = [field.add(x, field.mul(c, g)) for x, g in zip(word, row)]
            wt = code.n - word.count(0)
            dist[wt] = dist.get(wt, 0) + 1
    return dist


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(sorted(PLANES)),
       picks=st.lists(st.integers(0, 90), unique=True, min_size=1, max_size=6),
       a=st.integers(0, 3))
def test_min_distance_is_lightest_weight(q, picks, a):
    space = PLANES[q]
    picks = picks[:6 if q == 5 else 4]  # at most 5^6, 8^4 or 9^4 codewords
    code = build_code(space.subset(i % len(space) for i in picks), a)
    dist = min_distance(code)
    weights = weight_distribution(code)
    assert weights == weight_distribution_reference(code)
    assert dist.d == min(weights)
    assert dist.codewords_scanned == (q ** code.k - 1) // (q - 1)
    assert sum(weights.values()) == q ** code.k - 1
