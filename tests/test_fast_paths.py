"""Differential checks against the straightforward definitions: the
log-domain monomial kernel behind every evaluation, the upward sigma scan,
the truncated profile and its product pass, the CB-scheme relations read
from that pass, the CB sweep and the combination walks over incremental
echelon bases, rank and RREF by row insertion, the one codeword walk against
encoding each message, the minimum distance folded over it, and the
Brouwer-Zimmermann search and column count against its weights."""

import random
import sys
from itertools import combinations, product
from math import comb

from hypothesis import assume, example, given, settings, strategies as st

from cicodes import (
    CBReport,
    CISetup,
    CohomologyProfile,
    EvalCode,
    Polynomial,
    brouwer_zimmermann,
    build_code,
    cb_identity,
    column_distance,
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
    verify_symmetry,
    weight_distribution,
)
from cicodes import theorems
from cicodes.code import _bound_gain, _walk, evaluation_matrix
from cicodes.geometry import PointSet, enumerate_projective
from cicodes.linalg import insert, nullspace, rank, rref
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


def profile_reference(gamma):
    """Every row eliminated, a = -1 .. |Gamma|."""
    rows = []
    for a in range(-1, len(gamma) + 1):
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
       picks=st.lists(st.integers(0, 90), unique=True, max_size=14))
@example(q=5, picks=[])
@example(q=9, picks=[])
@example(q=5, picks=[0])
@example(q=9, picks=[40])
@example(q=5, picks=LINE_AT_INFINITY)
@example(q=5, picks=LINE_AT_INFINITY + [6])
@example(q=5, picks=GRID_3X3)
@example(q=5, picks=TWO_CONICS)
@example(q=9, picks=list(range(10)))
@example(q=4, picks=list(range(21)))  # all of P^2(F_4): no linear form misses it
@example(q=5, picks=list(range(31)))  # all of P^2(F_5), likewise
def test_fast_paths_match_reference(q, picks):
    space = PLANES[q]
    gamma = space.subset(i % len(space) for i in picks)
    prof = profile(gamma)
    assert sigma(gamma) == prof.sigma
    assert (prof.table, prof.sigma) == profile_reference(gamma)
    assert is_cb_scheme(gamma, prof.sigma) == is_cb_scheme_reference(gamma)


SPACES = {(m, q): enumerate_projective(m, field_new(p, e))
          for m, q, p, e in ((1, 7, 7, 1), (1, 8, 2, 3), (3, 2, 2, 1), (3, 3, 3, 1))}


@settings(max_examples=100, deadline=None)
@given(mq=st.sampled_from(sorted(SPACES)),
       picks=st.lists(st.integers(0, 39), unique=True, max_size=20))
@example(mq=(1, 8), picks=list(range(9)))  # all of P^1(F_8)
@example(mq=(3, 2), picks=list(range(15)))  # all of P^3(F_2)
@example(mq=(3, 3), picks=[])
def test_profile_ranks_match_each_degree_off_the_plane(mq, picks):
    """profile's ranks against one elimination of e_a per degree, through
    sigma + 1, on point subsets of P^1 and P^3."""
    space = SPACES[mq]
    gamma = space.subset(i % len(space) for i in picks)
    prof = profile(gamma)
    degrees = range(-1, prof.sigma + 2)
    assert [prof.rank(a) for a in degrees] == [rank_e(gamma, a) for a in degrees]


def relations_reference(gamma, a):
    """`theorems._relations` read off the code's own RREF generator."""
    gen = build_code(gamma, a).gen
    free = set(range(len(gamma))) - {row.index(1) for row in gen}
    return len(free), all(any(row[c] for c in free) for row in gen)


SUBSET_SPACES = {**{(2, q): plane for q, plane in PLANES.items()}, **SPACES}


@settings(max_examples=150, deadline=None)
@given(mq=st.sampled_from(sorted(SUBSET_SPACES)),
       picks=st.lists(st.integers(0, 90), unique=True, max_size=16))
@example(mq=(2, 4), picks=list(range(21)))  # all of P^2(F_4)
@example(mq=(2, 5), picks=LINE_AT_INFINITY)  # x_0 = 0 at every point
@example(mq=(1, 8), picks=list(range(9)))  # all of P^1(F_8)
def test_relations_from_the_pass_match_the_code(mq, picks):
    """The relations of e_a read from the product pass's basis of C_a against
    those read from `build_code(gamma, a).gen`, at every degree -2..sigma+2:
    below 0, through the pass, and past it, where C_a is all of F_q^n."""
    space = SUBSET_SPACES[mq]
    gamma = space.subset(i % len(space) for i in picks)
    for a in range(-2, profile(gamma).sigma + 3):
        assert theorems._relations(gamma, a) == relations_reference(gamma, a)


def test_examples_cover_both_verdicts():
    plane = PLANES[5]
    for picks, verdict in ((GRID_3X3, True), (TWO_CONICS, True),
                           (LINE_AT_INFINITY + [6], False)):
        gamma = plane.subset(picks)
        assert is_cb_scheme(gamma, sigma(gamma)) is verdict


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


def walk_splits(setup, a, budget=10 ** 5, seed=0):
    """The split walk alone, from the rows and ranks verify_cb_all hands it."""
    rows = tuple(evaluation_matrix(setup.gamma, b).rows for b in (setup.s - a, a))
    caps = tuple(rank(r, setup.gamma.field) for r in rows)
    return theorems._walk_splits(setup, a, budget, seed, rows, caps)


def certified_reference(setup, a):
    """rank e_a + rank e_{s-a} = n and, for 0 <= a <= s, the left kernel of
    e_s is one line spanned by a relation with no zero entry."""
    gamma, n, s = setup.gamma, setup.n, setup.s
    if rank_e(gamma, a) + rank_e(gamma, s - a) != n:
        return False
    if not 0 <= a <= s:
        return True
    e_s = evaluation_matrix(gamma, s).rows
    relations = nullspace([list(col) for col in zip(*e_s)], gamma.field, n)
    return len(relations) == 1 and all(relations[0])


# Not complete intersections with these s, so the identity fails on some splits.
NOT_CI_LINE = (LINE_AT_INFINITY[:4], 1, 0)
# e_0 and e_1 have ranks 1 + 3 = n, but e_1's one relation is 0 at a point.
ZERO_IN_RELATION = ([2, 13, 25, 28], 1, 0)
# At a = s - a = 1, e_1 has rank 3 = n / 2, but e_2 has rank n: no relation.
NO_RELATION = ([7, 8, 11, 16, 22, 24], 2, 1)


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
@example(q=5, picks=GRID_3X3, s=3, a=2, budget=40, seed=1)  # certified, sampled
@example(q=5, picks=ZERO_IN_RELATION[0], s=ZERO_IN_RELATION[1], a=ZERO_IN_RELATION[2],
         budget=1000, seed=0)
@example(q=5, picks=NO_RELATION[0], s=NO_RELATION[1], a=NO_RELATION[2],
         budget=1000, seed=0)
def test_cb_sweep_matches_per_split_identity(q, picks, s, a, budget, seed):
    """verify_cb_all and its split walk against the per-split path; a
    certified degree, which the walk never sees, has no violation there."""
    space = PLANES[q]
    setup = CISetup(space.subset(i % len(space) for i in picks), (), s)
    reference = verify_cb_all_reference(setup, a, budget, seed)
    walked = walk_splits(setup, a, budget, seed)
    assert verify_cb_all(setup, a, budget, seed) == walked == reference
    if certified_reference(setup, a):
        assert walked.violations == ()


def counted_walks(monkeypatch):
    """The degrees verify_cb_all walks from now on, in call order."""
    walks, walk = [], theorems._walk_splits

    def counted(*args):
        walks.append(args[1])
        return walk(*args)

    monkeypatch.setattr(theorems, "_walk_splits", counted)
    return walks


def test_cb_sweep_examples_have_violations(monkeypatch):
    """Degrees the certificate refuses are walked, and the walk lists their
    violations: ranks that sum to less than n, a relation of e_s with a zero
    entry, and an e_s with no relation."""
    walks = counted_walks(monkeypatch)
    for (picks, s, a), violations in ((NOT_CI_LINE, 5), (ZERO_IN_RELATION, 1),
                                      (NO_RELATION, 4)):
        setup = CISetup(PLANES[5].subset(picks), (), s)
        assert not certified_reference(setup, a)
        assert len(verify_cb_all(setup, a).violations) == violations
    assert walks == [0, 0, 1]


def test_cb_certificate_covers_complete_intersections(monkeypatch):
    """The two conics and the 3 x 3 grid are certified at every degree, in
    [0, s] and outside it, so no split is walked."""
    walks = counted_walks(monkeypatch)
    for picks, s in ((TWO_CONICS, 1), (GRID_3X3, 3)):
        setup = CISetup(PLANES[5].subset(picks), (), s)
        for a in range(-2, s + 3):
            assert certified_reference(setup, a)
            assert verify_cb_all(setup, a, 64) == verify_cb_all_reference(setup, a, 64, 0)
    assert walks == []


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


# p = 2 and odd p, prime and extension fields, with a large prime (F_37) and
# an odd-p extension past the kernel fields (F_17^2)
INSERT_FIELDS = {q: field_new(p, e) for q, p, e in (
    (2, 2, 1), (4, 2, 2), (5, 5, 1), (8, 2, 3), (9, 3, 2), (37, 37, 1), (289, 17, 2))}


@st.composite
def dependent_rows(draw):
    """Rows c1*u + c2*v over a few drawn rows u, v of width 0..6: zero rows
    (c1 = c2 = 0), repeats and F_q-multiples come up often."""
    field = INSERT_FIELDS[draw(st.sampled_from(sorted(INSERT_FIELDS)))]
    ncols, scalar = draw(st.integers(0, 6)), st.integers(0, field.q - 1)
    pool = draw(st.lists(st.lists(scalar, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    rows = []
    for u, v, c1, c2 in draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool),
                                                scalar, scalar), max_size=8)):
        rows.append([field.add(field.mul(c1, x), field.mul(c2, y)) for x, y in zip(u, v)])
    return field, rows


@settings(max_examples=300, deadline=None)
@given(dependent_rows())
@example((INSERT_FIELDS[9], [[1, 4], [3, 5], [0, 0], [1, 4]]))  # row 1 = w * row 0
@example((INSERT_FIELDS[37], [[5, 0, 36], [36, 1, 0], [4, 1, 36]]))  # row 2 = row 0 + row 1
def test_insert_grows_with_reference_rank(case):
    """insert(basis, row) grows the basis, by one entry, exactly when the row
    raises the Gauss-Jordan reference's pivot count of the rows so far, so
    len(basis) is that rank."""
    field, rows = case
    basis = []
    for i, row in enumerate(rows):
        before = len(basis)
        grew = insert(basis, row, field)
        assert grew == (len(rref_reference(rows[:i + 1], field)[1])
                        > len(rref_reference(rows[:i], field)[1]))
        assert len(basis) - before == grew
    assert len(basis) == len(rref_reference(rows, field)[1])


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


LINES = {q: enumerate_projective(1, field_new(p, e)) for q, p, e in (
    (2, 2, 1), (3, 3, 1), (7, 7, 1), (16, 2, 4), (27, 3, 3), (31, 31, 1), (49, 7, 2))}


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from(sorted(LINES)),
       picks=st.lists(st.integers(0, 31), unique=True, min_size=1, max_size=32),
       a=st.integers(0, 5))
@example(q=31, picks=list(range(32)), a=1)  # the lane bias 2^5 - 31 = 1
@example(q=7, picks=list(range(8)), a=3)  # the lane bias 2^3 - 7 = 1
@example(q=27, picks=list(range(28)), a=1)  # e = 3: three lanes per coordinate
@example(q=49, picks=list(range(32)), a=1)  # p = 2^3 - 1 in each of two lanes
def test_packed_lanes_match_reference(q, picks, a):
    """Point subsets of P^1: p = 2^j - 1 leaves the odd-p lane bias no slack,
    and e > 1 weighs a coordinate's e lanes as one number."""
    line = LINES[q]
    gamma = line.subset(i % len(line) for i in picks)
    assume(q ** min(a + 1, len(gamma)) <= 4096)  # messages the reference encodes
    code = build_code(gamma, a)
    weights = weight_distribution(code)
    assert weights == weight_distribution_reference(code)
    dist = min_distance(code)
    assert (dist.d, dist.codewords_scanned) == (min(weights), (q ** code.k - 1) // (q - 1))


WIDE_FIELDS = {q: field_new(p, e) for q, p, e in (
    (2, 2, 1), (4, 2, 2), (256, 2, 8), (65536, 2, 16), (243, 3, 5), (59049, 3, 10),
    (49, 7, 2), (63001, 251, 2), (65521, 65521, 1))}


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from(sorted(WIDE_FIELDS)),
       picks=st.lists(st.one_of(st.sampled_from([0, -1]), st.integers(0, 65535)),
                      min_size=1, max_size=40))
@example(q=65536, picks=[-1] * 40)  # 16 lanes per coordinate, every digit 1
@example(q=65521, picks=[-1] * 40)  # one 17-bit lane per coordinate, every digit p - 1
@example(q=59049, picks=[0, -1] * 20)
@example(q=63001, picks=[0, 1, -1, 251, 250])  # digit p - 1 in one lane and in both
def test_walk_weighs_wide_coordinates(q, picks):
    """_walk(1, 1) over one row g weighs g alone, at n - g.count(0), on
    coordinates of up to 16 lanes and 32 bits; pick -1 is q - 1, whose
    base-p digits are all p - 1."""
    field = WIDE_FIELDS[q]
    row = [x % q for x in picks]
    hist = [0] * (len(row) + 1)
    _walk(field, len(row), [row])(1, 1, hist)
    expected = [0] * (len(row) + 1)
    expected[len(row) - row.count(0)] = 1
    assert hist == expected


@st.composite
def generators(draw):
    """A code from a random k x n matrix, k <= 6 and n <= 16, a few of whose
    columns are set to zero or to a copy of another, so the rank can fall
    below k."""
    q = draw(st.sampled_from([2, 3, 4, 5, 9]))
    field = KERNEL_FIELDS[q]
    k = draw(st.integers(1, {2: 6, 3: 5}.get(q, 4)))  # at most 9^4 messages
    n = draw(st.integers(k, 16))
    column = st.lists(st.integers(0, q - 1), min_size=k, max_size=k)
    cols = draw(st.lists(column, min_size=n, max_size=n))
    index = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        cols[i] = cols[j]
    for i in draw(st.lists(index, max_size=2)):
        cols[i] = [0] * k
    gen, _ = rref([list(row) for row in zip(*cols)], field)
    gamma = PointSet(tuple((1, j) for j in range(n)), 1, field)  # n labels
    return EvalCode(gamma, 0, tuple(tuple(row) for row in gen))


@settings(max_examples=300, deadline=None)
@given(generators(), st.data())
def test_walk_weighs_each_message_once(code, data):
    """_walk(lo, hi) weighs each message with lo..hi nonzero entries whose
    first nonzero entry is 1 once, as encoding it directly does: with
    lo = hi = w, the Brouwer-Zimmermann step, C(k, w) * (q-1)^(w-1) words."""
    field, k, n = code.field, code.k, code.n
    assume(k)
    lo = data.draw(st.integers(1, k))
    hi = data.draw(st.integers(lo, k))
    hist = [0] * (n + 1)
    _walk(field, n, code.gen)(lo, hi, hist)
    expected = [0] * (n + 1)
    for msg in product(range(field.q), repeat=k):
        if lo <= k - msg.count(0) <= hi and next(c for c in msg if c) == 1:
            word = [0] * n
            for c, row in zip(msg, code.gen):
                word = [field.add(x, field.mul(c, g)) for x, g in zip(word, row)]
            expected[n - word.count(0)] += 1
    assert hist == expected
    if lo == hi:
        assert sum(hist) == comb(k, lo) * (field.q - 1) ** (lo - 1)


@settings(max_examples=500, deadline=None)
@given(generators())
@example(EvalCode(PointSet(((1, 0), (1, 1), (1, 2)), 1, KERNEL_FIELDS[9]), 0,
                  ((1, 3, 0), (0, 0, 1))))  # columns 0 and 1 lie on one point of P^1
def test_distance_searches_match_lightest_weight(code):
    """brouwer_zimmermann, and column_distance for k <= 2, against the
    lightest weight of the exhaustive scan."""
    assume(code.k)
    lightest = min(weight_distribution(code))
    assert brouwer_zimmermann(code).d == lightest
    if code.k <= 2:
        assert column_distance(code).d == lightest


def test_bound_gains_sum_to_each_sets_share():
    """After weight w, an information set of r new columns in a code of
    dimension k has added max(0, w + 1 - (k - r)) to the bound."""
    for k in range(1, 12):
        for r in range(1, k + 1):
            total = 0
            for w in range(1, k + 1):
                total += _bound_gain(w, k, r)
                assert total == max(0, w + 1 - (k - r)), (k, r, w)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 8), s=st.integers(-3, 40), data=st.data())
@example(n=0, s=10 ** 6, data=None)  # an empty Gamma: sigma = -1, every degree passes
def test_symmetry_window_matches_every_degree(n, s, data):
    """verify_symmetry's degrees up to sigma + 1 give the verdict of every
    degree of [-1, s+1], on nondecreasing ranks below n, from at most
    2 * (sigma + 3) rank reads however large s is."""
    ranks = sorted(data.draw(st.lists(st.integers(0, n - 1), max_size=n - 1))) if n > 1 else []
    gamma = PointSet(tuple((1, j) for j in range(n)), 1, KERNEL_FIELDS[2])
    prof = CohomologyProfile(gamma, tuple(ranks))
    every = all(prof.rank(a) + prof.rank(s - a) == n for a in range(-1, s + 2))
    reads = []

    class Counted:  # prof, counting its rank reads
        sigma = prof.sigma

        def rank(self, a):
            reads.append(a)
            return prof.rank(a)

    assert verify_symmetry(CISetup(gamma, (), s), Counted()) == every
    assert len(reads) <= 2 * (prof.sigma + 3)
