"""Evaluation matrices, code construction, exact minimum distance."""

import random
from itertools import product

import pytest

from cicodes import (
    brouwer_zimmermann,
    build_code,
    choose_f0,
    enumerate_projective,
    evaluation_matrix,
    extended_rs,
    field_new,
    min_distance,
    parse,
    reed_muller_ci,
    variety_points,
    weight_distribution,
)
from cicodes.code import _point_row
from cicodes.errors import (CapExceededError, FieldMismatchError, NoNormalizerFoundError,
                            NormalizerVanishesError)
from cicodes.geometry import PointSet
from cicodes.poly import monomial_count
from conftest import nullspace


# -- oracles --

def span_size_rank(rows, field):
    """Rank via |span| = q^rank, by enumerating all linear combinations."""
    if not rows:
        return 0
    span = set()
    for coeffs in product(range(field.q), repeat=len(rows)):
        v = tuple(
            _fold(field, (field.mul(c, x) for c, x in zip(coeffs, col)))
            for col in zip(*[[r[i] for i in range(len(rows[0]))] for r in rows])
        )
        span.add(v)
    size = len(span)
    rank = 0
    while field.q ** rank < size:
        rank += 1
    assert field.q ** rank == size
    return rank


def _fold(field, values):
    total = 0
    for v in values:
        total = field.add(total, v)
    return total


def brute_distance(code):
    """Minimum weight over every nonzero message, straight encode."""
    field = code.field
    best = code.n
    for msg in product(range(field.q), repeat=code.k):
        if not any(msg):
            continue
        word = [0] * code.n
        for c, row in zip(msg, code.gen):
            if c:
                for i, g in enumerate(row):
                    word[i] = field.add(word[i], field.mul(c, g))
        wt = sum(1 for x in word if x)
        best = min(best, wt)
    return best


def rm3_points(f3):
    polys = [parse("x1^3 - x0^2*x1", 2, f3), parse("x2^3 - x0^2*x2", 2, f3)]
    return variety_points(polys, 2, f3)


def rank_and_kernel(mat):
    """Rank of e_a plus a basis of its kernel (degree-a piece of the ideal)."""
    ncols = monomial_count(mat.m, mat.degree)
    kernel = nullspace(mat.rows, mat.field, ncols)
    return ncols - len(kernel), kernel


# -- evaluation matrices --

def test_matrix_two_conic_degree1(f5):
    polys = [parse("x1^2 - x0^2", 2, f5), parse("x2^2 - x0^2", 2, f5)]
    pts = variety_points(polys, 2, f5)
    mat = evaluation_matrix(pts, 1)
    assert mat.rows == ((1, 1, 1), (1, 1, 4), (1, 4, 1), (1, 4, 4))
    r, _ = rank_and_kernel(mat)
    assert r == 3 == span_size_rank(mat.rows, f5)


def test_matrix_degree0_all_ones(f3):
    pts = rm3_points(f3)
    mat = evaluation_matrix(pts, 0)
    assert all(row == (1,) for row in mat.rows)
    r, kernel = rank_and_kernel(mat)
    assert r == 1 and kernel == []


def test_matrix_rm_degree2_full_rank(f3):
    pts = rm3_points(f3)
    mat = evaluation_matrix(pts, 2)
    assert (len(mat.rows), len(mat.rows[0])) == (9, 6)
    r, kernel = rank_and_kernel(mat)
    assert r == 6 and not kernel
    # oracle: no nonzero conic vanishes at all 9 affine points
    for coeffs in product(range(3), repeat=6):
        if not any(coeffs):
            continue
        vals = [_fold(f3_ := pts.field,
                      (f3_.mul(c, e) for c, e in zip(coeffs, row)))
                for row in mat.rows]
        assert any(vals)


def test_kernel_is_defining_cubics(f3):
    pts = rm3_points(f3)
    mat = evaluation_matrix(pts, 3)
    r, kernel = rank_and_kernel(mat)
    assert r == 8
    assert len(kernel) == 2
    # every kernel vector is a cubic vanishing on all 9 points
    for vec in kernel:
        for row in mat.rows:
            assert _fold(pts.field,
                         (pts.field.mul(c, e) for c, e in zip(vec, row))) == 0


def test_single_point_rank(f5):
    pts = PointSet(((1, 2, 3),), 2, f5)
    for a in range(4):
        r, _ = rank_and_kernel(evaluation_matrix(pts, a))
        assert r == 1


def test_rank_nondecreasing_and_stabilizes(f3):
    pts = rm3_points(f3)
    from cicodes import rank_e
    ranks = [rank_e(pts, a) for a in range(12)]
    assert all(x <= y for x, y in zip(ranks, ranks[1:]))
    assert all(r == 9 for r in ranks[8:])  # a >= |Gamma| - 1


# -- f0 --

def test_choose_f0_affine(f3):
    pts = rm3_points(f3)
    f0 = choose_f0(pts, 2)
    assert f0.terms == {(2, 0, 0): 1}


def test_choose_f0_search(f5):
    pts = PointSet(((1, 0, 0), (0, 1, 0)), 2, f5)
    f0 = choose_f0(pts, 1)
    assert all(f0.evaluate(pt) != 0 for pt in pts)


def test_choose_f0_impossible_on_p1_f2(f2):
    # all three nonzero linear forms over F_2 vanish somewhere on P^1(F_2);
    # exhaustive oracle first
    pts = enumerate_projective(1, f2)
    assert len(pts) == 3
    for c0, c1 in product(range(2), repeat=2):
        if (c0, c1) == (0, 0):
            continue
        vals = [f2.add(f2.mul(c0, x0), f2.mul(c1, x1)) for x0, x1 in pts]
        assert 0 in vals
    with pytest.raises(NoNormalizerFoundError):
        choose_f0(pts, 1)


def test_normalizer_vanishes(f3):
    pts = rm3_points(f3)
    bad = parse("x1", 2, f3)
    with pytest.raises(NormalizerVanishesError):
        build_code(pts, 1, f0=bad)


def test_normalizer_arity(f3):
    """f0 in three variables on P^1: refused as `Polynomial.evaluate` would
    refuse a point of two coordinates, but not on an empty Gamma, where f0
    is evaluated nowhere."""
    f0 = parse("x0 + x1 + x2", 2, f3)
    with pytest.raises(FieldMismatchError, match="^point has 2 coordinates, expected 3$"):
        build_code(enumerate_projective(1, f3), 1, f0=f0)
    assert build_code(PointSet((), 1, f3), 1, f0=f0).k == 0


# -- code parameters --

def test_extended_rs_dimensions(f5):
    polys, spec = extended_rs(5, 1)
    pts = variety_points(polys, 1, f5)
    code = build_code(pts, 2)
    assert (code.n, code.k) == (5, 3)


def test_rm_code_dimensions(f3):
    pts = rm3_points(f3)
    code = build_code(pts, 2)
    assert (code.n, code.k) == (9, 6)


def test_degree0_repetition(f3):
    pts = rm3_points(f3)
    code = build_code(pts, 0)
    assert (code.n, code.k) == (9, 1)
    assert min_distance(code).d == 9


def test_generator_rows_independent(f3):
    pts = rm3_points(f3)
    for a in range(4):
        code = build_code(pts, a)
        assert span_size_rank(code.gen, f3) == code.k


# -- distances --

def test_rs_distance(f5):
    polys, _ = extended_rs(5, 1)
    pts = variety_points(polys, 1, f5)
    code = build_code(pts, 2)
    res = min_distance(code)
    assert res.d == 3 == brute_distance(code)  # q - a
    assert res.codewords_scanned == (5 ** 3 - 1) // 4


@pytest.mark.parametrize("a,expected", [(1, 6), (3, 2)])
def test_rm_distances(f3, a, expected):
    pts = rm3_points(f3)
    code = build_code(pts, a)
    res = min_distance(code)
    assert res.d == expected == brute_distance(code)


def test_brouwer_zimmermann_words_on_rm4_2():
    """RM(4,2) at a = 3 (n = 16, k = 10, d = 4): two information sets, r = 10
    and 6, bound 4 after the first finishes weight 3, at most 2,450 words
    where the scan of every projective class visits 349,525."""
    polys, spec = reed_muller_ci(4, 2)
    code = build_code(variety_points(polys, 2, spec.field), 3)
    res = brouwer_zimmermann(code)
    assert (code.k, res.d) == (10, 4)
    assert res.codewords_scanned <= 2450


def test_brouwer_zimmermann_first_set_is_the_generator(monkeypatch):
    """The generator is an RREF in the identity column order, so it is the
    first information set as it stands: on RM(4,2) at a = 3 the search
    eliminates for the second set and for the one that finds no new column."""
    from cicodes import code as code_module
    polys, spec = reed_muller_ci(4, 2)
    code = build_code(variety_points(polys, 2, spec.field), 3)
    calls, rref = [], code_module.rref

    def counted(rows, field):
        calls.append(None)
        return rref(rows, field)

    monkeypatch.setattr(code_module, "rref", counted)
    assert brouwer_zimmermann(code).d == 4
    assert len(calls) == 2


def test_cap_exceeded(f3):
    pts = rm3_points(f3)
    code = build_code(pts, 3)  # k = 8
    with pytest.raises(CapExceededError) as exc:
        min_distance(code, cap=100)
    assert exc.value.required == (3 ** 8 - 1) // 2  # one word per projective class


def test_cap_counts_visited_words(f3):
    code = build_code(rm3_points(f3), 3)  # k = 8
    visited = (3 ** 8 - 1) // 2  # below q^k - 1, so this cap used to refuse
    assert min_distance(code, cap=visited).codewords_scanned == visited
    assert sum(weight_distribution(code, cap=visited).values()) == 3 ** 8 - 1
    with pytest.raises(CapExceededError) as exc:
        weight_distribution(code, cap=visited - 1)
    assert exc.value.required == visited


def test_walk_packs_one_lane_row_per_base_p_digit(monkeypatch):
    """Over F_3^6, code._walk packs each generator row g_j once, as its e
    lane rows w^i * g_j for i < e: at most k*e*n products, not one scaled row
    per field element (k*q*n = 531,441 here)."""
    field = field_new(3, 6)
    line = PointSet(tuple((1, x) for x in range(field.q)), 1, field)
    code = build_code(line, 0)  # the repetition code of length 729
    calls = []
    mul = field.mul

    def counted_mul(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(field, "mul", counted_mul)
    res = min_distance(code)
    assert (code.k, code.n, res.d, res.codewords_scanned) == (1, 729, 729, 1)
    assert len(calls) <= code.k * field.e * code.n  # 4,374


def test_singleton_bound(corpus):
    for setup in corpus.values():
        for a in range(0, setup.s + 2):
            code = build_code(setup.gamma, a)
            if setup.gamma.field.q ** code.k - 1 > (1 << 22):
                continue
            d = min_distance(code).d
            assert 1 <= d <= code.n - code.k + 1


def test_f0_independence_of_weights(corpus):
    """Any two valid normalizers give diagonally equivalent codes."""
    cases = [("two_conic", 1), ("rm_q3_m2", 2), ("rs_q5_m1", 2)]
    for name, a in cases:
        setup = corpus[name]
        gamma = setup.gamma
        f0 = choose_f0(gamma, a)
        # find a different normalizer by seeded search
        field = gamma.field
        rng = random.Random(12345)
        from cicodes import Polynomial, monomials_of_degree
        alt = None
        while alt is None:
            terms = {e: rng.randrange(field.q)
                     for e in monomials_of_degree(gamma.m, a)}
            cand = Polynomial(field, gamma.m + 1, terms)
            if not cand.is_zero() and cand != f0 \
                    and all(cand.evaluate(pt) != 0 for pt in gamma):
                alt = cand
        d1 = weight_distribution(build_code(gamma, a, f0=f0))
        d2 = weight_distribution(build_code(gamma, a, f0=alt))
        d3 = weight_distribution(build_code(gamma, a))
        assert d1 == d2 == d3


def test_representative_independence(f5):
    """Rescaling homogeneous coordinates never changes (n, k, d)."""
    polys = [parse("x1^2 - x0^2", 2, f5), parse("x2^2 - x0^2", 2, f5)]
    pts = variety_points(polys, 2, f5)
    code = build_code(pts, 1)
    base = (code.n, code.k, min_distance(code).d)
    rng = random.Random(7)
    for _ in range(5):
        scaled_rows = []
        for pt in pts:
            lam = rng.randrange(1, 5)
            rep = tuple(f5.mul(lam, c) for c in pt)
            scaled_rows.append(list(_point_row(rep, 1, 2, f5)))
        spanning = [list(col) for col in zip(*scaled_rows)]
        from cicodes.linalg import rref
        gen, _ = rref(spanning, f5)
        from cicodes.code import EvalCode
        alt = EvalCode(pts, 1, tuple(tuple(r) for r in gen))
        assert (alt.n, alt.k, min_distance(alt).d) == base
