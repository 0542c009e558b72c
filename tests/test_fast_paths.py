"""Differential checks against the straightforward definitions: the upward
sigma scan, the truncated profile, the one-elimination CB-scheme test, the
CB sweep over shared point rows, forward-only rank, and the minimum distance
folded over the codeword odometer."""

import random
from math import comb

from hypothesis import example, given, settings, strategies as st

from cicodes import (
    CBReport,
    CISetup,
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
    weight_distribution,
)
from cicodes.geometry import enumerate_projective
from cicodes.linalg import rank, rref

PLANES = {q: enumerate_projective(2, field_new(p, e))
          for q, p, e in ((5, 5, 1), (9, 3, 2))}


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
       picks=st.lists(st.integers(0, 90), unique=True, max_size=8),
       s=st.integers(-2, 6), a=st.integers(-2, 9),
       budget=st.sampled_from([1, 7, 40, 1000]), seed=st.integers(0, 3))
@example(q=5, picks=TWO_CONICS, s=1, a=0, budget=1000, seed=0)
@example(q=5, picks=GRID_3X3[:8], s=3, a=5, budget=40, seed=1)
@example(q=5, picks=[], s=0, a=1, budget=1, seed=0)
@example(q=5, picks=NOT_CI_LINE[0], s=NOT_CI_LINE[1], a=NOT_CI_LINE[2],
         budget=1000, seed=0)
def test_cb_sweep_matches_per_split_identity(q, picks, s, a, budget, seed):
    space = PLANES[q]
    setup = CISetup(space.subset(i % len(space) for i in picks), (), s)
    assert verify_cb_all(setup, a, budget, seed) == \
        verify_cb_all_reference(setup, a, budget, seed)


def test_cb_sweep_examples_have_violations():
    picks, s, a = NOT_CI_LINE
    setup = CISetup(PLANES[5].subset(picks), (), s)
    assert verify_cb_all(setup, a).violations


FIELDS = {q: field_new(p, e) for q, p, e in ((2, 2, 1), (4, 2, 2), (5, 5, 1), (9, 3, 2))}


@st.composite
def matrices(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    ncols = draw(st.integers(0, 6))
    row = st.lists(st.integers(0, field.q - 1), min_size=ncols, max_size=ncols)
    return field, draw(st.lists(row, max_size=6))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_is_rref_pivot_count(case):
    field, rows = case
    assert rank(rows, field) == len(rref(rows, field)[1])


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(sorted(PLANES)),
       picks=st.lists(st.integers(0, 90), unique=True, min_size=1, max_size=6),
       a=st.integers(0, 3))
def test_min_distance_is_lightest_weight(q, picks, a):
    space = PLANES[q]
    picks = picks[:6 if q == 5 else 4]  # at most 5^6 or 9^4 codewords
    code = build_code(space.subset(i % len(space) for i in picks), a)
    dist = min_distance(code)
    weights = weight_distribution(code)
    assert dist.d == min(weights)
    assert dist.codewords_scanned == (q ** code.k - 1) // (q - 1)
    assert sum(weights.values()) == q ** code.k - 1
