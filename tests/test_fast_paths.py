"""Differential checks: the upward sigma scan, the truncated profile and the
one-elimination CB-scheme test against the straightforward definitions."""

from math import comb

from hypothesis import example, given, settings, strategies as st

from cicodes import field_new, h0, h1, is_cb_scheme, profile, rank_e, sigma
from cicodes.geometry import enumerate_projective

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
