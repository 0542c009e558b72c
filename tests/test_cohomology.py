"""h0/h1 dimensions, Hilbert functions, sigma, and their exact-sequence ties."""

from itertools import combinations
from math import comb

import pytest

from cicodes import (
    ci_setup,
    evaluation_matrix,
    extended_rs,
    field_new,
    h0,
    h1,
    hermitian_ci,
    profile,
    rank_e,
    reed_muller_ci,
    sigma,
)
from cicodes.geometry import PointSet
from cicodes.linalg import rank as matrix_rank


def test_h0_examples(rm3, two_conic):
    assert h0(rm3.gamma, 3) == 2  # the two defining cubics
    assert h0(rm3.gamma, 0) == 0
    assert h0(rm3.gamma, -1) == 0


def test_h1_examples(rm3, two_conic):
    assert h1(rm3.gamma, 3) == 1
    assert h1(two_conic.gamma, 1) == 1
    n = len(rm3.gamma)
    for a in range(n - 1, n + 3):
        assert h1(rm3.gamma, a) == 0


def test_negative_degree_conventions(rm3):
    assert h1(rm3.gamma, -1) == 9
    assert h1(rm3.gamma, -3) == 9
    assert rank_e(rm3.gamma, -1) == 0


def test_independent_conditions(f5, rm3):
    single = PointSet(((1, 2, 3),), 2, f5)
    assert h1(single, 0) == 0
    assert h1(rm3.gamma, 3) != 0
    assert h1(rm3.gamma, 8) == 0


def test_sigma_examples(rm3, two_conic, f5):
    assert sigma(rm3.gamma) == 3 == rm3.s
    assert sigma(two_conic.gamma) == 1 == two_conic.s
    single = PointSet(((1, 0, 0),), 2, f5)
    assert sigma(single) == -1


def test_hilbert_function_rm(rm3):
    assert [rank_e(rm3.gamma, a) for a in range(6)] == [1, 3, 6, 8, 9, 9]


def test_hilbert_function_collinear(f5):
    # points on the line x2 = 0: HF(a) = min(a+1, |Gamma|)
    pts = PointSet(((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0)), 2, f5)
    for a in range(6):
        assert rank_e(pts, a) == min(a + 1, 4)


def test_hf_start(two_conic):
    assert rank_e(two_conic.gamma, 0) == 1


def test_subset_h0_monotone(two_conic):
    """(I_Gamma)_a is contained in (I_Gamma')_a for every subset Gamma'."""
    gamma = two_conic.gamma
    n = len(gamma)
    for a in range(4):
        full = h0(gamma, a)
        for size in range(n + 1):
            for combo in combinations(range(n), size):
                assert h0(gamma.subset(combo), a) >= full


def test_hf_nondecreasing_stabilizes(corpus):
    for setup in corpus.values():
        gamma = setup.gamma
        n = len(gamma)
        values = [rank_e(gamma, a) for a in range(n + 2)]
        assert all(x <= y for x, y in zip(values, values[1:]))
        assert values[n - 1] == n  # stabilized by a = |Gamma| - 1
        assert values[-1] == n


def test_exact_sequence_dimension_count(corpus):
    for setup in corpus.values():
        gamma = setup.gamma
        m = gamma.m
        for a in range(0, setup.s + 3):
            assert h0(gamma, a) + rank_e(gamma, a) == comb(a + m, m)


def test_profile_serialization(rm3):
    prof = profile(rm3.gamma)
    lines = prof.lines()
    assert lines[-1] == "sigma=3"
    assert prof.table[0][0] == -1
    row_a3 = [r for r in prof.table if r[0] == 3][0]
    assert row_a3 == (3, 10, 8, 2, 1)


def ci_hilbert_function(degrees, m, a):
    """[t^a] prod_i (1 - t^{d_i}) / (1 - t)^{m+1}: the Hilbert function of a
    reduced complete intersection of degrees d_1..d_m in P^m, found without
    any elimination."""
    numerator = {0: 1}  # prod_i (1 - t^{d_i}), exponent -> coefficient
    for d in degrees:
        product = dict(numerator)
        for j, c in numerator.items():
            product[j + d] = product.get(j + d, 0) - c
        numerator = product
    return sum(c * comb(a - j + m, m) for j, c in numerator.items() if j <= a)


@pytest.fixture(scope="module")
def ci_families(corpus):
    """Every complete intersection the tests build, plus the benchmark's."""
    built = dict(corpus)
    for name, (polys, spec) in {"rm_q4_m2": reed_muller_ci(4, 2),
                                "rm_q7_m2": reed_muller_ci(7, 2),
                                "hermitian_q3": hermitian_ci(3),
                                "rs_q16_m1": extended_rs(16, 1)}.items():
        built[name] = ci_setup(polys, spec.m, spec.field)
    return built


def test_ci_hilbert_function_oracle(ci_families):
    """rank e_a, by elimination and in the profile, equals the CI Hilbert
    function at every degree -1 .. s + 1, and sigma = s."""
    for name, setup in ci_families.items():
        m, window = setup.gamma.m, range(-1, setup.s + 2)
        expected = [ci_hilbert_function(setup.degrees, m, a) for a in window]
        prof = profile(setup.gamma)
        assert [row[2] for row in prof.table[:len(window)]] == expected, name
        assert [rank_e(setup.gamma, a) for a in window] == expected, name
        assert prof.sigma == setup.s and expected[-1] == setup.n, name


def test_empty_gamma_lists_no_monomial(monkeypatch):
    """On no points rank e_a and h1 are 0 and h0 is dim R_a, at a degree
    whose C(a+2, 2) monomials could not be listed."""
    import sys

    def listed(m, a):
        raise AssertionError(f"listed the degree-{a} monomials")

    for name, module in list(sys.modules.items()):
        if name.startswith("cicodes") and hasattr(module, "monomials_of_degree"):
            monkeypatch.setattr(module, "monomials_of_degree", listed)
    empty, a = PointSet((), 2, field_new(5, 1)), 10 ** 6
    assert (rank_e(empty, a), h1(empty, a)) == (0, 0)
    assert h0(empty, a) == comb(a + 2, 2)


@pytest.mark.parametrize("name,a", [("rs5", 2), ("rm3", 1)])
def test_rank_e_builds_rows_on_demand(request, monkeypatch, name, a):
    """At full column rank, rank_e builds the point rows up to the first one
    that fills the basis, plus the one that stops the elimination: 4 of 5 on
    RS q=5 at a = 2 (3 columns), 5 of 9 on RM(3,2) at a = 1 (3 columns, its
    first three points collinear)."""
    from cicodes import code
    setup = request.getfixturevalue(name)
    rows = evaluation_matrix(setup.gamma, a).rows
    cols = len(rows[0])
    filled = next(j for j in range(cols, setup.n + 1)
                  if matrix_rank(rows[:j], setup.gamma.field) == cols)
    built, row = [], code._monomial_row

    def counted(point, monomials, field):
        built.append(point)
        return row(point, monomials, field)

    monkeypatch.setattr(code, "_monomial_row", counted)
    assert rank_e(setup.gamma, a) == cols
    assert len(built) == filled + 1 < setup.n
