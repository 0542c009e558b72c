"""Cayley-Bacharach identity, distance bound, symmetry, and MDS criteria."""

import pytest

from cicodes import (
    build_code,
    cb_identity,
    ci_setup,
    field_new,
    h1,
    hansen_bound,
    is_cb_scheme,
    parse,
    profile,
    rank_e,
    residual,
    verify_cb_all,
    verify_main_theorem,
    verify_mds_corollary,
    verify_projection_injectivity,
    verify_symmetry,
)
from cicodes import theorems
from cicodes.families import extended_rs, hermitian_ci, reed_muller_ci
from cicodes.errors import (
    CapExceededError,
    DegreeOutOfRangeError,
    NonSplitError,
    NotASubsetError,
    SpaceTooLargeError,
)
from cicodes.geometry import PointSet
from cicodes.theorems import cb_split_count
from conftest import certify


def test_ci_setup_rejects_non_split(f3):
    polys = [parse("x1^2", 2, f3), parse("x2^2", 2, f3)]
    with pytest.raises(NonSplitError):
        ci_setup(polys, 2, f3)


def test_residual(two_conic):
    gamma = two_conic.gamma
    first3 = gamma.subset([0, 1, 2])
    rest = residual(gamma, first3)
    assert rest.points == (gamma.points[3],)
    assert residual(gamma, gamma).points == ()
    assert residual(gamma, gamma.subset([])).points == gamma.points


def test_residual_not_subset(two_conic, f5):
    other = PointSet(((1, 0, 0),), 2, f5)
    with pytest.raises(NotASubsetError):
        residual(two_conic.gamma, other)


def test_cb_identity_classical_example(rm3):
    """Every cubic through 8 of the 9 points passes through the ninth."""
    for i in range(9):
        gp = rm3.gamma.subset([j for j in range(9) if j != i])
        lhs, rhs = cb_identity(rm3, 3, gp)
        assert lhs == rhs == 0


def test_cb_identity_empty_subset(two_conic):
    empty = two_conic.gamma.subset([])
    lhs, rhs = cb_identity(two_conic, 0, empty)
    assert lhs == 1  # h0(empty, 0) - h0(Gamma, 0) = 1 - 0
    assert rhs == h1(two_conic.gamma, 1) == 1


def test_cb_identity_full_subset(two_conic, rm3):
    for setup in (two_conic, rm3):
        for a in range(setup.s + 2):
            lhs, rhs = cb_identity(setup, a, setup.gamma)
            assert lhs == rhs == 0


def test_cb_all_two_conic(two_conic):
    for a in range(4):
        rep = verify_cb_all(two_conic, a, budget=10 ** 5,
                            certificate=certify(two_conic, a))
        assert rep.exhaustive
        assert rep.splits_checked == 16
        assert rep.violations == ()


def test_cb_all_rm3(rm3):
    for a in range(6):
        rep = verify_cb_all(rm3, a, budget=10 ** 5, certificate=certify(rm3, a))
        assert rep.exhaustive and rep.splits_checked == 512
        assert rep.violations == ()


def test_cb_all_hermitian(herm2):
    for a in range(5):
        rep = verify_cb_all(herm2, a, budget=10 ** 5, certificate=certify(herm2, a))
        assert rep.exhaustive and rep.splits_checked == 64
        assert rep.violations == ()


def test_cb_all_sampled_is_seeded(rs7_m2):
    r1 = verify_cb_all(rs7_m2, 2, budget=50, seed=3, certificate=certify(rs7_m2, 2))
    r2 = verify_cb_all(rs7_m2, 2, budget=50, seed=3, certificate=certify(rs7_m2, 2))
    assert not r1.exhaustive
    assert r1 == r2
    assert r1.violations == ()


@pytest.mark.parametrize("budget", [1, 3, 4, 5, 16, 17, 20, 64])
def test_cb_split_count_is_splits_checked(two_conic, budget):
    """The count `verify_cb_all` bounds a walk by is the count it checks: all
    16 splits of 4 points within the budget, else max(budget, 10) masks, at most 16."""
    report = verify_cb_all(two_conic, 1, budget=budget,
                           certificate=certify(two_conic, 1))
    assert report.splits_checked == cb_split_count(4, budget) == \
        (16 if budget >= 16 else min(16, max(budget, 10)))
    assert report.exhaustive == (budget >= 16)
    assert report.violations == ()


@pytest.mark.parametrize("limit,at,text", [
    ("MAX_MATRIX_ENTRIES", 16, "build more than 15 evaluation-matrix entries"),  # 4 * (1 + 3)
    ("MAX_ELIMINATION_WORK", 1152, "take more than 1151 field operations to eliminate"),
], ids=["entries", "work"])
def test_walk_limits_refuse_before_the_matrices(f5, monkeypatch, limit, at, text):
    """Four points of the line x0 = 0 with s = 1, no CI, so degree 0 is walked:
    e_0 and e_1 hold 4 * (1 + 3) entries, and the 8 inserts of each of the 16
    splits (Gamma', Gamma'' and all of Gamma ranked by `cb_identity`) into a
    basis of at most 3 rows of 3 entries take 1,152 operations.  One past
    either limit is refused with one line before any point row is built; at
    the limit the walk runs, and each split ranks its three point sets, with
    no evaluation matrix built."""
    from cicodes import cohomology
    setup = theorems.CISetup(PointSet(((0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)), 2, f5),
                             (), 1)
    certificate = certify(setup, 0)
    assert not certificate(0)
    built, point_rows = [], cohomology.point_rows
    monkeypatch.delattr(theorems, "evaluation_matrix")
    monkeypatch.setattr(cohomology, "point_rows",
                        lambda gamma, b: built.append(b) or point_rows(gamma, b))
    monkeypatch.setattr(theorems, limit, at - 1)
    with pytest.raises(SpaceTooLargeError) as refusal:
        verify_cb_all(setup, 0, certificate=certificate)
    assert (str(refusal.value), built) == (f"degree 0 would {text}", [])
    monkeypatch.setattr(theorems, limit, at)
    assert verify_cb_all(setup, 0, certificate=certificate).violations
    assert sorted(built) == [0] * 32 + [1] * 16


def test_projection_injectivity_two_conic(two_conic):
    assert verify_projection_injectivity(two_conic, 1)


def test_projection_injectivity_at_s(corpus):
    # |Gamma'| = |Gamma| - 1 at a = s: the CB-scheme property
    for setup in corpus.values():
        assert verify_projection_injectivity(setup, setup.s)


def test_projection_injectivity_vacuous(two_conic):
    assert verify_projection_injectivity(two_conic, two_conic.s + 5)


def test_sweeps_rank_the_point_rows_they_build(monkeypatch):
    """verify_cb_all's certificate and verify_projection_injectivity rank the
    point rows they already built: on RM(4,2) (16 points, s = 5) at a = 2,
    the certificate builds none, since it reads every rank and e_5's relation
    from the product pass, and calls no `linalg.rank`, and the injectivity
    check builds e_2's 16, where ranking them again through rank_e built 56
    and 26."""
    from cicodes import code, cohomology
    from cicodes.linalg import rank
    polys, spec = reed_muller_ci(4, 2)
    setup = ci_setup(polys, spec.m, spec.field)
    built, ranked, row = [], [], code._monomial_row

    def counted(point, monomials, field):
        built.append((len(monomials), point))
        return row(point, monomials, field)

    def counted_rank(rows, field):
        ranked.append(field)
        return rank(rows, field)

    monkeypatch.setattr(code, "_monomial_row", counted)
    monkeypatch.setattr(theorems, "rank", counted_rank)
    monkeypatch.setattr(cohomology, "matrix_rank", counted_rank)
    assert verify_cb_all(setup, 2, budget=1, certificate=certify(setup, 2)).violations == ()
    assert built == ranked == []
    assert verify_projection_injectivity(setup, 2)
    assert len(built) == 16


def test_hansen_bound_values(rm3, herm2):
    assert hansen_bound(rm3, 2) == 3
    assert hansen_bound(herm2, 2) == 2  # = q
    assert hansen_bound(rm3, 1) == 4  # s - a + 2 = m(q-1) - a + 1


def test_hansen_bound_range(rm3):
    with pytest.raises(DegreeOutOfRangeError):
        hansen_bound(rm3, 0)
    with pytest.raises(DegreeOutOfRangeError):
        hansen_bound(rm3, 4)


def test_main_theorem_rm3(rm3):
    r = verify_main_theorem(rm3, 3)
    assert (r.n, r.k, r.d_exact, r.bound, r.singleton) == (9, 8, 2, 2, 2)
    assert r.mds
    r = verify_main_theorem(rm3, 1)
    assert r.d_exact == 6 >= r.bound == 4
    assert not r.mds and r.singleton == 7


@pytest.mark.parametrize("verify", [verify_main_theorem, verify_mds_corollary])
def test_over_cap_refused_before_build(rm3, monkeypatch, verify):
    """Both checks refuse an over-cap search on k = rank e_a, before the
    generator is built."""
    from cicodes import theorems
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_code(*args, **kwargs)

    monkeypatch.setattr(theorems, "build_code", counted)
    with pytest.raises(CapExceededError):
        verify(rm3, 2, cap=1)
    assert calls == []


@pytest.mark.parametrize("family,a,search,d", [
    ((reed_muller_ci, 4, 2), 3, "brouwer_zimmermann", 4),
    ((extended_rs, 11, 1), 5, "brouwer_zimmermann", 6),
    ((extended_rs, 16, 1), 4, "brouwer_zimmermann", 12),
    ((hermitian_ci, 3), 2, "brouwer_zimmermann", 16),
    ((reed_muller_ci, 7, 2), 2, "min_distance", 35),  # BZ would visit 20,304 words
], ids=["rm4_2", "rs11", "rs16", "herm3", "rm7_2"])
def test_distance_search_dispatch(monkeypatch, family, a, search, d):
    """On the benchmark's `analyze` codes, verify_main_theorem runs the
    Brouwer-Zimmermann search where its worst case is below the scan's
    (q^k-1)/(q-1) words, and there it visits fewer words than the scan
    would."""
    polys, spec = family[0](*family[1:])
    setup = ci_setup(polys, spec.m, spec.field)
    runs = {}
    for name in ("brouwer_zimmermann", "column_distance", "min_distance"):
        def recorded(*args, fn=getattr(theorems, name), name=name, **kwargs):
            runs[name] = fn(*args, **kwargs)
            return runs[name]
        monkeypatch.setattr(theorems, name, recorded)
    report = verify_main_theorem(setup, a)
    assert (list(runs), report.d_exact, runs[search].d) == ([search], d, d)
    q, k = spec.field.q, report.k
    scan = (q ** k - 1) // (q - 1)
    if search == "min_distance":
        assert runs[search].codewords_scanned == scan
    else:
        assert runs[search].codewords_scanned < scan


def test_main_theorem_rs7(rs7_m2):
    r = verify_main_theorem(rs7_m2, 3)
    assert (r.n, r.k, r.d_exact) == (7, 4, 4)
    assert r.mds


def test_main_theorem_sweep(corpus):
    for name, setup in corpus.items():
        for a in range(1, setup.s + 1):
            if setup.gamma.field.q ** (rank_e(setup.gamma, a)) - 1 > (1 << 22):
                continue
            r = verify_main_theorem(setup, a)
            assert r.d_exact >= r.bound, (name, a)
            assert r.d_exact <= r.singleton, (name, a)


def test_code_at_s_is_mds(corpus):
    for name, setup in corpus.items():
        r = verify_main_theorem(setup, setup.s)
        assert r.mds, name


def test_symmetry(corpus):
    for name, setup in corpus.items():
        assert verify_symmetry(setup, profile(setup.gamma)), name


def test_symmetry_rank_values(two_conic, rm3):
    assert rank_e(two_conic.gamma, 0) + rank_e(two_conic.gamma, 1) == 4
    assert rank_e(rm3.gamma, 1) + rank_e(rm3.gamma, 2) == 9


def test_symmetry_edge_degrees(corpus):
    for setup in corpus.values():
        assert h1(setup.gamma, -1) == len(setup.gamma)
        assert h1(setup.gamma, setup.s + 1) == 0
        assert h1(setup.gamma, setup.s) > 0  # sigma = s


def test_mds_corollary(corpus):
    for name, setup in corpus.items():
        for a in range(1, setup.s + 1):
            if setup.gamma.field.q ** rank_e(setup.gamma, a) - 1 > (1 << 22):
                continue
            assert verify_mds_corollary(setup, a), (name, a)


def test_mds_corollary_witness_rm3(rm3):
    """a=2 is not MDS; the corollary demands a witness subset with h1 != 0."""
    from itertools import combinations
    size = h1(rm3.gamma, 2)
    assert size == 3
    j = rm3.s - 2
    witnesses = [combo for combo in combinations(range(9), size)
                 if h1(rm3.gamma.subset(combo), j) != 0]
    assert witnesses  # three collinear points fail in degree 1
    assert verify_mds_corollary(rm3, 2)


def test_is_cb_scheme_corpus(corpus):
    for name, setup in corpus.items():
        assert is_cb_scheme(profile(setup.gamma)), name


def test_is_cb_scheme_diagnostic(f5):
    # two collinear points plus one off the line: not a CI; just report
    pts = PointSet(((1, 0, 0), (1, 1, 0), (1, 0, 1)), 2, f5)
    result = is_cb_scheme(profile(pts))
    assert isinstance(result, bool)


def test_is_cb_scheme_single_point(f5):
    single = PointSet(((1, 2, 3),), 2, f5)
    assert is_cb_scheme(profile(single))


def test_lemma21_vanishing_on_subsets(corpus):
    """h1 vanishes in degree >= |subset| - 1 for sampled subsets."""
    import random
    rng = random.Random(0)
    for setup in corpus.values():
        n = len(setup.gamma)
        for _ in range(10):
            mask = rng.randrange(1 << n)
            sub = setup.gamma.subset_mask(mask)
            ns = len(sub)
            for j in range(max(ns - 1, 0), ns + 2):
                assert h1(sub, j) == 0
