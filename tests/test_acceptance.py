"""Acceptance suite: one test per criterion, exact-integer tolerances.

Each test prints a single PASS line on success (run with -s to see them).
"""

import random
import time

import pytest

from cicodes import (
    build_code,
    choose_f0,
    ci_setup,
    extended_rs,
    field_new,
    h1,
    hermitian_ci,
    min_distance,
    profile,
    rank_e,
    reed_muller_ci,
    rm_exact_distance,
    verify_cb_all,
    verify_main_theorem,
    verify_mds_corollary,
    verify_symmetry,
    weight_distribution,
)
from cicodes.cli import main as cli_main
from conftest import certify

CAP = 1 << 22


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_01_extended_rs_mds():
    """Extended Reed-Solomon codes are MDS: n=q, k=a+1, d=q-a exactly."""
    t0 = time.time()
    for q in (5, 7, 8, 9):
        for m in (1, 2):
            polys, spec = extended_rs(q, m)
            setup = ci_setup(polys, m, spec.field)
            for a in range(1, q - 1):
                if q ** (a + 1) > CAP:
                    continue
                r = verify_main_theorem(setup, a, cap=CAP)
                assert (r.n, r.k, r.d_exact) == (q, a + 1, q - a), (q, m, a)
                assert r.d_exact == r.n - r.k + 1
    elapsed = time.time() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"
    report("1 extended-RS MDS sweep")


def test_02_reed_muller_bound_vs_exact():
    t0 = time.time()
    polys, spec = reed_muller_ci(3, 2)
    setup = ci_setup(polys, 2, spec.field)
    exact = {1: 6, 2: 3, 3: 2}
    bounds = {1: 4, 2: 3, 3: 2}
    for a in (1, 2, 3):
        r = verify_main_theorem(setup, a, cap=CAP)
        assert r.d_exact == exact[a] == rm_exact_distance(3, 2, a)
        assert r.bound == bounds[a]
        assert r.d_exact >= r.bound
        if a in (2, 3):
            assert r.d_exact == r.bound
    polys, spec = reed_muller_ci(2, 3)
    setup = ci_setup(polys, 3, spec.field)
    for a, expected in ((1, 4), (2, 2)):
        r = verify_main_theorem(setup, a, cap=CAP)
        assert r.d_exact == expected == rm_exact_distance(2, 3, a)
        assert r.d_exact >= r.bound
    elapsed = time.time() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report("2 Reed-Muller bound vs exact")


def test_03_hermitian_desk_case():
    t0 = time.time()
    polys, spec = hermitian_ci(2)
    setup = ci_setup(polys, 2, spec.field)
    assert len(setup.gamma) == 6  # q^3 - q
    assert setup.s == 2  # q^2 - 2
    r = verify_main_theorem(setup, 2, cap=CAP)
    assert (r.n, r.k, r.d_exact) == (6, 5, 2)
    assert r.d_exact >= 2  # >= q
    assert r.mds
    elapsed = time.time() - t0
    assert elapsed < 5, f"took {elapsed:.1f}s"
    report("3 Hermitian desk case")


def test_04_cayley_bacharach_identity(two_conic, rm3, herm2):
    t0 = time.time()
    jobs = [(two_conic, range(4), 16), (rm3, range(6), 512), (herm2, range(5), 64)]
    for setup, degrees, splits in jobs:
        for a in degrees:
            rep = verify_cb_all(setup, a, budget=10 ** 5, certificate=certify(setup, a))
            assert rep.exhaustive
            assert rep.splits_checked == splits
            assert rep.violations == ()
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report("4 Cayley-Bacharach identity, all splits")


def test_05_main_theorem_sweep(corpus):
    assert len(corpus) >= 6
    assert {setup.gamma.m for setup in corpus.values()} >= {1, 2, 3}
    for name, setup in corpus.items():
        for a in range(1, setup.s + 1):
            k = rank_e(setup.gamma, a)
            if setup.gamma.field.q ** k > CAP:
                continue
            r = verify_main_theorem(setup, a, cap=CAP)
            assert r.d_exact >= setup.s - a + 2, (name, a)
        r = verify_main_theorem(setup, setup.s, cap=CAP)
        assert r.mds, name
    report("5 main theorem sweep + C(Gamma)_s MDS")


def test_06_hilbert_symmetry(corpus):
    for name, setup in corpus.items():
        n = len(setup.gamma)
        for a in range(-1, setup.s + 2):
            assert rank_e(setup.gamma, a) + rank_e(setup.gamma, setup.s - a) == n, \
                (name, a)
        assert verify_symmetry(setup, profile(setup.gamma))
        # sigma = s
        assert h1(setup.gamma, setup.s) > 0, name
        assert h1(setup.gamma, setup.s + 1) == 0, name
    report("6 Hilbert symmetry and sigma = s")


def test_07_lemma21_vanishing(corpus):
    rng = random.Random(21)
    checked = 0
    setups = list(corpus.values())
    while checked < 200:
        setup = setups[checked % len(setups)]
        n = len(setup.gamma)
        mask = rng.randrange(1 << n)
        sub = setup.gamma.subset_mask(mask)
        ns = len(sub)
        for j in range(max(ns - 1, 0), ns + 3):
            assert h1(sub, j) == 0, (mask, j)
        checked += 1
    assert checked == 200
    report("7 Lemma 2.1 vanishing on 200 random subsets")


def test_08_mds_corollary(corpus):
    for name, setup in corpus.items():
        for a in range(1, setup.s + 1):
            k = rank_e(setup.gamma, a)
            if setup.gamma.field.q ** k > CAP:
                continue
            assert verify_mds_corollary(setup, a, cap=CAP), (name, a)
    report("8 Corollary 3.3 biconditional")


def test_09_property_suites(corpus, tmp_path, capsys):
    # field axioms, exhaustive for q <= 64
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 4),
                 (5, 2), (3, 3), (7, 2), (2, 6)):
        f = field_new(p, e)
        assert f.q <= 64
        for x in range(f.q):
            for y in range(f.q):
                assert f.add(x, y) == f.add(y, x)
                assert f.mul(x, y) == f.mul(y, x)
                for z in range(0, f.q, max(1, f.q // 8)):
                    assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
                    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
                    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))

    # homogeneous scaling identity
    from cicodes import parse
    f5 = field_new(5, 1)
    poly = parse("x0^2*x1 + 2*x1^3 + x2^2*x0", 2, f5)
    for lam in range(1, 5):
        for pt in ((1, 2, 3), (0, 1, 4), (2, 2, 2)):
            scaled = tuple(f5.mul(lam, c) for c in pt)
            assert poly.evaluate(scaled) == f5.mul(f5.pow(lam, 3), poly.evaluate(pt))

    # Singleton on every built code in the corpus window
    for setup in corpus.values():
        for a in range(0, setup.s + 2):
            code = build_code(setup.gamma, a)
            if setup.gamma.field.q ** code.k > CAP:
                continue
            d = min_distance(code, cap=CAP).d
            assert d <= code.n - code.k + 1

    # f0-independence of the weight distribution on 3 codes
    rng = random.Random(99)
    from cicodes import Polynomial, monomials_of_degree
    cases = [(corpus["two_conic"], 1), (corpus["rm_q3_m2"], 2),
             (corpus["rs_q5_m1"], 2)]
    for setup, a in cases:
        gamma = setup.gamma
        field = gamma.field
        f0 = choose_f0(gamma, a)
        alt = None
        while alt is None:
            terms = {e: rng.randrange(field.q)
                     for e in monomials_of_degree(gamma.m, a)}
            cand = Polynomial(field, gamma.m + 1, terms)
            if not cand.is_zero() and cand != f0 \
                    and all(cand.evaluate(pt) != 0 for pt in gamma):
                alt = cand
        assert weight_distribution(build_code(gamma, a, f0=f0)) == \
            weight_distribution(build_code(gamma, a, f0=alt))

    # representative-independence of (n, k, d)
    from cicodes.code import EvalCode, _point_row
    from cicodes.linalg import rref
    gamma = corpus["two_conic"].gamma
    base_code = build_code(gamma, 1)
    base = (base_code.n, base_code.k, min_distance(base_code).d)
    for trial in range(3):
        rows = []
        for pt in gamma:
            lam = rng.randrange(1, 5)
            rep = tuple(f5.mul(lam, c) for c in pt)
            rows.append(_point_row(rep, 1, 2, f5))
        spanning = [list(col) for col in zip(*rows)]
        gen, _ = rref(spanning, f5)
        alt_code = EvalCode(gamma, 1, tuple(tuple(r) for r in gen))
        assert (alt_code.n, alt_code.k, min_distance(alt_code).d) == base

    # report byte-stability across --threads {1, 4}
    path = tmp_path / "rm3.txt"
    path.write_text("field p=3 e=1\nvars m=2\n"
                    "poly x1^3 - x0^2*x1\npoly x2^3 - x0^2*x2\n")
    outputs = []
    for threads in ("1", "4"):
        code = cli_main(["analyze", str(path), "--degree", "2",
                         "--threads", threads])
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    report("9 property suites")
