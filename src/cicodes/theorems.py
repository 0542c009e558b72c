"""Mechanical verification of the Cayley-Bacharach identity, the minimum
distance bound for complete-intersection evaluation codes, Hilbert-function
symmetry, projection injectivity, and the MDS criteria.

All checks work on split smooth complete intersections certified by
`geometry.validate_ci`; residual subschemes reduce to set complements in
this reduced setting.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .code import (DEFAULT_CAP, brouwer_zimmermann, brouwer_zimmermann_cost, build_code,
                   check_word_cap, column_distance, evaluation_matrix, min_distance)
from .cohomology import (MAX_ELIMINATION_WORK, MAX_MATRIX_ENTRIES, CohomologyProfile, h0, h1,
                         profile, rank_e)
from .cohomology import sigma  # noqa: F401 (perfbench/replay.py wraps theorems.sigma)
from .errors import DegreeOutOfRangeError, NonSplitError, NotASubsetError, SpaceTooLargeError
from .geometry import PointSet, ci_degrees, validate_ci, variety_points
from .linalg import insert, rank
from .poly import monomial_count


class CISetup(namedtuple("CISetup", "gamma degrees s")):
    """A validated split smooth complete intersection with its pivot degree s."""

    __slots__ = ()

    @property
    def n(self):
        return len(self.gamma)


def ci_setup(polys, m: int, field) -> CISetup:
    """Cut out Gamma and certify it; refuses non-split or singular inputs,
    and what `ci_degrees` refuses before the cut."""
    ci_degrees(polys, m)
    gamma = variety_points(polys, m, field)
    val = validate_ci(polys, gamma)
    if not (val.split and val.smooth):
        raise NonSplitError(val.line())
    return CISetup(gamma, val.degrees, sum(val.degrees) - m - 1)


def residual(gamma: PointSet, gamma_prime: PointSet) -> PointSet:
    """Complement Gamma \\ Gamma'; the residual subscheme in the reduced case."""
    if not set(gamma_prime.points) <= set(gamma.points):
        raise NotASubsetError("gamma_prime is not a subset of gamma")
    return gamma.complement(gamma_prime)


def cb_identity(setup: CISetup, a: int, gamma_prime: PointSet):
    """Both sides of h0(Gamma',a) - h0(Gamma,a) = h1(Gamma'', s-a)."""
    gamma_second = residual(setup.gamma, gamma_prime)
    return h0(gamma_prime, a) - h0(setup.gamma, a), h1(gamma_second, setup.s - a)


class CBReport(namedtuple("CBReport", "degree splits_checked violations exhaustive seed")):
    """violations holds one (subset mask, lhs, rhs) per failing split."""

    __slots__ = ()

    def lines(self):
        head = (f"a={self.degree} splits={self.splits_checked} "
                f"exhaustive={str(self.exhaustive).lower()} "
                f"violations={len(self.violations)}")
        return [head, *(f"violation mask={mask} lhs={lhs} rhs={rhs}"
                        for mask, lhs, rhs in self.violations)]


def cb_split_count(n: int, budget: int) -> int:
    """The splits `verify_cb_all` checks on n points: all 2^n (exhaustive) within
    the budget, else max(budget, 2n + 2) of them, a sample only if that is below 2^n."""
    total = 1 << n
    return total if total <= budget else min(total, max(budget, 2 * n + 2))


def cb_certificate(setup: CISetup):
    """The predicate certified(a), from one `profile` and one `is_cb_scheme`.  Degree a
    is certified, every split holding, if rank e_a + rank e_{s-a} = n and, for
    0 <= a <= s, rank e_s = n - 1 (so s = sigma: ranks of points rise strictly to n,
    and the profile's top is C_s) and e_s's one relation lambda has no zero entry:
    R_s = R_a R_{s-a}, so e_a^T diag(lambda) spans e_{s-a}'s left kernel (outside
    [0, s] one map is 0, the other injective)."""
    n, s, prof = setup.n, setup.s, profile(setup.gamma)
    one_relation = prof.rank(s) == n - 1 and is_cb_scheme(prof)
    return lambda a: prof.rank(a) + prof.rank(s - a) == n and (not 0 <= a <= s or one_relation)


def _check_matrices(setup: CISetup, a: int, degrees, inserts: int) -> None:
    """Refuse, for degree a, to build e_b for each b in `degrees` when they hold
    more than MAX_MATRIX_ENTRIES entries in all, then to insert `inserts` rows
    of the widest, of cols = C(b+m, m) entries, into a basis of at most
    min(n, cols) rows when that passes MAX_ELIMINATION_WORK field operations."""
    n, m = setup.n, setup.gamma.m
    if n * sum(monomial_count(m, b) for b in degrees) > MAX_MATRIX_ENTRIES:
        raise SpaceTooLargeError(f"degree {a} would build more than {MAX_MATRIX_ENTRIES} "
                                 f"evaluation-matrix entries")
    cols = monomial_count(m, max(degrees))
    if inserts * cols * min(n, cols) > MAX_ELIMINATION_WORK:
        raise SpaceTooLargeError(f"degree {a} would take more than {MAX_ELIMINATION_WORK} "
                                 f"field operations to eliminate")


def verify_cb_all(setup: CISetup, a: int, budget: int = 10 ** 5, seed: int = 0, *,
                  certificate) -> CBReport:
    """The identity over the `cb_split_count` splits: all 2^n, or a seeded sample
    holding sizes 0, 1, n-1 and n.  Unless `certificate(a)` holds, which covers every
    split, each mask is checked by `cb_identity`, which ranks Gamma', Gamma'' and all
    of Gamma: `_check_matrices` refuses first if 2n inserts per split are too much."""
    n, total = setup.n, 1 << setup.n
    splits = cb_split_count(n, budget)
    if certificate(a):
        return CBReport(a, splits, (), splits == total, seed)
    _check_matrices(setup, a, (a, setup.s - a), 2 * n * splits)
    masks = range(total)  # walked lazily, never listed
    if splits < total:
        rng = random.Random(seed)
        singles = [1 << i for i in range(n)]
        picked = {0, total - 1, *singles, *(total - 1 - x for x in singles)}  # sizes 0, n, 1, n-1
        while len(picked) < splits:
            picked.add(rng.randrange(total))
        masks = sorted(picked)
    sides = ((mask, *cb_identity(setup, a, setup.gamma.subset_mask(mask))) for mask in masks)
    violations = tuple((mask, lhs, rhs) for mask, lhs, rhs in sides if lhs != rhs)
    return CBReport(a, len(masks), violations, splits == total, seed)


def _every_subset_has_rank(rows, size, target, field) -> bool:
    """Whether the rows at each `size` indices have rank `target`, which no
    subset exceeds (vacuous if size > n; size < 0 counts as 0), by a
    depth-first walk of the combinations with one row insert per node: a
    prefix at `target` passes its subtree, one that cannot reach it fails."""
    basis, todo = [], [(-1, 0, 0)]  # (row to insert, rows taken, basis size before)
    while todo:
        i, taken, keep = todo.pop()
        del basis[keep:]  # back to the parent's rows
        if i >= 0:
            insert(basis, rows[i], field)
        if len(basis) == target:
            continue
        if len(basis) + size - taken < target:
            return False
        todo.extend((j, taken + 1, len(basis))
                    for j in range(len(rows) - size + taken, i, -1))
    return True


def verify_projection_injectivity(setup: CISetup, a: int) -> bool:
    """Puncturing to any Gamma' with |Gamma'| >= n - (s-a+1) keeps h0 fixed,
    which is exactly injectivity of the projection of codewords."""
    rows = evaluation_matrix(setup.gamma, a).rows
    size = setup.n - (setup.s - a + 1)
    return _every_subset_has_rank(rows, size, rank(rows, setup.gamma.field), setup.gamma.field)


def hansen_bound(setup: CISetup, a: int) -> int:
    """The lower bound s - a + 2 on the minimum distance, valid for 1 <= a <= s."""
    if not 1 <= a <= setup.s:
        raise DegreeOutOfRangeError(f"need 1 <= a <= {setup.s}, got {a}")
    return setup.s - a + 2


class BoundReport(namedtuple("BoundReport",
                               "degree n k d_exact bound singleton mds mds_sufficient gen")):
    """gen holds the code's RREF generator rows."""

    __slots__ = ()

    def line(self):
        return (f"n={self.n} k={self.k} d={self.d_exact} bound={self.bound} "
                f"singleton={self.singleton} mds={str(self.mds).lower()} "
                f"mds_sufficient={str(self.mds_sufficient).lower()}")


def verify_main_theorem(setup: CISetup, a: int, cap: int = DEFAULT_CAP) -> BoundReport:
    """Exact parameters of C(Gamma)_a against s - a + 2 and Singleton at any
    degree a; mds_sufficient (n - k <= s - a + 1) holds only for 1 <= a <= s.
    e_a's n*C(a+m, m) entries and their elimination are checked first, then an
    over-cap search is refused on k = rank e_a before the code is built.
    d comes from the columns when k <= 2, else from whichever of the
    Brouwer-Zimmermann search and the scan of every projective class visits
    fewer words at worst; none of the three uses s - a + 2."""
    _check_matrices(setup, a, (a,), setup.n)
    k, q = rank_e(setup.gamma, a), setup.gamma.field.q
    if k:  # k = 0 keeps min_distance's zero-code error
        check_word_cap(q, k, cap)
    code = build_code(setup.gamma, a)
    n, s = setup.n, setup.s
    if 1 <= k <= 2:
        d = column_distance(code).d
    elif k and brouwer_zimmermann_cost(n, k, q) < (q ** k - 1) // (q - 1):
        d = brouwer_zimmermann(code).d
    else:
        d = min_distance(code, cap=cap).d
    singleton = n - k + 1
    return BoundReport(a, n, k, d, s - a + 2, singleton, d == singleton,
                       1 <= a <= s and s - a >= n - k - 1, code.gen)


def verify_symmetry(setup: CISetup, prof: CohomologyProfile) -> bool:
    """rank(e_a) + rank(e_{s-a}) = |Gamma| for a in [-1, s+1], read from `prof`.
    a and s - a give the same sum, and every a from sigma + 1 to s - sigma - 1
    gives n + n, so the degrees up to sigma + 1 give the verdict of all."""
    s = setup.s
    return all(prof.rank(a) + prof.rank(s - a) == setup.n
               for a in range(-1, min(prof.sigma + 1, s + 1) + 1))


def verify_mds_corollary(setup: CISetup, a: int, cap: int = DEFAULT_CAP) -> bool:
    """Exact MDS status must agree with universal vanishing of
    h1(Gamma'', s-a) over all subsets of size h1(Gamma, a)."""
    report = verify_main_theorem(setup, a, cap)
    size = report.n - report.k  # h1(Gamma, a)
    rows = evaluation_matrix(setup.gamma, setup.s - a).rows
    return report.mds == _every_subset_has_rank(rows, size, size, setup.gamma.field)


def is_cb_scheme(prof: CohomologyProfile) -> bool:
    """Dropping any one point keeps h0 in degree sigma unchanged: every point
    lies in the support of a relation among e_sigma's rows.  In the RREF
    generator of C(Gamma)_sigma each free column f gives one, 1 at f and
    -row[f] at each row's pivot, so a pivot is in a support iff its row is
    nonzero at a free column.  The profile's top is C_sigma's echelon basis
    (none for sigma = -1: vacuous); its free columns alone are reduced, last
    pivot first."""
    field, reduced = prof.gamma.field, {}  # pivot: its RREF row at the free columns
    free = sorted(set(range(len(prof.gamma))) - {c for c, _ in prof.top})
    for c, row in sorted(prof.top, reverse=True):
        entries = [row[f] for f in free]
        for d, done in reduced.items():
            if row[d]:
                entries = [field.sub(e, field.mul(row[d], y)) for e, y in zip(entries, done)]
        reduced[c] = entries
    return all(map(any, reduced.values()))
