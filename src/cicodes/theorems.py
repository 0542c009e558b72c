"""Mechanical verification of the Cayley-Bacharach identity, the minimum
distance bound for complete-intersection evaluation codes, Hilbert-function
symmetry, projection injectivity, and the MDS criteria.

All checks work on split smooth complete intersections certified by
`geometry.validate_ci`; residual subschemes reduce to set complements in
this reduced setting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .code import DEFAULT_CAP, build_code, evaluation_matrix, min_distance
from .cohomology import h0, h1, rank_e, sigma
from .errors import DegreeOutOfRangeError, NonSplitError, NotASubsetError
from .geometry import PointSet, validate_ci, variety_points
from .linalg import insert, rank, rref


@dataclass(frozen=True)
class CISetup:
    """A validated split smooth complete intersection with its pivot degree s."""

    gamma: PointSet
    degrees: tuple
    s: int

    @property
    def n(self):
        return len(self.gamma)


def ci_setup(polys, m: int, field) -> CISetup:
    """Cut out Gamma and certify it; refuses non-split or singular inputs."""
    gamma = variety_points(polys, m, field)
    val = validate_ci(polys, gamma)
    if not (val.split and val.smooth):
        raise NonSplitError(val.line())
    s = sum(val.degrees) - m - 1
    return CISetup(gamma, val.degrees, s)


def residual(gamma: PointSet, gamma_prime: PointSet) -> PointSet:
    """Complement Gamma \\ Gamma'; the residual subscheme in the reduced case."""
    if not set(gamma_prime.points) <= set(gamma.points):
        raise NotASubsetError("gamma_prime is not a subset of gamma")
    return gamma.complement(gamma_prime)


def cb_identity(setup: CISetup, a: int, gamma_prime: PointSet):
    """Both sides of h0(Gamma',a) - h0(Gamma,a) = h1(Gamma'', s-a)."""
    gamma_second = residual(setup.gamma, gamma_prime)
    lhs = h0(gamma_prime, a) - h0(setup.gamma, a)
    rhs = h1(gamma_second, setup.s - a)
    return lhs, rhs


@dataclass(frozen=True)
class CBReport:
    degree: int
    splits_checked: int
    violations: tuple  # (subset mask, lhs, rhs)
    exhaustive: bool
    seed: int

    def lines(self):
        out = [f"a={self.degree} splits={self.splits_checked} "
               f"exhaustive={str(self.exhaustive).lower()} "
               f"violations={len(self.violations)}"]
        for mask, lhs, rhs in self.violations:
            out.append(f"violation mask={mask} lhs={lhs} rhs={rhs}")
        return out


def cb_split_count(n: int, budget: int) -> int:
    """The splits `verify_cb_all` checks on n points: all 2^n within the
    budget, else a sample of max(budget, 2n + 2) (at most 2^n) masks."""
    total = 1 << n
    return total if total <= budget else min(total, max(budget, 2 * n + 2))


def verify_cb_all(setup: CISetup, a: int, budget: int = 10 ** 5,
                  seed: int = 0) -> CBReport:
    """Check the identity over all subset splits, or a seeded sample when
    2^n exceeds the budget (always including sizes 0, 1, n-1, n).

    With Gamma' the points in the mask and Gamma'' the rest, lhs = rank
    e_a(Gamma) - rank e_a(Gamma') and rhs = |Gamma''| - rank e_{s-a}(Gamma''),
    as in `cb_identity`.  The sorted masks are walked as the leaves of a
    binary trie on bits n-1 .. 0 with two echelon bases, of the degree-a rows
    of Gamma' and the degree-(s-a) rows of Gamma'': a mask keeps the rows of
    the high bits it shares with the one before and inserts one per other bit."""
    n = setup.n
    total = 1 << n
    exhaustive = total <= budget
    masks = range(total)  # walked lazily, never listed
    if not exhaustive:
        rng = random.Random(seed)
        picked = {0, total - 1}
        for i in range(n):
            picked.add(1 << i)                 # size 1
            picked.add((total - 1) ^ (1 << i))  # size n-1
        splits = cb_split_count(n, budget)
        while len(picked) < splits:
            picked.add(rng.randrange(total))
        masks = sorted(picked)
    field = setup.gamma.field
    rows = (evaluation_matrix(setup.gamma, setup.s - a).rows,  # bit clear
            evaluation_matrix(setup.gamma, a).rows)            # bit set
    caps = tuple(rank(r, field) for r in rows)  # no subset's rank exceeds these
    bases, violations = ([], []), []
    levels = []  # per decided bit from n-1 down: (its basis, size before it)
    for mask in masks:
        keep = n - (mask ^ prev).bit_length() if levels else 0  # shared bits
        for basis, size in levels[keep:]:
            del basis[size:]  # pop what the unshared bits inserted
        del levels[keep:]
        for b in range(n - 1 - keep, -1, -1):
            side = mask >> b & 1
            basis = bases[side]
            levels.append((basis, len(basis)))
            if len(basis) < caps[side]:
                insert(basis, rows[side][b], field)
        lhs = caps[1] - len(bases[1])
        rhs = n - mask.bit_count() - len(bases[0])
        if lhs != rhs:
            violations.append((mask, lhs, rhs))
        prev = mask
    return CBReport(a, len(masks), tuple(violations), exhaustive, seed)


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
    field = setup.gamma.field
    size = setup.n - (setup.s - a + 1)
    return _every_subset_has_rank(rows, size, rank(rows, field), field)


def hansen_bound(setup: CISetup, a: int) -> int:
    """The lower bound s - a + 2 on the minimum distance, valid for 1 <= a <= s."""
    if not 1 <= a <= setup.s:
        raise DegreeOutOfRangeError(f"need 1 <= a <= {setup.s}, got {a}")
    return setup.s - a + 2


@dataclass(frozen=True)
class BoundReport:
    degree: int
    n: int
    k: int
    d_exact: int
    bound: int
    singleton: int
    mds: bool
    mds_sufficient: bool

    def line(self):
        return (f"n={self.n} k={self.k} d={self.d_exact} bound={self.bound} "
                f"singleton={self.singleton} mds={str(self.mds).lower()} "
                f"mds_sufficient={str(self.mds_sufficient).lower()}")


def verify_main_theorem(setup: CISetup, a: int, cap: int = DEFAULT_CAP) -> BoundReport:
    """Exact parameters of C(Gamma)_a against the distance bound and Singleton."""
    bound = hansen_bound(setup, a)
    code = build_code(setup.gamma, a)
    dist = min_distance(code, cap=cap)
    singleton = code.n - code.k + 1
    mds = dist.d == singleton
    mds_sufficient = setup.s - a >= code.n - code.k - 1  # h1(Gamma, a) = n - k
    return BoundReport(a, code.n, code.k, dist.d, bound, singleton,
                       mds, mds_sufficient)


def verify_symmetry(setup: CISetup) -> bool:
    """rank(e_a) + rank(e_{s-a}) = |Gamma| over the whole window [-1, s+1]."""
    n = setup.n
    for a in range(-1, setup.s + 2):
        if rank_e(setup.gamma, a) + rank_e(setup.gamma, setup.s - a) != n:
            return False
    return True


def verify_mds_corollary(setup: CISetup, a: int, cap: int = DEFAULT_CAP) -> bool:
    """Exact MDS status must agree with universal vanishing of
    h1(Gamma'', s-a) over all subsets of size h1(Gamma, a)."""
    code = build_code(setup.gamma, a)
    mds_exact = min_distance(code, cap=cap).d == code.n - code.k + 1
    size = code.n - code.k  # h1(Gamma, a)
    rows = evaluation_matrix(setup.gamma, setup.s - a).rows
    return mds_exact == _every_subset_has_rank(rows, size, size, setup.gamma.field)


def is_cb_scheme(gamma: PointSet) -> bool:
    """Dropping any one point keeps h0 in degree sigma(Gamma) unchanged: every
    point lies in the support of a relation among the rows of e_sigma.  In the
    RREF of the transpose every free column does, and a pivot column does iff
    its pivot row is nonzero in a free column.  Vacuous when sigma = -1."""
    red, pivots = rref(list(zip(*evaluation_matrix(gamma, sigma(gamma)).rows)),
                       gamma.field)
    free = set(range(len(gamma))) - set(pivots)
    return all(any(row[c] for c in free) for row in red)
