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
from itertools import combinations

from .code import build_code, evaluation_matrix, min_distance
from .cohomology import h0, h1, rank_e, sigma
from .errors import DegreeOutOfRangeError, NonSplitError, NotASubsetError
from .geometry import PointSet, validate_ci, variety_points
from .linalg import rank, rref


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


def verify_cb_all(setup: CISetup, a: int, budget: int = 10 ** 5,
                  seed: int = 0) -> CBReport:
    """Check the identity over all subset splits, or a seeded sample when
    2^n exceeds the budget (always including sizes 0, 1, n-1, n).

    Each split is two ranks of point rows built once: with Gamma' the points
    in the mask and Gamma'' the rest, lhs = rank e_a(Gamma) - rank e_a(Gamma')
    and rhs = |Gamma''| - rank e_{s-a}(Gamma''), which is what `cb_identity`
    computes (a row of a negative degree is empty, so its rank is 0)."""
    n = setup.n
    total = 1 << n
    if total <= budget:
        masks = range(total)
        exhaustive = True
    else:
        rng = random.Random(seed)
        picked = {0, total - 1}
        for i in range(n):
            picked.add(1 << i)                 # size 1
            picked.add((total - 1) ^ (1 << i))  # size n-1
        while len(picked) < budget:
            picked.add(rng.randrange(total))
        masks = sorted(picked)
        exhaustive = False
    field = setup.gamma.field
    rows_a = evaluation_matrix(setup.gamma, a).rows
    rows_b = evaluation_matrix(setup.gamma, setup.s - a).rows
    full = rank(rows_a, field)
    violations = []
    for mask in masks:
        inside = [row for i, row in enumerate(rows_a) if mask >> i & 1]
        outside = [row for i, row in enumerate(rows_b) if not mask >> i & 1]
        lhs = full - rank(inside, field)
        rhs = len(outside) - rank(outside, field)
        if lhs != rhs:
            violations.append((mask, lhs, rhs))
    return CBReport(a, len(masks), tuple(violations), exhaustive, seed)


def verify_projection_injectivity(setup: CISetup, a: int) -> bool:
    """Puncturing to any Gamma' with |Gamma'| >= n - (s-a+1) keeps h0 fixed,
    which is exactly injectivity of the projection of codewords."""
    n = setup.n
    size = n - (setup.s - a + 1)
    if size > n:
        return True  # nothing to delete: vacuous
    size = max(size, 0)
    full = h0(setup.gamma, a)
    for combo in combinations(range(n), size):
        if h0(setup.gamma.subset(combo), a) != full:
            return False
    return True


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


def verify_main_theorem(setup: CISetup, a: int, cap: int = 1 << 22) -> BoundReport:
    """Exact parameters of C(Gamma)_a against the distance bound and Singleton."""
    bound = hansen_bound(setup, a)
    code = build_code(setup.gamma, a)
    dist = min_distance(code, cap=cap)
    singleton = code.n - code.k + 1
    mds = dist.d == singleton
    mds_sufficient = setup.s - a >= h1(setup.gamma, a) - 1
    return BoundReport(a, code.n, code.k, dist.d, bound, singleton,
                       mds, mds_sufficient)


def verify_symmetry(setup: CISetup) -> bool:
    """rank(e_a) + rank(e_{s-a}) = |Gamma| over the whole window [-1, s+1]."""
    n = setup.n
    for a in range(-1, setup.s + 2):
        if rank_e(setup.gamma, a) + rank_e(setup.gamma, setup.s - a) != n:
            return False
    return True


def verify_mds_corollary(setup: CISetup, a: int, cap: int = 1 << 22) -> bool:
    """Exact MDS status must agree with universal vanishing of
    h1(Gamma'', s-a) over all subsets of size h1(Gamma, a)."""
    code = build_code(setup.gamma, a)
    dist = min_distance(code, cap=cap)
    mds_exact = dist.d == code.n - code.k + 1
    size = h1(setup.gamma, a)
    j = setup.s - a
    vanishes = all(
        h1(setup.gamma.subset(combo), j) == 0
        for combo in combinations(range(setup.n), size))
    return mds_exact == vanishes


def is_cb_scheme(gamma: PointSet) -> bool:
    """Dropping any one point keeps h0 in degree sigma(Gamma) unchanged: every
    point lies in the support of a relation among the rows of e_sigma.  In the
    RREF of the transpose every free column does, and a pivot column does iff
    its pivot row is nonzero in a free column.  Vacuous when sigma = -1."""
    red, pivots = rref(list(zip(*evaluation_matrix(gamma, sigma(gamma)).rows)),
                       gamma.field)
    free = set(range(len(gamma))) - set(pivots)
    return all(any(row[c] for c in free) for row in red)
