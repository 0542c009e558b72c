"""Cohomological dimensions of ideal sheaves of point sets via rank of e_a.

Conventions for a < 0: R_a = 0, so rank = 0, h0 = 0 and h1 = |Gamma|
(the zero map has full cokernel).  These make the Cayley-Bacharach pivot
degree s - a usable across the whole degree window.
"""

from __future__ import annotations

from collections import namedtuple

from .code import point_rows
from .geometry import PointSet
from .linalg import insert, rank as matrix_rank
from .poly import monomial_count


def rank_e(gamma: PointSet, a: int) -> int:
    """Rank of the evaluation map e_a; 0 in negative degrees, where no monomial
    is listed, and on an empty Gamma, where none is.  Each point row is built
    only when the elimination asks for it, so a full column rank builds at
    most C(a+m, m) + 1 rows."""
    return matrix_rank(point_rows(gamma, a), gamma.field)


def h0(gamma: PointSet, a: int) -> int:
    """Dimension of the degree-a forms vanishing on Gamma (kernel of e_a)."""
    return monomial_count(gamma.m, a) - rank_e(gamma, a)


def h1(gamma: PointSet, a: int) -> int:
    """Cokernel dimension |Gamma| - rank(e_a); the conditions-failure count."""
    return len(gamma) - rank_e(gamma, a)


def imposes_independent_conditions(gamma: PointSet, a: int) -> bool:
    return h1(gamma, a) == 0


hilbert_function = rank_e  # dim (R/I_Gamma)_a = rank(e_a); 0 for a < 0


def sigma(gamma: PointSet) -> int:
    """Largest a with h1 > 0, or -1, from `profile`'s upward scan."""
    return profile(gamma).sigma


class CohomologyProfile(namedtuple("CohomologyProfile", "gamma ranks")):
    """Gamma with ranks = (rank e_0, ..., rank e_sigma), each below |Gamma|."""

    __slots__ = ()

    @property
    def sigma(self):
        return len(self.ranks) - 1

    def rank(self, a: int) -> int:
        """rank e_a: 0 in negative degrees, |Gamma| above sigma."""
        return self.ranks[a] if 0 <= a <= self.sigma else 0 if a < 0 else len(self.gamma)

    @property
    def table(self):
        """Rows (a, dim_Ra, rank, h0, h1) for a in [-1, |Gamma|]; dim_Ra = 0 at a = -1."""
        n, m = len(self.gamma), self.gamma.m
        ranks = ((a, monomial_count(m, a), self.rank(a)) for a in range(-1, n + 1))
        return tuple((a, dim, rk, dim - rk, n - rk) for a, dim, rk in ranks)

    def lines(self):
        rows = (f"{a:5d} {dim:6d} {rk:6d} {h0_a:6d} {h1_a:6d}"
                for a, dim, rk, h0_a, h1_a in self.table)
        return ["    a  dimRa   rank     h0     h1", *rows, f"sigma={self.sigma}"]


def _bases(gamma: PointSet):
    """Yield the echelon basis of C_a, the column span of e_a in F_q^n (it may
    grow in place once yielded), for a = 0, 1, ... below full rank (a < n - 1
    on distinct points).  As each degree-(a+1) monomial is x_j times one of
    degree a, C_{a+1} = x_0*C_a + sum_{j>=1} x_j*N_a, N_a the rows that entered
    at degree a, N_0 = {(1, ..., 1)}: at most 1 + m*(n-1) inserts if x_0 = 1."""
    n, field, basis = len(gamma), gamma.field, []
    mul, columns = field.mul, tuple(zip(*gamma))  # columns[j]: x_j at each point
    products = [[1] * n]
    for _ in range(n - 1):
        size = len(basis)
        for product in products:
            insert(basis, product, field)
            if len(basis) == n:
                return
        yield basis
        new = [row for _, row in basis[size:]]
        if any(x != 1 for x in columns[0]):  # restart from x_0 * (basis of C_a)
            old, basis = basis, []
            for _, row in old:
                insert(basis, [mul(x, y) for x, y in zip(columns[0], row)], field)
        products = ([mul(x, y) for x, y in zip(xs, row)]
                    for xs in columns[1:] for row in new)


def profile(gamma: PointSet) -> CohomologyProfile:
    """rank e_0, e_1, ... up to the first full rank, from one `_bases` pass."""
    return CohomologyProfile(gamma, tuple(len(basis) for basis in _bases(gamma)))
