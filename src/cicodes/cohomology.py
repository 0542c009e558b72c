"""Cohomological dimensions of ideal sheaves of point sets via rank of e_a.

Conventions for a < 0: R_a = 0, so rank = 0, h0 = 0 and h1 = |Gamma|
(the zero map has full cokernel).  These make the Cayley-Bacharach pivot
degree s - a usable across the whole degree window.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class CohomologyProfile:
    gamma: PointSet
    ranks: tuple  # rank e_0 .. e_sigma, each below |Gamma|

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


def profile(gamma: PointSet) -> CohomologyProfile:
    """Scan rank e_0, e_1, ... upward to the first full rank (by a = |Gamma| - 1
    for distinct points) with one echelon basis carried from degree to degree.
    rank e_a is the dimension of C_a, the column span of e_a in F_q^n.  At the
    fixed point representatives each degree-(a+1) monomial is x_j times one of
    degree a, so C_{a+1} is spanned by the pointwise products x_j * b over
    j = 0..m and the basis rows b of C_a, starting from C_0 = <(1, ..., 1)>:
    no monomial is evaluated.  A full rank stays full, since every point has
    a nonzero coordinate x_j and so the products x_j * F_q^n span F_q^n."""
    n, field, ranks, basis = len(gamma), gamma.field, [], []
    mul, columns = field.mul, tuple(zip(*gamma))  # columns[j]: x_j at each point
    insert(basis, [1] * n, field)
    while len(basis) < n:
        ranks.append(len(basis))
        if len(ranks) == n - 1:
            break
        rows, basis = [row for _, row in basis], []
        for product in ([mul(x, y) for x, y in zip(xs, row)]
                        for xs in columns for row in rows):
            insert(basis, product, field)
            if len(basis) == n:
                break
    return CohomologyProfile(gamma, tuple(ranks))
