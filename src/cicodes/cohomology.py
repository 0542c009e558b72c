"""Cohomological dimensions of ideal sheaves of point sets via rank of e_a.

Conventions for a < 0: R_a = 0, so rank = 0, h0 = 0 and h1 = |Gamma|
(the zero map has full cokernel).  These make the Cayley-Bacharach pivot
degree s - a usable across the whole degree window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .code import evaluation_matrix
from .geometry import PointSet
from .linalg import rank as matrix_rank


@lru_cache(maxsize=256)  # a run reuses a few dozen (Gamma, degree) ranks
def rank_e(gamma: PointSet, a: int) -> int:
    """Rank of the evaluation map e_a; 0 in negative degrees."""
    if a < 0 or not gamma.points:
        return 0
    return matrix_rank(evaluation_matrix(gamma, a).rows, gamma.field)


def h0(gamma: PointSet, a: int) -> int:
    """Dimension of the degree-a forms vanishing on Gamma (kernel of e_a)."""
    if a < 0:
        return 0
    return comb(a + gamma.m, gamma.m) - rank_e(gamma, a)


def h1(gamma: PointSet, a: int) -> int:
    """Cokernel dimension |Gamma| - rank(e_a); the conditions-failure count."""
    return len(gamma) - rank_e(gamma, a)


def imposes_independent_conditions(gamma: PointSet, a: int) -> bool:
    return h1(gamma, a) == 0


def hilbert_function(gamma: PointSet, a: int) -> int:
    """dim (R/I_Gamma)_a = rank(e_a); 0 for a < 0."""
    return rank_e(gamma, a)


def sigma(gamma: PointSet) -> int:
    """Largest a with h1 > 0, or -1: one less than the first a of full rank
    (a = |Gamma| - 1 at the latest for distinct points).  Rank never falls:
    over an extension of F_q (same rank) a linear form L misses every point,
    none need exist over F_q, and L*f in I_Gamma forces f in I_Gamma."""
    a = 0
    while a < len(gamma) - 1 and rank_e(gamma, a) < len(gamma):
        a += 1
    return a - 1


@dataclass(frozen=True)
class CohomologyProfile:
    gamma: PointSet
    table: tuple  # rows (a, dim_Ra, rank, h0, h1) for a in [-1, a_max]
    sigma: int

    def lines(self):
        out = ["    a  dimRa   rank     h0     h1"]
        for a, dim_ra, rk, h0_a, h1_a in self.table:
            out.append(f"{a:5d} {dim_ra:6d} {rk:6d} {h0_a:6d} {h1_a:6d}")
        out.append(f"sigma={self.sigma}")
        return out


def profile(gamma: PointSet, a_max: int) -> CohomologyProfile:
    sg, n = sigma(gamma), len(gamma)
    rows = []
    for a in range(-1, a_max + 1):
        dim_ra = comb(a + gamma.m, gamma.m) if a >= 0 else 0
        rk = rank_e(gamma, a) if a <= sg else n  # full rank past sigma
        rows.append((a, dim_ra, rk, dim_ra - rk, n - rk))
    return CohomologyProfile(gamma, tuple(rows), sg)
