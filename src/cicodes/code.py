"""Evaluation codes C(Gamma)_a: matrices, parameters, exact minimum distance."""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .errors import CapExceededError, NoNormalizerFoundError, NormalizerVanishesError
from .geometry import PointSet
from .linalg import nullspace, rref
from .poly import Polynomial, monomials_of_degree

DEFAULT_CAP = 1 << 22


def _monomial_row(point, monomials, field):
    """Evaluations of the listed monomials at one point."""
    return tuple(field.monomial(point, expo) for expo in monomials)


def _point_row(point, a, m, field):
    """Evaluations of the degree-a graded-lex monomial basis at one point."""
    return _monomial_row(point, monomials_of_degree(m, a), field)


@dataclass(frozen=True)
class EvalMatrix:
    """Matrix of e_a: rows indexed by points, columns by degree-a monomials."""

    rows: tuple
    degree: int
    m: int
    field: object

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return comb(self.degree + self.m, self.m) if self.degree >= 0 else 0


def evaluation_matrix(gamma: PointSet, a: int) -> EvalMatrix:
    monomials = monomials_of_degree(gamma.m, a)  # listed once, not once per point
    rows = tuple(_monomial_row(pt, monomials, gamma.field) for pt in gamma)
    return EvalMatrix(rows, a, gamma.m, gamma.field)


def rank_and_kernel(matrix: EvalMatrix):
    """Rank of e_a plus a basis of its kernel (degree-a piece of the ideal)."""
    kernel = nullspace(matrix.rows, matrix.field, matrix.ncols)
    return matrix.ncols - len(kernel), kernel


def choose_f0(gamma: PointSet, a: int, seed: int = 0, trials: int = 10000) -> Polynomial:
    """A degree-a form nonvanishing on all of Gamma.

    Uses x0^a when every point is affine; otherwise a seeded random search
    over R_a, failing after the trial budget.
    """
    field = gamma.field
    nvars = gamma.m + 1
    if all(pt[0] != 0 for pt in gamma):
        return Polynomial.variable(field, nvars, 0, power=a) if a > 0 \
            else Polynomial.constant(field, nvars, 1)
    monomials = monomials_of_degree(gamma.m, a)
    rng = random.Random(seed)
    for _ in range(trials):
        terms = {expo: rng.randrange(field.q) for expo in monomials}
        cand = Polynomial(field, nvars, terms)
        if cand.is_zero():
            continue
        if all(cand.evaluate(pt) != 0 for pt in gamma):
            return cand
    raise NoNormalizerFoundError(
        f"no degree-{a} form nonvanishing on all {len(gamma)} points "
        f"after {trials} trials; pass f0 explicitly")


@dataclass(frozen=True)
class EvalCode:
    """The code C(Gamma)_a with its reduced row-echelon generator matrix."""

    gamma: PointSet
    degree: int
    n: int
    k: int
    gen: tuple
    f0: object = None

    @property
    def field(self):
        return self.gamma.field


def build_code(gamma: PointSet, a: int, f0: Polynomial = None) -> EvalCode:
    """Image of e_a as a code; coordinates divided by f0(p_i) when f0 is given."""
    field = gamma.field
    n = len(gamma)
    matrix = evaluation_matrix(gamma, a)
    # spanning vectors of the code: one per monomial, coordinates per point
    spanning = [[matrix.rows[i][j] for i in range(n)]
                for j in range(matrix.ncols)]
    if f0 is not None:
        scalers = []
        for pt in gamma:
            v = f0.evaluate(pt)
            if v == 0:
                raise NormalizerVanishesError(f"f0 vanishes at {pt}")
            scalers.append(field.inv(v))
        spanning = [[field.mul(s, x) for s, x in zip(scalers, row)]
                    for row in spanning]
    gen, _ = rref(spanning, field)
    gen = tuple(tuple(row) for row in gen)
    return EvalCode(gamma, a, n, len(gen), gen, f0)


@dataclass(frozen=True)
class DistanceResult:
    d: int
    codewords_scanned: int
    exact: bool = True


def _weights(code: EvalCode, cap: int):
    """Weights of one nonzero codeword per projective class: for each lead,
    the messages whose first nonzero digit is a 1 there.  The later digits,
    written in base p as sum d_i w^i, are walked in the modular p-ary Gray
    code: step t adds 1 to the base-p coordinate at the p-adic valuation of
    t, so the word gains that coordinate's w^i * g_j.  First refuses when the
    words it would visit, (q^k-1)/(q-1), exceed the cap."""
    gen, field, n, k = code.gen, code.field, code.n, code.k
    p, e, q = field.p, field.e, field.q
    visited = (q ** k - 1) // (q - 1)
    if visited > cap:
        raise CapExceededError(visited, cap)
    add = field.add
    # w^i * g_j for rows j = k-1 down to 0, i < e: the last row moves fastest
    steps = [[field.mul(p ** i, g) for g in gen[j]]
             for j in range(k - 1, -1, -1) for i in range(e)]
    for lead in range(k):
        w = list(gen[lead])
        yield n - w.count(0)
        for t in range(1, q ** (k - lead - 1)):
            i = 0  # v_p(t): the base-p coordinate that steps
            while t % p == 0:
                t //= p
                i += 1
            w = list(map(add, w, steps[i]))
            yield n - w.count(0)


def min_distance(code: EvalCode, cap: int = DEFAULT_CAP) -> DistanceResult:
    """Exact minimum distance by scanning one message per projective class."""
    if not code.k:
        raise ValueError("the zero code has no nonzero codeword")
    best, scanned = code.n, 0
    for wt in _weights(code, cap):
        if wt < best:
            best = wt
        scanned += 1
    return DistanceResult(best, scanned)


def weight_distribution(code: EvalCode, cap: int = DEFAULT_CAP):
    """Weight -> count over all nonzero codewords (scaling multiplies counts by q-1)."""
    dist = {}
    for wt in _weights(code, cap):
        dist[wt] = dist.get(wt, 0) + 1
    return {wt: c * (code.field.q - 1) for wt, c in dist.items()}
