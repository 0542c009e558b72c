"""Evaluation codes C(Gamma)_a: matrices, parameters, exact minimum distance."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CapExceededError, NoNormalizerFoundError, NormalizerVanishesError
from .geometry import PointSet
from .linalg import lanes, nullspace, rref
from .poly import Polynomial, monomial_count, monomials_of_degree

DEFAULT_CAP = 1 << 22
F0_SEED = 0  # seed of choose_f0's random search
F0_TRIALS = 10 ** 4  # forms choose_f0 tries before it gives up


def _monomial_row(point, monomials, field):
    """Evaluations of the listed monomials at one point."""
    return tuple(field.monomial(point, expo) for expo in monomials)


def _point_row(point, a, m, field):
    """One point's row of e_a (perfbench/layers.py reads this name)."""
    return next(point_rows(PointSet((point,), m, field), a))


def point_rows(gamma: PointSet, a: int):
    """The point rows of e_a, each built when it is asked for.  The degree-a
    monomials are listed once, and not at all when Gamma is empty."""
    monomials = monomials_of_degree(gamma.m, a) if len(gamma) else ()
    return (_monomial_row(pt, monomials, gamma.field) for pt in gamma)


@dataclass(frozen=True)
class EvalMatrix:
    """Matrix of e_a: rows indexed by points, columns by degree-a monomials."""

    rows: tuple
    degree: int
    m: int
    field: object

    @property
    def ncols(self):
        return monomial_count(self.m, self.degree)


def evaluation_matrix(gamma: PointSet, a: int) -> EvalMatrix:
    return EvalMatrix(tuple(point_rows(gamma, a)), a, gamma.m, gamma.field)


def rank_and_kernel(matrix: EvalMatrix):
    """Rank of e_a plus a basis of its kernel (degree-a piece of the ideal)."""
    kernel = nullspace(matrix.rows, matrix.field, matrix.ncols)
    return matrix.ncols - len(kernel), kernel


def choose_f0(gamma: PointSet, a: int) -> Polynomial:
    """A degree-a form nonvanishing on all of Gamma.

    Uses x0^a when every point is affine; otherwise a random search over R_a
    seeded with F0_SEED, failing after F0_TRIALS forms.
    """
    field = gamma.field
    nvars = gamma.m + 1
    if all(pt[0] != 0 for pt in gamma):
        return Polynomial.variable(field, nvars, 0, power=a) if a > 0 \
            else Polynomial.constant(field, nvars, 1)
    monomials = monomials_of_degree(gamma.m, a)
    rng = random.Random(F0_SEED)
    for _ in range(F0_TRIALS):
        terms = {expo: rng.randrange(field.q) for expo in monomials}
        cand = Polynomial(field, nvars, terms)
        if cand.is_zero():
            continue
        if all(cand.evaluate(pt) != 0 for pt in gamma):
            return cand
    raise NoNormalizerFoundError(
        f"no degree-{a} form nonvanishing on all {len(gamma)} points "
        f"after {F0_TRIALS} trials; pass f0 explicitly")


@dataclass(frozen=True)
class EvalCode:
    """The code C(Gamma)_a with its reduced row-echelon generator matrix."""

    gamma: PointSet
    degree: int
    gen: tuple

    @property
    def field(self):
        return self.gamma.field

    @property
    def n(self):
        return len(self.gamma)

    @property
    def k(self):
        return len(self.gen)


def build_code(gamma: PointSet, a: int, f0: Polynomial = None) -> EvalCode:
    """Image of e_a as a code; coordinates divided by f0(p_i) when f0 is given."""
    field = gamma.field
    # spanning vectors of the code: one per monomial, coordinates per point
    spanning = list(zip(*point_rows(gamma, a)))
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
    return EvalCode(gamma, a, tuple(tuple(row) for row in gen))


@dataclass(frozen=True)
class DistanceResult:
    d: int
    codewords_scanned: int


def check_word_cap(q: int, k: int, cap: int) -> None:
    """Refuse to enumerate a k-dimensional code over F_q when its (q^k-1)/(q-1)
    words, one per projective class, exceed the cap."""
    words = (q ** k - 1) // (q - 1)
    if words > cap:
        raise CapExceededError(words, cap)


def _weights(code: EvalCode, cap: int):
    """Weight histogram (count of words by weight) of one nonzero codeword
    per projective class: for each lead, the messages whose first nonzero
    digit is a 1 there.  The later digits, written in base p as sum d_i w^i,
    are walked in the modular p-ary Gray code: step t adds 1 to the base-p
    coordinate at the p-adic valuation of t, so the word gains that
    coordinate's w^i * g_j.  First refuses, by `check_word_cap`, when the
    words it would visit exceed the cap.

    A word is one int in the layout of `linalg.lanes`, and a step adds as
    that says.  A digit is nonzero exactly when adding 2^(b-1) - 1 sets its
    top bit; the weight ORs these bits over each coordinate's e lanes and
    counts them."""
    gen, field, n, k = code.gen, code.field, code.n, code.k
    p, e, q = field.p, field.e, field.q
    check_word_cap(q, k, cap)
    b, high, bias, every_lane, pack = lanes(field, n)
    # w^i * g_j for rows j = k-1 down to 0, i < e: the last row moves fastest
    steps = [pack([field.mul(p ** i, g) for g in gen[j]])
             for j in range(k - 1, -1, -1) for i in range(e)]
    top = 1 << (b - 1)
    nonzero = every_lane(top - 1)
    first = int(("0" * (b * (e - 1)) + format(top, f"0{b}b")) * n, 2)
    shift, fold, covered = b - 1, [], 1
    while covered < e:  # shifts that OR lanes c*e+1 .. c*e+e-1 into lane c*e
        fold.append(min(covered, e - covered) * b)
        covered += fold[-1] // b
    hist = [0] * (n + 1)
    for lead in range(k):
        w = pack(gen[lead])
        for t in range(q ** (k - lead - 1)):
            if t:
                i = 0  # v_p(t): the base-p coordinate that steps
                while t % p == 0:
                    t //= p
                    i += 1
                if p == 2:
                    w ^= steps[i]
                else:
                    w += steps[i]
                    w -= (((w + bias) & high) >> shift) * p
            nz = w if p == 2 else (w + nonzero) & high
            for s in fold:
                nz |= nz >> s
            hist[(nz & first).bit_count()] += 1
    return hist


def min_distance(code: EvalCode, cap: int = DEFAULT_CAP) -> DistanceResult:
    """Exact minimum distance by scanning one message per projective class."""
    if not code.k:
        raise ValueError("the zero code has no nonzero codeword")
    hist = _weights(code, cap)
    return DistanceResult(next(wt for wt, c in enumerate(hist) if c), sum(hist))


def weight_distribution(code: EvalCode, cap: int = DEFAULT_CAP):
    """Weight -> count over all nonzero codewords (scaling multiplies counts by q-1)."""
    return {wt: c * (code.field.q - 1) for wt, c in enumerate(_weights(code, cap)) if c}
