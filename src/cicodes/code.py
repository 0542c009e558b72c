"""Evaluation codes C(Gamma)_a: matrices, parameters, exact minimum distance."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import comb

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


def _layout(field, n: int):
    """`linalg.lanes` for words of length n, and what a word's weight needs.
    A digit is nonzero exactly when adding nonzero = 2^(b-1) - 1 sets its top
    bit; the weight ORs these bits over each coordinate's e lanes by the
    shifts in `fold`, and counts them in `first`, the top bit of each
    coordinate's lane 0.  Returns shift = b - 1, high, bias, pack, nonzero,
    first, fold."""
    b, high, bias, every_lane, pack = lanes(field, n)
    e, top = field.e, 1 << (b - 1)
    first = int(("0" * (b * (e - 1)) + format(top, f"0{b}b")) * n, 2)
    fold, covered = [], 1
    while covered < e:  # shifts that OR lanes c*e+1 .. c*e+e-1 into lane c*e
        fold.append(min(covered, e - covered) * b)
        covered += fold[-1] // b
    return b - 1, high, bias, pack, every_lane(top - 1), first, fold


def _weights(code: EvalCode, cap: int):
    """Weight histogram (count of words by weight) of one nonzero codeword
    per projective class: for each lead, the messages whose first nonzero
    digit is a 1 there.  The later digits, written in base p as sum d_i w^i,
    are walked in the modular p-ary Gray code: step t adds 1 to the base-p
    coordinate at the p-adic valuation of t, so the word gains that
    coordinate's w^i * g_j.  First refuses, by `check_word_cap`, when the
    words it would visit exceed the cap.  A word is one int in the layout of
    `linalg.lanes`, a step adds as that says, and its weight is read as
    `_layout` says."""
    gen, field, n, k = code.gen, code.field, code.n, code.k
    p, e, q = field.p, field.e, field.q
    check_word_cap(q, k, cap)
    shift, high, bias, pack, nonzero, first, fold = _layout(field, n)
    # w^i * g_j for rows j = k-1 down to 0, i < e: the last row moves fastest
    steps = [pack([field.mul(p ** i, g) for g in gen[j]])
             for j in range(k - 1, -1, -1) for i in range(e)]
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


def column_distance(code: EvalCode) -> DistanceResult:
    """Exact minimum distance of a code of dimension 1 or 2 from its columns
    g_j, scanning no codeword: the word of message u vanishes at j exactly
    when u.g_j = 0.  For k = 1 only the zero columns do.  For k = 2 so do the
    columns on the point of P^1 that u is orthogonal to, so d is the number
    of nonzero columns less the most that lie on one point."""
    field, k = code.field, code.k
    if k not in (1, 2):
        raise ValueError(f"column_distance needs dimension 1 or 2, got {k}")
    points = Counter()  # each nonzero column scaled to first nonzero entry 1
    for col in zip(*code.gen):
        lead = next((x for x in col if x), 0)
        if lead:
            inv = field.inv(lead)
            points[tuple(field.mul(inv, x) for x in col)] += 1
    return DistanceResult(sum(points.values()) - (max(points.values()) if k == 2 else 0), 0)


def _information_sets(gen, field):
    """Systematic generators of the code on information sets, each built
    when it is asked for: set j is the RREF of the generator with the
    columns no earlier set used moved first, in that column order.  Yields
    (r_j, rows), r_j being its pivots in those unused columns, so the sets'
    new columns are disjoint; ends when the unused columns have rank 0."""
    n = len(gen[0])
    unused = list(range(n))
    while True:
        order = unused + sorted(set(range(n)).difference(unused))
        rows, pivots = rref([[row[c] for c in order] for row in gen], field)
        new = {order[c] for c in pivots if c < len(unused)}
        if not new:
            return
        yield len(new), rows
        unused = [c for c in unused if c not in new]


def _bound_gain(w: int, k: int, r: int) -> int:
    """How much an information set of r new columns adds to the
    Brouwer-Zimmermann bound when it finishes weight w: its share,
    max(0, w + 1 - (k - r)), is counted from w = 1 on."""
    return max(0, 2 - k + r) if w == 1 else int(w >= k - r)


def brouwer_zimmermann(code: EvalCode) -> DistanceResult:
    """Exact minimum distance by the Brouwer-Zimmermann search (K.-H.
    Zimmermann, TU Hamburg-Harburg TR 3-96, 1996; M. Grassl 2006), from the
    code alone.  For w = 1, 2, ..., k each information set of
    `_information_sets` in turn visits the messages of weight w whose first
    nonzero entry is 1.  A word is a sum of packed multiples c*g_i of the
    set's rows, walked depth-first with partial sums, so each costs one lane
    add.  A word no set has visited is nonzero in more than w_j pivots of
    set j, w_j being the weight set j has finished, so in at least
    max(0, w_j + 1 - (k - r_j)) of its r_j new columns.  The search ends when
    the sum of these reaches the lightest word visited, or when the first
    set has visited every message (w = k).  Counts the words visited."""
    field, n, k = code.field, code.n, code.k
    if not k:
        raise ValueError("the zero code has no nonzero codeword")
    p, e, q = field.p, field.e, field.q
    shift, high, bias, pack, nonzero, first, fold = _layout(field, n)

    def add(x, y):
        if p == 2:
            return x ^ y
        x += y
        return x - (((x + bias) & high) >> shift) * p

    def weight(x):
        nz = x if p == 2 else (x + nonzero) & high
        for s in fold:
            nz |= nz >> s
        return (nz & first).bit_count()

    def multiples(row):
        """c * row for c = 1 .. q-1, one lane add each: (c - p^i) * row plus
        w^i * row, digit i being c's lowest nonzero base-p digit."""
        basis = [pack([field.mul(p ** i, x) for x in row]) for i in range(e)]
        mults = [0]
        for c in range(1, q):
            i = 0
            while c // p ** i % p == 0:
                i += 1
            mults.append(add(mults[c - p ** i], basis[i]))
        return mults[1:]

    def lightest(mults, acc, start, left):
        """(lightest weight, count) of the words acc plus multiples of `left`
        distinct rows from `start` on."""
        if not left:
            return weight(acc), 1
        best, count = n + 1, 0
        for i in range(start, k - left + 1):
            for m in mults[i]:
                light, c = lightest(mults, add(acc, m), i + 1, left - 1)
                best, count = min(best, light), count + c
        return best, count

    fresh, built = _information_sets(code.gen, field), []  # built: (r_j, multiples)

    def sets():
        yield from built
        for r, rows in fresh:
            built.append((r, [multiples(row) for row in rows]))
            yield built[-1]

    best, visited, bound = n + 1, 0, 0
    for w in range(1, k + 1):
        for r, mults in sets():
            for i in range(k - w + 1):  # the first nonzero entry, at row i, is 1
                light, c = lightest(mults, mults[i][0], i + 1, w - 1)
                best, visited = min(best, light), visited + c
            bound += _bound_gain(w, k, r)
            if bound >= best or w == k:
                return DistanceResult(best, visited)


def brouwer_zimmermann_cost(n: int, k: int, q: int) -> int:
    """What `brouwer_zimmermann` does at worst on an [n, k] code over F_q, in
    words, from n, k and q alone.  It assumes n // k disjoint full
    information sets and one set of n % k columns, and counts the words
    visited until the bound reaches Singleton, n - k + 1, plus k*n for each
    set's RREF and k*(q - 1) lane adds for its rows' multiples."""
    ranks = [k] * (n // k) + [n % k] * (n % k > 0)
    cost, bound = (k * n + k * (q - 1)) * len(ranks), 0
    for w in range(1, k + 1):
        words = comb(k, w) * (q - 1) ** (w - 1)
        for r in ranks:
            cost += words
            bound += _bound_gain(w, k, r)
            if bound > n - k or w == k:
                return cost
