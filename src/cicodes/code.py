"""Evaluation codes C(Gamma)_a: matrices, parameters, exact minimum distance."""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from copy import copy
from itertools import tee
from math import comb

from .errors import (CapExceededError, FieldMismatchError, NoNormalizerFoundError,
                     NormalizerVanishesError)
from .geometry import PointSet
from .linalg import rref
from .poly import Polynomial, monomials_of_degree

DEFAULT_CAP = 1 << 22
F0_SEED = 0  # seed of choose_f0's random search
F0_TRIALS = 10 ** 4  # forms choose_f0 tries before it gives up


def _monomial_row(point, monomials, field):
    """Evaluations at one point of the listed monomials, each a compiled term."""
    return tuple(field.value(term, point) for term in monomials)


def _point_row(point, a, m, field):
    """One point's row of e_a (perfbench/layers.py reads this name)."""
    return next(point_rows(PointSet((point,), m, field), a))


def point_rows(gamma: PointSet, a: int):
    """The point rows of e_a, each built when it is asked for.  The degree-a
    monomials are listed and compiled once, and not at all when Gamma is empty."""
    field = gamma.field
    monomials = monomials_of_degree(gamma.m, a) if len(gamma) else ()
    terms = [(term,) for term in field.log_terms(dict.fromkeys(monomials, 1))]
    return (_monomial_row(pt, terms, field) for pt in gamma)


# Matrix of e_a: rows indexed by points, columns by degree-a monomials.
EvalMatrix = namedtuple("EvalMatrix", "rows degree m field")


def evaluation_matrix(gamma: PointSet, a: int) -> EvalMatrix:
    return EvalMatrix(tuple(point_rows(gamma, a)), a, gamma.m, gamma.field)


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
        compiled = field.log_terms(cand.terms)
        if all(field.value(compiled, pt) for pt in gamma):
            return cand
    raise NoNormalizerFoundError(
        f"no degree-{a} form nonvanishing on all {len(gamma)} points "
        f"after {F0_TRIALS} trials; pass f0 explicitly")


class EvalCode(namedtuple("EvalCode", "gamma degree gen")):
    """The code C(Gamma)_a with its reduced row-echelon generator matrix."""

    __slots__ = ()

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
        if len(gamma) and f0.nvars != gamma.m + 1:
            raise FieldMismatchError(f"point has {gamma.m + 1} coordinates, expected {f0.nvars}")
        compiled, scalers = field.log_terms(f0.terms), []
        for pt in gamma:
            v = field.value(compiled, pt)
            if v == 0:
                raise NormalizerVanishesError(f"f0 vanishes at {pt}")
            scalers.append(field.inv(v))
        spanning = [[field.mul(s, x) for s, x in zip(scalers, row)]
                    for row in spanning]
    gen, _ = rref(spanning, field)
    return EvalCode(gamma, a, tuple(tuple(row) for row in gen))


DistanceResult = namedtuple("DistanceResult", "d codewords_scanned")


def check_word_cap(q: int, k: int, cap: int) -> None:
    """Refuse to enumerate a k-dimensional code over F_q when its (q^k-1)/(q-1)
    words, one per projective class, exceed the cap."""
    words = (q ** k - 1) // (q - 1)
    if words > cap:
        raise CapExceededError(words, cap)


def _walk(field, n: int, rows):
    """The one codeword walk over `rows` g_0 .. g_{r-1}, each packed once as
    its e lane rows w^i * g_j: one int holding base-p digit i of coordinate
    c in the b-bit lane c*e + i, b = bitlen(p - 1) + 1.  Words add by XOR
    for p = 2, else by a lane add (a lane sum reaches p iff adding
    bias = 2^(b-1) - p sets its top bit).  Returns walk(lo, hi, hist), which
    visits depth first every message with lo..hi nonzero entries whose
    first nonzero entry is 1 and adds each word's weight to hist.  An
    entry's q-1 nonzero values come in the modular p-ary Gray order: step t
    adds w^(v_p(t)) * g_j, so a word is its parent or its sibling plus one
    packed row, one XOR or one lane add.  No reduced digit reaches its
    lane's top bit, so a coordinate's u = b*e bits read as one number
    v < 2^(u-1), nonzero exactly when adding 2^(u-1) - 1 sets bit u-1; the
    weight is one add and one popcount of these bits."""
    p, e, k = field.p, field.e, len(rows)
    b = (p - 1).bit_length() + 1
    u, shift, top, char2 = b * e, b - 1, 1 << (b - 1), p == 2
    ones = ((1 << b * e * n) - 1) // ((1 << b) - 1)  # 1 in every lane
    high, bias = top * ones, (top - p) * ones
    unit = ((1 << u * n) - 1) // ((1 << u) - 1)  # 1 in each coordinate's lowest bit
    nonzero, flags = ((1 << u - 1) - 1) * unit, (1 << u - 1) * unit
    text = {}  # element -> its e lanes, most significant digit first

    def pack(row):
        for x in set(row).difference(text):
            text[x] = "".join(format(d, f"0{b}b") for d in reversed(field.coeffs(x)))
        return int("".join([text[x] for x in reversed(row)]) or "0", 2)

    gray = []  # v_p(t) for t = 1 .. q-1
    for i in range(e):
        gray = (gray + [i]) * (p - 1) + gray
    powers = ([pack([field.mul(p ** i, x) for x in row]) for i in range(e)] for row in rows)
    steps = [[w[i] for i in gray] for w in powers]  # row j's steps w^(v_p(t)) * g_j

    def walk(lo, hi, hist):
        def visit(acc, start, depth):
            """The words acc + c * g_i, i >= start, c != 0, acc having depth
            nonzero entries, and below each the words with more entries."""
            depth += 1
            weigh, deeper = depth >= lo, depth < hi
            for i in range(start, k - lo + depth if depth < lo else k):  # room for lo
                x, down = acc, deeper and i + 1 < k
                for g in steps[i] if depth > 1 else steps[i][:1]:  # the first entry is 1
                    if char2:
                        x ^= g
                    else:
                        x += g
                        x -= (((x + bias) & high) >> shift) * p
                    if weigh:
                        hist[((x + nonzero) & flags).bit_count()] += 1
                    if down:
                        visit(x, i + 1, depth)

        visit(0, 0, 0)

    return walk


def _weights(code: EvalCode, cap: int):
    """Weight histogram (count of words by weight) of one nonzero codeword
    per projective class, by `_walk` over the generator; first refuses, by
    `check_word_cap`, when the words it would visit exceed the cap."""
    check_word_cap(code.field.q, code.k, cap)
    hist = [0] * (code.n + 1)
    _walk(code.field, code.n, code.gen)(1, code.k, hist)
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
    when it is asked for.  Set 0 is the generator itself, an RREF whose
    pivots are its rows' leading 1s; set j is the RREF of the generator with
    the columns no earlier set used moved first, in that column order.
    Yields (r_j, rows), r_j being its pivots in those unused columns, so the
    sets' new columns are disjoint; ends when the unused columns have rank 0."""
    n = len(gen[0])
    unused, rows, new = range(n), gen, {row.index(1) for row in gen}
    while new:
        yield len(new), rows
        unused = [c for c in unused if c not in new]
        order = unused + sorted(set(range(n)).difference(unused))
        rows, pivots = rref([[row[c] for c in order] for row in gen], field)
        new = {order[c] for c in pivots if c < len(unused)}


def _bound_gain(w: int, k: int, r: int) -> int:
    """How much an information set of r new columns adds to the
    Brouwer-Zimmermann bound when it finishes weight w: its share,
    max(0, w + 1 - (k - r)), is counted from w = 1 on."""
    return max(0, 2 - k + r) if w == 1 else int(w >= k - r)


def brouwer_zimmermann(code: EvalCode) -> DistanceResult:
    """Exact minimum distance by the Brouwer-Zimmermann search (K.-H.
    Zimmermann, TU Hamburg-Harburg TR 3-96, 1996; M. Grassl 2006), from the
    code alone.  For w = 1, 2, ..., k each information set of
    `_information_sets` in turn runs `_walk` over its rows on the messages of
    weight w.  A word no set has visited is nonzero in more than w_j pivots
    of set j, w_j being the weight set j has finished, so in at least
    max(0, w_j + 1 - (k - r_j)) of its r_j new columns.  The search ends when
    the sum of these reaches the lightest word visited, or when the first
    set has visited every message (w = k).  Counts the words visited."""
    field, n, k = code.field, code.n, code.k
    if not k:
        raise ValueError("the zero code has no nonzero codeword")
    walks = ((r, _walk(field, n, rows)) for r, rows in _information_sets(code.gen, field))
    sets, = tee(walks, 1)  # each copy runs from the first set; each set is packed once
    hist, bound = [0] * (n + 1), 0
    for w in range(1, k + 1):
        for r, walk in copy(sets):
            walk(w, w, hist)
            bound += _bound_gain(w, k, r)
            best = next(wt for wt, c in enumerate(hist) if c)
            if bound >= best or w == k:
                return DistanceResult(best, sum(hist))


def brouwer_zimmermann_cost(n: int, k: int, q: int) -> int:
    """What `brouwer_zimmermann` does at worst on an [n, k] code over F_q, in
    words, from n, k and q alone.  It assumes n // k disjoint full
    information sets and one set of n % k columns, and counts the words
    visited until the bound reaches Singleton, n - k + 1, plus k*n for each
    set's RREF and k*(q - 1) for its rows' Gray steps in `_walk`."""
    ranks = [k] * (n // k) + [n % k] * (n % k > 0)
    cost, bound = (k * n + k * (q - 1)) * len(ranks), 0
    for w in range(1, k + 1):
        words = comb(k, w) * (q - 1) ** (w - 1)
        for r in ranks:
            cost += words
            bound += _bound_gain(w, k, r)
            if bound > n - k or w == k:
                return cost
