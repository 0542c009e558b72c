"""Dense exact linear algebra over F_q: rank, RREF, nullspace.

Matrices are lists of rows; rows are lists of element encodings.
Everything here is desk scale, so plain Gaussian elimination is enough.
"""

from __future__ import annotations

from .gf import Field, power


def lanes(field: Field, width: int):
    """Rows of `width` F_q entries as ints: base-p digit i of column c in the
    b-bit lane c*e + i.  For p = 2, b = 1 and rows add by XOR; for odd p, b =
    bitlen(p) + 1, and a lane sum s reaches p iff s + bias sets its top bit.
    Returns b, high = 2^(b-1) and bias = 2^(b-1) - p in every lane, every_lane, pack."""
    p, e = field.p, field.e
    b = 1 if p == 2 else p.bit_length() + 1
    ones = ((1 << b * e * width) - 1) // ((1 << b) - 1)
    text = {}  # element -> its e lanes, most significant digit first

    def pack(row):
        for x in set(row).difference(text):
            text[x] = "".join(format(d, f"0{b}b") for d in reversed(field.coeffs(x)))
        return int("".join([text[x] for x in reversed(row)]) or "0", 2)

    return b, (1 << b - 1) * ones, ((1 << b - 1) - p) * ones, lambda v: v * ones, pack


def lane_rows(rows, field: Field):
    """An echelon insert of the rows as F_p lane rows: row r becomes the e
    ints w^j r, whose F_p-span is its F_q-span, so a basis has F_q-rank
    len(basis) // e.  insert(basis, i) reduces row i's first lane row: if
    that vanishes, row i is in the span; else all e enter and it returns True."""
    p, e = field.p, field.e
    b, high, bias, _, pack = lanes(field, len(rows[0]) if rows else 0)
    lane, shift = (1 << b) - 1, b - 1
    packed = [[pack([field.mul(p ** j, x) for x in row]) for j in range(e)] for row in rows]

    def add(x, y):
        x += y
        return x - (((x + bias) & high) >> shift) * p

    class Multiples(dict):  # g -> g * row by double-and-add, built on first use
        def __missing__(self, g):
            self[g] = power(self[1], g, add, 0)
            return self[g]

    def insert(basis, i) -> bool:
        for row in packed[i]:
            if p == 2:
                for pos, prow in basis:
                    if row >> pos & 1:
                        row ^= prow
            else:  # add g * entry for g = -f / pivot, with the lane correction
                for pos, c, multiples in basis:
                    f = row >> pos & lane
                    if f:
                        row += multiples[f * c % p]
                        row -= (((row + bias) & high) >> shift) * p
            if not row:  # only the first can vanish
                return False
            pos = ((row & -row).bit_length() - 1) // b * b
            if p == 2:
                basis.append((pos, row))
            else:  # c = -1 / pivot digit
                basis.append((pos, pow(p - (row >> pos & lane), -1, p), Multiples({1: row})))
        return True

    return insert


def insert(basis, row, field: Field) -> bool:
    """Reduce `row` against an echelon basis and append it if it stays
    nonzero; returns whether the basis grew.  The basis is a list of (pivot
    column, monic row) whose rows vanish before their pivots and at the
    pivots of earlier entries, so one pass clears every pivot of `row`."""
    add, mul = field.add, field.mul
    row = list(row)
    for c, prow in basis:
        if row[c]:
            f = field.neg(row[c])  # x - r*y as x + (-r)*y: one neg per row
            row[c:] = [add(x, mul(f, y)) for x, y in zip(row[c:], prow[c:])]
    for c, x in enumerate(row):
        if x:
            if x != 1:
                inv = field.inv(x)
                row[c:] = [mul(inv, y) for y in row[c:]]
            basis.append((c, row))
            return True
    return False


def rank(rows, field: Field) -> int:
    """Rank as the size of the echelon basis the rows insert into; stops once
    the basis is as long as a row, since no row can grow it further."""
    basis = []
    for row in rows:
        if len(basis) == len(row):
            break
        insert(basis, row, field)
    return len(basis)


def rref(rows, field: Field):
    """Reduced row-echelon form: (reduced nonzero rows, pivot columns).  The
    echelon basis of the rows, inserted again last pivot first: each row then
    loses the later pivots and already vanishes at the earlier ones."""
    basis = []
    for row in rows:
        insert(basis, row, field)
    reduced = []
    for _, row in sorted(basis, reverse=True):  # pivots are distinct
        insert(reduced, row, field)
    reduced.reverse()
    return [row for _, row in reduced], [c for c, _ in reduced]


def nullspace(rows, field: Field, ncols: int):
    """Basis of the right kernel {v : M v = 0}, one vector per free column."""
    red, pivots = rref(rows, field)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = field.neg(row[fc])  # pivot row: x_pc + sum over free cols = 0
        basis.append(v)
    return basis
