"""Dense exact linear algebra over F_q: rank and RREF.

Matrices are lists of rows; rows are lists of element encodings.
Everything here is desk scale, so plain Gaussian elimination is enough.
"""

from __future__ import annotations

from .gf import Field


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
