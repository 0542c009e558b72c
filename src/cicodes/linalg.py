"""Dense exact linear algebra over F_q: rank, RREF, nullspace.

Matrices are lists of rows; rows are lists of element encodings.
Everything here is desk scale, so plain Gaussian elimination is enough.
"""

from __future__ import annotations

from .gf import Field


def _eliminate(rows, field: Field, reduce: bool):
    """Gaussian elimination: (nonzero rows, pivot columns).

    With `reduce`, each pivot clears its whole column (RREF); without it,
    only the rows below (row-echelon form), which is enough for the rank.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        prow = rows[r]
        for i in range(0 if reduce else r + 1, len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rref(rows, field: Field):
    """Reduced row-echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Input rows are
    not modified.
    """
    return _eliminate(rows, field, reduce=True)


def rank(rows, field: Field) -> int:
    return len(_eliminate(rows, field, reduce=False)[1])


def nullspace(rows, field: Field, ncols=None):
    """Basis of the right kernel {v : M v = 0}, one vector per free column."""
    if not rows:
        return []  # caller must handle the trivial full kernel separately
    ncols = len(rows[0]) if ncols is None else ncols
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            # pivot row: x_pc + sum over free cols = 0
            v[pc] = field.neg(red[ri][fc])
        basis.append(v)
    return basis
