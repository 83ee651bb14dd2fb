"""Exact sparse linear algebra over the rationals.

Every value is kept `exact`: an int where integral, else a Fraction; the
one true division, `quotient`, keeps that form, so there is no floating
point anywhere.  A matrix stores only its nonzero entries {(i, j): c},
the format of the algebra elements' supports, and kernel vectors and
solutions come back as {index: c}.  Elimination is sparse, column by
column in index order, once per matrix (`Matrix.elimination`): it touches
only stored nonzeros and divides exactly, so all rank / kernel / solve
answers are exact; solve reduces b against the matrix's kept elimination.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm


def exact(x):
    """x (an int, bool, Fraction or "a/b" string) as an int if it is
    integral, else as a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def quotient(a, b):
    """a / b for exact a and b, in the form `exact` gives; with two int
    operands the bare / would give a float."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return exact(Fraction(a) / b)


class Matrix:
    """Sparse rational matrix: its shape and its nonzero entries
    {(i, j): c}, each made `exact`; it is never changed once made."""

    __slots__ = ("rows", "cols", "nonzero", "_elimination")

    def __init__(self, rows, cols, nonzero):
        if any(not (0 <= i < rows and 0 <= j < cols) for i, j in nonzero):
            raise ValueError("entry outside %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.nonzero = {ij: v for ij, x in nonzero.items()
                        if (v := exact(x))}
        self._elimination = None

    @property
    def elimination(self):             # made on first read, then kept
        if self._elimination is None:
            self._elimination = _eliminate(self)
        return self._elimination

    @property
    def entries(self):
        """Dense row-major view of all rows x cols entries."""
        out = [0] * (self.rows * self.cols)
        for (i, j), x in self.nonzero.items():
            out[i * self.cols + j] = x
        return out

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ValueError("entry (%d, %d) outside %dx%d"
                             % (i, j, self.rows, self.cols))
        return self.nonzero.get(ij, 0)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.nonzero == other.nonzero)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("inner matrix dimensions differ")
        by_row = {}
        for (t, j), b in other.nonzero.items():
            by_row.setdefault(t, []).append((j, b))
        out = {}
        for (i, t), a in self.nonzero.items():
            for j, b in by_row.get(t, ()):
                out[i, j] = out.get((i, j), 0) + a * b
        return Matrix(self.rows, other.cols, out)

    def submatrix(self, rows, cols):
        """The block on the given row and column indices, in their order."""
        r = {i: a for a, i in enumerate(rows)}
        c = {j: b for b, j in enumerate(cols)}
        return Matrix(len(r), len(c), {(r[i], c[j]): x for (i, j), x in
                                       self.nonzero.items()
                                       if i in r and j in c})

def scaled_to_ints(row):
    """(ints, den) with den the lcm of the row's denominators and
    ints[i] / den == row[i]; the entries are Fractions or ints."""
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row], den


def _reduce(v, pivots, number):
    """Reduce v in place against the pivots, earliest first (a heap)."""
    heap = [number[i] for i in v if i in number]
    heapify(heap)
    while heap:
        r, p = pivots[heappop(heap)]
        if r not in v:              # cancelled, or queued twice
            continue
        t = quotient(v[r], p[r])
        for i, a in p.items():
            if i not in v:
                v[i] = -t * a
                if i in number:
                    heappush(heap, number[i])
            elif x := v[i] - t * a:
                v[i] = x
            else:
                del v[i]


def _eliminate(M):
    """Column-order sparse elimination of M: (its pivots (row r, reduced
    column), {r: that pivot's number}, the set of its pivot columns,
    {free nonzero column: its kernel vector}).

    Each nonzero column, in index order, is reduced against the pivots
    made before it.  A pivot is stored zero at the rows of earlier
    pivots, so a subtraction adds entries only at rows of later pivots
    and the reduction ends; a column left nonzero pivots at its least
    row.  Each column carries, at the keys rows + l, the combination of
    M's columns l that it is: for a column that reduces to zero, which is
    free, its kernel vector, 1 at the column and nonzero elsewhere only
    at earlier pivot columns.
    """
    n = M.rows
    columns = {}
    for (i, j), x in M.nonzero.items():
        columns.setdefault(j, {})[i] = x
    pivots, number, pivot_columns, free = [], {}, set(), {}
    for j in sorted(columns):
        v = columns[j]
        v[n + j] = 1
        _reduce(v, pivots, number)
        r = min(v)
        if r < n:
            number[r] = len(pivots)
            pivots.append((r, v))
            pivot_columns.add(j)
        else:
            free[j] = {i - n: exact(c) for i, c in v.items()}
    return pivots, number, pivot_columns, free


def rank(M):
    """Rank of M over the rationals: its number of pivot columns."""
    return len(M.elimination[2])


def kernel_basis(M):
    """Basis of the right null space of M, one vector {index: c} per free
    column in column order, with a 1 there and 0 at the other free
    columns (a unit vector for a zero column); a free column is one in the
    span of the columns before it, so neither depends on the order."""
    _, _, pivot_columns, free = M.elimination
    return [free.get(j) or {j: 1} for j in range(M.cols)
            if j not in pivot_columns]


def solve(A, b):
    """A particular solution x of A x = b as {index: c}, or None if
    inconsistent: b, marked 1 at key rows + cols, is reduced as [A | b]'s
    last column would be, to minus the combination of A's columns that is
    b, or to a row entry; x is 0 at A's free columns."""
    if len(b) != A.rows:
        raise ValueError("right-hand side length is not the row count")
    n, marker = A.rows, A.rows + A.cols
    v = {i: c for i, x in enumerate(b) if (c := exact(x))}
    v[marker] = 1
    _reduce(v, *A.elimination[:2])
    if min(v) < n:
        return None
    return {i - n: exact(-c) for i, c in v.items() if i != marker}
