"""Exact sparse linear algebra over the rationals.

Every value is kept `exact`: an int where integral, else a Fraction; the
one true division, `quotient`, keeps that form, so there is no floating
point anywhere.  A matrix stores only its nonzero entries {(i, j): c},
the format of the algebra elements' supports, and kernel vectors and
solutions come back as {index: c}.  Elimination is fraction-free, block
by block over columns that share a nonzero row: rows are scaled to
integers and eliminated with cross-multiplication, so all rank / kernel
/ solve answers are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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
    {(i, j): c}, each made `exact`."""

    __slots__ = ("rows", "cols", "nonzero")

    def __init__(self, rows, cols, nonzero):
        if any(not (0 <= i < rows and 0 <= j < cols) for i, j in nonzero):
            raise ValueError("entry outside %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.nonzero = {ij: v for ij, x in nonzero.items()
                        if (v := exact(x))}

    @classmethod
    def from_rows(cls, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        if any(len(r) != cols for r in row_lists):
            raise ValueError("ragged rows")
        return cls(rows, cols, {(i, j): x for i, r in enumerate(row_lists)
                                for j, x in enumerate(r)})

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @property
    def entries(self):
        """Dense row-major view of all rows x cols entries."""
        out = [0] * (self.rows * self.cols)
        for (i, j), x in self.nonzero.items():
            out[i * self.cols + j] = x
        return out

    def _key(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ValueError("entry (%d, %d) outside %dx%d"
                             % (i, j, self.rows, self.cols))
        return i, j

    def __getitem__(self, ij):
        return self.nonzero.get(self._key(ij), 0)

    def __setitem__(self, ij, value):
        ij = self._key(ij)
        if value := exact(value):
            self.nonzero[ij] = value
        else:
            self.nonzero.pop(ij, None)

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

    def transpose(self):
        return Matrix(self.cols, self.rows, {(j, i): x for (i, j), x in
                                             self.nonzero.items()})

    def submatrix(self, rows, cols):
        """The block on the given row and column indices, in their order."""
        r = {i: a for a, i in enumerate(rows)}
        c = {j: b for b, j in enumerate(cols)}
        return Matrix(len(r), len(c), {(r[i], c[j]): x for (i, j), x in
                                       self.nonzero.items()
                                       if i in r and j in c})

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.rows, self.cols)


def scaled_to_ints(row):
    """(ints, den) with den the lcm of the row's denominators and
    ints[i] / den == row[i]; the entries are Fractions or ints."""
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row], den


def _int_row(row):
    """A rational row scaled to coprime integers."""
    ints, _ = scaled_to_ints(row)
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _eliminate(rows, ncols):
    """Fraction-free forward elimination on integer rows (in place).

    Returns the list of pivot columns; after the call rows[:rank] are in
    echelon form with rows[i] pivoted at the i-th pivot column.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, nrows):
            q = rows[i][c]
            if not q:
                continue
            cur = rows[i]
            new = [p * cur[j] - q * prow[j] for j in range(ncols)]
            g = 0
            for v in new:
                g = gcd(g, v)
            if g > 1:
                new = [v // g for v in new]
            rows[i] = new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _column_blocks(M):
    """M's nonzero columns split into blocks that share no nonzero row,
    each as (its columns in order, its rows over them scaled to coprime
    integers): a union-find joins the columns of each stored row.  A
    block of one column carries None: that column holds a stored nonzero,
    so it is a pivot with no elimination."""
    rows = {}
    for (i, j), x in M.nonzero.items():
        rows.setdefault(i, {})[j] = x
    parent = {j: j for _, j in M.nonzero}

    def root(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for first, *rest in rows.values():
        r = root(first)
        for j in rest:
            parent[root(j)] = r
    blocks = {}
    for j in sorted(parent):
        blocks.setdefault(root(j), ([], []))[0].append(j)
    for row in rows.values():
        blocks[root(next(iter(row)))][1].append(row)
    return [(cols, None if len(cols) == 1 else
             [_int_row([row.get(j, 0) for j in cols]) for row in block_rows])
            for cols, block_rows in blocks.values()]


def rank(M):
    """Rank of M over the rationals: the pivots of its column blocks."""
    return sum(1 if rows is None else len(_eliminate(rows, len(cols)))
               for cols, rows in _column_blocks(M))


def kernel_basis(M):
    """Basis of the right null space of M, one vector {index: c} per free
    column, in column order.

    A free column is one in the span of the columns before it, and its
    vector has a 1 there and 0 at the other free columns, so neither
    depends on the elimination order: column blocks are eliminated apart,
    and a zero column is free with a unit vector.
    """
    found, pivot_cols = {}, set()
    for cols, rows in _column_blocks(M):
        if rows is None:
            pivot_cols.add(cols[0])
            continue
        pivots = _eliminate(rows, len(cols))
        pivot_cols.update(cols[pc] for pc in pivots)
        # echelon rows as (pivot column, pivot, nonzero entries after it)
        echelon = [(pc, rows[i][pc], [(j, a) for j, a in
                                      enumerate(rows[i][pc + 1:], pc + 1)
                                      if a])
                   for i, pc in enumerate(pivots)][::-1]
        for fc in set(range(len(cols))).difference(pivots):
            v = {fc: 1}
            for pc, p, tail in echelon:
                s = sum(a * v[j] for j, a in tail if j in v)
                if s:
                    v[pc] = quotient(-s, p)
            found[cols[fc]] = {cols[j]: c for j, c in v.items()}
    return [found.get(j) or {j: 1} for j in range(M.cols)
            if j not in pivot_cols]


def solve(A, b):
    """A particular solution x of A x = b as {index: c}, or None if
    inconsistent: minus the kernel vector of [A | b] for its last column,
    which is free exactly when b is in A's column space; x is 0 at A's
    free columns."""
    if len(b) != A.rows:
        raise ValueError("right-hand side length is not the row count")
    n = A.cols
    augmented = dict(A.nonzero)
    augmented.update(((i, n), x) for i, x in enumerate(b) if x)
    vecs = kernel_basis(Matrix(A.rows, n + 1, augmented))
    if vecs and n in vecs[-1]:
        return {j: -c for j, c in vecs[-1].items() if j != n}
    return None
