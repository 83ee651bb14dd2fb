"""Exact dense linear algebra over the rationals.

Everything here is fraction-free: rows are scaled to integers and
eliminated with cross-multiplication, so there is no floating point
anywhere and all rank / kernel / solve answers are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


class Matrix:
    """Dense rational matrix, row-major storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = [x if type(x) is Fraction else Fraction(x)
                   for x in entries]
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        flat = []
        for r in row_lists:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, flat)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def identity(cls, n):
        m = cls.zero(n, n)
        for i in range(n):
            m[i, i] = Fraction(1)
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.entries[i * self.cols + j] = \
            value if type(value) is Fraction else Fraction(value)

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a + b if b else a for a, b in
                                             zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a - b if b else a for a, b in
                                             zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("inner matrix dimensions differ")
        n, k, m = self.rows, self.cols, other.cols
        out = [Fraction(0)] * (n * m)
        a, b = self.entries, other.entries
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for t in range(k):
                c = arow[t]
                if c:
                    brow = b[t * m:(t + 1) * m]
                    base = i * m
                    for j in range(m):
                        if brow[j]:
                            out[base + j] += c * brow[j]
        return Matrix(n, m, out)

    def transpose(self):
        out = Matrix.zero(self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j, i] = self[i, j]
        return out

    def apply(self, vec):
        """Matrix-vector product, vec of length cols."""
        if len(vec) != self.cols:
            raise ValueError("vector length is not the column count")
        out = []
        for i in range(self.rows):
            s = Fraction(0)
            base = i * self.cols
            for j, v in enumerate(vec):
                if v:
                    s += self.entries[base + j] * v
            out.append(s)
        return out

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


def _int_rows(M):
    """Rows of M scaled to coprime integers."""
    return [_int_row(M.row(i)) for i in range(M.rows)]


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


def rank(M):
    """Rank of M over the rationals."""
    if M.rows == 0 or M.cols == 0:
        return 0
    rows = _int_rows(M)
    return len(_eliminate(rows, M.cols))


def _column_blocks(M):
    """M's columns split into blocks that share no nonzero row, each with
    its nonzero rows: a union-find over the rows joins the columns of each
    row.  Blocks come in order of their first column."""
    parent = list(range(M.cols))

    def root(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    supports = []
    for i in range(M.rows):
        row = M.row(i)
        cols = [j for j, x in enumerate(row) if x]
        if cols:
            r = root(cols[0])
            for j in cols[1:]:
                parent[root(j)] = r
            supports.append((row, cols[0]))
    blocks = {}
    for j in range(M.cols):
        blocks.setdefault(root(j), ([], []))[0].append(j)
    for row, first in supports:
        blocks[root(first)][1].append(row)
    return blocks.values()


def kernel_basis(M):
    """Basis of the right null space of M, as exact column vectors.

    Each free column yields one vector; the returned vectors have a 1 in
    their free coordinate, so distinct kernel elements stay recognizable.
    Column blocks are eliminated apart.  A free column is one in the span
    of the columns before it, and its vector is 0 at the other free
    columns, so both are those of the whole matrix.
    """
    n = M.cols
    found = []
    for cols, rows in _column_blocks(M):
        ints = [_int_row([row[j] for j in cols]) for row in rows]
        pivots = _eliminate(ints, len(cols))
        # echelon rows as (pivot column, pivot, nonzero entries after it)
        echelon = [(pc, ints[i][pc], [(j, a) for j, a in
                                      enumerate(ints[i][pc + 1:], pc + 1)
                                      if a])
                   for i, pc in enumerate(pivots)][::-1]
        for fc in set(range(len(cols))).difference(pivots):
            v = {fc: ONE}
            for pc, p, tail in echelon:
                s = sum(a * v[j] for j, a in tail if j in v)
                if s:
                    v[pc] = -s / p
            full = [ZERO] * n
            for j, c in v.items():
                full[cols[j]] = c
            found.append((cols[fc], full))
    return [v for _, v in sorted(found, key=lambda t: t[0])]


def solve(A, b):
    """A particular solution x of A x = b, or None if inconsistent: minus
    the kernel vector of [A | b] for its last column, which is free
    exactly when b is in A's column space; x is 0 at A's free columns."""
    if len(b) != A.rows:
        raise ValueError("right-hand side length is not the row count")
    n = A.cols
    vecs = kernel_basis(Matrix(A.rows, n + 1, [x for i in range(A.rows)
                                               for x in A.row(i) + [b[i]]]))
    if vecs and vecs[-1][n]:
        return [-v for v in vecs[-1][:n]]
    return None
