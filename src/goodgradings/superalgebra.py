"""Matrix realizations of gl(m|n) and osp(m|2n): the sparse algebra core.

Every homogeneous basis element is stored once, as its support
{(a, b): c}, the nonzero entries of its matrix (at most two of them),
each an int where integral and a Fraction otherwise (`linalg.exact`).
Coordinates, brackets, adjoint maps and ad-degrees are read off these
supports; ad x is the combination, over x's coordinates, of the maps
ad b_i, each bracketed once per algebra over a table of the basis entries
grouped by row and by column, built on the first ad map the algebra needs.
gl(m|n) has the elementary-matrix basis.  For osp(m|2n) the even part is
the Chevalley basis of so(m) x sp(2n) and the odd part is the kernel of
the membership equations, two terms each on phi's pairing of the basis
vectors, so its signs are consistent with the form phi.
Each realization is built whole by one constructor call, which checks
the basis and derives every table from it; nothing is assigned onto it
afterwards.  Each algebra is built once per process and that one
realization is handed out; nothing changes its tables.  Each element
keeps its own records, each read once: its coordinates, its ad-degree
table and ker(ad e).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

from .linalg import Matrix, exact, kernel_basis, quotient, scaled_to_ints

EVEN = 0
ODD = 1


class AmbientMismatch(ValueError):
    pass


class DimensionError(ValueError):
    """The requested gl(m|n) or osp(m|2n) is not one this package builds."""


class RealizationError(ValueError):
    """A realization broke one of its own invariants."""


class NonIntegralGrading(ValueError):
    """A diagonal element does not give every basis element an integer
    ad-degree."""


@dataclass
class AlgebraElement:
    """An element stored as its support: the nonzero entries {(a, b): c}
    of its matrix, each `exact` (an int where integral, else a Fraction);
    `Realization.from_entries` checks them."""
    ambient: "Realization"
    entries: dict

    @property
    def matrix(self):
        """The element as a size x size Matrix on the same nonzeros, for
        the one algorithm on whole matrices, the Jordan type."""
        return Matrix(self.ambient.size, self.ambient.size, self.entries)

    def _plus(self, other, sign):
        self._same(other)
        out = dict(self.entries)
        for ab, c in other.entries.items():
            if v := exact(out.get(ab, 0) + sign * c):
                out[ab] = v
            else:
                del out[ab]
        return AlgebraElement(self.ambient, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c):
        c = exact(c)
        return AlgebraElement(self.ambient, {ab: exact(c * v) for ab, v in
                                             self.entries.items()} if c else {})

    def _same(self, other):
        if other.ambient is not self.ambient:
            raise AmbientMismatch("elements live in different realizations")

    def parity(self):
        """0, 1, or None for a mixed (non-homogeneous) element."""
        m = self.ambient.m
        found = {(a < m) != (b < m) for a, b in self.entries}
        if len(found) == 2:
            return None
        return ODD if True in found else EVEN

    def diag(self):
        return [self.entries.get((i, i), 0)
                for i in range(self.ambient.size)]

    def is_zero(self):
        return not self.entries

    @cached_property
    def coordinates(self):
        """Nonzero coordinates {index: c} over the homogeneous basis, or
        None outside g, read once per element; the record is read, never
        changed."""
        return self.ambient.coords(self.entries)

    @cached_property
    def ad_degrees(self):
        """The integer ad-degree of each basis element under this diagonal
        element, read once per element; NonIntegralGrading is raised, and
        nothing recorded, when one is not an integer eigenvalue."""
        return self.ambient.degrees(self.diag())

    @cached_property
    def ad_kernel(self):
        """(ad x as a Matrix, a basis of ker(ad x) as coordinates
        {index: c}), computed once per element; the record is read, never
        changed."""
        ad = adjoint_matrix(self)
        return ad, tuple(kernel_basis(ad))


@dataclass(eq=False)
class Realization:
    """gl(m|n) or osp(m|2n) on V = V0 + V1, built whole by one constructor
    call: `__post_init__` checks the basis and derives every table from
    it, so a basis it refuses yields no realization, and nothing is
    assigned onto a realization afterwards."""
    kind: str              # "gl" or "osp"
    m: int                 # dim V0
    odd_dim: int           # dim V1: n for gl(m|n), 2n for osp(m|2n)
    labels: list           # V-basis labels in matrix-index order
    supports: list         # homogeneous basis of g as {(a, b): c}
    basis_parities: list
    phi: Matrix = None     # form on V (osp only)

    def __post_init__(self):
        """Refuse a basis element without a private entry, one that no
        other element touches, or with more than two entries; derive the
        label indices, the private entries, the flat indices a*s + b in
        the degree table of each element's least and greatest entry (a, b)
        (None for the whole table, or for a repeat of the least), the
        index strings (the grading-JSON keys) and each entry's coefficient
        in the even supports (it signs a pyramid's e)."""
        touched = Counter(ab for sup in self.supports for ab in sup)
        self._private = {}
        for i, sup in enumerate(self.supports):
            for ab in sup:
                if touched[ab] == 1 and len(sup) <= 2:
                    self._private[ab] = i
                    break
            else:
                raise RealizationError("basis element %d needs a private "
                                       "entry and at most two" % i)
        self._index_of_label = {lab: i for i, lab in enumerate(self.labels)}
        s = self.size
        least = [a * s + b for a, b in map(min, self.supports)]
        greatest = [a * s + b for a, b in map(max, self.supports)]
        self._least_picks = None if least == list(range(s * s)) else least
        self._greatest_picks = None if greatest == least else greatest
        self.degree_keys = tuple(map(str, range(len(self.supports))))
        self.even_signs = {ab: c for sup, p in zip(self.supports,
                                                   self.basis_parities)
                           if p == EVEN for ab, c in sup.items()}

    @property
    def size(self):
        return self.m + self.odd_dim

    @property
    def dim(self):
        return len(self.supports)

    def index(self, label):
        return self._index_of_label[label]

    def from_entries(self, entries):
        """The element with the given matrix entries {(a, b): c}, values
        made `exact` and zeros dropped; ValueError on an index outside
        size x size."""
        s = self.size
        if any(not (0 <= a < s and 0 <= b < s) for a, b in entries):
            raise ValueError("element entry outside %dx%d" % (s, s))
        return AlgebraElement(self, {ab: v for ab, c in entries.items()
                                     if (v := exact(c))})

    def diagonal(self, values_by_label):
        """The diagonal element with the given value at each V-basis
        label, values made `exact` and zeros dropped; the label indices
        lie inside size x size, so no range check is needed."""
        index = self._index_of_label
        return AlgebraElement(self, {(i := index[lab], i): v for lab, c in
                                     values_by_label.items()
                                     if (v := exact(c))})

    def coords(self, entries):
        """Nonzero coordinates {index: c} over the homogeneous basis of the
        element with the nonzero entries {(a, b): c}; None if it is
        outside g.  Elements read theirs once, as `x.coordinates`.

        Each coordinate is read at its basis element's private entry; the
        element is in g exactly when nothing is left after subtracting the
        reconstruction."""
        rest = dict(entries)
        out = {}
        for ab, v in rest.items():
            i = self._private.get(ab)
            if i is not None:
                out[i] = quotient(v, self.supports[i][ab])
        for i, c in out.items():
            for ab, w in self.supports[i].items():
                r = rest.get(ab, 0) - c * w
                if r:
                    rest[ab] = r
                else:
                    del rest[ab]
        return None if rest else out

    def from_coords(self, coords):
        """The element with the coordinates {index: c} over the basis."""
        entries = {}
        for i, c in coords.items():
            for ab, w in self.supports[i].items():
                entries[ab] = entries.get(ab, 0) + c * w
        return self.from_entries(entries)

    def degrees(self, diag):
        """The integer ad-eigenvalue of each basis element under the
        diagonal element with entries diag, as a tuple.  With diag scaled
        to ints v by the lcm den of its denominators, the difference table
        [x - y for x in v for y in v] holds den times the degree of each
        matrix unit; an element's degree is read at its least entry and
        must agree at its greatest.  The first basis element that is not
        an eigenvector, or whose degree is not an integer, raises
        NonIntegralGrading."""
        v, den = scaled_to_ints(diag)
        table = [x - y for x in v for y in v]
        picks = table if self._least_picks is None \
            else [table[k] for k in self._least_picks]
        seconds = picks if self._greatest_picks is None \
            else [table[k] for k in self._greatest_picks]
        if seconds != picks or den > 1 and any([d % den for d in picks]):
            for d, e in zip(picks, seconds):
                if d != e:
                    raise NonIntegralGrading("basis element is not an ad-H "
                                             "eigenvector")
                if d % den:
                    raise NonIntegralGrading("non-integer degree %s"
                                             % quotient(d, den))
            raise RealizationError("degree picks refused, no element fails")
        return tuple(picks) if den == 1 else tuple([d // den for d in picks])


def _grouped(supports):
    """The entries of the supports grouped by row and by column: row c and
    column d share the one tuple (j, c, d, v) of each entry (c, d): v of
    supports[j]."""
    by_row, by_col = {}, {}
    for j, sup in enumerate(supports):
        for (c, d), v in sup.items():
            entry = j, c, d, v
            by_row.setdefault(c, []).append(entry)
            by_col.setdefault(d, []).append(entry)
    return by_row, by_col


def _bracket(m, x, grouped):
    """{j: nonzero entries of [x, y_j]} for the elements y_j grouped by
    `_grouped`, by the rule [E_ab, E_cd] = d_bc E_ad - (-1)^{|ab||cd|}
    d_da E_cb; x is {(a, b): u}, m = dim V0.  Each entry of x reaches
    only the y_j with an entry in its column's row or its row's column;
    the terms are summed in one table keyed (j, a, d), grouped by j at
    the end, and a zero bracket is left out."""
    by_row, by_col = grouped
    sums = {}
    for (a, b), u in x.items():
        x_odd = (a < m) != (b < m)
        for j, _, d, v in by_row.get(b, ()):
            key = j, a, d
            sums[key] = sums.get(key, 0) + u * v
        for j, c, _, v in by_col.get(a, ()):
            key = j, c, b
            t = u * v
            y_odd = (c < m) != (a < m)
            sums[key] = sums.get(key, 0) + (t if x_odd and y_odd else -t)
    out = {}
    for (j, a, d), w in sums.items():
        if v := exact(w):
            out.setdefault(j, {})[a, d] = v
    return out


def superbracket(x, y):
    """[x, y] = xy - (-1)^{|x||y|} yx, extended bilinearly."""
    x._same(y)
    R = x.ambient
    entries = _bracket(R.m, x.entries, _grouped([y.entries]))
    return AlgebraElement(R, entries.get(0, {}))


def check_size(kind, m, n):
    """Raise DimensionError unless gl(m|n), or osp(m|2n), is one this
    package builds."""
    if kind == "gl" and (m < 0 or n < 0 or m + n < 1):
        raise DimensionError("gl(%d|%d) needs m, n >= 0 and m + n >= 1"
                             % (m, n))
    if kind == "osp" and (m < 1 or n < 1):
        raise DimensionError("osp(%d|%d) needs m >= 1 and n >= 1"
                             % (m, 2 * n))


@cache
def build_gl(m, n, /):
    """gl(m|n) with index order 1..m even, m+1..m+n odd.  Positional, so
    that every call of one algebra reads the one cache entry."""
    check_size("gl", m, n)
    pairs = [(a, b) for a in range(m + n) for b in range(m + n)]
    return Realization("gl", m, n, list(range(1, m + n + 1)),
                       [{ab: 1} for ab in pairs],
                       [ODD if (a < m) != (b < m) else EVEN for a, b in pairs])


def _osp_odd_basis(m, labels, phi):
    """Supports of a kernel basis of the odd membership equations inside
    gl(m|2n)_1, for the V-basis labels in matrix-index order (the first m
    even) and the form phi on them.  phi's nonzeros are exactly the pairs
    (a, pi(a)), pi(a) the index of the negated label, so for even b and
    odd c the equation phi(z v_b, v_c) + phi(v_b, z v_c) = 0 has the two
    terms phi(v_pi(c), v_c) z[pi(c), b] and phi(v_b, v_pi(b)) z[pi(b), c];
    the (c, b) equation is the same one, phi being symmetric on V0 and
    skew on V1."""
    s = len(labels)
    positions = [(a, b) for a in range(s) for b in range(s)
                 if (a < m) != (b < m)]
    pos_index = {ab: t for t, ab in enumerate(positions)}
    pi = {a: b for a, b in phi.nonzero}
    equations = {}
    for row, (b, c) in enumerate(product(range(m), range(m, s))):
        equations[row, pos_index[pi[c], b]] = phi[pi[c], c]
        equations[row, pos_index[pi[b], c]] = phi[b, pi[b]]
    return [{positions[t]: vec[t] for t in sorted(vec)}
            for vec in kernel_basis(Matrix(m * (s - m), len(positions),
                                           equations))]


@cache
def build_osp(m, n, /):
    """osp(m|2n) inside gl(m|2n), positional like `build_gl`.

    V0 labels: 0 (m odd only), +-1..+-k with k = floor(m/2);
    V1 labels: +-(k+1)..+-(k+n).  phi(v_0, v_0) = 2, and phi(v_a, v_-a)
    is -1 for the negative V1 labels a < -k and 1 for every other label
    a != 0: phi is symmetric on V0 and skew on V1.
    """
    check_size("osp", m, n)
    k = m // 2
    labels = ([0] if m % 2 else []) \
        + list(range(1, k + 1)) + [-i for i in range(1, k + 1)] \
        + list(range(k + 1, k + n + 1)) + [-i for i in range(k + 1, k + n + 1)]
    index = {lab: i for i, lab in enumerate(labels)}

    def E(*terms):
        """Support of sum c E_{a,b} over the (a, b, c) terms, by label."""
        return {(index[a], index[b]): c for a, b, c in terms}

    phi = Matrix(len(labels), len(labels),
                 E(*((a, -a, 2 if a == 0 else -1 if a < -k else 1)
                     for a in labels)))

    even = []
    if m % 2:
        for i in range(1, k + 1):
            even.append(E((i, 0, 2), (0, -i, -1)))
            even.append(E((0, i, 1), (-i, 0, -2)))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            even.append(E((i, -j, 1), (j, -i, -1)))
            even.append(E((-j, i, 1), (-i, j, -1)))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            even.append(E((i, j, 1), (-j, -i, -1)))
    for i in range(k + 1, k + n + 1):
        for j in range(k + 1, k + n + 1):
            even.append(E((i, j, 1), (-j, -i, -1)))
    for i in range(k + 1, k + n + 1):
        even.append(E((i, -i, 1)))
        even.append(E((-i, i, 1)))
    for i in range(k + 1, k + n + 1):
        for j in range(i + 1, k + n + 1):
            even.append(E((i, -j, 1), (j, -i, 1)))
            even.append(E((-i, j, 1), (-j, i, 1)))

    odd = _osp_odd_basis(m, labels, phi)
    if len(odd) != 2 * m * n:
        raise RealizationError("odd part of osp(%d|%d) has dimension %d, "
                               "not %d" % (m, 2 * n, len(odd), 2 * m * n))
    return Realization("osp", m, 2 * n, labels, even + odd,
                       [EVEN] * len(even) + [ODD] * len(odd), phi)


@cache
def _basis_table(R):
    """R's basis entries `_grouped`, built on the first ad b_i of R."""
    return _grouped(R.supports)


@cache
def _ad_basis(R, i):
    """ad b_i as {(k, j): c}, column j the coordinates of [b_i, b_j],
    bracketed once per algebra over the basis table, so only the b_j
    sharing a row or column with b_i are reached; read, never changed."""
    out = {}
    for j, entries in _bracket(R.m, R.supports[i], _basis_table(R)).items():
        col = R.coords(entries)
        if col is None:
            raise RealizationError("bracket left the algebra")
        out.update(((k, j), v) for k, v in col.items())
    return out


def adjoint_matrix(x):
    """Matrix of ad x on the homogeneous basis of its ambient algebra:
    column j holds the coordinates of [x, b_j].  It is the sum of c ad b_i
    over x's coordinates {i: c}; an x outside g raises RealizationError."""
    R = x.ambient
    coords = x.coordinates
    if coords is None:
        raise RealizationError("element outside the algebra")
    nonzero = {}
    for i, c in coords.items():
        for kj, v in _ad_basis(R, i).items():
            nonzero[kj] = nonzero.get(kj, 0) + c * v
    return Matrix(R.dim, R.dim, nonzero)
