"""References and helpers that only the tests use, kept out of the package.

The rank form of goodness, the Richardson test, osp membership, the
supertrace form, the extensions of an even grading, the pairwise
simple-root rule and the osp centralizer formula read by rational halves
are checks the tests hold the package against.  The rank reference builds
ad e from matrix products (`dense_ad`), so it shares no code path with the
package's ad x, built from the cached ad b_i.  The small helpers build
matrices and elements the way the tests write them.

Not a test module: pytest collects only test_*.py files.
"""

from fractions import Fraction
from functools import cache

from goodgradings.linalg import Matrix, exact, rank
from goodgradings.partitions import (NotOrthosymplectic, dual_partition,
                                     is_orthosymplectic)


class OddGrading(ValueError):
    pass


def from_rows(row_lists):
    """The Matrix with the given equal-length rows."""
    rows = len(row_lists)
    cols = len(row_lists[0]) if rows else 0
    if any(len(r) != cols for r in row_lists):
        raise ValueError("ragged rows")
    return Matrix(rows, cols, {(i, j): x for i, r in enumerate(row_lists)
                               for j, x in enumerate(r)})


def transpose(M):
    return Matrix(M.cols, M.rows, {(j, i): x for (i, j), x in
                                   M.nonzero.items()})


def identity(n):
    return Matrix(n, n, {(i, i): 1 for i in range(n)})


def E(R, i, j):
    """The matrix unit of R sending the basis vector labelled j to the one
    labelled i."""
    return R.from_entries({(R.index(i), R.index(j)): 1})


@cache
def basis(R):
    """R's homogeneous basis as elements, made once per realization."""
    return [R.from_entries(sup) for sup in R.supports]


def supertrace(R, mat):
    return exact(sum(mat[i, i] if i < R.m else -mat[i, i]
                     for i in range(R.size)))


def invariant_form(x, y):
    """Supertrace form (x, y) = str(xy)."""
    x._same(y)
    return supertrace(x.ambient, x.matrix @ y.matrix)


def is_member_osp(R, mat, parity):
    """Does mat satisfy phi(z u, v) = -(-1)^{parity |u|} phi(u, z v)?"""
    if R.kind != "osp":
        raise ValueError("%s is not an osp realization" % R.kind)
    G = R.phi
    # z^T G + S G z == 0, with S = diag((-1)^{parity * |u|}) on rows
    left = (transpose(mat) @ G).nonzero
    right = (G @ mat).nonzero
    for b, c in left.keys() | right.keys():
        sign = -1 if parity and b >= R.m else 1
        if left.get((b, c), 0) + sign * right.get((b, c), 0) != 0:
            return False
    return True


def dense_ad(x):
    """ad x from matrix products: column j holds the coordinates of
    x b_j - (-1)^{|x||b_j|} b_j x, with x split into its even and odd
    parts, so a mixed x is bracketed part by part."""
    R = x.ambient
    parts = {}
    for (a, b), c in x.entries.items():
        parts.setdefault((a < R.m) != (b < R.m), {})[a, b] = c
    parts = [(odd, Matrix(R.size, R.size, part))
             for odd, part in parts.items()]
    nonzero = {}
    for j, (y, y_odd) in enumerate(zip(basis(R), R.basis_parities)):
        Y, col = y.matrix, {}
        for x_odd, X in parts:
            sign = -1 if x_odd and y_odd else 1
            for ab, v in (X @ Y).nonzero.items():
                col[ab] = col.get(ab, 0) + v
            for ab, v in (Y @ X).nonzero.items():
                col[ab] = col.get(ab, 0) - sign * v
        coords = R.coords({ab: v for ab, v in col.items() if v})
        if coords is None:
            raise ValueError("bracket left the algebra")
        nonzero.update(((k, j), v) for k, v in coords.items())
    return Matrix(R.dim, R.dim, nonzero)


def jordan_type_by_all_ranks(M):
    """Jordan type of the nilpotent square Matrix M from the ranks of all
    its powers: rank(M^(k-1)) - rank(M^k) counts the blocks of size >= k,
    for k = 1 .. M.rows.  ValueError if M^(M.rows) is not zero."""
    ranks, power = [M.rows], M
    for _ in range(M.rows):
        ranks.append(rank(power))
        power = power @ M
    if ranks[-1]:
        raise ValueError("not nilpotent")
    return dual_partition(tuple(d for k in range(1, len(ranks))
                                if (d := ranks[k - 1] - ranks[k])))


def is_good_by_ranks(g, e):
    """Definition-level check: e in g(2), the zero element only for the
    zero grading, and ad e injective g(j) -> g(j+2) for j <= -1 and
    surjective for j >= -1."""
    ec = e.coordinates
    if ec is None or any(g.degrees[j] != 2 for j in ec) \
            or e.is_zero() and any(g.degrees):
        return False
    ad = dense_ad(e)
    for j in sorted(set(g.degrees)):
        src = [i for i, d in enumerate(g.degrees) if d == j]
        tgt = [i for i, d in enumerate(g.degrees) if d == j + 2]
        r = rank(ad.submatrix(tgt, src))
        if j <= -1 and r != len(src):
            return False
        if j >= -1 and r != len(tgt):
            return False
    return True


def is_richardson(g, e):
    """For an even grading: does [g_>=0, e] fill g_+?"""
    if any(d % 2 for d in g.degrees):
        raise OddGrading("grading has odd degrees")
    src = [i for i, d in enumerate(g.degrees) if d >= 0]
    tgt = [i for i, d in enumerate(g.degrees) if d > 0]
    return rank(e.ad_kernel[0].submatrix(tgt, src)) == len(tgt)


def extensions_of_even_grading(sp, even_pyramids, full_set):
    """The gradings of full_set, good_gradings_gl(sp), whose restriction to
    the even part equals the grading of the given (p-pyramid, q-pyramid)
    pair: on each parity, H minus the box x-coordinates (in label order)
    is one constant."""
    hp, hq = ([x for x, y, t, lab in sorted(P.boxes, key=lambda b: b[3])]
              for P in even_pyramids)
    return [g for g in full_set.gradings
            if all(len({d - x for d, x in zip(diag, hx)}) == 1
                   for diag, hx in ((g.H.diag()[:sp.m], hp),
                                    (g.H.diag()[sp.m:], hq)))]


def pairwise_base(sys, pos):
    """Simple roots of the positive system pos, in any order, sorted by
    coefficients: the positive roots that are not sums of two positives,
    found by comparing each root with every other.  Vectors are packed as
    sum c_i * 16**i, linear and injective while all |c_i| <= 7; root
    coefficients lie in [-2, 2], so r - s is a root exactly when
    code(r) - code(s) is a root's code (0 is none)."""
    codes = [sum(c << 4 * i for i, c in enumerate(r.coeffs)) for r in pos]
    code_set = set(codes)
    simple = [r for r, a in zip(pos, codes)
              if not any(a - b in code_set for b in codes)]
    simple.sort(key=lambda r: r.coeffs)
    return simple


def dim_formula_osp_by_halves(sp):
    """Closed-form centralizer dimensions for osp(m|2n), each half read as
    a Fraction and the sum checked integral (else ValueError); the
    symplectic part is read with Sum(q) = 2n."""
    if not is_orthosymplectic(sp):
        raise NotOrthosymplectic(f"{sp} is not orthosymplectic")
    p, q = sp.p, sp.q
    so_part = Fraction(sp.m, 2) + sum((i - 1) * v for i, v in enumerate(p, 1)) \
        - Fraction(sum(1 for v in p if v % 2 == 1), 2)
    sp_part = Fraction(sp.n, 2) + sum((j - 1) * v for j, v in enumerate(q, 1)) \
        + Fraction(sum(1 for v in q if v % 2 == 1), 2)
    even = so_part + sp_part
    if even.denominator != 1:
        raise ValueError("%s gives even dimension %s" % (sp, even))
    odd = sum(min(a, b) for a in p for b in q)
    return int(even), odd
