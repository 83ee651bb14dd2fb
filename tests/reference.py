"""References and helpers that only the tests use, kept out of the package.

The rank form of goodness, the Richardson test, osp membership, the
supertrace form, the extensions of an even grading, the pairwise
simple-root rule and the osp centralizer formula read by rational halves
are checks the tests hold the package against.  The odd-reflection
(Weyl groupoid) action on marked bases and the equivalence of
characteristics it decides (`reflect_marked`, `marked_equivalent`) are
test-side too: no workload or CLI verb calls them.  The rank reference builds
ad e from matrix products (`dense_ad`), so it shares no code path with the
package's ad x, built from the cached ad b_i.  The small helpers build
matrices and elements the way the tests write them.

Not a test module: pytest collects only test_*.py files.
"""

from collections import deque
from fractions import Fraction
from functools import cache

from goodgradings.linalg import Matrix, exact, rank
from goodgradings.partitions import (NotOrthosymplectic, dual_partition,
                                     is_orthosymplectic)
from goodgradings.roots import MarkedBase, Root, RootSystemError


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


def form(sys, a, b):
    """The pairing of roots a and b: (eps_i, eps_j) = delta_ij,
    (delta_i, delta_j) = -delta_ij, mixed = 0."""
    k, ca, cb = sys.eps_count, a.coeffs, b.coeffs
    return sum(ca[i] * cb[i] for i in range(k)) \
        - sum(ca[i] * cb[i] for i in range(k, len(ca)))


def find(sys, coeffs):
    """The root of sys with these coefficients, or None."""
    coeffs = tuple(coeffs)
    return next((r for r in sys.roots if r.coeffs == coeffs), None)


def negated(root):
    return Root(tuple(-c for c in root.coeffs), root.parity)


def is_isotropic(sys, alpha):
    return form(sys, alpha, alpha) == 0


def reflect_marked(b, k):
    """Reflect a marked base at its k-th simple root: the odd-reflection
    rule at isotropic roots, the Weyl reflection otherwise; marks follow
    by linearity."""
    sys = b.system
    alpha = b.simple[k]
    dk = b.marks[k]
    new_simple = []
    new_marks = []
    if is_isotropic(sys, alpha):
        for i, (beta, di) in enumerate(zip(b.simple, b.marks)):
            if i == k:
                new_simple.append(negated(alpha))
                new_marks.append(-dk)
            elif form(sys, beta, alpha) != 0:
                new_simple.append(_find(sys, tuple(
                    x + a for x, a in zip(beta.coeffs, alpha.coeffs))))
                new_marks.append(di + dk)
            else:
                new_simple.append(beta)
                new_marks.append(di)
    else:
        aa = form(sys, alpha, alpha)
        for beta, di in zip(b.simple, b.marks):
            c, r = divmod(2 * form(sys, beta, alpha), aa)
            if r:
                raise RootSystemError("non-integral Cartan integer: "
                                      "remainder %d of %d" % (r, aa))
            new_simple.append(_find(sys, tuple(
                x - c * a for x, a in zip(beta.coeffs, alpha.coeffs))))
            new_marks.append(di - c * dk)
    return MarkedBase(sys, tuple(new_simple), tuple(new_marks))


def _find(sys, coeffs):
    root = find(sys, coeffs)
    if root is None:
        raise RootSystemError("reflected root %s left the system"
                              % (tuple(coeffs),))
    return root


def _diagram_match(b1, b2):
    """Is there a bijection of simple roots preserving parity, marks, and
    all pairwise form values?"""
    n = len(b1.simple)
    if n != len(b2.simple) or sorted(b1.marks) != sorted(b2.marks):
        return False
    sys = b1.system
    g1 = [[form(sys, a, b) for b in b1.simple] for a in b1.simple]
    g2 = [[form(sys, a, b) for b in b2.simple] for a in b2.simple]
    p1 = [r.parity for r in b1.simple]
    p2 = [r.parity for r in b2.simple]

    def extend(assign):
        i = len(assign)
        if i == n:
            return True
        for j in range(n):
            if j in assign:
                continue
            if p1[i] != p2[j] or b1.marks[i] != b2.marks[j]:
                continue
            if g1[i][i] != g2[j][j]:
                continue
            if any(g1[i][k] != g2[j][assign[k]] or
                   g1[k][i] != g2[assign[k]][j]
                   for k in range(i)):
                continue
            assign.append(j)
            if extend(assign):
                return True
            assign.pop()
        return False

    return extend([])


def marked_equivalent(b1, b2):
    """Do two nonnegative marked bases present the same grading?  BFS over
    odd reflections at mark-zero isotropic simple roots, comparing marked
    diagrams; even mark-zero reflections preserve the diagram and are
    therefore not searched."""
    seen = set()
    queue = deque([b1])
    while queue:
        b = queue.popleft()
        key = (b.simple, b.marks)
        if key in seen:
            continue
        seen.add(key)
        if _diagram_match(b, b2):
            return True
        for k, (alpha, mark) in enumerate(zip(b.simple, b.marks)):
            if mark == 0 and is_isotropic(b.system, alpha):
                queue.append(reflect_marked(b, k))
    return False
