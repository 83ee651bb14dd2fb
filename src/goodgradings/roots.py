"""Root systems in epsilon/delta coordinates, marked bases, and the
reflection (Weyl groupoid) action.

Coordinates are (eps_1..eps_k, delta_1..delta_n) with the pairing
(eps_i, eps_j) = delta_ij, (delta_i, delta_j) = -delta_ij, mixed = 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from .linalg import scaled_to_ints
from .superalgebra import EVEN, ODD


class RootSystemError(ValueError):
    """A root computation broke an invariant of the root system."""


@dataclass(frozen=True)
class Root:
    coeffs: tuple          # integers over (eps_1..eps_k, delta_1..delta_n)
    parity: int            # EVEN or ODD

    def __neg__(self):
        return Root(tuple(-c for c in self.coeffs), self.parity)

    def plus(self, other, parity):
        return Root(tuple(a + b for a, b in
                          zip(self.coeffs, other.coeffs)), parity)


@dataclass
class RootSystem:
    kind: str
    eps_count: int
    delta_count: int
    roots: list

    def __post_init__(self):
        self.by_coeffs = {r.coeffs: r for r in self.roots}

    def form(self, a, b):
        k = self.eps_count
        ca = a.coeffs if isinstance(a, Root) else a
        cb = b.coeffs if isinstance(b, Root) else b
        return sum(ca[i] * cb[i] for i in range(k)) \
            - sum(ca[i] * cb[i] for i in range(k, len(ca)))

    def find(self, coeffs):
        return self.by_coeffs.get(tuple(coeffs))


def is_isotropic(system, alpha):
    return system.form(alpha, alpha) == 0


def _unit(total, i, c=1):
    v = [0] * total
    v[i] = c
    return v


def build_roots(kind, m, n):
    """Root system of gl(m|n) or osp(m|2n) (the latter with k = m // 2
    epsilons and n deltas)."""
    roots = []
    if kind == "gl":
        k, d = m, n
        tot = k + d
        for i in range(k):
            for j in range(k):
                if i != j:
                    v = _unit(tot, i)
                    v[j] -= 1
                    roots.append(Root(tuple(v), EVEN))
        for i in range(d):
            for j in range(d):
                if i != j:
                    v = _unit(tot, k + i)
                    v[k + j] -= 1
                    roots.append(Root(tuple(v), EVEN))
        for i in range(k):
            for j in range(d):
                v = _unit(tot, i)
                v[k + j] = -1
                roots.append(Root(tuple(v), ODD))
                roots.append(Root(tuple(-x for x in v), ODD))
    else:
        k, d = m // 2, n
        tot = k + d
        for i in range(k):
            for j in range(i + 1, k):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = _unit(tot, i, si)
                        v[j] = sj
                        roots.append(Root(tuple(v), EVEN))
        if m % 2 == 1:
            for i in range(k):
                roots.append(Root(tuple(_unit(tot, i, 1)), EVEN))
                roots.append(Root(tuple(_unit(tot, i, -1)), EVEN))
        for i in range(d):
            for j in range(i + 1, d):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = _unit(tot, k + i, si)
                        v[k + j] = sj
                        roots.append(Root(tuple(v), EVEN))
        for i in range(d):
            roots.append(Root(tuple(_unit(tot, k + i, 2)), EVEN))
            roots.append(Root(tuple(_unit(tot, k + i, -2)), EVEN))
        for i in range(k):
            for j in range(d):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = _unit(tot, i, si)
                        v[k + j] = sj
                        roots.append(Root(tuple(v), ODD))
        if m % 2 == 1:
            for j in range(d):
                roots.append(Root(tuple(_unit(tot, k + j, 1)), ODD))
                roots.append(Root(tuple(_unit(tot, k + j, -1)), ODD))
    return RootSystem(kind, k, d, roots)


@dataclass(frozen=True)
class MarkedBase:
    system: RootSystem
    simple: tuple          # of Root
    marks: tuple

    def __eq__(self, other):
        return self.simple == other.simple and self.marks == other.marks

    def __hash__(self):
        return hash((self.simple, self.marks))

    def to_json(self):
        return {"simple": [list(r.coeffs) for r in self.simple],
                "marks": list(self.marks)}


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
                new_simple.append(-alpha)
                new_marks.append(-dk)
            elif sys.form(beta, alpha) != 0:
                summed = beta.plus(alpha, None)
                new_simple.append(_find(sys, summed.coeffs))
                new_marks.append(di + dk)
            else:
                new_simple.append(beta)
                new_marks.append(di)
    else:
        aa = sys.form(alpha, alpha)
        for beta, di in zip(b.simple, b.marks):
            c = Fraction(2 * sys.form(beta, alpha), aa)
            if c.denominator != 1:
                raise RootSystemError("non-integral Cartan integer %s" % c)
            c = int(c)
            new_simple.append(_find(sys, tuple(
                x - c * a for x, a in zip(beta.coeffs, alpha.coeffs))))
            new_marks.append(di - c * dk)
    return MarkedBase(sys, tuple(new_simple), tuple(new_marks))


def _find(sys, coeffs):
    root = sys.find(coeffs)
    if root is None:
        raise RootSystemError("reflected root %s left the system"
                              % (tuple(coeffs),))
    return root


def _value(vals, root):
    return sum(v * c for v, c in zip(vals, root.coeffs))


def _base_of(sys, pos):
    """Simple roots: positive roots that are not sums of two positives.
    Vectors are packed as sum c_i * 16**i, linear and injective while all
    |c_i| <= 7; root coefficients lie in [-2, 2], so r - s is a root exactly
    when code(r) - code(s) is a root's code (0 is none)."""
    codes = [sum(c << 4 * i for i, c in enumerate(r.coeffs)) for r in pos]
    code_set = set(codes)
    simple = [r for r, a in zip(pos, codes)
              if not any(a - b in code_set for b in codes)]
    simple.sort(key=lambda r: r.coeffs)
    return simple


def degree_functional(grading):
    """Values of the grading on (eps_1..eps_k, delta_1..delta_n), read off
    the diagonal of H."""
    R = grading.ambient
    diag = grading.H.diag()
    if R.kind == "gl":
        return diag
    # osp: the labels 1..k of V0, then k+1..k+n of V1
    return [diag[R.index(i)] for i in range(1, R.m // 2 + R.odd_dim // 2 + 1)]


def _deg(vals, root, den=1):
    """The integer degree of root under the functional vals / den."""
    d, r = divmod(_value(vals, root), den)
    if r:
        raise RootSystemError("root %s has non-integral degree %s" % (
            root.coeffs, Fraction(_value(vals, root), den)))
    return d


def find_nonnegative_base(grading, seed=3):
    """A base on which the grading's degree map is nonnegative.

    Reflecting the negative-degree simple roots of a generic positive
    system away, one at a time, moves only roots of negative degree; it
    ends at the positive system read here in one pass: every root of
    positive degree, and those of degree 0 that the generic functional
    makes positive."""
    R = grading.ambient
    if R.kind == "gl":
        sys = build_roots("gl", R.m, R.odd_dim)
    else:
        sys = build_roots("osp", R.m, R.odd_dim // 2)
    vals, den = scaled_to_ints(degree_functional(grading))
    n = sys.eps_count + sys.delta_count
    functional = [seed ** (n - l) for l in range(n)]
    pos = []
    for r in sys.roots:
        generic = _value(functional, r)
        if generic == 0:
            raise RootSystemError("functional vanishes on root %s"
                                  % (r.coeffs,))
        if (_value(vals, r), generic) > (0, 0):
            pos.append(r)
    simple = _base_of(sys, pos)
    return MarkedBase(sys, tuple(simple),
                      tuple(_deg(vals, a, den) for a in simple))


def _diagram_match(b1, b2):
    """Is there a bijection of simple roots preserving parity, marks, and
    all pairwise form values?"""
    n = len(b1.simple)
    if n != len(b2.simple) or sorted(b1.marks) != sorted(b2.marks):
        return False
    sys = b1.system
    g1 = [[sys.form(a, b) for b in b1.simple] for a in b1.simple]
    g2 = [[sys.form(a, b) for b in b2.simple] for a in b2.simple]
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
