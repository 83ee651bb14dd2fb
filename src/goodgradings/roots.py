"""Root systems in epsilon/delta coordinates, marked bases, and the
reflection (Weyl groupoid) action.

Coordinates are (eps_1..eps_k, delta_1..delta_n) with the pairing
(eps_i, eps_j) = delta_ij, (delta_i, delta_j) = -delta_ij, mixed = 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from operator import mul, sub


class RootSystemError(ValueError):
    """A root computation broke an invariant of the root system."""


@dataclass(frozen=True)
class Root:
    coeffs: tuple          # integers over (eps_1..eps_k, delta_1..delta_n)
    parity: int            # EVEN or ODD

    def __neg__(self):
        return Root(tuple(-c for c in self.coeffs), self.parity)


@dataclass(eq=False)
class RootSystem:
    kind: str
    eps_count: int
    delta_count: int
    roots: tuple

    def __post_init__(self):
        self.by_coeffs = {r.coeffs: r for r in self.roots}

    def form(self, a, b):
        k, ca, cb = self.eps_count, a.coeffs, b.coeffs
        return sum(ca[i] * cb[i] for i in range(k)) \
            - sum(ca[i] * cb[i] for i in range(k, len(ca)))

    def find(self, coeffs):
        return self.by_coeffs.get(tuple(coeffs))


def is_isotropic(system, alpha):
    return system.form(alpha, alpha) == 0


@cache
def root_system(R):
    """The root system of the realization R and each root's basis index,
    read once per algebra (each algebra has one realization).

    Every basis element off the Cartan spans a root space; its root is
    weight(a) - weight(b) at any entry (a, b) of its support, where the
    V-basis vector of label l has weight sign(l) * unit(|l| - 1) (label 0
    has weight 0)."""
    k, d = (R.m, R.odd_dim) if R.kind == "gl" else (R.m // 2, R.odd_dim // 2)
    weights = []
    for lab in R.labels:
        w = [0] * (k + d)
        if lab:
            w[abs(lab) - 1] = 1 if lab > 0 else -1
        weights.append(w)
    roots, index = [], []
    for j, sup in enumerate(R.supports):
        a, b = next(iter(sup))
        coeffs = tuple(map(sub, weights[a], weights[b]))
        if any(coeffs):
            roots.append(Root(coeffs, R.basis_parities[j]))
            index.append(j)
    return RootSystem(R.kind, k, d, tuple(roots)), tuple(index)


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
                new_simple.append(_find(sys, tuple(
                    x + a for x, a in zip(beta.coeffs, alpha.coeffs))))
                new_marks.append(di + dk)
            else:
                new_simple.append(beta)
                new_marks.append(di)
    else:
        aa = sys.form(alpha, alpha)
        for beta, di in zip(b.simple, b.marks):
            c, r = divmod(2 * sys.form(beta, alpha), aa)
            if r:
                raise RootSystemError("non-integral Cartan integer: "
                                      "remainder %d of %d" % (r, aa))
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


@cache
def _generic_values(sys, seed):
    """Each root's value under the functional seed^n, ..., seed^1, kept
    per root system object (compared by identity) and seed."""
    n = sys.eps_count + sys.delta_count
    functional = [seed ** (n - l) for l in range(n)]
    return tuple(sum(map(mul, functional, r.coeffs)) for r in sys.roots)


@cache
def _codes(sys):
    """Each root packed as sum c_i * 16**i, kept per root system object.
    The packing is linear and injective while all |c_i| <= 7; root
    coefficients lie in [-2, 2], so r - s is a root exactly when
    code(r) - code(s) is a root's code (0 is none)."""
    return tuple(sum(c << 4 * i for i, c in enumerate(r.coeffs))
                 for r in sys.roots)


def find_nonnegative_base(grading, seed=3):
    """A base on which the grading's degree map is nonnegative.

    Reflecting the negative-degree simple roots of a generic positive
    system away, one at a time, moves only roots of negative degree; it
    ends at the positive system read here in one pass: every root of
    positive degree, and those of degree 0 that the generic functional
    makes positive.  A root's degree is its basis element's entry of
    grading.degrees.

    In the order of their key (degree, generic value), a positive root is
    simple when no simple root found before it differs from it by a
    positive root.  The key is additive, so a simple alpha with r - alpha
    positive has a smaller key than r; and each positive r that is not
    simple has such an alpha, as the simple root vectors generate the
    positive ones: g_r lies in [g_alpha, g_(r - alpha)] for a simple
    alpha."""
    sys, index = root_system(grading.ambient)
    pos = []
    for r, j, generic, code in zip(sys.roots, index,
                                   _generic_values(sys, seed), _codes(sys)):
        if generic == 0:
            raise RootSystemError("functional vanishes on root %s"
                                  % (r.coeffs,))
        if (grading.degrees[j], generic) > (0, 0):
            pos.append((grading.degrees[j], generic, code, r))
    codes = {code for _, _, code, _ in pos}
    simple = []
    for mark, _, code, r in sorted(pos):
        if not any(code - c in codes for _, c, _, _ in simple):
            simple.append((r.coeffs, code, r, mark))
    simple.sort()
    return MarkedBase(sys, tuple(r for _, _, r, _ in simple),
                      tuple(mark for _, _, _, mark in simple))


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
