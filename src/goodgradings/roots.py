"""Root systems in epsilon/delta coordinates and marked bases.

Coordinates are (eps_1..eps_k, delta_1..delta_n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import mul, sub


class RootSystemError(ValueError):
    """A root computation broke an invariant of the root system."""


@dataclass(frozen=True)
class Root:
    coeffs: tuple          # integers over (eps_1..eps_k, delta_1..delta_n)
    parity: int            # EVEN or ODD


@dataclass(eq=False)
class RootSystem:
    eps_count: int
    delta_count: int
    roots: tuple


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
    return RootSystem(k, d, tuple(roots)), tuple(index)


@dataclass(frozen=True)
class MarkedBase:
    system: RootSystem
    simple: tuple          # of Root
    marks: tuple

    def to_json(self):
        return {"simple": [list(r.coeffs) for r in self.simple],
                "marks": list(self.marks)}


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

