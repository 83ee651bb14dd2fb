"""Enumerate all good Z-gradings for a nilpotent orbit.

gl orbits: one grading per pyramid.  osp orbits: shifted Dynkin gradings
with shift vectors given by a case table, the last shift bounded by the
paper's closed form when 1 is in C(p), each candidate tested by the one
goodness kernel (`grading_from` and `is_good`, counting degrees against
the centralizer formula), so no ad e is built.  The oracle uses neither
the case table nor that test: it lists the lattice points of the
good-grading polytope of the Dynkin pair, whose inequalities each have two
variables, so shortest paths bound it and no bound is guessed.  It
cross-checks both classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import inf

from .gradings import (Grading, complete_sl2, dim_formula_osp, grading_from,
                       is_good, s_centralizer)
from .linalg import quotient
from .partitions import SuperPartition, cp_dq
from .pyramids import dynkin_pair, enumerate_pyr, shift_matrix
from .superalgebra import build_gl, build_osp


@dataclass
class GoodGradingSet:
    orbit: SuperPartition
    gradings: list
    provenance: str        # "pyramid" or "shift-vector", for every grading
    notes: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.gradings)

    def keys(self):
        return {g.key() for g in self.gradings}

    def to_json(self):
        return {"orbit": self.orbit.to_json(),
                "count": len(self.gradings),
                "gradings": [dict(g.to_json(), provenance=self.provenance)
                             for g in self.gradings],
                "notes": self.notes}


def good_gradings_gl(sp):
    """All good gradings for e_{p,q} in gl(m|n): one per pyramid, ad h for
    h the diagonal of its box x-coordinates, in degree-map order.  No two
    share a degree map: the centre of gl(m|n) is the identity, so two such
    H differ by c*I; the labels and the centred bottom row depend on the
    orbit alone, so c = 0 and every row has the same offset."""
    R = build_gl(sp.m, sp.n)
    return GoodGradingSet(sp, sorted(
        (grading_from(R, R.diagonal({lab: x for x, y, t, lab in P.boxes}))
         for P in enumerate_pyr(sp)), key=Grading.key), "pyramid")


# ---------------------------------------------------------------------------
# the good-grading polytope: the oracle


class NotCentral(ValueError):
    """A shift moves the degree of e or fails to commute with the
    sl2-centralizer."""


class Unbounded(ValueError):
    """A block of the good-grading polytope has no finite bound."""


def _good_shifts(R, e, h):
    """The lattice points of the good-grading polytope of the pair (e, h):
    the doubled diagonal shifts z, as lists of entries, constant on each
    Jordan block (a component of e's support, so e keeps degree 2), with
    integral degrees under h + z/2 and the ker(ad e) support in degrees
    >= 0: z_b - z_a <= 2 d_j on each entry (a, b) of each basis element
    b_j there, with d_j = h_a - h_b its degree in h's degree table.

    A block is anchored in gl at the first block, fixed at 0 (the identity
    grades nothing), in osp at its mirror block, whose value is its
    negative.  Floyd-Warshall bounds each free block against its anchor
    (else Unbounded).  All blocks share one parity, odd only in osp with
    no self-mirror block.  A depth-first search checks each closed
    inequality at the later of its two blocks."""
    size, osp, degrees = R.size, R.kind == "osp", h.ad_degrees
    block = list(range(size))
    for a, b in e.entries:
        old, new = max(block[a], block[b]), min(block[a], block[b])
        block = [new if x == old else x for x in block]
    roots = sorted(set(block))
    block = [roots.index(x) for x in block]
    nb = len(roots)
    anchor = [block[R.index(-R.labels[r])] if osp else 0 for r in roots]
    free = [B for B in range(nb) if B < anchor[B]] if osp \
        else list(range(1, nb))
    # dist[u][v]: the least bound on z_v - z_u, closed over paths
    dist = [[inf] * nb for _ in range(nb)]
    for j in {j for v in e.ad_kernel[1] for j in v}:
        for a, b in R.supports[j]:
            u, v = block[a], block[b]
            dist[u][v] = min(dist[u][v], 2 * degrees[j])
    for w in range(nb):
        for u in range(nb):
            for v in range(nb):
                dist[u][v] = min(dist[u][v], dist[u][w] + dist[w][v])
    box, depth = [], [0] * nb
    for t, B in enumerate(free, 1):
        up, down = dist[anchor[B]][B], dist[B][anchor[B]]
        if inf in (up, down):
            raise Unbounded("block %d of the polytope has no finite bound"
                            % B)
        box.append((-(down // (1 + osp)), up // (1 + osp)))
        depth[B] = t
        if osp:
            depth[anchor[B]] = t
    checks = [[] for _ in range(len(free) + 1)]
    for u, row in enumerate(dist):
        for v, c in enumerate(row):
            if c < inf:
                checks[max(depth[u], depth[v])].append((u, v, c))
    z, points = [0] * nb, []

    def descend(t, parity):
        # the blocks before free[t] are set: check what closes at depth t
        if any(z[v] - z[u] > c for u, v, c in checks[t]):
            return
        if t == len(free):
            points.append([z[B] for B in block])
            return
        B, (lo, hi) = free[t], box[t]
        for value in range(lo + (lo - parity) % 2, hi + 1, 2):
            z[B] = value
            if osp:
                z[anchor[B]] = -value
            descend(t + 1, parity)

    odd = osp and all(anchor[B] != B for B in range(nb))
    for parity in (0, 1) if odd else (0,):
        descend(0, parity)
    return points


def brute_force_shifts(R, sp):
    """Oracle: the good gradings h + z/2 of the Dynkin pair, one per
    lattice point z of the good-grading polytope (`_good_shifts`), in
    degree-map order; the polytope needs no bound.  A good shift is
    central in g^s, which lies in h-degree 0: every basis element in the
    support of g^s must keep degree 0 under h + z/2 (else NotCentral)."""
    _, e, h = dynkin_pair(sp, R)
    screp = s_centralizer(R, complete_sl2(R, e, h))
    central = {j for v in screp.vectors for j in v}
    hd = h.diag()
    gradings = []
    for shift in _good_shifts(R, e, h):
        g = grading_from(R, R.from_entries(
            {(i, i): quotient(2 * d + c, 2)
             for i, (d, c) in enumerate(zip(hd, shift))}))
        if any(g.degrees[j] for j in central):
            raise NotCentral("a good shift does not commute with the "
                             "sl2-centralizer")
        gradings.append(g)
    return GoodGradingSet(sp, sorted(gradings, key=Grading.key),
                          "shift-vector")


# ---------------------------------------------------------------------------
# osp classification by the case table


def _pair_constraint_ok(cp, dq, s, t):
    """|s_k - t_l| <= 1 wherever |p_k - q_l| = 1, and with 1 in C(p) the
    last shift's terms |s_c| <= p_{c-1} - |s_{c-1}| - 1 and
    |s_c| <= q_d - |t_d| - 1, on doubled shifts."""
    if 1 in cp and any(abs(s[-1]) + abs(x) > 2 * (part - 1) for x, part
                       in zip(s[-2:-1] + t[-1:], cp[-2:-1] + dq[-1:])):
        return False
    return all(abs(s[k] - t[l]) <= 2 for k, pk in enumerate(cp)
               for l, ql in enumerate(dq) if abs(pk - ql) == 1)


def good_gradings_osp(sp):
    """All good gradings for e_{p,q} in osp(m|2n): h + z(s, t) for each
    shift (s, t) of the case table, graded once, good when its degrees 0
    and 1 count `dim_formula_osp`; e must stay in degree 2, where h puts
    it (else NotCentral).  With 1 in C(p), the last C(p) shift s_c (of
    part 1) runs over |s_c| <= B, the least constant term of the paper's
    bound on it, and the pair filter applies its other terms; no ad e,
    kernel or oracle is needed.  Every candidate is integral: integer
    shifts keep h's degrees integral, and half shifts run only in the half
    case, where every box lies in a shifted row, so every entry of h + z
    is an integer plus a half.  No two share a degree map: osp(m|2n), m,
    n >= 1, has zero centre, so ad H determines H, and z(s, t) is
    injective, as each C(p), D(q) part has one nonempty shifted row
    (`shift_matrix` checks)."""
    cp, dq = cp_dq(sp)
    R = build_osp(sp.m, sp.n // 2)
    P, e, h = dynkin_pair(sp, R)
    half_case = (sp.m % 2 == 0 and set(cp) == set(sp.p)
                 and set(dq) == set(sp.q))
    # doubled shifts: integers in {-1, 0, 1}, then halves +-1/2, of the
    # C(p) and D(q) parts; the stated shift conditions admit the
    # candidates that goodness then rejects (the mirror pairing adds a
    # |s_k + t_l| constraint)
    k, ec, dim = len(cp), e.coordinates, sum(dim_formula_osp(sp))
    # the constant terms of the paper's bound on the last shift, read
    # literally: p_{alpha-1} - 1 and q_beta - 1, with p_{alpha-1} the
    # smallest part of J_p except 1 and q_beta the smallest part of J_q
    terms = [min(values) - 1 for values in ({v for v in sp.p if v != 1},
                                            set(sp.q)) if values]
    bound = min(terms)
    good, not_good = [], 0
    for step in range(1 + half_case):
        box = [range(step - 2, 3 - step, 2)] * (k + len(dq))
        if 1 in cp:
            box[k - 1] = range(step - 2 * bound, 2 * bound + 1 - step, 2)
        for v in product(*box):
            if not _pair_constraint_ok(cp, dq, v[:k], v[k:]):
                continue
            half = [quotient(a, 2) for a in v]
            g = grading_from(R, h + shift_matrix(R, P, half[:k], half[k:]))
            if not all(g.degrees[j] == 2 for j in ec):
                raise NotCentral("a shift moves the degree of e")
            if is_good(g, e, dim):
                good.append(g)
            else:
                not_good += 1
    out = GoodGradingSet(sp, sorted(good, key=Grading.key), "shift-vector")
    if 1 in cp:
        # the text of the old oracle fallback, kept for identical output
        out.notes["case"] = "1 in C(p): oracle-classified"
        out.notes["lastShiftBoundTerms"] = terms \
            + ["p[c-1]-|s[c-1]|-1 with p[c-1]=%d" % c for c in cp[-2:-1]] \
            + ["q[d]-|t[d]|-1 with q[d]=%d" % d for d in dq[-1:]]
        return out
    out.notes["case"] = "half-integer shifts allowed" if half_case \
        else "integer shifts in {-1,0,1}"
    if not_good:
        out.notes["rejectedByGoodness"] = not_good
    return out
