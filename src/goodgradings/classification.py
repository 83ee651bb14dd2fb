"""Enumerate all good Z-gradings for a nilpotent orbit.

gl orbits: one grading per pyramid.  osp orbits: shifted Dynkin gradings
with shift vectors given by a case table, cross-checked (and, for the
ambiguous 1-in-C(p) cases, replaced) by a brute-force search over the
center of the sl2-centralizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import inf, prod
from operator import add, mul

from .gradings import (ad_kernel, complete_sl2, grading_from,
                       integral_degrees, s_centralizer)
from .partitions import (NotOrthosymplectic, SuperPartition, cp_dq,
                         is_orthosymplectic)
from .pyramids import dynkin_pair, enumerate_pyr, realize_pyramid, shift_matrix
from .superalgebra import build_gl, build_osp, superbracket


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
    """All good gradings for e_{p,q} in gl(m|n): one per pyramid,
    deduplicated as degree maps."""
    R = build_gl(sp.m, sp.n)
    seen = {}
    for P in enumerate_pyr(sp):
        e, h = realize_pyramid(P, R)
        g = grading_from(R, h)
        seen.setdefault(g.key(), g)
    return GoodGradingSet(sp, [seen[k] for k in sorted(seen)], "pyramid")


# ---------------------------------------------------------------------------
# brute-force oracle


class BoundTooSmall(ValueError):
    """The oracle's box bound is below the orbit's largest part."""


class NotCentral(ValueError):
    """A shift generator fails to commute with the sl2-centralizer."""


class DegreeMismatch(ValueError):
    """A grading rebuilt from a scanned shift has another degree map."""


class MixedParity(ValueError):
    """A coordinate of a scanned box lists both even and odd values."""


def _scan_shifts(R, e, h, gens, boxes, admissible=None):
    """Scan diagonal shifts h + sum(a/2 * gen) of the pair (e, h), each
    given by its doubled coefficients a: box after box, a box listing the
    values of each coefficient, in itertools.product order, skipping the
    a that fail admissible(a).  Returns the good gradings, one per degree
    map (from the first shift reaching it) in degree-map order, and the
    number of integral candidates that are not good.  A depth-first search
    bounds each coefficient before it recurses: a ker(ad e) inequality,
    linear in the last generator it depends on, gives that coefficient an
    interval, and only the box values inside it are visited, in their
    given order, so every leaf reached is good.  The generators must keep
    e's degree (else NotCentral); integrality is tested once per box, each
    coordinate being of one parity (else MixedParity)."""
    # basis elements sharing a form, the coefficients key[g] of a_g in
    # their doubled degrees, are scanned once: element i has doubled degree
    # base[i] + v[form_of[i]], with v[f] = sum(a_g * columns[g][f])
    base = [2 * d for d in integral_degrees(R, h.diag())]
    form_index = {}
    form_of = [form_index.setdefault(key[1:], len(form_index)) for key in
               zip(base, *(integral_degrees(R, z.diag()) for z in gens))]
    columns = list(zip(*form_index))
    # a form closes at depth t once a_0 .. a_{t-1}, all it depends on, are
    # fixed; least[f]: the least base over the ker(ad e) elements of form f
    closing = [max((g + 1 for g, c in enumerate(key) if c), default=0)
               for key in form_index]
    e_support = R.coords(e)
    if any(closing[form_of[j]] for j in e_support):
        raise NotCentral("a shift generator moves the degree of e")
    least = {}
    for j in ad_kernel(R, e)[2]:
        least[form_of[j]] = min(base[j], least.get(form_of[j], base[j]))
    # e's degree and the forms no a_g moves hold for all a or none; bounds[t]:
    # each ker form closing at depth t + 1, v[f] + b + a_t * c >= 0 (c != 0)
    rooted = all(base[j] == 4 for j in e_support) \
        and all(b >= 0 for f, b in least.items() if not closing[f])
    bounds = [[(f, columns[t][f], b) for f, b in least.items()
               if closing[f] == t + 1] for t in range(len(gens))]
    found = {}
    candidates = good = 0

    def descend(steps, doubled, v):
        # v: each form's sum(a_g * key[g]) over the a chosen so far
        nonlocal good
        t = len(doubled)
        if t == len(steps):
            if not admissible or admissible(doubled):
                good += 1
                found.setdefault(v, doubled)
            return
        lo, hi = -inf, inf
        for f, c, b in bounds[t]:
            if c > 0:
                lo = max(lo, -((v[f] + b) // c))
            else:
                hi = min(hi, (v[f] + b) // -c)
        for a, shift in steps[t]:
            if lo <= a <= hi:
                descend(steps, doubled + (a,), tuple(map(add, v, shift)))

    for box in boxes:
        box = [tuple(values) for values in box]
        if any(len({a & 1 for a in values}) > 1 for values in box):
            raise MixedParity("a box coordinate mixes even and odd values")
        # a form's parity (its base is even) is the same on the whole
        # box: test it at the box's first a, if the box is not empty
        first = next(product(*box), None)
        if first is None or any(sum(map(mul, first, key)) & 1
                                for key in form_index):
            continue
        candidates += prod(map(len, box)) if admissible is None \
            else sum(map(admissible, product(*box)))
        if rooted:
            descend([[(a, [a * c for c in col]) for a in values]
                     for col, values in zip(columns, box)], (),
                    (0,) * len(form_index))
    gradings = []
    for degs, doubled in sorted(
            (tuple([(b + v[f]) // 2 for b, f in zip(base, form_of)]), a)
            for v, a in found.items()):
        H = h
        for a, gen in zip(doubled, gens):
            if a:
                H = H + gen.scale(Fraction(a, 2))
        g = grading_from(R, H)
        if g.key() != degs:
            raise DegreeMismatch("shift %s rebuilds another degree map"
                                 % (doubled,))
        gradings.append(g)
    return gradings, candidates - good


def _center_generators(R, sp, P):
    """Diagonal generators of the center of the even sl2-centralizer."""
    if R.kind == "gl":
        # one generator per row length: 1 on the boxes of those rows
        lengths, boxes = [r for r, t, f in P.rows], P.boxes
        return [R.diagonal({lab: 1 for x, y, t, lab in boxes
                            if lengths[y - 1] == value})
                for value in sorted(set(lengths), reverse=True)]
    cp, dq = cp_dq(sp)
    k, units = len(cp), range(len(cp) + len(dq))
    return [shift_matrix(R, P, u[:k], u[k:])
            for u in ([int(i == j) for j in units] for i in units)]


def brute_force_shifts(R, sp, bound):
    """Oracle: scan all central diagonal shifts z of the Dynkin pair with
    entries in half-integers up to the bound, keeping the shifts whose
    grading is integral and good.  It shares the shift generators and the
    scan with the osp classifier, which differs in its candidates only."""
    if bound < max(sp.p + sp.q):
        raise BoundTooSmall("bound %d is below the largest part %d"
                            % (bound, max(sp.p + sp.q)))
    P, e, h = dynkin_pair(sp, R)
    gens = _center_generators(R, sp, P)
    triple = complete_sl2(R, e, h)
    screp = s_centralizer(R, triple)
    if any(not superbracket(z, b).is_zero()
           for z in gens for b in screp.basis):
        raise NotCentral("shift generator does not commute with the "
                         "sl2-centralizer")
    ng = len(gens)
    boxes = [[range(-2 * bound, 2 * bound + 1, 2)] * ng,
             [range(-2 * bound + 1, 2 * bound, 2)] * ng]
    gradings, _ = _scan_shifts(R, e, h, gens, boxes)
    return GoodGradingSet(sp, gradings, "shift-vector")


# ---------------------------------------------------------------------------
# osp classification by the case table


def _pair_constraint_ok(cp, dq, s, t):
    """|s_k - t_l| <= 1 wherever |p_k - q_l| = 1, on doubled shifts."""
    return all(abs(s[k] - t[l]) <= 2 for k, pk in enumerate(cp)
               for l, ql in enumerate(dq) if abs(pk - ql) == 1)


def _literal_bound_note(sp, cp, dq):
    """The closed-form bound on the last shift, under the natural index
    reading: p_{alpha-1} = smallest part of J_p except 1, q_beta = smallest
    part of J_q; absent terms are unbounded."""
    terms = [min(values) - 1 for values in ({v for v in sp.p if v != 1},
                                            set(sp.q)) if values]
    if len(cp) >= 2:
        terms.append("p[c-1]-|s[c-1]|-1 with p[c-1]=%d" % cp[-2])
    if dq:
        terms.append("q[d]-|t[d]|-1 with q[d]=%d" % dq[-1])
    return {"lastShiftBoundTerms": terms}


def good_gradings_osp(sp):
    """All good gradings for e_{p,q} in osp(m|2n), by the shift-vector case
    table; orbits with 1 in C(p) fall back to the brute-force oracle."""
    if not is_orthosymplectic(sp):
        raise NotOrthosymplectic(f"{sp} is not orthosymplectic")
    cp, dq = cp_dq(sp)
    R = build_osp(sp.m, sp.n // 2)
    if 1 in cp:
        out = brute_force_shifts(R, sp, max(sp.p + sp.q))
        out.notes["case"] = "1 in C(p): oracle-classified"
        out.notes.update(_literal_bound_note(sp, cp, dq))
        return out

    P, e, h = dynkin_pair(sp, R)
    jp, jq = set(sp.p), set(sp.q)
    half_case = (sp.m % 2 == 0 and set(cp) == jp and set(dq) == jq)
    # doubled shifts: integers in {-1, 0, 1}, then halves +-1/2
    ng = len(cp) + len(dq)
    boxes = [[(-2, 0, 2)] * ng] + ([[(-1, 1)] * ng] if half_case else [])
    # the stated shift conditions admit the candidates that goodness then
    # rejects (the mirror pairing adds a |s_k + t_l| constraint)
    gradings, not_good = _scan_shifts(
        R, e, h, _center_generators(R, sp, P), boxes,
        lambda v: _pair_constraint_ok(cp, dq, v[:len(cp)], v[len(cp):]))
    out = GoodGradingSet(sp, gradings, "shift-vector")
    out.notes["case"] = "half-integer shifts allowed" if half_case \
        else "integer shifts in {-1,0,1}"
    if not_good:
        out.notes["rejectedByGoodness"] = not_good
    return out


# ---------------------------------------------------------------------------
# extensions of an even grading


def _pyramid_diag(P):
    """Diagonal x-coordinates of a single-parity pyramid, in label order."""
    boxes = sorted(P.boxes, key=lambda b: b[3])
    return [x for x, y, t, lab in boxes]


def extensions_of_even_grading(sp, even_pyramids, full_set=None):
    """Members of good_gradings_gl(sp) whose restriction to the even part
    equals the grading of the given (p-pyramid, q-pyramid) pair."""
    pyr_p, pyr_q = even_pyramids
    hp = _pyramid_diag(pyr_p)
    hq = _pyramid_diag(pyr_q)
    if full_set is None:
        full_set = good_gradings_gl(sp)
    m = sp.m
    picked = []
    for g in full_set.gradings:
        diag = g.H.diag()
        dp = {diag[i] - hp[i] for i in range(m)}
        dq_ = {diag[m + j] - hq[j] for j in range(len(hq))}
        if len(dp) == 1 and len(dq_) == 1:
            picked.append(g)
    return GoodGradingSet(sp, picked, full_set.provenance,
                          {"evenGrading": [pyr_p.to_json(), pyr_q.to_json()]})
