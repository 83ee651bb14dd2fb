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
from math import prod
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
    tests each goodness inequality at its closing depth, once the last
    generator it depends on is fixed, and prunes the subtree if it fails;
    integrality is tested once per box, each coordinate being of one
    parity (else MixedParity)."""
    # basis elements sharing a degree form in doubled units,
    # deg2 = 2 * base_deg + sum(a_g * gen_deg_g), are scanned once;
    # base and columns[g] hold each form's 2 * base_deg and gen_deg_g
    gen_degrees = [integral_degrees(R, z.diag()) for z in gens]
    form_index = {}
    form_of = [form_index.setdefault(
        (2 * d,) + tuple(gd[i] for gd in gen_degrees), len(form_index))
        for i, d in enumerate(integral_degrees(R, h.diag()))]
    base, *columns = zip(*form_index)
    e_forms = {form_of[j] for j in R.coords(e)}
    ker_forms = {form_of[j] for j in ad_kernel(R, e)[2]}
    # checks[t]: the e-forms (doubled degree 4) and ker-forms (>= 0) that
    # close at depth t, fixed once a_0 .. a_{t-1} are chosen
    closing = [max((g + 1 for g, c in enumerate(key[1:]) if c), default=0)
               for key in form_index]
    checks = [[[f for f in forms if closing[f] == t]
               for forms in (e_forms, ker_forms)]
              for t in range(len(gens) + 1)]
    found = {}
    candidates = good = 0

    def descend(steps, doubled, d2):
        # d2: doubled degree of each form, the coefficients so far added
        nonlocal good
        fours, nonnegatives = checks[len(doubled)]
        if any(d2[f] != 4 for f in fours) \
                or any(d2[f] < 0 for f in nonnegatives):
            return
        if len(doubled) < len(steps):
            for a, shift in steps[len(doubled)]:
                descend(steps, doubled + (a,), list(map(add, d2, shift)))
        elif not admissible or admissible(doubled):
            good += 1
            if tuple(d2) not in found:
                found[tuple(d2)] = (tuple(d2[f] // 2 for f in form_of),
                                    doubled)

    for box in boxes:
        box = [tuple(values) for values in box]
        if any(len({a & 1 for a in values}) > 1 for values in box):
            raise MixedParity("a box coordinate mixes even and odd values")
        # a form's parity (its base is even) is the same on the whole
        # box: test it at the box's first a, if the box is not empty
        first = next(product(*box), None)
        if first is None or any(sum(map(mul, first, key[1:])) & 1
                                for key in form_index):
            continue
        candidates += prod(map(len, box)) if admissible is None \
            else sum(map(admissible, product(*box)))
        descend([[(a, [a * c for c in col]) for a in values]
                 for col, values in zip(columns, box)], (), list(base))
    gradings = []
    for degs, doubled in sorted(found.values()):
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
    P, e, h = dynkin_pair(sp, R)
    if 1 in cp:
        bound = max(sp.p + sp.q)
        out = brute_force_shifts(R, sp, bound)
        out.notes["case"] = "1 in C(p): oracle-classified"
        out.notes.update(_literal_bound_note(sp, cp, dq))
        return out

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
