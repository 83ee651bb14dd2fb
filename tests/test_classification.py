import itertools
from fractions import Fraction

import pytest

from goodgradings import classification
from goodgradings.classification import (DegreeMismatch, MixedParity,
                                         NotCentral, brute_force_shifts,
                                         extensions_of_even_grading,
                                         good_gradings_gl, good_gradings_osp)
from goodgradings.gradings import (Grading, ad_kernel, grading_from,
                                   integral_degrees, is_good)
from goodgradings.partitions import (SuperPartition, cp_dq,
                                     enumerate_super_partitions,
                                     is_orthosymplectic)
from goodgradings.pyramids import (Pyramid, dynkin_pair, enumerate_pyr,
                                   realize_pyramid)
from goodgradings.superalgebra import build_gl, build_osp


def test_gl_counts():
    assert len(good_gradings_gl(SuperPartition((1,), (1,)))) == 1
    assert len(good_gradings_gl(SuperPartition((2, 2), ()))) == 1
    assert len(good_gradings_gl(SuperPartition((3, 1), (4, 2)))) == 27


def test_gl_members_are_good():
    sp = SuperPartition((2,), (1,))
    gs = good_gradings_gl(sp)
    R = gs.gradings[0].ambient
    from goodgradings.pyramids import dynkin_pyramid_gl, realize_pyramid
    e, _ = realize_pyramid(dynkin_pyramid_gl(sp), R)
    for g in gs.gradings:
        assert is_good(g, e)


def test_oracle_checks_centrality(monkeypatch):
    # a bracket that returns its first argument makes no generator central
    monkeypatch.setattr(classification, "superbracket", lambda x, y: x)
    sp = SuperPartition((2,), (1,))
    with pytest.raises(NotCentral):
        brute_force_shifts(build_gl(sp.m, sp.n), sp, 2)


def test_scan_checks_rebuilt_degrees(monkeypatch):
    # a rebuilt grading whose degree map is not the scanned one
    monkeypatch.setattr(classification, "grading_from",
                        lambda R, H: Grading(R, H, ()))
    sp = SuperPartition((2,), (1,))
    with pytest.raises(DegreeMismatch):
        brute_force_shifts(build_gl(sp.m, sp.n), sp, 2)
    with pytest.raises(DegreeMismatch):
        good_gradings_osp(SuperPartition((3, 3), (4,)))


def test_oracle_small_gl():
    for pq in [((1,), (1,)), ((2,), (1,)), ((1, 1), (2,)), ((2, 1), (2, 1))]:
        sp = SuperPartition(*pq)
        gs = good_gradings_gl(sp)
        bf = brute_force_shifts(build_gl(sp.m, sp.n), sp, max(sp.p + sp.q))
        assert gs.keys() == bf.keys(), sp


def test_oracle_saturation():
    sp = SuperPartition((2,), (1,))
    a = brute_force_shifts(build_gl(2, 1), sp, 2)
    b = brute_force_shifts(build_gl(2, 1), sp, 4)
    assert a.keys() == b.keys()


def test_osp_case_i():
    sp = SuperPartition((3, 3), (4,))
    gs = good_gradings_osp(sp)
    assert len(gs) == 3
    bf = brute_force_shifts(build_osp(6, 2), sp, 4)
    assert gs.keys() == bf.keys()


def test_osp_dynkin_only():
    assert len(good_gradings_osp(SuperPartition((5, 3, 1), (3, 3)))) == 1
    assert len(good_gradings_osp(SuperPartition((1,), (2,)))) == 1


def test_osp_oracle_path_for_1_in_cp():
    sp = SuperPartition((1, 1), (2,))
    gs = good_gradings_osp(sp)
    assert "oracle" in gs.notes["case"]
    bf = brute_force_shifts(build_osp(2, 1), sp, 2)
    assert gs.keys() == bf.keys()


def test_osp_half_integer_case():
    # C(p)=J_p, D(q)=J_q with m even and 1 not in C(p)
    sp = SuperPartition((3, 3), (2, 2))
    gs = good_gradings_osp(sp)
    bf = brute_force_shifts(build_osp(6, 2), sp, 3)
    assert gs.keys() == bf.keys()
    assert "half" in gs.notes["case"]


def test_extensions_dynkin():
    sp = SuperPartition((3, 1), (4, 2))
    full = good_gradings_gl(sp)
    pp = Pyramid(((3, "+", -2), (1, "+", 0)))
    pq = Pyramid(((4, "-", -3), (2, "-", -1)))
    ext = extensions_of_even_grading(sp, (pp, pq), full)
    assert len(ext) == 3


def test_extensions_shifted_none():
    sp = SuperPartition((3, 1), (4, 2))
    full = good_gradings_gl(sp)
    pp = Pyramid(((3, "+", -2), (1, "+", -2)))   # top row left-aligned
    pq = Pyramid(((4, "-", -3), (2, "-", 1)))    # top row right-aligned
    ext = extensions_of_even_grading(sp, (pp, pq), full)
    assert len(ext) == 0


def test_extensions_zero_orbit():
    sp = SuperPartition((1,), (1,))
    full = good_gradings_gl(sp)
    pp = Pyramid(((1, "+", 0),))
    pq = Pyramid(((1, "-", 0),))
    ext = extensions_of_even_grading(sp, (pp, pq), full)
    assert len(ext) == 1


def test_gradings_pairwise_distinct():
    gs = good_gradings_gl(SuperPartition((3, 1), (4, 2)))
    assert len(gs.keys()) == len(gs.gradings)


def test_json_report():
    gs = good_gradings_osp(SuperPartition((3, 3), (4,)))
    js = gs.to_json()
    assert js["count"] == 3
    assert all(g["provenance"] == "shift-vector" for g in js["gradings"])


def _scan_per_candidate(R, e, h, gens, candidates):
    """The scan one candidate at a time over the full degree tuple: the
    reference for the box scan.  Returns (degree map, H diagonal) pairs
    in degree-map order and the count of integral candidates not good."""
    gen_degrees = [integral_degrees(R, z.diag()) for z in gens]
    forms = [(2 * d, tuple(gd[i] for gd in gen_degrees))
             for i, d in enumerate(integral_degrees(R, h.diag()))]
    e_support = list(R.coords(e))
    ker_support = ad_kernel(R, e)[2]
    found = {}
    not_good = 0
    for doubled in candidates:
        d2 = [bd + sum(a * c for a, c in zip(doubled, coefs))
              for bd, coefs in forms]
        if any(d % 2 for d in d2):
            continue
        degs = tuple(d // 2 for d in d2)
        if any(degs[j] != 2 for j in e_support) \
                or any(degs[j] < 0 for j in ker_support):
            not_good += 1
        elif degs not in found:
            found[degs] = doubled
    out = []
    for degs in sorted(found):
        H = h
        for a, gen in zip(found[degs], gens):
            if a:
                H = H + gen.scale(Fraction(a, 2))
        out.append((degs, H.diag()))
    return out, not_good


@pytest.mark.parametrize("kind, p, q, bound", [
    ("gl", (3, 1), (4, 2), 4),
    ("osp", (3, 3), (4,), 4),
    ("osp", (3, 3, 1, 1), (2, 2), 3),
    ("osp", (3, 3), (2, 2), None),          # the half case, pair filter
])
def test_box_scan_matches_per_candidate_scan(kind, p, q, bound):
    sp = SuperPartition(p, q)
    R = build_gl(sp.m, sp.n) if kind == "gl" else build_osp(sp.m, sp.n // 2)
    P, e, h = dynkin_pair(sp, R)
    gens = classification._center_generators(R, sp, P)
    ng = len(gens)
    admissible = None
    if bound is not None:           # the oracle's even and odd boxes
        boxes = [[range(-2 * bound, 2 * bound + 1, 2)] * ng,
                 [range(-2 * bound + 1, 2 * bound, 2)] * ng]
    else:
        cp, dq = cp_dq(sp)
        boxes = [[(-2, 0, 2)] * ng, [(-1, 1)] * ng]

        def admissible(v):
            return classification._pair_constraint_ok(
                cp, dq, v[:len(cp)], v[len(cp):])
    candidates = [v for box in boxes for v in itertools.product(*box)
                  if admissible is None or admissible(v)]
    expected, expected_not_good = _scan_per_candidate(R, e, h, gens,
                                                      candidates)
    gradings, not_good = classification._scan_shifts(R, e, h, gens, boxes,
                                                     admissible)
    assert [g.key() for g in gradings] == [degs for degs, _ in expected]
    assert [g.H.diag() for g in gradings] == [diag for _, diag in expected]
    assert not_good == expected_not_good


def _staged_scan_agrees(sp, R, boxes_of, admissible_of=lambda sp: None):
    """The staged scan on the Dynkin pair of sp against the per-candidate
    reference: same degree maps, H diagonals and count of not good."""
    P, e, h = dynkin_pair(sp, R)
    gens = classification._center_generators(R, sp, P)
    boxes, admissible = boxes_of(len(gens)), admissible_of(sp)
    candidates = [v for box in boxes for v in itertools.product(*box)
                  if admissible is None or admissible(v)]
    expected, expected_not_good = _scan_per_candidate(R, e, h, gens,
                                                      candidates)
    gradings, not_good = classification._scan_shifts(R, e, h, gens, boxes,
                                                     admissible)
    return ([(g.key(), g.H.diag()) for g in gradings], not_good) == \
        (expected, expected_not_good)


def test_staged_scan_matches_reference_on_gl_oracle_boxes():
    # every gl orbit with m+n <= 5, the oracle's even and odd boxes
    for m in range(6):
        for n in range(1 if m == 0 else 0, 6 - m):
            for sp in enumerate_super_partitions(m, n):
                b = max(sp.p + sp.q)
                assert _staged_scan_agrees(sp, build_gl(m, n), lambda ng: [
                    [range(-2 * b, 2 * b + 1, 2)] * ng,
                    [range(-2 * b + 1, 2 * b, 2)] * ng]), sp


def _pair_filter(sp):
    cp, dq = cp_dq(sp)
    return lambda v: classification._pair_constraint_ok(
        cp, dq, v[:len(cp)], v[len(cp):])


def test_staged_scan_matches_reference_on_osp_case_boxes():
    # every osp orbit with m+2n <= 8, the case table's boxes (the half
    # box included) and its pair filter
    count = 0
    for m in range(1, 9):
        for n2 in range(2, 9 - m, 2):
            for sp in enumerate_super_partitions(m, n2):
                if is_orthosymplectic(sp):
                    count += 1
                    assert _staged_scan_agrees(
                        sp, build_osp(m, n2 // 2),
                        lambda ng: [[(-2, 0, 2)] * ng, [(-1, 1)] * ng],
                        _pair_filter), sp
    assert count > 0


def test_staged_scan_matches_reference_on_osp_oracle_boxes():
    # every osp orbit with m+2n <= 10, the oracle's even and odd boxes:
    # osp generators have degree coefficients +-2, gl generators never
    count = 0
    for m in range(1, 11):
        for n2 in range(2, 11 - m, 2):
            for sp in enumerate_super_partitions(m, n2):
                if is_orthosymplectic(sp):
                    count += 1
                    b = max(sp.p + sp.q)
                    assert _staged_scan_agrees(
                        sp, build_osp(m, n2 // 2), lambda ng: [
                            [range(-2 * b, 2 * b + 1, 2)] * ng,
                            [range(-2 * b + 1, 2 * b, 2)] * ng]), sp
    assert count > 0


def test_scan_refuses_a_generator_moving_e():
    # 1 on the first label alone changes the degree of e's first step; a
    # raise, not an assert, so it holds under python -O too
    sp = SuperPartition((2,), (1,))
    R = build_gl(sp.m, sp.n)
    P, e, h = dynkin_pair(sp, R)
    with pytest.raises(NotCentral):
        classification._scan_shifts(R, e, h, [R.diagonal({1: 1})],
                                    [[(0, 2)]])


def test_scan_refuses_a_mixed_parity_coordinate():
    sp = SuperPartition((3, 1), (2,))
    R = build_gl(sp.m, sp.n)
    P, e, h = dynkin_pair(sp, R)
    gens = classification._center_generators(R, sp, P)
    with pytest.raises(MixedParity):
        classification._scan_shifts(R, e, h, gens,
                                    [[(0, 2)] * (len(gens) - 1) + [(0, 1)]])


def _diagonals_mod_identity(gs, swap):
    """The H diagonals of a grading set, each with its first m and last n
    entries exchanged when swap (m, n the orbit's sizes), and shifted by
    a multiple of the identity to start at 0."""
    m = gs.orbit.m
    out = set()
    for g in gs.gradings:
        diag = g.H.diag()
        if swap:
            diag = diag[m:] + diag[:m]
        out.add(tuple(x - diag[0] for x in diag))
    return out


def test_gl_classification_is_symmetric_under_parity_swap():
    """gl(m|n) and gl(n|m) are isomorphic by exchanging the two blocks of
    V, which sends the orbit (p|q) to (q|p): both give the same gradings,
    compared as H diagonals modulo the identity (which grades nothing)."""
    orbits = [sp for size in range(1, 7) for m in range(size + 1)
              for sp in enumerate_super_partitions(m, size - m)]
    assert len(orbits) == 138
    for sp in orbits:
        assert _diagonals_mod_identity(good_gradings_gl(sp), True) == \
            _diagonals_mod_identity(
                good_gradings_gl(SuperPartition(sp.q, sp.p)), False)


def test_goodness_is_symmetric_under_supertranspose():
    """theta(x) = -x^st is an anti-automorphism of gl(m|n) that sends
    g_j(H) to g_{-j}(H); on even e it is -e^T.  So H is good for e exactly
    when -H is good for theta(e).  Checked for every pyramid of every gl
    orbit with m+n <= 5, H = h and h +- each center generator."""
    verdicts = []
    for size in range(1, 6):
        for m in range(size + 1):
            R = build_gl(m, size - m)
            for sp in enumerate_super_partitions(m, size - m):
                for P in enumerate_pyr(sp):
                    e, h = realize_pyramid(P, R)
                    theta_e = R.from_entries({(b, a): -c for (a, b), c
                                              in e.entries.items()})
                    gens = classification._center_generators(R, sp, P)
                    for H in [h] + [h + g for g in gens] \
                            + [h - g for g in gens]:
                        good = is_good(grading_from(R, H), e)
                        assert good == is_good(grading_from(R, -H), theta_e)
                        verdicts.append(good)
    assert (verdicts.count(True), verdicts.count(False)) == (735, 168)
