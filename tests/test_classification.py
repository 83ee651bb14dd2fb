import itertools
import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from goodgradings import (classification, gradings, partitions, pyramids,
                         superalgebra)
from goodgradings.classification import (NotCentral, Unbounded,
                                         brute_force_shifts,
                                         good_gradings_gl, good_gradings_osp)
from goodgradings.gradings import grading_from, is_good
from goodgradings.partitions import (SuperPartition, cp_dq,
                                     enumerate_super_partitions,
                                     is_orthosymplectic)
from goodgradings.pyramids import (Pyramid, dynkin_pair, enumerate_pyr,
                                   realize_pyramid, shift_matrix)
from goodgradings.superalgebra import build_gl, build_osp
from reference import E, extensions_of_even_grading, is_good_by_ranks


def test_gl_counts():
    assert len(good_gradings_gl(SuperPartition((1,), (1,)))) == 1
    assert len(good_gradings_gl(SuperPartition((2, 2), ()))) == 1
    assert len(good_gradings_gl(SuperPartition((3, 1), (4, 2)))) == 27


def _json_by_index(g):
    """Grading JSON with its degree keys built from the indices."""
    return json.dumps({"H": [str(x) for x in g.H.diag()],
                       "degrees": {str(i): d
                                   for i, d in enumerate(g.degrees)}})


def test_grading_json_reads_the_key_table():
    """The per-algebra key table gives the bytes of index-built keys."""
    for sp, classify in [(sp, good_gradings_gl) for sp in _gl_orbits(6)] \
            + [(sp, good_gradings_osp) for sp in _osp_orbits(8)]:
        for g in classify(sp).gradings:
            assert json.dumps(g.to_json()) == _json_by_index(g), sp


def test_gl_gradings_are_the_pyramid_h_gradings():
    """Each gl grading is ad h for the h that realizes its pyramid."""
    for sp in _gl_orbits(6):
        R = build_gl(sp.m, sp.n)
        expected = {grading_from(R, realize_pyramid(P, R)[1]).key()
                    for P in enumerate_pyr(sp)}
        assert good_gradings_gl(sp).keys() == expected, sp


def test_gl_members_are_good():
    sp = SuperPartition((2,), (1,))
    gs = good_gradings_gl(sp)
    R = gs.gradings[0].ambient
    from goodgradings.pyramids import dynkin_pyramid_gl, realize_pyramid
    e, _ = realize_pyramid(dynkin_pyramid_gl(sp), R)
    for g in gs.gradings:
        assert is_good(g, e)


def test_oracle_checks_centrality(monkeypatch):
    # widen the reported g^s by E13, which links e's two blocks in gl(2|1):
    # not every good grading keeps it in degree 0
    s_centralizer = classification.s_centralizer

    def widened(R, triple):
        rep = s_centralizer(R, triple)
        rep.vectors = rep.vectors + [E(R, 1, 3).coordinates]
        return rep

    monkeypatch.setattr(classification, "s_centralizer", widened)
    sp = SuperPartition((2,), (1,))
    with pytest.raises(NotCentral):
        brute_force_shifts(build_gl(sp.m, sp.n), sp)


def test_oracle_raises_on_an_unbounded_block():
    # with no ker(ad e) support there is no inequality, so no free block
    # of the polytope is bounded; the empty record sits on this e alone
    for sp, R in [(SuperPartition((2,), (1,)), build_gl(2, 1)),
                  (SuperPartition((3, 3), (4,)), build_osp(6, 2))]:
        _, e, h = dynkin_pair(sp, R)
        vars(e)["ad_kernel"] = (None, ())
        with pytest.raises(Unbounded):
            classification._good_shifts(R, e, h)


def test_oracle_small_gl():
    for pq in [((1,), (1,)), ((2,), (1,)), ((1, 1), (2,)), ((2, 1), (2, 1))]:
        sp = SuperPartition(*pq)
        gs = good_gradings_gl(sp)
        bf = brute_force_shifts(build_gl(sp.m, sp.n), sp)
        assert gs.keys() == bf.keys(), sp


def test_osp_case_i():
    sp = SuperPartition((3, 3), (4,))
    gs = good_gradings_osp(sp)
    assert len(gs) == 3
    bf = brute_force_shifts(build_osp(6, 2), sp)
    assert gs.keys() == bf.keys()


def test_osp_dynkin_only():
    assert len(good_gradings_osp(SuperPartition((5, 3, 1), (3, 3)))) == 1
    assert len(good_gradings_osp(SuperPartition((1,), (2,)))) == 1


def test_osp_oracle_path_for_1_in_cp():
    sp = SuperPartition((1, 1), (2,))
    gs = good_gradings_osp(sp)
    assert "oracle" in gs.notes["case"]
    bf = brute_force_shifts(build_osp(2, 1), sp)
    assert gs.keys() == bf.keys()


def test_osp_half_integer_case():
    # C(p)=J_p, D(q)=J_q with m even and 1 not in C(p)
    sp = SuperPartition((3, 3), (2, 2))
    gs = good_gradings_osp(sp)
    bf = brute_force_shifts(build_osp(6, 2), sp)
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
    gen_degrees = [R.degrees(z.diag()) for z in gens]
    forms = [(2 * d, tuple(gd[i] for gd in gen_degrees))
             for i, d in enumerate(R.degrees(h.diag()))]
    e_support = list(e.coordinates)
    ker_support = {j for v in e.ad_kernel[1] for j in v}
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


def _gl_row_generators(R, P):
    """One diagonal generator per row length of a gl pyramid, 1 on the
    boxes of the rows of that length: the shift generators the oracle
    scanned before the polytope, a reference that assumes equal rows
    shift together."""
    lengths = [r for r, t, f in P.rows]
    return [R.diagonal({lab: 1 for x, y, t, lab in P.boxes
                        if lengths[y - 1] == value})
            for value in sorted(set(lengths), reverse=True)]


def _osp_generators(R, sp, P):
    """The unit shifts of the C(p) and D(q) parts; the reference sums
    them, where the case table makes each shift with one shift_matrix."""
    cp, dq = cp_dq(sp)
    k, units = len(cp), range(len(cp) + len(dq))
    return [shift_matrix(R, P, u[:k], u[k:])
            for u in ([int(i == j) for j in units] for i in units)]


def _oracle_boxes(ng, bound):
    """Every even, then every odd, doubled coefficient tuple of ng
    generators with entries of size at most 2 * bound."""
    return [v for step in (0, 1) for v in itertools.product(
        range(-2 * bound + step, 2 * bound + 1 - step, 2), repeat=ng)]


def _case_candidates(sp, ng):
    """The case table's doubled candidates that pass its pair filter: the
    integer box, then the half box in the half case (m even, C(p) = J_p
    and D(q) = J_q)."""
    cp, dq = cp_dq(sp)
    half_case = sp.m % 2 == 0 and set(cp) == set(sp.p) \
        and set(dq) == set(sp.q)
    return [v for values in [(-2, 0, 2)] + [(-1, 1)] * half_case
            for v in itertools.product(values, repeat=ng)
            if classification._pair_constraint_ok(
                cp, dq, v[:len(cp)], v[len(cp):])]


def _algebra(sp, kind):
    return build_gl(sp.m, sp.n) if kind == "gl" \
        else build_osp(sp.m, sp.n // 2)


def _case_table_agrees(sp):
    """good_gradings_osp on an orbit with 1 not in C(p) against the
    per-candidate reference over the unit shifts and the case table's
    candidates: same degree maps, H diagonals and count of not good."""
    R = _algebra(sp, "osp")
    P, e, h = dynkin_pair(sp, R)
    gens = _osp_generators(R, sp, P)
    out = good_gradings_osp(sp)
    return ([(g.key(), g.H.diag()) for g in out.gradings],
            out.notes.get("rejectedByGoodness", 0)) == \
        _scan_per_candidate(R, e, h, gens, _case_candidates(sp, len(gens)))


def _oracle_agrees(sp, kind, bound=None):
    """The oracle on sp against the per-candidate reference over the
    generator boxes up to the bound, by default the largest part: the gl
    row-length generators or the osp unit shifts.  Same degree maps in
    the same order; in osp, where the degrees fix H, the same H
    diagonals."""
    bound = bound or max(sp.p + sp.q)
    R = _algebra(sp, kind)
    P, e, h = dynkin_pair(sp, R)
    gens = _gl_row_generators(R, P) if kind == "gl" \
        else _osp_generators(R, sp, P)
    expected, _ = _scan_per_candidate(R, e, h, gens,
                                      _oracle_boxes(len(gens), bound))
    found = [(g.key(), g.H.diag())
             for g in brute_force_shifts(R, sp).gradings]
    if kind == "gl":
        return [k for k, _ in found] == [k for k, _ in expected]
    return found == expected


@pytest.mark.parametrize("kind, p, q, bound", [
    ("gl", (3, 1), (4, 2), 4),
    ("osp", (3, 3), (4,), 4),
    ("osp", (3, 3, 1, 1), (2, 2), 3),
    ("osp", (3, 3), (2, 2), None),          # the half case, pair filter
])
def test_box_scan_matches_per_candidate_scan(kind, p, q, bound):
    """With a bound, the oracle against the reference over the generator
    boxes; without, the case-table classifier against it."""
    sp = SuperPartition(p, q)
    if bound is None:
        assert _case_table_agrees(sp)
    else:
        assert _oracle_agrees(sp, kind, bound)


def _gl_orbits(size):
    """Every gl orbit with m+n <= size, m or n possibly 0."""
    return [sp for m in range(size + 1) for n in range(size + 1 - m)
            if m + n for sp in enumerate_super_partitions(m, n)]


def _osp_orbits(size):
    """Every orthosymplectic orbit with m+2n <= size."""
    return [sp for m in range(1, size + 1) for n2 in range(2, size + 1 - m, 2)
            for sp in enumerate_super_partitions(m, n2)
            if is_orthosymplectic(sp)]


def test_staged_scan_matches_reference_on_gl_oracle_boxes():
    # every gl orbit with m+n <= 5: the oracle against the row-length
    # generator boxes
    for sp in _gl_orbits(5):
        assert _oracle_agrees(sp, "gl"), sp


def test_staged_scan_matches_reference_on_osp_case_boxes():
    # every osp orbit with m+2n <= 8 that the case table classifies (1 not
    # in C(p)), its boxes (the half box in the half case) and its pair
    # filter
    orbits = [sp for sp in _osp_orbits(8) if 1 not in cp_dq(sp)[0]]
    assert len(orbits) == 67
    for sp in orbits:
        assert _case_table_agrees(sp), sp


def test_staged_scan_matches_reference_on_osp_oracle_boxes():
    # the orbits with 1 in C(p), which the polytope classifies: the oracle
    # against the unit-shift boxes up to the largest part
    orbits = [sp for sp in _osp_orbits(12) if 1 in cp_dq(sp)[0]]
    assert len(orbits) == 48
    for sp in orbits:
        assert _oracle_agrees(sp, "osp"), sp


def test_oracle_equals_pyramids_on_gl_orbits():
    orbits = _gl_orbits(7)
    assert len(orbits) == 248
    for sp in orbits:
        assert brute_force_shifts(build_gl(sp.m, sp.n), sp).keys() \
            == good_gradings_gl(sp).keys(), sp


def test_oracle_on_a_large_gl_orbit():
    # ten blocks, nine of them free, and no bound given to the search
    sp = SuperPartition((6, 4, 3, 2, 1), (5, 4, 4, 2, 1))
    R = build_gl(sp.m, sp.n)
    start = time.perf_counter()
    bf = brute_force_shifts(R, sp)
    assert time.perf_counter() - start < 1
    assert len(bf) == 243
    assert bf.keys() == good_gradings_gl(sp).keys()


def test_oracle_equals_case_table_on_osp_orbits():
    orbits = [sp for sp in _osp_orbits(12) if 1 not in cp_dq(sp)[0]]
    assert len(orbits) == 482
    for sp in orbits:
        gs = good_gradings_osp(sp)
        bf = brute_force_shifts(build_osp(sp.m, sp.n // 2), sp)
        assert [(g.key(), g.H.diag()) for g in bf.gradings] == \
            [(g.key(), g.H.diag()) for g in gs.gradings], sp


def test_case_table_needs_neither_the_oracle_nor_ad_e(monkeypatch):
    """The osp classifier is independent of the oracle in code: with
    `brute_force_shifts`, `adjoint_matrix` and every element's ker(ad e)
    record, cached or not, made to raise, it still classifies every osp
    orbit with m+2n <= 12, those with 1 in C(p) included."""
    def refuse(*args):
        raise RuntimeError("the classifier reached the oracle or ad e")

    monkeypatch.setattr(classification, "brute_force_shifts", refuse)
    monkeypatch.setattr(gradings, "adjoint_matrix", refuse)
    monkeypatch.setattr(superalgebra, "adjoint_matrix", refuse)
    monkeypatch.setattr(superalgebra.AlgebraElement, "ad_kernel",
                        property(refuse))
    orbits = _osp_orbits(12)
    assert len(orbits) == 530
    assert sum(len(good_gradings_osp(sp)) for sp in orbits) == 952


def test_each_pyramid_and_each_admitted_shift_grades_once(monkeypatch):
    """The classifiers keep no map by degree map, so none may be needed:
    on every gl orbit with m+n <= 8 each pyramid gives its own degree map,
    and on every osp orbit with m+2n <= 14 each candidate that goodness
    accepts does."""
    orbits = _gl_orbits(8)
    assert len(orbits) == 433
    for sp in orbits:
        gs = good_gradings_gl(sp)
        assert len(gs.keys()) == len(gs) == len(enumerate_pyr(sp)), sp
    accepted = 0

    def counting(g, e, dim=None):
        nonlocal accepted
        good = is_good(g, e, dim)
        accepted += good
        return good

    monkeypatch.setattr(classification, "is_good", counting)
    orbits = _osp_orbits(14)
    assert len(orbits) == 1206
    for sp in orbits:
        accepted = 0
        gs = good_gradings_osp(sp)
        assert len(gs.keys()) == len(gs) == accepted, sp


def test_osp_classifier_reads_the_orbit_once(monkeypatch):
    """The orthosymplectic checks of one osp classification do not grow
    with its candidates: cp_dq is cached per orbit, so `shift_matrix`
    does not check the orbit again for each candidate."""
    calls = Counter()
    check = partitions.is_orthosymplectic

    def counting(sp):
        calls["check"] += 1
        return check(sp)

    def shifting(*args):
        calls["candidate"] += 1
        return shift_matrix(*args)

    for module in (partitions, pyramids, gradings):
        monkeypatch.setattr(module, "is_orthosymplectic", counting)
    monkeypatch.setattr(classification, "shift_matrix", shifting)
    seen = []
    for p, q in [((1,), (2,)), ((3, 3, 1, 1), (4, 4))]:
        cp_dq.cache_clear()
        calls.clear()
        good_gradings_osp(SuperPartition(p, q))
        seen.append((calls["candidate"], calls["check"]))
    assert seen == [(1, 3), (43, 3)]


def test_last_shift_bound_equals_the_oracle(monkeypatch):
    """On every osp orbit with 1 in C(p) and m+2n <= 16, the case table
    with the paper's bound on the last shift gives the oracle's degree
    maps and H diagonals.  No output key shows the candidates that the
    bound admits and goodness rejects, so their count is pinned here: the
    bound is attained on every orbit but three."""
    orbits = [sp for sp in _osp_orbits(16) if 1 in cp_dq(sp)[0]]
    assert len(orbits) == 200
    rejected = Counter()

    def recording(g, e, dim=None):
        good = is_good(g, e, dim)
        if not good:
            rejected[sp.p, sp.q] += 1
        return good

    monkeypatch.setattr(classification, "is_good", recording)
    for sp in orbits:
        gs = good_gradings_osp(sp)
        bf = brute_force_shifts(build_osp(sp.m, sp.n // 2), sp)
        assert [(g.key(), g.H.diag()) for g in bf.gradings] == \
            [(g.key(), g.H.diag()) for g in gs.gradings], sp
        assert "rejectedByGoodness" not in gs.notes
    assert rejected == {((3, 3, 1, 1), (4, 4)): 6,
                        ((3, 3, 1, 1), (2, 2)): 2,
                        ((3, 3, 1, 1), (4, 2, 2)): 2}


def test_oracle_points_are_good_by_ranks():
    # the rank form of the definition shares no code with the polytope
    for kind, orbits in [("gl", _gl_orbits(5)), ("osp", _osp_orbits(8))]:
        for sp in orbits:
            R = _algebra(sp, kind)
            _, e, _ = dynkin_pair(sp, R)
            for g in brute_force_shifts(R, sp).gradings:
                assert is_good_by_ranks(g, e), sp


def test_scan_refuses_a_generator_moving_e(monkeypatch):
    # a shift of 1 on label 1 and -1 on label -1, an osp diagonal, changes
    # the degree of e's first step; a raise, not an assert, so it holds
    # under python -O too
    monkeypatch.setattr(classification, "shift_matrix",
                        lambda R, P, s, t: R.diagonal({1: 1, -1: -1}))
    with pytest.raises(NotCentral):
        good_gradings_osp(SuperPartition((3, 3), (4,)))


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
                    gens = _gl_row_generators(R, P)
                    for H in [h] + [h + g for g in gens] \
                            + [h - g for g in gens]:
                        good = is_good(grading_from(R, H), e)
                        assert good == is_good(
                            grading_from(R, H.scale(-1)), theta_e)
                        verdicts.append(good)
    assert (verdicts.count(True), verdicts.count(False)) == (735, 168)
