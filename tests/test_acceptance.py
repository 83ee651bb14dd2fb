"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with ``pytest -s`` or in failure output) and enforces its runtime
budget.  All comparisons are exact (rational arithmetic, tolerance zero).
"""

import time
from collections import Counter

from goodgradings.classification import (brute_force_shifts,
                                         good_gradings_gl, good_gradings_osp)
from goodgradings.gradings import (block_type_dim, centralizer,
                                   complete_sl2, dim_formula_gl,
                                   dim_formula_osp, grading_from, is_good,
                                   predicted_block_types, s_centralizer)
from goodgradings.partitions import (SuperPartition, cp_dq, dual_partition,
                                     enumerate_super_partitions,
                                     is_orthosymplectic, psi_merge)
from goodgradings.pyramids import (Pyramid, dynkin_pair, dynkin_pyramid_gl,
                                   dynkin_pyramid_osp, enumerate_pyr,
                                   jordan_type, realize_osp_pyramid,
                                   realize_pyramid)
from goodgradings.roots import find_nonnegative_base
from goodgradings.superalgebra import (EVEN, ODD, build_gl, build_osp,
                                       superbracket)
from reference import (_diagram_match, basis, extensions_of_even_grading,
                       invariant_form, is_good_by_ranks, is_isotropic,
                       is_member_osp, is_richardson, marked_equivalent,
                       reflect_marked)


def _criterion(num, desc, budget, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except AssertionError:
        print("FAIL criterion %d: %s" % (num, desc))
        raise
    dt = time.perf_counter() - t0
    ok = dt < budget
    print("%s criterion %d: %s (%.2fs, budget %ds)"
          % ("PASS" if ok else "FAIL", num, desc, dt, budget))
    assert ok, "criterion %d exceeded %ds budget (%.2fs)" % (num, budget, dt)


def test_criterion_1_three_extensions():
    def run():
        sp = SuperPartition((3, 1), (4, 2))
        full = good_gradings_gl(sp)
        pp = Pyramid(((3, "+", -2), (1, "+", 0)))     # centered rows
        pq = Pyramid(((4, "-", -3), (2, "-", -1)))
        ext = extensions_of_even_grading(sp, (pp, pq), full)
        assert len(ext) == 3
        # the three expected pyramids (rows bottom-up in
        # merged order q4, p3, q2, p1; f = doubled left offset)
        expected = [
            Pyramid(((4, "-", -3), (3, "+", -3), (2, "-", -1), (1, "+", -1))),
            Pyramid(((4, "-", -3), (3, "+", -2), (2, "-", -1), (1, "+", 0))),
            Pyramid(((4, "-", -3), (3, "+", -1), (2, "-", -1), (1, "+", 1))),
        ]
        R = full.gradings[0].ambient
        want = set()
        for P in expected:
            e, h = realize_pyramid(P, R)
            want.add(grading_from(R, h).key())
        assert {g.key() for g in ext} == want
    _criterion(1, "gl(4|6) (3,1|4,2): Dynkin even grading has exactly the "
                  "3 expected extensions", 10, run)


def test_criterion_2_no_extension():
    def run():
        sp = SuperPartition((3, 1), (4, 2))
        full = good_gradings_gl(sp)
        pp = Pyramid(((3, "+", -2), (1, "+", -2)))    # p rows left-aligned
        pq = Pyramid(((4, "-", -3), (2, "-", 1)))     # q top row right-aligned
        ext = extensions_of_even_grading(sp, (pp, pq), full)
        assert len(ext) == 0
    _criterion(2, "gl(4|6) (3,1|4,2): shifted even grading has no good "
                  "extension", 10, run)


def test_criterion_3_centralizer_dimensions():
    def run():
        for m in range(0, 7):
            for n in range(0, 7 - m):
                if m + n == 0:
                    continue
                for sp in enumerate_super_partitions(m, n):
                    R = build_gl(m, n)
                    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
                    rep = centralizer(R, e)
                    assert (rep.evenDim, rep.oddDim) == dim_formula_gl(sp), sp
                    merged = tuple(r for r, t in psi_merge(sp))
                    dual = dual_partition(merged)
                    assert rep.evenDim + rep.oddDim == \
                        sum(x * x for x in dual), sp
    _criterion(3, "all orbits m+n<=6: centralizer kernel dims equal the "
                  "closed formula and the dual-partition identity", 60, run)


def test_criterion_4_oracle_equivalence_gl():
    def run():
        for m in range(0, 6):
            for n in range(0, 6 - m):
                if m + n == 0:
                    continue
                for sp in enumerate_super_partitions(m, n):
                    gs = good_gradings_gl(sp)
                    bf = brute_force_shifts(build_gl(m, n), sp)
                    assert gs.keys() == bf.keys(), sp
        sp = SuperPartition((3, 1), (4, 2))
        assert len(enumerate_pyr(sp)) == 27
        gs = good_gradings_gl(sp)
        assert len(gs) == 27
        bf = brute_force_shifts(build_gl(4, 6), sp)
        assert gs.keys() == bf.keys()
    _criterion(4, "gl classification equals brute-force oracle for all "
                  "orbits m+n<=5 and for (3,1|4,2) with 27 gradings",
               120, run)


def test_criterion_5_osp_suite():
    def run():
        for m in range(1, 10):
            for n2 in range(2, 10 - m + 1, 2):
                for sp in enumerate_super_partitions(m, n2):
                    if not is_orthosymplectic(sp):
                        continue
                    R = build_osp(m, n2 // 2)
                    P = dynkin_pyramid_osp(sp)
                    e, h = realize_osp_pyramid(P, R)
                    assert is_member_osp(R, e.matrix, EVEN), sp
                    assert jordan_type(R, e) == (sp.p, sp.q), sp
                    rep = centralizer(R, e)
                    assert (rep.evenDim, rep.oddDim) == dim_formula_osp(sp), sp
                    g = grading_from(R, h)
                    assert is_good(g, e), sp
    _criterion(5, "all orthosymplectic orbits m+2n<=9: Dynkin grading good, "
                  "nilpotent in osp with correct Jordan type, dimension "
                  "formula exact", 120, run)


def test_criterion_6_osp_shift_counts():
    def run():
        gs = good_gradings_osp(SuperPartition((3, 3), (4,)))
        assert len(gs) == 3
        bf = brute_force_shifts(build_osp(6, 2), SuperPartition((3, 3), (4,)))
        assert gs.keys() == bf.keys()
        # orbits whose shift parameters vanish admit only the Dynkin grading
        for m in range(1, 8):
            for n2 in range(2, 8 - m + 1, 2):
                for sp in enumerate_super_partitions(m, n2):
                    if not is_orthosymplectic(sp):
                        continue
                    cp, dq = cp_dq(sp)
                    if cp or dq:
                        continue
                    assert len(good_gradings_osp(sp)) == 1, sp
    _criterion(6, "osp(6|4) (3,3|4) has exactly 3 good gradings; orbits "
                  "with no shift parameters have exactly 1", 60, run)


def test_criterion_7_structural_properties():
    def run():
        # super Jacobi identity and form invariance on all basis triples
        for R in (build_gl(2, 1), build_osp(2, 2)):
            for i, x in enumerate(basis(R)):
                px = R.basis_parities[i]
                for j, y in enumerate(basis(R)):
                    py = R.basis_parities[j]
                    for z in basis(R):
                        lhs = superbracket(x, superbracket(y, z))
                        rhs = superbracket(superbracket(x, y), z)
                        tail = superbracket(y, superbracket(x, z))
                        if px * py % 2:
                            tail = tail.scale(-1)
                        assert (lhs - rhs - tail).is_zero()
                        assert invariant_form(superbracket(x, y), z) == \
                            invariant_form(x, superbracket(y, z))
        # graded pieces pair to zero unless degrees cancel; s-centralizer
        # sits in degree zero; goodness paths agree; Richardson = good on
        # even gradings
        pairs = []
        for m in range(0, 5):
            for n in range(0, 5 - m):
                if m + n == 0:
                    continue
                for sp in enumerate_super_partitions(m, n):
                    R = build_gl(m, n)
                    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
                    pairs.append((R, sp, e, h))
        for m in range(1, 6):
            for n2 in range(2, 6 - m + 1, 2):
                for sp in enumerate_super_partitions(m, n2):
                    if not is_orthosymplectic(sp):
                        continue
                    R = build_osp(m, n2 // 2)
                    e, h = realize_osp_pyramid(dynkin_pyramid_osp(sp), R)
                    pairs.append((R, sp, e, h))
        for R, sp, e, h in pairs:
            g = grading_from(R, h)
            for i, x in enumerate(basis(R)):
                for j, y in enumerate(basis(R)):
                    if g.degrees[i] + g.degrees[j] != 0:
                        assert invariant_form(x, y) == 0
            tr = complete_sl2(R, e, h)
            assert tr.verify()
            rep = s_centralizer(R, tr)
            for v in rep.vectors:
                assert all(g.degrees[k] == 0 for k in v)
            assert is_good(g, e) == is_good_by_ranks(g, e) is True
            if all(d % 2 == 0 for d in g.degrees):
                assert is_richardson(g, e) == is_good(g, e)
    _criterion(7, "structural properties: Jacobi, form invariance, graded "
                  "orthogonality, s-centralizer in degree 0, goodness "
                  "two-path agreement, Richardson criterion", 120, run)


def test_criterion_8_roots_suite():
    def run():
        bases = []
        for pq in [((2,), (1,)), ((2, 1), (2,)), ((1, 1), (1,)),
                   ((3, 1), (4, 2))]:
            sp = SuperPartition(*pq)
            R = build_gl(sp.m, sp.n)
            e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
            bases.append(find_nonnegative_base(grading_from(R, h)))
        for pq, mn in [(((3, 3), (4,)), (6, 2)), (((1, 1), (2,)), (2, 1)),
                       (((1,), (2,)), (1, 1)), (((5, 3, 1), (3, 3)), (9, 3))]:
            sp = SuperPartition(*pq)
            R = build_osp(*mn)
            e, h = realize_osp_pyramid(dynkin_pyramid_osp(sp), R)
            bases.append(find_nonnegative_base(grading_from(R, h)))
        for b in bases:
            assert all(m >= 0 for m in b.marks)
            assert set(b.marks) <= {0, 1, 2}
            assert marked_equivalent(b, b)
            for k, (alpha, mark) in enumerate(zip(b.simple, b.marks)):
                if is_isotropic(b.system, alpha):
                    assert reflect_marked(reflect_marked(b, k), k) == b
                    if mark == 0:
                        rb = reflect_marked(b, k)
                        assert marked_equivalent(b, rb)
                        assert marked_equivalent(rb, b)
        # no mark-zero isotropic simple root => singleton class: every
        # equivalent base is a direct diagram match
        for b in bases:
            if any(m == 0 and is_isotropic(b.system, a)
                   for a, m in zip(b.simple, b.marks)):
                continue
            shifted = type(b)(b.system, b.simple,
                              tuple(m + 2 for m in b.marks))
            assert not marked_equivalent(b, shifted)
            assert marked_equivalent(b, b) == _diagram_match(b, b)
    _criterion(8, "roots: odd reflections involutive, characteristics have "
                  "marks in {0,1,2}, marked equivalence reflexive/symmetric "
                  "with singleton classes absent zero-mark isotropic roots",
               60, run)


def test_criterion_9_oracle_on_large_gl_orbits():
    def run():
        for pq, count in [(((5, 4, 3, 2, 1), (4, 3, 2, 1)), 81),
                          (((3, 2, 1), (6, 5, 4)), 243)]:
            sp = SuperPartition(*pq)
            gs = good_gradings_gl(sp)
            assert len(gs) == count, sp
            bf = brute_force_shifts(build_gl(sp.m, sp.n), sp)
            assert gs.keys() == bf.keys(), sp
    _criterion(9, "gl oracle equals the pyramids on (5,4,3,2,1|4,3,2,1) "
                  "(81 gradings) and (3,2,1|6,5,4) (243)", 60, run)


def _graded_kernel(R, g, vectors):
    """Counter of ker(ad e) vectors by (degree, parity); each vector lies
    in one degree and one parity."""
    keys = [{(g.degrees[j], R.basis_parities[j]) for j in v} for v in vectors]
    assert all(len(key) == 1 for key in keys)
    return Counter(key.pop() for key in keys)


def _graded_kernel_by_count(R, g):
    """The same Counter for a good grading with e even, read off the
    degree counts d: d_j - d_(j+2) for j >= 0, by parity, and nothing in
    negative degrees (Counters compare missing keys as 0)."""
    d = Counter(zip(g.degrees, R.basis_parities))
    return Counter({(j, p): c - d[j + 2, p] for (j, p), c in d.items()
                    if j >= 0})


def test_criterion_10_exhaustive_sweeps():
    def run():
        gl = [("gl", sp) for m in range(1, 8) for n in range(1, 9 - m)
              for sp in enumerate_super_partitions(m, n)]
        osp = [("osp", sp) for m in range(1, 14) for n2 in range(2, 15 - m, 2)
               for sp in enumerate_super_partitions(m, n2)
               if is_orthosymplectic(sp)]
        assert (len(gl), len(osp)) == (301, 1206)
        for kind, sp in gl + osp:
            if kind == "gl":
                R, formula, classify = build_gl(sp.m, sp.n), \
                    dim_formula_gl(sp), good_gradings_gl
            else:
                R, formula, classify = build_osp(sp.m, sp.n // 2), \
                    dim_formula_osp(sp), good_gradings_osp
            _, e, h = dynkin_pair(sp, R)
            rep = centralizer(R, e)
            assert (rep.evenDim, rep.oddDim) == formula, sp
            g = grading_from(R, h)
            assert is_good(g, e), sp
            assert _graded_kernel(R, g, rep.vectors) == \
                _graded_kernel_by_count(R, g), sp
            srep = s_centralizer(R, complete_sl2(R, e, h))
            assert srep.evenDim + srep.oddDim == sum(
                block_type_dim(t) for t in predicted_block_types(R, sp)), sp
            found, oracle = classify(sp), brute_force_shifts(R, sp)
            assert len(found) == len(oracle) and \
                found.keys() == oracle.keys(), sp
    _criterion(10, "all 301 gl orbits with m, n >= 1 and m+n <= 8 and all "
                   "1206 osp orbits with m+2n <= 14: dimensions equal the "
                   "formulas, the Dynkin grading is good with "
                   "dim g^e_j = dim g_j - dim g_(j+2) for j >= 0 by parity, "
                   "dim g^s equals the predicted block dimension, and the "
                   "classification equals the polytope oracle", 120, run)
