from fractions import Fraction

import pytest

from goodgradings import roots
from goodgradings.classification import good_gradings_gl, good_gradings_osp
from goodgradings.gradings import grading_from
from goodgradings.partitions import (SuperPartition,
                                     enumerate_super_partitions,
                                     is_orthosymplectic)
from goodgradings.pyramids import (dynkin_pair, dynkin_pyramid_gl,
                                   dynkin_pyramid_osp, realize_osp_pyramid,
                                   realize_pyramid)
from goodgradings.roots import (MarkedBase, RootSystemError,
                                find_nonnegative_base, root_system)
from goodgradings.superalgebra import (EVEN, ODD, build_gl, build_osp,
                                       superbracket)
import reference
from reference import (find, is_isotropic, marked_equivalent, negated,
                       pairwise_base, reflect_marked)


def test_root_counts_gl():
    assert len(root_system(build_gl(1, 1))[0].roots) == 2
    sys = root_system(build_gl(2, 1))[0]
    assert len(sys.roots) == 6
    assert sum(1 for r in sys.roots if r.parity == EVEN) == 2
    assert sum(1 for r in sys.roots if r.parity == ODD) == 4


def test_root_counts_osp():
    sys = root_system(build_osp(3, 1))[0]      # so(3) x sp(2) plus odd part
    assert len(sys.roots) == 10
    assert sum(1 for r in sys.roots if r.parity == ODD) == 6
    sys = root_system(build_osp(4, 1))[0]
    assert len(sys.roots) == 14
    assert sum(1 for r in sys.roots if r.parity == ODD) == 8


def test_isotropy():
    sys = root_system(build_gl(2, 1))[0]
    assert is_isotropic(sys, find(sys, (1, 0, -1)))
    assert not is_isotropic(sys, find(sys, (1, -1, 0)))
    sys = root_system(build_osp(3, 1))[0]
    assert is_isotropic(sys, find(sys, (1, -1)))
    assert not is_isotropic(sys, find(sys, (0, 1)))   # odd non-isotropic delta


def test_reflect_isotropic_marks():
    sys = root_system(build_gl(2, 1))[0]
    a1 = find(sys, (1, -1, 0))
    a2 = find(sys, (0, 1, -1))
    b = MarkedBase(sys, (a1, a2), (0, 1))
    rb = reflect_marked(b, 1)
    assert rb.simple == (find(sys, (1, 0, -1)), find(sys, (0, -1, 1)))
    assert rb.marks == (1, -1)
    # orthogonal simple roots are untouched; marks (a, b) -> (a+b, -b)
    b = MarkedBase(sys, (a1, a2), (2, 3))
    rb = reflect_marked(b, 1)
    assert rb.marks == (5, -3)


def test_reflect_even_weyl():
    sys = root_system(build_gl(2, 1))[0]
    a1 = find(sys, (1, -1, 0))
    a2 = find(sys, (0, 1, -1))
    b = MarkedBase(sys, (a1, a2), (1, 0))
    rb = reflect_marked(b, 0)
    assert rb.simple == (find(sys, (-1, 1, 0)), find(sys, (1, 0, -1)))
    assert rb.marks == (-1, 1)


def _sample_bases():
    out = []
    for pq in [((2,), (1,)), ((2, 1), (2,)), ((1, 1), (1,))]:
        sp = SuperPartition(*pq)
        R = build_gl(sp.m, sp.n)
        e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
        out.append(find_nonnegative_base(grading_from(R, h)))
    for pq, mn in [(((3, 3), (4,)), (6, 2)), (((1, 1), (2,)), (2, 1)),
                   (((1,), (2,)), (1, 1))]:
        sp = SuperPartition(*pq)
        R = build_osp(*mn)
        e, h = realize_osp_pyramid(dynkin_pyramid_osp(sp), R)
        out.append(find_nonnegative_base(grading_from(R, h)))
    return out


def test_double_reflection_is_identity():
    for b in _sample_bases():
        for k in range(len(b.simple)):
            alpha = b.simple[k]
            if not is_isotropic(b.system, alpha) and alpha.parity == ODD:
                continue   # non-isotropic odd roots reflect via 2*alpha
            assert reflect_marked(reflect_marked(b, k), k) == b


def test_nonnegative_base_marks():
    for b in _sample_bases():
        assert all(m >= 0 for m in b.marks)
        assert set(b.marks) <= {0, 1, 2}


def test_nonnegative_base_seed_independent():
    """The package's base (functional seed 3) and the reflection
    reference's with seed 5 are one marked base up to odd reflections."""
    sp = SuperPartition((2, 1), (2,))
    R = build_gl(3, 2)
    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
    g = grading_from(R, h)
    b1 = find_nonnegative_base(g)
    b2 = _base_by_reflections(g, seed=5)
    assert marked_equivalent(b1, b2)


def test_nonnegative_base_refuses_a_vanishing_functional(monkeypatch):
    # seed 1 gives every coordinate weight 1, which vanishes on eps_1 - eps_2
    monkeypatch.setattr(roots, "SEED", 1)
    with pytest.raises(RootSystemError, match="functional vanishes"):
        roots.root_system.__wrapped__(build_gl(3, 2))


def test_marked_equivalent_reflexive_symmetric():
    for b in _sample_bases():
        assert marked_equivalent(b, b)
    sp = SuperPartition((2,), (1,))
    R = build_gl(2, 1)
    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
    g = grading_from(R, h)
    b1 = find_nonnegative_base(g)
    b2 = _base_by_reflections(g, seed=7)
    assert marked_equivalent(b1, b2) == marked_equivalent(b2, b1)


def test_marked_equivalent_after_reflection():
    # reflecting at a mark-zero isotropic root keeps the class
    for b in _sample_bases():
        for k, (alpha, mark) in enumerate(zip(b.simple, b.marks)):
            if mark == 0 and is_isotropic(b.system, alpha):
                assert marked_equivalent(b, reflect_marked(b, k))


def test_singleton_class_without_zero_isotropic():
    # principal orbit of gl(2|1): no mark-zero isotropic simple root,
    # so the class is the diagram itself
    sp = SuperPartition((2,), (1,))
    R = build_gl(2, 1)
    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
    b = find_nonnegative_base(grading_from(R, h))
    assert not any(m == 0 and is_isotropic(b.system, a)
                   for a, m in zip(b.simple, b.marks))
    # a base with different marks is then inequivalent
    other = MarkedBase(b.system, b.simple,
                       tuple(m + 2 for m in b.marks))
    assert not marked_equivalent(b, other)


def test_distinct_mark_multisets_not_equivalent():
    # the Dynkin grading and a central shift with different mark multiset
    from goodgradings.classification import good_gradings_gl
    gs = good_gradings_gl(SuperPartition((2,), (1,)))
    bases = [find_nonnegative_base(g) for g in gs.gradings]
    by_marks = {}
    for b in bases:
        by_marks.setdefault(tuple(sorted(b.marks)), []).append(b)
    assert len(by_marks) >= 2
    (k1, g1), (k2, g2) = sorted(by_marks.items())[:2]
    assert not marked_equivalent(g1[0], g2[0])
    # the two unit shifts are mirror images: equivalent characteristics
    if len(g1) == 2:
        assert marked_equivalent(g1[0], g1[1])


def test_reflect_checks_reflected_root(monkeypatch):
    sys = root_system(build_gl(2, 1))[0]
    b = MarkedBase(sys, (find(sys, (1, -1, 0)), find(sys, (0, 1, -1))),
                   (0, 1))
    monkeypatch.setattr(reference, "find", lambda sys, coeffs: None)
    with pytest.raises(RootSystemError):
        reflect_marked(b, 1)
    with pytest.raises(RootSystemError):
        reflect_marked(b, 0)


def degree_functional(grading):
    """Reference: values of the grading on (eps_1..eps_k, delta_1..delta_n),
    read off the diagonal of H."""
    R = grading.ambient
    diag = grading.H.diag()
    if R.kind == "gl":
        return diag
    # osp: the labels 1..k of V0, then k+1..k+n of V1
    return [diag[R.index(i)] for i in range(1, R.m // 2 + R.odd_dim // 2 + 1)]


def _deg(vals, root):
    """Reference: the integer degree of root under the functional vals."""
    d, r = divmod(sum(v * c for v, c in zip(vals, root.coeffs)), 1)
    if r:
        raise RootSystemError("root %s has non-integral degree"
                              % (root.coeffs,))
    return d


def _base_by_reflections(grading, seed=3):
    """Reference: start from the generic positive system and reflect away
    the lowest negative-degree simple root until none is left."""
    R = grading.ambient
    sys = root_system(R)[0]
    vals = degree_functional(grading)
    n = sys.eps_count + sys.delta_count
    functional = [Fraction(seed) ** (n - l) for l in range(n)]
    pos = [r for r in sys.roots
           if sum(f * c for f, c in zip(functional, r.coeffs)) > 0]
    while True:
        simple = pairwise_base(sys, pos)
        neg = [a for a in simple if _deg(vals, a) < 0]
        if not neg:
            return MarkedBase(sys, tuple(simple),
                              tuple(_deg(vals, a) for a in simple))
        alpha = neg[0]
        remove = {alpha.coeffs}
        add = [negated(alpha)]
        double = find(sys, tuple(2 * c for c in alpha.coeffs))
        if alpha.parity == ODD and not is_isotropic(sys, alpha) and double:
            remove.add(double.coeffs)
            add.append(negated(double))
        pos = [r for r in pos if r.coeffs not in remove] + add


def _osp_dynkin_gradings(limit):
    for m in range(1, limit):
        for n2 in range(2, limit - m + 1, 2):
            R = build_osp(m, n2 // 2)
            for sp in enumerate_super_partitions(m, n2):
                if is_orthosymplectic(sp):
                    _, e, h = dynkin_pair(sp, R)
                    yield grading_from(R, h)


def test_one_pass_base_matches_reflections():
    gs = good_gradings_gl(SuperPartition((3, 1), (4, 2)))
    gradings = list(gs.gradings) + list(_osp_dynkin_gradings(7))
    assert len(gs.gradings) == 27
    for g in gradings:
        b = find_nonnegative_base(g)
        ref = _base_by_reflections(g)
        assert (b.simple, b.marks) == (ref.simple, ref.marks)


def _tuple_base_of(pos):
    """Reference: simple roots found by comparing coefficient tuples."""
    coeff_set = {r.coeffs for r in pos}
    simple = []
    for r in pos:
        diffs = (tuple(a - b for a, b in zip(r.coeffs, s.coeffs))
                 for s in pos)
        if not any(any(d) and d in coeff_set for d in diffs):
            simple.append(r)
    return sorted(simple, key=lambda r: r.coeffs)


def _gl_dynkin_gradings(limit):
    for size in range(1, limit + 1):
        for m in range(size + 1):
            R = build_gl(m, size - m)
            for sp in enumerate_super_partitions(m, size - m):
                _, e, h = dynkin_pair(sp, R)
                yield grading_from(R, h)


def test_packed_base_matches_tuple_base():
    """The packed pairwise reference on the generic positive system and on
    the nonnegative one of every grading (the latter read with Fraction
    arithmetic here), and find_nonnegative_base on the latter."""
    gs = good_gradings_gl(SuperPartition((3, 1), (4, 2)))
    gradings = list(gs.gradings) + list(_gl_dynkin_gradings(5)) \
        + list(_osp_dynkin_gradings(7))
    assert len(gradings) == 27 + 73 + 46
    for g in gradings:
        R = g.ambient
        sys = root_system(R)[0]
        vals = degree_functional(g)
        n = len(vals)
        functional = [Fraction(3) ** (n - l) for l in range(n)]
        generic = [r for r in sys.roots
                   if sum(f * c for f, c in zip(functional, r.coeffs)) > 0]
        nonneg = [r for r in sys.roots if (
            sum(v * c for v, c in zip(vals, r.coeffs)),
            sum(f * c for f, c in zip(functional, r.coeffs))) > (0, 0)]
        for pos in (generic, nonneg):
            assert pairwise_base(sys, pos) == _tuple_base_of(pos)
        assert find_nonnegative_base(g).simple == tuple(_tuple_base_of(nonneg))


def _good_gradings(gl_limit, osp_limit):
    """Every good grading of the gl orbits with m+n <= gl_limit and of the
    osp orbits with m+2n <= osp_limit."""
    for size in range(1, gl_limit + 1):
        for m in range(size + 1):
            for sp in enumerate_super_partitions(m, size - m):
                yield from good_gradings_gl(sp).gradings
    for m in range(1, osp_limit - 1):
        for n2 in range(2, osp_limit - m + 1, 2):
            for sp in enumerate_super_partitions(m, n2):
                if is_orthosymplectic(sp):
                    yield from good_gradings_osp(sp).gradings


def test_simple_roots_by_one_subtraction_match_pairwise():
    """find_nonnegative_base keeps a root when no simple root found before
    it, in key order, differs from it by a positive root; the reference
    compares every pair of positive roots, in no order."""
    count = 0
    for g in _good_gradings(7, 12):
        sys, index, _, _ = root_system(g.ambient)
        n = sys.eps_count + sys.delta_count
        mark = {}
        for r, j in zip(sys.roots, index):
            generic = sum(3 ** (n - l) * c for l, c in enumerate(r.coeffs))
            if (g.degrees[j], generic) > (0, 0):
                mark[r] = g.degrees[j]
        simple = pairwise_base(sys, list(mark))
        b = find_nonnegative_base(g)
        assert b.simple == tuple(simple)
        assert b.marks == tuple(mark[r] for r in simple)
        count += 1
    assert count == 2054


def _small_realizations():
    """gl(m|n) with m+n <= 7 and osp(m|2n) with m+2n <= 12."""
    for size in range(1, 8):
        for m in range(size + 1):
            yield build_gl(m, size - m)
    for m in range(1, 11):
        for n in range(1, (12 - m) // 2 + 1):
            yield build_osp(m, n)


def test_root_system_matches_brackets():
    """Each root is the eigenvalue of its basis element under a generic
    Cartan element t, found by brackets and not by the degree table."""
    count = 0
    for R in _small_realizations():
        sys, index, _, _ = root_system(R)
        n = sys.eps_count + sys.delta_count
        weight = [5 ** i for i in range(n)]
        t = R.diagonal({lab: (1 if lab > 0 else -1) * weight[abs(lab) - 1]
                        for lab in R.labels if lab})
        for r, j in zip(sys.roots, index):
            x = R.from_entries(R.supports[j])
            value = sum(c * w for c, w in zip(r.coeffs, weight))
            assert (superbracket(t, x) - x.scale(value)).is_zero()
            assert r.parity == R.basis_parities[j]
        diagonal = sum(1 for sup in R.supports
                       if all(a == b for a, b in sup))
        assert len({r.coeffs for r in sys.roots}) == len(sys.roots)
        assert len(sys.roots) == R.dim - diagonal
        count += 1
    assert count == 35 + 30


def test_marks_ignore_a_central_shift():
    """H and H + 1 have the same ad-degrees, so the same marked base."""
    R = build_osp(2, 1)
    _, e, h = dynkin_pair(SuperPartition((1, 1), (2,)), R)
    shifted = R.from_entries({(i, i): v + 1 for i, v in enumerate(h.diag())})
    b = find_nonnegative_base(grading_from(R, h))
    assert find_nonnegative_base(grading_from(R, shifted)) == b
    assert b.marks == (1, 1)


def _uncached_root_system(R):
    """Reference: each off-Cartan basis element's root read from the label
    weights at every entry of its support, which must agree."""
    k = R.m if R.kind == "gl" else R.m // 2
    width = k + (R.odd_dim if R.kind == "gl" else R.odd_dim // 2)

    def weight(a):
        lab = R.labels[a]
        return [(lab > 0) - (lab < 0) if abs(lab) == i + 1 else 0
                for i in range(width)]

    out = []
    for j, sup in enumerate(R.supports):
        roots = {tuple(x - y for x, y in zip(weight(a), weight(b)))
                 for a, b in sup}
        assert len(roots) == 1
        coeffs = roots.pop()
        if any(coeffs):
            out.append((coeffs, R.basis_parities[j], j))
    return out


def test_cached_root_system_matches_uncached_reading():
    """Every gl(m|n) with m+n <= 6 and osp(m|2n) with m+2n <= 10: the
    cached root system is the one its supports give, each root's generic
    value is its value under 3^n, ..., 3^1, no two roots share a code, and
    two builds of one algebra read the same one."""
    algebras = [(build_gl, m, size - m) for size in range(1, 7)
                for m in range(size + 1)] \
        + [(build_osp, m, n) for m in range(1, 9)
           for n in range(1, (10 - m) // 2 + 1)]
    assert len(algebras) == 27 + 20
    for build, m, n in algebras:
        R = build(m, n)
        sys, index, generic, codes = root_system(R)
        assert [(r.coeffs, r.parity, j) for r, j in
                zip(sys.roots, index)] == _uncached_root_system(R)
        width = sys.eps_count + sys.delta_count
        assert list(generic) == [sum(3 ** (width - l) * c for l, c in
                                     enumerate(r.coeffs)) for r in sys.roots]
        assert len(set(codes)) == len(codes)
        assert root_system(build(m, n))[0] is sys
