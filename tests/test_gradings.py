import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from goodgradings import superalgebra
from goodgradings.gradings import (NoSolution, Sl2Triple,
                                   block_type_dim, centralizer,
                                   complete_sl2, dim_formula_gl,
                                   dim_formula_osp, grading_from, is_good,
                                   predicted_block_types, s_centralizer)
from goodgradings.linalg import kernel_basis, solve
from goodgradings.partitions import (NotOrthosymplectic,
                                     SuperPartition, dual_partition,
                                     enumerate_super_partitions,
                                     is_orthosymplectic, psi_merge)
from goodgradings.pyramids import (dynkin_pair, dynkin_pyramid_gl,
                                   dynkin_pyramid_osp,
                                   realize_osp_pyramid, realize_pyramid,
                                   shift_matrix)
from goodgradings.superalgebra import (EVEN, ODD, NonIntegralGrading,
                                       Realization, adjoint_matrix, build_gl,
                                       build_osp, superbracket)
from reference import (E, OddGrading, basis, dim_formula_osp_by_halves,
                       from_rows, invariant_form, is_good_by_ranks,
                       is_richardson, transpose)
from test_linalg import _dense_kernel


def dense(v, n):
    """The sparse vector {index: c} as a list of length n."""
    return [v.get(j, Fraction(0)) for j in range(n)]


def test_grading_from_zero():
    R = build_gl(1, 1)
    g = grading_from(R, R.from_entries({}))
    assert set(g.degrees) == {0}


def test_grading_from_gl2():
    R = build_gl(2, 0)
    g = grading_from(R, R.diagonal({1: -1, 2: 1}))
    degs = {tuple(sorted(b.matrix.entries.index(1) for _ in [0])): d
            for b, d in zip(basis(R), g.degrees)}
    # basis order E11,E12,E21,E22
    assert g.degrees == (0, -2, 2, 0)


def test_grading_non_integral():
    sp = SuperPartition((3, 3), (4,))
    R = build_osp(6, 2)
    P = dynkin_pyramid_osp(sp)
    e, h = realize_osp_pyramid(P, R)
    z = shift_matrix(R, P, [Fraction(1, 2)], [])
    with pytest.raises(NonIntegralGrading):
        grading_from(R, h + z)


def test_centralizer_zero_element():
    R = build_gl(1, 1)
    rep = centralizer(R, R.from_entries({}))
    assert (rep.evenDim, rep.oddDim) == (2, 2)


def test_centralizer_gl46():
    sp = SuperPartition((3, 1), (4, 2))
    R = build_gl(4, 6)
    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
    rep = centralizer(R, e)
    assert (rep.evenDim, rep.oddDim) == (16, 14)
    assert dim_formula_gl(sp) == (16, 14)


def test_dim_formula_gl_examples():
    assert dim_formula_gl(SuperPartition((1,), (1,))) == (2, 2)
    even, odd = dim_formula_gl(SuperPartition((3, 1), (4, 2)))
    merged = [r for r, t in psi_merge(SuperPartition((3, 1), (4, 2)))]
    dual = dual_partition(tuple(merged))
    assert even + odd == sum(x * x for x in dual)


def test_dim_formula_osp_examples():
    assert dim_formula_osp(SuperPartition((1,), (2,))) == (1, 1)
    assert dim_formula_osp(SuperPartition((5, 3, 1), (3, 3)))[1] == 14
    sp = SuperPartition((3, 3), (4,))
    R = build_osp(6, 2)
    e, h = realize_osp_pyramid(dynkin_pyramid_osp(sp), R)
    rep = centralizer(R, e)
    assert (rep.evenDim, rep.oddDim) == dim_formula_osp(sp)


def test_dim_formula_osp_matches_the_rational_halves():
    """The integer formula equals the reference read by Fraction halves on
    all 2,572 orthosymplectic orbits of osp(m|2n), m, n >= 1, m+2n <= 16."""
    orbits = [sp for m in range(1, 15) for n in range(1, (16 - m) // 2 + 1)
              for sp in enumerate_super_partitions(m, 2 * n)
              if is_orthosymplectic(sp)]
    assert len(orbits) == 2572
    for sp in orbits:
        assert dim_formula_osp(sp) == dim_formula_osp_by_halves(sp), sp


def test_dim_formula_osp_rejects_non_orthosymplectic():
    with pytest.raises(NotOrthosymplectic):
        dim_formula_osp(SuperPartition((2,), (2,)))


def test_complete_sl2_gl2():
    R = build_gl(2, 0)
    e = E(R, 1, 2)
    h = R.diagonal({1: 1, 2: -1})
    tr = complete_sl2(R, e, h)
    assert tr.f.matrix == E(R, 2, 1).matrix
    assert tr.verify()


def test_complete_sl2_zero():
    R = build_gl(1, 1)
    tr = complete_sl2(R, R.from_entries({}), R.from_entries({}))
    assert tr.f.is_zero()


def test_complete_sl2_checks_relations(monkeypatch):
    monkeypatch.setattr(Sl2Triple, "verify", lambda self: False)
    R = build_gl(2, 0)
    with pytest.raises(NoSolution, match="sl2 relations"):
        complete_sl2(R, E(R, 1, 2), R.diagonal({1: 1, 2: -1}))


@pytest.mark.parametrize("R, sp", [
    (build_osp(6, 1), SuperPartition((3, 3), (2,))),
    (build_gl(3, 2), SuperPartition((2, 1), (2,))),
], ids=["osp", "gl"])
def test_sl2_triple_refuses_each_broken_relation(R, sp):
    """Each of the three relations is checked: from a Dynkin triple
    (e, f, h), three triples that each break exactly one are refused."""
    _, e, h = dynkin_pair(sp, R)
    f = complete_sl2(R, e, h).f

    def holds(e, f, h):
        return [(superbracket(e, f) - h).is_zero(),
                (superbracket(h, e) - e.scale(2)).is_zero(),
                (superbracket(h, f) + f.scale(2)).is_zero()]

    assert holds(e, f, h) == [True, True, True]
    for broken, triple in enumerate([(e, f.scale(2), h), (e + f, f, h),
                                     (e, f + e, h)]):
        assert holds(*triple) == [k != broken for k in range(3)]
        with pytest.raises(NoSolution, match="sl2 relations"):
            Sl2Triple(*triple)


def test_complete_sl2_without_solution():
    # [0, f] = 0 never equals h
    R = build_gl(2, 0)
    with pytest.raises(NoSolution, match="does not complete"):
        complete_sl2(R, R.from_entries({}), R.diagonal({1: 1, 2: -1}))


def test_complete_sl2_gl46():
    sp = SuperPartition((3, 1), (4, 2))
    R = build_gl(4, 6)
    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
    tr = complete_sl2(R, e, h)
    assert tr.verify()


def test_s_centralizer_gl46():
    sp = SuperPartition((3, 1), (4, 2))
    R = build_gl(4, 6)
    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
    tr = complete_sl2(R, e, h)
    rep = s_centralizer(R, tr)
    assert rep.evenDim + rep.oddDim == 4
    assert sum(block_type_dim(t) for t in predicted_block_types(R, sp)) == 4


def test_s_centralizer_single_part():
    sp = SuperPartition((1,), (1,))
    R = build_gl(1, 1)
    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
    tr = complete_sl2(R, e, h)
    rep = s_centralizer(R, tr)
    assert predicted_block_types(R, sp) == [("gl", 1, 1)]
    assert rep.evenDim + rep.oddDim == 4


def test_s_centralizer_osp():
    sp = SuperPartition((3, 3), (4,))
    R = build_osp(6, 2)
    e, h = realize_osp_pyramid(dynkin_pyramid_osp(sp), R)
    tr = complete_sl2(R, e, h)
    rep = s_centralizer(R, tr)
    assert rep.evenDim + rep.oddDim == \
        sum(block_type_dim(t) for t in predicted_block_types(R, sp))


def test_is_good_examples():
    R = build_gl(1, 1)
    g = grading_from(R, R.from_entries({}))
    assert is_good(g, R.from_entries({}))
    R2 = build_gl(2, 0)
    e = E(R2, 1, 2)
    g = grading_from(R2, R2.diagonal({1: 3, 2: 1}))
    assert is_good(g, e)           # central shift of the Dynkin grading
    g = grading_from(R2, R2.diagonal({1: 4, 2: 0}))
    assert not is_good(g, e)       # e sits in degree 4, not 2


def test_is_good_pyramids():
    sp = SuperPartition((3, 1), (4, 2))
    R = build_gl(4, 6)
    from goodgradings.pyramids import enumerate_pyr
    for P in enumerate_pyr(sp)[:6]:
        e, h = realize_pyramid(P, R)
        g = grading_from(R, h)
        assert is_good(g, e)
        assert is_good_by_ranks(g, e)


def test_is_richardson():
    R = build_gl(1, 1)
    g = grading_from(R, R.from_entries({}))
    assert is_richardson(g, R.from_entries({}))
    R2 = build_gl(2, 0)
    e, h = realize_pyramid(dynkin_pyramid_gl(SuperPartition((2,), ())), R2)
    g = grading_from(R2, h)
    assert is_richardson(g, e)


def test_is_richardson_odd_grading():
    sp = SuperPartition((3, 1), (4, 2))
    R = build_gl(4, 6)
    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
    g = grading_from(R, h)
    assert any(d % 2 for d in g.degrees)
    with pytest.raises(OddGrading):
        is_richardson(g, e)


def test_centralizer_dims_match_formula_small():
    for m in range(0, 5):
        for n in range(0, 5 - m):
            if m + n == 0:
                continue
            for sp in enumerate_super_partitions(m, n):
                R = build_gl(m, n)
                e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
                rep = centralizer(R, e)
                assert (rep.evenDim, rep.oddDim) == dim_formula_gl(sp), sp


def test_gl_m_plus_n_centralizer_identity():
    # dim gl(m|n)^e = dim gl(m+n)^e for the same Jordan data
    for m in range(0, 5):
        for n in range(0, 5 - m):
            if m + n == 0:
                continue
            for sp in enumerate_super_partitions(m, n):
                even, odd = dim_formula_gl(sp)
                merged = tuple(r for r, t in psi_merge(sp))
                dual = dual_partition(merged)
                assert even + odd == sum(x * x for x in dual), sp


def test_graded_pieces_form_orthogonal():
    sp = SuperPartition((2, 1), (2,))
    R = build_gl(3, 2)
    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
    g = grading_from(R, h)
    for i, x in enumerate(basis(R)):
        for j, y in enumerate(basis(R)):
            if g.degrees[i] + g.degrees[j] != 0:
                assert invariant_form(x, y) == 0


def test_s_centralizer_in_degree_zero():
    for pq, mn in [(((2, 1), (2,)), None), (((3,), (2, 1)), None)]:
        sp = SuperPartition(*pq)
        R = build_gl(sp.m, sp.n)
        e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
        g = grading_from(R, h)
        tr = complete_sl2(R, e, h)
        rep = s_centralizer(R, tr)
        for v in rep.vectors:
            assert all(g.degrees[j] == 0 for j in v)


def _stacked_kernel(R, ads):
    """Reference: kernel of the stacked adjoint maps, parity by parity, in
    full coordinates (even vectors first)."""
    out = []
    for parity in (EVEN, ODD):
        idx = [j for j, p in enumerate(R.basis_parities) if p == parity]
        rows = [[ad[r, j] for j in idx] for ad in ads for r in range(ad.rows)]
        for vec in kernel_basis(from_rows(rows)):
            full = [Fraction(0)] * R.dim
            for t, j in enumerate(idx):
                full[j] = vec.get(t, Fraction(0))
            out.append(full)
    return out


# the Dynkin orbits of gl(m|n), m + n <= 5 with m, n >= 1, and of
# osp(m|2n), m + 2n <= 8
DYNKIN_ORBITS = [("gl", sp) for size in range(2, 6) for m in range(1, size)
                 for sp in enumerate_super_partitions(m, size - m)] \
    + [("osp", sp) for size in range(3, 9) for m in range(1, size - 1)
       if (size - m) % 2 == 0
       for sp in enumerate_super_partitions(m, size - m)
       if is_orthosymplectic(sp)]


def _algebra(kind, sp):
    return build_gl(sp.m, sp.n) if kind == "gl" else build_osp(sp.m, sp.n // 2)


def test_dynkin_orbit_count():
    assert len(DYNKIN_ORBITS) == 113


@pytest.mark.parametrize("kind, sp", [
    pytest.param(kind, sp, id="%s%s%s" % (kind, sp.p, sp.q))
    for kind, sp in DYNKIN_ORBITS])
def test_ad_kernel_matches_dense_kernel(kind, sp):
    """ker(ad e) vector for vector, in order and value, against a whole
    matrix elimination of ad e built column by column from brackets."""
    R = _algebra(kind, sp)
    _, e, _ = dynkin_pair(sp, R)
    columns = [dense(superbracket(e, b).coordinates, R.dim) for b in basis(R)]
    ad = from_rows([list(row) for row in zip(*columns)])
    assert [dense(v, R.dim) for v in e.ad_kernel[1]] == \
        _dense_kernel(ad)


@pytest.mark.parametrize("kind, sp", [
    pytest.param("gl", SuperPartition((3, 1), (4, 2)), id="gl-pq0"),
    pytest.param("osp", SuperPartition((3, 3), (4,)), id="osp-pq1"),
    pytest.param("osp", SuperPartition((3, 3, 1, 1), (2, 2)), id="osp-pq2"),
] + [pytest.param(kind, sp, id="%s%s%s" % (kind, sp.p, sp.q))
     for kind, sp in DYNKIN_ORBITS])
def test_s_centralizer_equals_stacked_kernel(kind, sp):
    # the degree-0 kernel vectors of ad e are the kernel of ad e, ad f, ad h
    R = _algebra(kind, sp)
    _, e, h = dynkin_pair(sp, R)
    triple = complete_sl2(R, e, h)
    rep = s_centralizer(R, triple)
    ref = _stacked_kernel(R, [adjoint_matrix(triple.e),
                              adjoint_matrix(triple.f),
                              adjoint_matrix(triple.h)])
    assert [dense(v, R.dim) for v in rep.vectors] == ref
    assert rep.evenDim + rep.oddDim == len(ref)


def test_s_centralizer_checks_relations():
    # g^s is read off ker(ad e) through the sl2 relations, so a triple
    # that breaks them is refused when it is made (by a raise, not an
    # assert), before s_centralizer can see it
    sp = SuperPartition((3, 1), (2,))
    R = build_gl(4, 2)
    _, e, h = dynkin_pair(sp, R)
    triple = complete_sl2(R, e, h)
    with pytest.raises(NoSolution, match="sl2 relations"):
        Sl2Triple(triple.e, triple.f.scale(2), triple.h)
    with pytest.raises(NoSolution, match="sl2 relations"):
        Sl2Triple(triple.e, triple.f, triple.h.scale(2))


def test_s_centralizer_needs_even_e():
    # osp(1|2): e = 2 b0 and f = 2 b1, for b0, b1 its two odd basis
    # elements, make an sl2-triple with h = [e, f] = diag(0, 2, -2) and e
    # odd, which the triple accepts and s_centralizer refuses
    R = build_osp(1, 1)
    b0, b1 = (b for b, p in zip(basis(R), R.basis_parities) if p == ODD)
    e, f = b0.scale(2), b1.scale(2)
    h = superbracket(e, f)
    assert h.diag() == [0, 2, -2] and e.parity() == ODD
    triple = Sl2Triple(e, f, h)
    with pytest.raises(NoSolution, match="even sl2-triple"):
        s_centralizer(R, triple)


def test_one_ad_kernel_record_per_element(monkeypatch):
    built = []

    def counting(x):
        built.append(x)
        return adjoint_matrix(x)

    monkeypatch.setattr(superalgebra, "adjoint_matrix", counting)
    sp = SuperPartition((3, 3), (4,))
    R = build_osp(6, 2)
    _, e, h = dynkin_pair(sp, R)
    centralizer(R, e)
    assert is_good(grading_from(R, h), e)
    s_centralizer(R, complete_sl2(R, e, h))
    assert len(built) == 1 and built[0] is e
    # the record lives on the element: an element with e's entries makes
    # its own, with the same vectors
    twin = R.from_entries(dict(e.entries))
    assert centralizer(R, twin).vectors == centralizer(R, e).vectors
    assert len(built) == 2 and built[1] is twin
    assert twin.ad_kernel is not e.ad_kernel


def test_one_coordinate_and_degree_record_per_element(monkeypatch):
    """Over the realization, the centralizers, the grading, goodness and
    the sl2 completion of one Dynkin pair, e's and h's coordinates are
    read off the realization once each, and h's degree table once."""
    reads, tables = [], []
    coords, degrees = Realization.coords, Realization.degrees
    monkeypatch.setattr(Realization, "coords",
                        lambda R, x: reads.append(x) or coords(R, x))
    monkeypatch.setattr(Realization, "degrees",
                        lambda R, diag: tables.append(diag) or
                        degrees(R, diag))
    for R, sp in [(build_osp(6, 2), SuperPartition((3, 3), (4,))),
                  (build_gl(3, 2), SuperPartition((2, 1), (2,)))]:
        reads.clear()
        tables.clear()
        _, e, h = dynkin_pair(sp, R)
        centralizer(R, e)
        assert is_good(grading_from(R, h), e)
        s_centralizer(R, complete_sl2(R, e, h))
        assert [sum(x is y.entries for x in reads) for y in (e, h)] == [1, 1]
        assert tables == [h.diag()]


def test_ad_kernel_records_of_e_and_its_transpose_differ():
    """Each element has its own record: after e's record is made,
    theta(e) = -e^T (the same index pairs, transposed) gets its own, whose
    vectors it kills.  The
    two centralizers have the same dimension, so no count tells them
    apart."""
    for size in range(2, 5):
        for m in range(size + 1):
            R = build_gl(m, size - m)
            for sp in enumerate_super_partitions(m, size - m):
                e, _ = realize_pyramid(dynkin_pyramid_gl(sp), R)
                theta_e = R.from_entries({(b, a): -c for (a, b), c
                                          in e.entries.items()})
                centralizer(R, e)
                for v in centralizer(R, theta_e).vectors:
                    assert superbracket(theta_e, R.from_coords(v)).is_zero()


def test_centralizer_needs_homogeneous_e():
    R = build_gl(1, 1)
    with pytest.raises(ValueError, match="mixed"):
        centralizer(R, E(R, 1, 1) + E(R, 1, 2))


KERNEL_ALGEBRAS = {"gl(2|1)": (build_gl, 2, 1), "gl(2|2)": (build_gl, 2, 2),
                   "osp(3|2)": (build_osp, 3, 1)}


@functools.cache
def _gradings_with_degree_2(name, parity):
    """The algebra, and its gradings by integer Cartan elements with
    coefficients in [-2, 2] whose degree 2 holds even basis elements,
    odd ones or, for "mixed", both; each with those basis elements."""
    build, m, n = KERNEL_ALGEBRAS[name]
    R = build(m, n)
    wanted = {"even": {EVEN}, "odd": {ODD}, "mixed": {EVEN, ODD}}[parity]
    cartan = [i for i, sup in enumerate(R.supports)
              if all(a == b for a, b in sup)]
    out = []
    for coefs in itertools.product(range(-2, 3), repeat=len(cartan)):
        g = grading_from(R, R.from_coords(dict(zip(cartan, coefs))))
        pool = [j for j, d in enumerate(g.degrees)
                if d == 2 and R.basis_parities[j] in wanted]
        if {R.basis_parities[j] for j in pool} == wanted:
            out.append((g, pool))
    return R, out


@pytest.mark.parametrize("parity", ["even", "odd", "mixed"])
@pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
@given(data=st.data())
def test_kernel_criterion_equals_rank_definition(name, parity, data):
    # for every e in g(2), homogeneous or not, ker(ad e) in degrees >= 0
    # is goodness as defined by the ranks of ad e between the degrees
    R, candidates = _gradings_with_degree_2(name, parity)
    g, pool = data.draw(st.sampled_from(candidates))
    coefs = data.draw(st.lists(st.integers(-2, 2), min_size=len(pool),
                               max_size=len(pool)))
    e = R.from_coords(dict(zip(pool, coefs)))
    assume(e.parity() is None if parity == "mixed" else not e.is_zero())
    assert is_good(g, e) == is_good_by_ranks(g, e)


@pytest.mark.parametrize("kind, pq", [
    ("gl", ((3, 1), (4, 2))),
    ("gl", ((2, 2), (1,))),
    ("osp", ((3, 3), (4,))),
    ("osp", ((3, 3, 1, 1), (2, 2))),
])
def test_complete_sl2_matches_dense_solve(kind, pq):
    # reference: [e, f] = h solved over matrix entries with the dense basis
    sp = SuperPartition(*pq)
    R = build_gl(sp.m, sp.n) if kind == "gl" else build_osp(sp.m, sp.n // 2)
    _, e, h = dynkin_pair(sp, R)
    degrees = R.degrees(h.diag())
    cand = [j for j, p in enumerate(R.basis_parities)
            if p == EVEN and degrees[j] == -2]
    cols = [superbracket(e, basis(R)[j]).matrix.entries for j in cand]
    x = dense(solve(transpose(from_rows(cols)), h.matrix.entries),
              len(cand))
    assert dense(complete_sl2(R, e, h).f.coordinates, R.dim) == \
        [x[cand.index(j)] if j in cand else 0 for j in range(R.dim)]


def test_complete_sl2_needs_h_in_algebra():
    # h + 1 has the degrees of h but is not in osp
    sp = SuperPartition((3, 3), (4,))
    R = build_osp(6, 2)
    _, e, h = dynkin_pair(sp, R)
    shifted = R.diagonal({lab: x + 1 for lab, x in zip(R.labels, h.diag())})
    with pytest.raises(NoSolution):
        complete_sl2(R, e, shifted)


def test_complete_sl2_refuses_a_non_integral_h():
    R = build_gl(2, 0)
    h = R.diagonal({1: Fraction(1, 4), 2: Fraction(-1, 4)})
    with pytest.raises(NonIntegralGrading, match="non-integer degree 1/2"):
        complete_sl2(R, E(R, 1, 2), h)


def test_complete_sl2_refuses_a_non_skew_h():
    # h + E_11 leaves osp and its ad-action has non-eigenvector basis
    # elements; the membership check comes before the degree table
    sp = SuperPartition((3, 3), (4,))
    R = build_osp(6, 2)
    _, e, h = dynkin_pair(sp, R)
    with pytest.raises(NoSolution, match="not in the algebra"):
        complete_sl2(R, e, h + R.diagonal({1: 1}))


def _block_shifts(R, e, values):
    """Diagonal shifts constant on each Jordan block of e (a component of
    its support, so e keeps its degree), one per choice of values on the
    free blocks: in gl every block but the first (the identity grades
    nothing), in osp one block of each mirror pair, its mirror taking the
    negative and a self-mirror block 0."""
    block = list(range(R.size))
    for a, b in e.entries:
        old, new = max(block[a], block[b]), min(block[a], block[b])
        block = [new if x == old else x for x in block]
    roots = sorted(set(block))
    mirror = {r: block[R.index(-R.labels[r])] if R.kind == "osp" else None
              for r in roots}
    free = roots[1:] if R.kind == "gl" \
        else [r for r in roots if r < mirror[r]]
    for chosen in itertools.product(values, repeat=len(free)):
        value = dict(zip(free, chosen))
        if R.kind == "osp":
            value.update({mirror[r]: -v for r, v in zip(free, chosen)})
        yield [value.get(b, 0) for b in block]


def test_counting_with_the_formula_equals_rank_definition():
    """is_good with dim g^e given by the closed-form formula decides as
    the rank definition does, on every integral block-constant shift in
    {-1, -1/2, 0, 1/2, 1} of the Dynkin gradings of gl m+n <= 5 and osp
    m+2n <= 8."""
    orbits = [("gl", sp) for size in range(1, 6) for m in range(size + 1)
              for sp in enumerate_super_partitions(m, size - m)] \
        + [("osp", sp) for m in range(1, 8) for n2 in range(2, 9 - m, 2)
           for sp in enumerate_super_partitions(m, n2)
           if is_orthosymplectic(sp)]
    assert len(orbits) == 149
    verdicts = []
    for kind, sp in orbits:
        R = build_gl(sp.m, sp.n) if kind == "gl" \
            else build_osp(sp.m, sp.n // 2)
        _, e, h = dynkin_pair(sp, R)
        dim = sum(dim_formula_gl(sp) if kind == "gl"
                  else dim_formula_osp(sp))
        hd, values = h.diag(), [Fraction(v, 2) for v in range(-2, 3)]
        for z in _block_shifts(R, e, values):
            try:
                g = grading_from(R, R.from_entries(
                    {(i, i): d + c for i, (d, c) in enumerate(zip(hd, z))}))
            except NonIntegralGrading:
                continue
            verdicts.append(is_good(g, e, dim))
            assert verdicts[-1] == is_good_by_ranks(g, e), (kind, sp, z)
    assert (len(verdicts), verdicts.count(True)) == (2111, 275)
