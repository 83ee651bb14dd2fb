from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodgradings import classification, cli, superalgebra
from goodgradings.gradings import (centralizer, complete_sl2, grading_from,
                                   is_good)
from goodgradings.linalg import Matrix, kernel_basis, rank, solve
from goodgradings.partitions import (SuperPartition,
                                     enumerate_super_partitions,
                                     is_orthosymplectic)
from goodgradings.pyramids import dynkin_pair, jordan_type
from goodgradings.roots import find_nonnegative_base
from goodgradings.superalgebra import (EVEN, ODD, AmbientMismatch,
                                       NonIntegralGrading, Realization,
                                       RealizationError, adjoint_matrix,
                                       build_gl, build_osp, superbracket)
from reference import (E, basis, dense_ad, from_rows, identity,
                       invariant_form, is_member_osp, supertrace)
from test_linalg import canonical

def test_build_gl_counts():
    R = build_gl(1, 1)
    assert R.dim == 4
    assert R.basis_parities.count(EVEN) == 2
    assert R.basis_parities.count(ODD) == 2
    assert build_gl(2, 1).dim == 9


def test_gl_parity():
    R = build_gl(2, 1)
    # E_{1,3} mixes the blocks
    assert E(R, 1, 3).parity() == ODD
    assert E(R, 1, 2).parity() == EVEN


def test_build_osp_dims():
    R = build_osp(1, 1)
    assert R.basis_parities.count(EVEN) == 3     # sp(2)
    assert R.basis_parities.count(ODD) == 2
    R = build_osp(2, 1)
    assert R.basis_parities.count(EVEN) == 4     # so(2) x sp(2)
    assert R.basis_parities.count(ODD) == 4


def test_osp_dim_formula():
    for m, n in [(1, 1), (2, 1), (3, 1), (2, 2), (4, 1), (3, 2)]:
        R = build_osp(m, n)
        assert R.dim == m * (m - 1) // 2 + n * (2 * n + 1) + 2 * m * n


def test_osp_membership_of_basis():
    R = build_osp(3, 1)
    for b, p in zip(basis(R), R.basis_parities):
        assert is_member_osp(R, b.matrix, p)


def test_is_member_osp_examples():
    R = build_osp(2, 2)
    assert is_member_osp(R, Matrix(R.size, R.size, {}), EVEN)
    assert not is_member_osp(R, identity(R.size), EVEN)


def test_superbracket_examples():
    R = build_gl(2, 0)
    b = superbracket(E(R, 1, 2), E(R, 2, 1))
    assert b.matrix == (E(R, 1, 1) - E(R, 2, 2)).matrix
    R = build_gl(2, 1)
    # both odd: anticommutator
    b = superbracket(E(R, 1, 3), E(R, 3, 1))
    assert b.matrix == (E(R, 1, 1) + E(R, 3, 3)).matrix
    x = E(R, 1, 2) + E(R, 2, 1)
    assert superbracket(x, x).is_zero()


def test_superbracket_matches_matrix_products():
    # the matrix-level definition is the reference for the entrywise rule
    for R in (build_gl(2, 1), build_osp(2, 1)):
        for x, px in zip(basis(R), R.basis_parities):
            for y, py in zip(basis(R), R.basis_parities):
                xy = (x.matrix @ y.matrix).entries
                yx = (y.matrix @ x.matrix).entries
                expected = [a + b if px and py else a - b
                            for a, b in zip(xy, yx)]
                assert superbracket(x, y).matrix.entries == expected


def test_build_osp_checks_odd_dimension(monkeypatch):
    # the builder body, past the cache that holds osp(2|2) once built
    monkeypatch.setattr(superalgebra, "_osp_odd_basis",
                        lambda m, labels, phi: [])
    with pytest.raises(RealizationError, match="odd part"):
        build_osp.__wrapped__(2, 1)


def dense(v, n):
    """The sparse vector {index: c} as a list of length n."""
    return [v.get(j, Fraction(0)) for j in range(n)]


def _dense_osp_odd_basis(R):
    """The odd membership equations read densely off phi, one row per
    (b, c) that any term reaches: the reference for the two-term rows."""
    s = R.size
    positions = [(a, b) for a in range(s) for b in range(s)
                 if (a < R.m) != (b < R.m)]
    pos_index = {ab: t for t, ab in enumerate(positions)}
    G = R.phi
    rows = []
    for b in range(s):
        sign = Fraction(-1 if b >= R.m else 1)
        for c in range(s):
            row = [Fraction(0)] * len(positions)
            hit = False
            for a in range(s):
                # phi(z v_b, v_c): coefficient of z[a,b]
                if G[a, c] and (a, b) in pos_index:
                    row[pos_index[(a, b)]] += G[a, c]
                    hit = True
                # +(-1)^{|b|} phi(v_b, z v_c): coefficient of z[a,c]
                if G[b, a] and (a, c) in pos_index:
                    row[pos_index[(a, c)]] += sign * G[b, a]
                    hit = True
            if hit:
                rows.append(row)
    return [{positions[t]: v
             for t, v in enumerate(dense(vec, len(positions))) if v}
            for vec in kernel_basis(from_rows(rows))]


OSP_UP_TO_14 = [(m, n) for m in range(1, 13) for n in range(1, 7)
                if m + 2 * n <= 14]


@pytest.mark.parametrize("m,n", OSP_UP_TO_14,
                         ids=["osp%d_%d" % (m, 2 * n) for m, n in OSP_UP_TO_14])
def test_odd_basis_matches_dense_equations(m, n):
    """Same supports, values and order as the dense system; each odd
    element is E_ab + c E_{pi(b), pi(a)}, pi the index of the negated
    label (the closed form)."""
    R = build_osp(m, n)
    odd = superalgebra._osp_odd_basis(R.m, R.labels, R.phi)
    assert odd == _dense_osp_odd_basis(R)
    assert odd == R.supports[R.dim - 2 * m * n:]
    pi = [R.index(-lab) for lab in R.labels]
    for sup in odd:
        assert len(sup) == 2
        (a, b), (c, d) = sup
        assert (c, d) == (pi[b], pi[a])


def test_ambient_mismatch():
    R1, R2 = build_gl(1, 1), build_gl(2, 0)
    with pytest.raises(AmbientMismatch):
        superbracket(E(R1, 1, 1), E(R2, 1, 1))


def test_each_algebra_is_built_once():
    """A build hands out the algebra's one realization, whose tables and
    basis elements every caller shares; a ker(ad e) record lands on its
    element only."""
    A = build_osp(3, 1)
    assert A is build_osp(3, 1) and build_gl(2, 3) is build_gl(2, 3)
    assert A is not build_osp(1, 1)
    with pytest.raises(TypeError):     # a keyword call would miss the cache
        build_osp(m=3, n=1)
    assert all(x.ambient is A for x in basis(A))
    e = A.from_entries(dict(basis(A)[-1].entries))
    twin = A.from_entries(dict(e.entries))
    centralizer(A, e)
    assert "ad_kernel" in vars(e) and "ad_kernel" not in vars(twin)


def _dynkin_orbits():
    """Each gl orbit with m+n <= 5 and each osp orbit with m+2n <= 8, all
    with m, n >= 1, as (kind, m, n, orbit)."""
    for size in range(2, 9):
        for m in range(1, size):
            for sp in enumerate_super_partitions(m, size - m):
                if size <= 5:
                    yield "gl", m, size - m, sp
                if (size - m) % 2 == 0 and is_orthosymplectic(sp):
                    yield "osp", m, (size - m) // 2, sp


def test_templates_are_never_changed():
    """After the whole pipeline has read every algebra, each cached build,
    the template every caller shares, still equals a run of the builder
    body that skips the cache: every attribute it had when built is
    unchanged, and none is added."""
    built = set()
    for kind, m, n, sp in _dynkin_orbits():
        R = (build_gl if kind == "gl" else build_osp)(m, n)
        _, e, h = dynkin_pair(sp, R)
        g = grading_from(R, h)
        centralizer(R, e)
        assert is_good(g, e) and complete_sl2(R, e, h).verify()
        assert jordan_type(R, e) == (sp.p, sp.q)
        find_nonnegative_base(g)
        built.add((kind, m, n))
    assert len(built) == 10 + 12
    for kind, m, n in built:
        build = build_osp if kind == "osp" else build_gl
        cached, uncached = build(m, n), build.__wrapped__(m, n)
        assert cached is build(m, n) and cached is not uncached
        tables = vars(uncached)
        assert {"labels", "phi", "supports", "basis_parities", "_private",
                "_least_picks", "_greatest_picks", "_index_of_label",
                "degree_keys", "even_signs"} <= set(tables)
        assert {name: getattr(cached, name) for name in tables} == tables
        assert set(vars(cached)) == set(tables)


def test_classify_oracle_reads_its_own_e(monkeypatch, capsys):
    """classify --bound realizes the classifier's e and the oracle's e
    apart, in the algebra's one realization, and only the oracle computes
    ker(ad e): the classifier counts degrees against the centralizer
    formula, so its e holds no record."""
    pairs = []

    def recording(sp, R):
        pairs.append(dynkin_pair(sp, R))
        return pairs[-1]

    monkeypatch.setattr(classification, "dynkin_pair", recording)
    assert cli.main(["classify", "osp", "6", "4", "--orbit",
                     '{"p":[3,3],"q":[4]}', "--bound", "4"]) == 0
    assert '"oracleAgrees": true' in capsys.readouterr().out
    (_, classifier_e, _), (_, oracle_e, _) = pairs
    assert classifier_e is not oracle_e
    assert classifier_e.ambient is oracle_e.ambient is build_osp(6, 2)
    assert "ad_kernel" not in vars(classifier_e)
    assert "ad_kernel" in vars(oracle_e)


def test_invariant_form_examples():
    R = build_gl(2, 0)
    assert invariant_form(E(R, 1, 2), E(R, 2, 1)) == 1
    R = build_gl(1, 1)
    assert invariant_form(E(R, 1, 1), E(R, 2, 2)) == 0
    # supersymmetry
    for i, x in enumerate(basis(R)):
        for j, y in enumerate(basis(R)):
            sign = -1 if (R.basis_parities[i] and R.basis_parities[j]) else 1
            assert invariant_form(x, y) == sign * invariant_form(y, x)


def _jacobi_holds(R):
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
                if not (lhs - rhs - tail).is_zero():
                    return False
    return True


def test_super_jacobi_gl21():
    assert _jacobi_holds(build_gl(2, 1))


def test_super_jacobi_osp22():
    assert _jacobi_holds(build_osp(2, 2))


def test_form_invariance():
    for R in (build_gl(2, 1), build_osp(2, 1)):
        for x in basis(R):
            for y in basis(R):
                for z in basis(R):
                    assert invariant_form(superbracket(x, y), z) == \
                        invariant_form(x, superbracket(y, z))


def test_osp_closure():
    R = build_osp(3, 1)
    for i, x in enumerate(basis(R)):
        for j, y in enumerate(basis(R)):
            b = superbracket(x, y)
            par = (R.basis_parities[i] + R.basis_parities[j]) % 2
            assert is_member_osp(R, b.matrix, par)


def test_adjoint_matrix():
    R = build_gl(2, 1)
    assert adjoint_matrix(R.from_entries({})) == Matrix(R.dim, R.dim, {})
    h = R.diagonal({1: 1, 2: 2, 3: 5})
    ad = adjoint_matrix(h)
    # diagonal with weights h_i - h_j on the E_{ij} basis
    for k, b in enumerate(basis(R)):
        for l in range(R.dim):
            if k != l:
                assert ad[l, k] == 0
    e = E(R, 1, 2)
    assert rank(adjoint_matrix(e)) + _centdim(R, e) == R.dim


@pytest.mark.parametrize("R", [build_gl(2, 1), build_osp(3, 1)],
                         ids=["gl21", "osp32"])
def test_adjoint_columns_are_the_bracket_coordinates(R):
    """ad x, summed from the cached ad b_i, has in column j the coordinates
    of [x, b_j] bracketed one pair at a time, and equals ad x built from
    matrix products: for each basis element, for x = 2 b_i - (3/2) b_j,
    and in osp(3|2) for a Dynkin e with its -1 signs."""
    B = basis(R)
    xs = B + [B[i].scale(2) - B[j].scale(Fraction(3, 2))
              for i, j in [(0, 1), (1, 0), (2, R.dim - 1), (R.dim - 1, 3)]]
    if R.kind == "osp":
        e = dynkin_pair(SuperPartition((3,), (2,)), R)[1]
        assert -1 in e.entries.values()
        xs.append(e)
    for x in xs:
        ad = adjoint_matrix(x)
        assert ad == dense_ad(x)
        for j, b in enumerate(basis(R)):
            assert {i: ad[i, j] for i in range(R.dim) if ad[i, j]} == \
                superbracket(x, b).coordinates


def test_ad_basis_brackets_each_basis_element_once(monkeypatch):
    """Two ad maps that share a basis element bracket it once, and its
    cached ad b_i is unchanged by the second."""
    R = build_gl.__wrapped__(2, 1)          # a realization no cache holds
    bracketed = []

    def counting(m, x, grouped):
        bracketed.append(R.coords(x))
        return bracket(m, x, grouped)

    bracket = superalgebra._bracket
    monkeypatch.setattr(superalgebra, "_bracket", counting)
    x = basis(R)[1] + basis(R)[3].scale(2)
    y = basis(R)[3] - basis(R)[5]
    adjoint_matrix(x)
    shared = dict(superalgebra._ad_basis(R, 3))
    adjoint_matrix(y)
    assert bracketed == [{1: 1}, {3: 1}, {5: 1}]
    assert superalgebra._ad_basis(R, 3) == shared \
        == superalgebra._ad_basis.__wrapped__(R, 3)


def test_adjoint_matrix_refuses_an_element_outside_the_algebra():
    # the identity is in gl(1|2) but not in osp(1|2)
    R = build_osp(1, 1)
    one = R.from_entries({(a, a): 1 for a in range(R.size)})
    with pytest.raises(RealizationError, match="outside the algebra"):
        adjoint_matrix(one)


def test_adjoint_matrix_refuses_a_bracket_outside_the_algebra(monkeypatch):
    # E_00 is not in osp(1|2): phi(v_0, v_0) = 2 makes it fail membership;
    # a fresh build, so that no cached ad b_i answers first
    R = build_osp.__wrapped__(1, 1)
    monkeypatch.setattr(superalgebra, "_bracket",
                        lambda m, x, grouped: {0: {(0, 0): 1}})
    with pytest.raises(RealizationError, match="bracket left the algebra"):
        adjoint_matrix(basis(R)[0])


def _centdim(R, e):
    from goodgradings.linalg import kernel_basis
    return len(kernel_basis(adjoint_matrix(e)))


def test_supertrace():
    R = build_gl(1, 1)
    assert supertrace(R, identity(2)) == 0
    assert supertrace(R, E(R, 1, 1).matrix) == 1
    assert supertrace(R, E(R, 2, 2).matrix) == -1


def test_phi_shape():
    R = build_osp(3, 2)
    G = R.phi
    # symmetric on V0, skew on V1, blocks orthogonal
    for a in range(R.size):
        for b in range(R.size):
            pa, pb = int(a >= R.m), int(b >= R.m)
            if pa != pb:
                assert G[a, b] == 0
            elif pa == EVEN:
                assert G[a, b] == G[b, a]
            else:
                assert G[a, b] == -G[b, a]
    assert rank(G) == R.size


def test_element_shape_is_checked():
    for ab in [(0, 3), (3, 0), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="outside 3x3"):
            build_gl(2, 1).from_entries({ab: 1})


def test_from_entries_drops_zeros():
    R = build_gl(2, 1)
    x = R.from_entries({(0, 0): 0, (0, 1): 2, (2, 2): Fraction(0)})
    assert x.entries == {(0, 1): 2}
    assert type(x.entries[0, 1]) is int
    x = R.from_entries({(0, 1): Fraction(4, 2), (1, 0): "1/2"})
    assert x.entries == {(0, 1): 2, (1, 0): Fraction(1, 2)}
    assert type(x.entries[0, 1]) is int
    assert R.from_entries({(1, 1): 0}).is_zero()


SPARSE = [build_gl(2, 1), build_osp(3, 1), build_osp(2, 2)]
SPARSE_IDS = ["gl21", "osp32", "osp24"]


def _element(R, data):
    return R.from_coords(dict(enumerate(data.draw(st.lists(
        st.integers(-2, 2), min_size=R.dim, max_size=R.dim)))))


@pytest.mark.parametrize("R", SPARSE, ids=SPARSE_IDS)
@given(data=st.data())
def test_sparse_element_matches_dense_reference(R, data):
    """Element arithmetic on supports agrees with the dense matrices, and
    no stored value is zero."""
    x, y = _element(R, data), _element(R, data)
    c = data.draw(st.integers(-3, 3))
    X, Y = x.matrix, y.matrix
    assert (x + y).matrix.entries == [a + b for a, b in
                                      zip(X.entries, Y.entries)]
    assert (x - y).matrix.entries == [a - b for a, b in
                                      zip(X.entries, Y.entries)]
    assert x.scale(-1).matrix.entries == [-a for a in X.entries]
    assert x.scale(c).matrix.entries == [c * a for a in X.entries]
    assert x.is_zero() == (X == Matrix(R.size, R.size, {}))
    assert x.diag() == [X[i, i] for i in range(R.size)]
    assert (x - x).is_zero() and x.scale(0).is_zero()
    for z in (x, x + y, x - y, x.scale(-1), x.scale(c), superbracket(x, y)):
        assert all(canonical(v) for v in z.entries.values())


def _rational_element(R, data):
    return R.from_coords(dict(enumerate(data.draw(st.lists(
        st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3)),
        min_size=R.dim, max_size=R.dim)))))


@pytest.mark.parametrize("R", SPARSE, ids=SPARSE_IDS)
@given(data=st.data())
def test_stored_values_are_ints_where_integral(R, data):
    """Every value the algebra stores or returns is a nonzero int, or a
    Fraction only where it is not integral: supports, elements and their
    sums, scales and brackets, coordinates, ad maps, kernel vectors and
    solutions."""
    x, y = _rational_element(R, data), _rational_element(R, data)
    c = data.draw(st.fractions(-2, 2, max_denominator=2))
    elements = [x, y, x + y, x - y, x.scale(-1), x.scale(c), x.scale(2),
                superbracket(x, y), superbracket(x, x.scale(c))]
    coords = [z.coordinates for z in elements]
    ad = adjoint_matrix(x)
    kernel = kernel_basis(ad)
    target = coords[7]              # [x, y] is ad x applied to y
    solution = solve(ad, [target.get(i, 0) for i in range(R.dim)])
    assert solution is not None
    assert R.from_coords(coords[0]).entries == x.entries
    stored = [v for sup in R.supports for v in sup.values()] \
        + list(R.phi.nonzero.values() if R.phi else []) \
        + [v for z in elements for v in z.entries.values()] \
        + [v for cs in coords for v in cs.values()] \
        + list(ad.nonzero.values()) \
        + [v for vec in kernel for v in vec.values()] \
        + list(solution.values())
    assert all(canonical(v) for v in stored)


def test_is_member_osp_needs_osp():
    R = build_gl(2, 1)
    with pytest.raises(ValueError, match="not an osp"):
        is_member_osp(R, Matrix(3, 3, {}), EVEN)


@pytest.mark.parametrize("supports", [
    [{(1, 0): 1}, {(0, 0): 1, (0, 1): 1, (1, 1): 1}],
    [{(1, 0): 1}, {(0, 0): 1}, {(0, 0): 2}],
], ids=["three-entries", "shared-entry"])
def test_realization_refuses_a_basis_it_cannot_read(supports):
    """A basis element needs a private entry, one no other element
    touches, and at most two entries; the constructor refuses any other
    basis, so a refused basis yields no realization at all."""
    with pytest.raises(RealizationError, match="basis element 1 needs a "
                       "private entry and at most two"):
        Realization("gl", 1, 1, [1, 2], supports,
                    [ODD] + [EVEN] * (len(supports) - 1))


def _fraction_degrees(R, diag):
    """Reference degree table: Fraction differences over each support,
    None where they differ."""
    out = []
    for sup in R.supports:
        vals = {diag[a] - diag[b] for a, b in sup}
        out.append(vals.pop() if len(vals) == 1 else None)
    return out


@pytest.mark.parametrize("size", range(1, 7))
def test_gl_degree_table_is_the_row_major_difference_table(size):
    """On gl(m|n) every matrix unit is a basis element, in row-major
    order, so the degree table of an integral diagonal v is the table of
    all differences v[a] - v[b], and no pick list is stored."""
    for m in range(size + 1):
        R = build_gl(m, size - m)
        assert (R._least_picks, R._greatest_picks) == (None, None)
        v = [3 * a * a - 7 * a + m for a in range(size)]
        assert R.degrees(v) == tuple(x - y for x in v for y in v)


DEGREE_ALGEBRAS = {"gl21": build_gl(2, 1), "gl32": build_gl(3, 2),
                   "osp32": build_osp(3, 1), "osp24": build_osp(2, 2)}


@pytest.mark.parametrize("R", DEGREE_ALGEBRAS.values(),
                         ids=list(DEGREE_ALGEBRAS))
@given(den=st.sampled_from([1, 2, 3]), in_algebra=st.booleans(),
       data=st.data())
def test_degrees_match_fraction_differences(R, den, in_algebra, data):
    """Integral, half-integral and third diagonals; for osp a diagonal
    outside the algebra (no phi-skew symmetry) gives non-eigenvectors.
    Where the Fraction reference is integral, the table is that tuple of
    ints; else the first offending basis element names the refusal."""
    diag = [Fraction(v, den) for v in data.draw(
        st.lists(st.integers(-6, 6), min_size=R.size, max_size=R.size))]
    if in_algebra and R.kind == "osp":
        diag = [diag[R.index(lab)] if lab > 0 else
                -diag[R.index(-lab)] if lab else Fraction(0)
                for lab in R.labels]
    expected = _fraction_degrees(R, diag)
    if R.kind == "osp" and in_algebra:
        assert None not in expected
    bad = next((d for d in expected
                if d is None or d.denominator != 1), False)
    if bad is False:
        got = R.degrees(diag)
        assert type(got) is tuple and got == tuple(expected)
        assert all(type(d) is int for d in got)
        return
    message = "basis element is not an ad-H eigenvector" if bad is None \
        else "non-integer degree %s" % bad
    with pytest.raises(NonIntegralGrading) as info:
        R.degrees(diag)
    assert str(info.value) == message
