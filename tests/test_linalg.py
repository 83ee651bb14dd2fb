from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodgradings.linalg import Matrix, kernel_basis, quotient, rank, solve
from goodgradings.superalgebra import build_gl, build_osp
from reference import basis, from_rows, identity, transpose


def M(rows):
    return from_rows([[Fraction(x) for x in r] for r in rows])


def dense(v, n):
    """The sparse vector {index: c} as a list of length n."""
    return [v.get(j, Fraction(0)) for j in range(n)]


def rows_of(m):
    """Dense reference rows of m, read entry by entry."""
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def apply(m, v):
    """Dense reference product of m with the list v."""
    return [sum((a * x for a, x in zip(row, v)), Fraction(0))
            for row in rows_of(m)]


def test_rank_examples():
    assert rank(identity(2)) == 2
    assert rank(Matrix(3, 4, {})) == 0
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(identity(2)) == []
    k = kernel_basis(Matrix(2, 2, {}))
    assert len(k) == 2
    k = kernel_basis(M([[1, 1]]))
    assert len(k) == 1
    x, y = dense(k[0], 2)
    assert x + y == 0 and (x, y) != (0, 0)


def test_solve_examples():
    assert solve(identity(2), [Fraction(3), Fraction(5)]) == \
        {0: 3, 1: 5}
    x = dense(solve(M([[1, 1]]), [Fraction(2)]), 2)
    assert x[0] + x[1] == 2
    assert solve(M([[1], [1]]), [Fraction(0), Fraction(1)]) is None


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw):
    r = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=5))
    rows = [[Fraction(draw(small_entries)) for _ in range(c)]
            for _ in range(r)]
    return from_rows(rows)


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(x == 0 for x in apply(m, dense(v, m.cols)))


@given(matrices())
def test_solve_consistency(m):
    # b in the column space: A x = b must be solved exactly
    x0 = [Fraction(i - 1) for i in range(m.cols)]
    b = apply(m, x0)
    x = solve(m, b)
    assert x is not None
    assert apply(m, dense(x, m.cols)) == b


def test_solve_fractional():
    m = M([[2, 0], [0, 3]])
    assert solve(m, [Fraction(1), Fraction(1)]) == \
        {0: Fraction(1, 2), 1: Fraction(1, 3)}


ALGEBRAS = [build_gl(2, 1), build_osp(3, 1), build_osp(2, 2)]


@pytest.mark.parametrize("R", ALGEBRAS, ids=["gl21", "osp31", "osp22"])
def test_coords_of_basis_are_unit_vectors(R):
    for i, b in enumerate(basis(R)):
        assert dense(b.coordinates, R.dim) == \
            [int(j == i) for j in range(R.dim)]


@pytest.mark.parametrize("R", ALGEBRAS, ids=["gl21", "osp31", "osp22"])
@given(data=st.data())
def test_coords_roundtrip(R, data):
    c = [Fraction(v) for v in data.draw(
        st.lists(small_entries, min_size=R.dim, max_size=R.dim))]
    x = R.from_coords(dict(enumerate(c)))
    assert dense(x.coordinates, R.dim) == c
    assert all(x.coordinates.values())
    assert R.from_coords(x.coordinates).matrix == x.matrix


@pytest.mark.parametrize("R", ALGEBRAS[1:], ids=["osp31", "osp22"])
def test_coords_outside_osp(R):
    identity = R.from_entries({(i, i): 1 for i in range(R.size)})
    assert identity.coordinates is None
    assert R.from_entries({(0, 1): 1}).coordinates is None      # E12


def _dense_kernel(M):
    """Whole-matrix elimination and back substitution, the reference that
    kernel_basis must reproduce vector for vector."""
    n = M.cols
    rows = []
    for row in rows_of(M):
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        rows.append([int(x * denom) for x in row])
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        for i in range(r + 1, len(rows)):
            q = rows[i][c]
            if q:
                rows[i] = [prow[c] * a - q * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            s = sum(rows[i][j] * v[j] for j in range(pc + 1, n))
            v[pc] = -Fraction(s) / rows[i][pc]
        basis.append(v)
    return basis


@st.composite
def block_matrices(draw):
    """Block-diagonal matrices, with zero rows and zero columns among the
    blocks, and the columns permuted."""
    blocks = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=1, max_size=4))
    rows = sum(r for r, _ in blocks) + draw(st.integers(0, 2))
    cols = sum(c for _, c in blocks) + draw(st.integers(0, 2))
    grid = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for r, c in blocks:
        for i in range(r0, r0 + r):
            for j in range(c0, c0 + c):
                grid[i][j] = Fraction(draw(small_entries),
                                       draw(st.integers(1, 3)))
        r0, c0 = r0 + r, c0 + c
    perm = draw(st.permutations(range(cols)))
    return Matrix(rows, cols, {(i, j): row[perm[j]] for i, row in
                               enumerate(grid) for j in range(cols)})


@given(st.one_of(matrices(), block_matrices()))
def test_kernel_matches_dense_elimination(m):
    kernel = kernel_basis(m)
    assert [dense(v, m.cols) for v in kernel] == _dense_kernel(m)
    assert all(all(v.values()) for v in kernel)


nonzero_entries = st.builds(lambda a, s, d: Fraction(s * a, d),
                            st.integers(1, 6), st.sampled_from([1, -1]),
                            st.integers(1, 3))


@st.composite
def single_column_matrices(draw):
    """A drawn matrix beside columns whose row supports are pairwise
    disjoint (each alone in its block) and zero columns, with some rows
    duplicated and the rows and columns permuted."""
    core = draw(matrices())
    supports = draw(st.lists(st.integers(1, 3), max_size=4))
    zeros = draw(st.integers(0, 2))
    cols = core.cols + len(supports) + zeros
    grid = [row + [Fraction(0)] * (cols - core.cols)
            for row in rows_of(core)]
    for t, size in enumerate(supports):
        for _ in range(size):
            row = [Fraction(0)] * cols
            row[core.cols + t] = draw(nonzero_entries)
            grid.append(row)
    for _ in range(draw(st.integers(0, 3))):
        grid.append(list(draw(st.sampled_from(grid))))
    rperm = draw(st.permutations(range(len(grid))))
    cperm = draw(st.permutations(range(cols)))
    return Matrix(len(grid), cols, {(i, j): grid[rperm[i]][cperm[j]]
                                    for i in range(len(grid))
                                    for j in range(cols)})


@given(single_column_matrices())
def test_single_column_blocks_match_dense_references(m):
    reference = _dense_kernel(m)
    assert [dense(v, m.cols) for v in kernel_basis(m)] == reference
    assert rank(m) == m.cols - len(reference)


def test_fill_in_at_a_later_pivot_row():
    # columns 0 and 1 pivot at rows 0 and 1; reducing column 2 by the
    # first pivot fills in row 1, which the second pivot then clears
    m = M([[2, 0, 1], [1, 3, 0]])
    kernel = kernel_basis(m)
    assert kernel == [{2: 1, 0: Fraction(-1, 2), 1: Fraction(1, 6)}]
    assert [dense(v, 3) for v in kernel] == _dense_kernel(m)
    assert rank(m) == 2


def test_column_free_after_two_reductions():
    # column 2 = column 0 + column 1 needs both pivots; column 3 equals
    # column 0, so its queued row 1 is cancelled before its pivot's turn;
    # column 4 is zero
    m = M([[1, 0, 1, 1, 0], [1, 1, 2, 1, 0], [0, 1, 1, 0, 0]])
    kernel = kernel_basis(m)
    assert kernel == [{2: 1, 0: -1, 1: -1}, {3: 1, 0: -1}, {4: 1}]
    assert [dense(v, 5) for v in kernel] == _dense_kernel(m)
    assert rank(m) == 2


def _dense_solve(A, b):
    """Whole-matrix elimination of [A | b] and back substitution, the
    reference that solve must reproduce, None included."""
    n = A.cols
    rows = []
    for row, bi in zip(rows_of(A), b):
        row = row + [Fraction(bi)]
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        rows.append([int(x * denom) for x in row])
    pivots = []
    r = 0
    for c in range(n + 1):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        for i in range(r + 1, len(rows)):
            q = rows[i][c]
            if q:
                rows[i] = [prow[c] * a - q * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        s = Fraction(rows[i][n]) - sum(rows[i][j] * x[j]
                                       for j in range(pc + 1, n))
        x[pc] = s / rows[i][pc]
    return x


@st.composite
def systems(draw):
    """(A, b) with b in A's column space, or random (so some systems are
    inconsistent), or A with free columns (where x must be 0)."""
    kind = draw(st.sampled_from(["column space", "random", "free columns"]))
    A = draw(st.one_of(matrices(), block_matrices()))
    if kind == "free columns":
        # copies of earlier columns and zero columns are free
        cols = [[A[i, j] for i in range(A.rows)] for j in range(A.cols)]
        for _ in range(draw(st.integers(1, 3))):
            cols.insert(draw(st.integers(0, len(cols))),
                        draw(st.sampled_from(cols)) if cols and
                        draw(st.booleans()) else [Fraction(0)] * A.rows)
        A = Matrix(A.rows, len(cols), {(i, j): col[i] for i in
                                       range(A.rows)
                                       for j, col in enumerate(cols)})
    if kind == "random":
        b = [Fraction(draw(small_entries)) for _ in range(A.rows)]
    else:
        b = apply(A, [Fraction(draw(small_entries)) for _ in range(A.cols)])
    return A, b


@given(systems())
def test_solve_matches_dense_elimination(system):
    A, b = system
    x = solve(A, b)
    if x is None:
        assert _dense_solve(A, b) is None
    else:
        assert dense(x, A.cols) == _dense_solve(A, b)
        assert all(x.values())
        assert apply(A, dense(x, A.cols)) == b


@given(systems())
def test_solve_after_rank_and_kernel_matches_a_fresh_matrix(system):
    """The kept elimination answers as a fresh one: solve after
    kernel_basis and rank equals solve on a new Matrix of the same
    entries, None included."""
    A, b = system
    kernel_basis(A)
    rank(A)
    assert solve(A, b) == solve(Matrix(A.rows, A.cols, A.nonzero), b)


def test_solve_is_zero_at_free_columns():
    # columns 1 and 2 are free: a copy of column 0 and a zero column
    A = M([[1, 1, 0, 2], [0, 0, 0, 1]])
    assert solve(A, [Fraction(3), Fraction(1)]) == {0: 1, 3: 1}
    assert solve(Matrix(0, 2, {}), []) == {}


def test_from_rows_refuses_ragged_rows():
    with pytest.raises(ValueError, match="ragged rows"):
        from_rows([[1, 2], [3]])


def test_kernel_of_empty_shapes():
    assert [dense(v, 3) for v in kernel_basis(Matrix(0, 3, {}))] == \
        _dense_kernel(Matrix(0, 3, {}))
    assert kernel_basis(Matrix(2, 0, {})) == []


@pytest.mark.parametrize("op", [
    lambda: Matrix(2, 3, {}) @ Matrix(2, 3, {}),
    lambda: solve(Matrix(2, 3, {}), [Fraction(1)] * 3),
], ids=["matmul", "solve"])
def test_shape_mismatch_raises_value_error(op):
    with pytest.raises(ValueError):
        op()


def canonical(v):
    """Is v a stored exact value: a nonzero int, or a Fraction that is not
    integral (never a float)?"""
    return type(v) is int and v != 0 \
        or type(v) is Fraction and v.denominator > 1


def test_fraction_entries_are_kept_and_others_coerced():
    x = Fraction(1, 3)
    m = Matrix(1, 3, {(0, 0): x, (0, 1): 2, (0, 2): "1/2"})
    assert m.entries[0] is x
    assert m.entries[1:] == [Fraction(2), Fraction(1, 2)]
    assert all(canonical(v) for v in m.entries)
    m = Matrix(1, 3, {(0, 1): "3/4", (0, 2): x})
    assert m[0, 1] == Fraction(3, 4) and type(m[0, 1]) is Fraction
    assert m[0, 2] is x
    m = Matrix(1, 3, {(0, 0): Fraction(4, 2), (0, 1): "-6/3", (0, 2): True})
    assert m.nonzero == {(0, 0): 2, (0, 1): -2, (0, 2): 1}
    assert all(type(v) is int for v in m.nonzero.values())


exact_values = st.one_of(st.integers(-6, 6),
                         st.fractions(-3, 3, max_denominator=4))


@given(exact_values, exact_values)
def test_quotient_is_the_exact_quotient(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            quotient(a, b)
        return
    q = quotient(a, b)
    assert q == Fraction(a, b)
    assert q == 0 and type(q) is int or canonical(q)


@pytest.mark.parametrize("a", [0, 3, Fraction(1, 2)])
def test_quotient_by_zero_raises(a):
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            quotient(a, zero)


@pytest.mark.parametrize("nonzero", [{(2, 0): 1}, {(0, 3): 1},
                                     {(-1, 0): 1}, {(0, -1): 1}])
def test_entry_outside_shape_raises_value_error(nonzero):
    with pytest.raises(ValueError, match="outside 2x3"):
        Matrix(2, 3, nonzero)
    with pytest.raises(ValueError, match="outside 2x3"):
        Matrix(2, 3, dict.fromkeys(nonzero, 0))
    with pytest.raises(ValueError, match="outside 2x3"):
        Matrix(2, 3, {})[next(iter(nonzero))]


def test_zero_entries_are_not_stored():
    m = Matrix(2, 2, {(0, 0): 0, (0, 1): "0", (1, 1): Fraction(2)})
    assert m.nonzero == {(1, 1): 2}
    m = Matrix(2, 2, {(1, 1): 0})
    assert m == Matrix(2, 2, {}) and m.nonzero == {}


def matmul(a, b):
    """Dense reference product: the triple loop over all entries."""
    out = [[Fraction(0)] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for t in range(a.cols):
            for j in range(b.cols):
                out[i][j] += a[i, t] * b[t, j]
    return out


@st.composite
def products(draw):
    """(a, b) with b's rows the columns of a, about half of b zero."""
    a = draw(st.one_of(matrices(), block_matrices()))
    cols = draw(st.integers(0, 4))
    b = Matrix(a.cols, cols, {(i, j): draw(st.one_of(st.just(0),
                                                     small_entries))
                              for i in range(a.cols) for j in range(cols)})
    return a, b


@given(products())
def test_matmul_matches_dense_product(ab):
    a, b = ab
    c = a @ b
    assert (c.rows, c.cols) == (a.rows, b.cols)
    assert rows_of(c) == matmul(a, b)
    assert all(canonical(x) for x in c.nonzero.values())


@given(st.one_of(matrices(), block_matrices()))
def test_transpose_and_rank_match_dense_references(m):
    t = transpose(m)
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert rows_of(t) == [[m[i, j] for i in range(m.rows)]
                          for j in range(m.cols)]
    assert rank(m) == rank(t) == m.cols - len(_dense_kernel(m))


def test_huge_sparse_matrix_costs_its_nonzeros():
    # 10^10 entries, three of them nonzero: only the three are touched
    n = 10 ** 5
    m = Matrix(n, n, {(0, 1): 2, (n - 1, 0): 3, (5, n - 1): -1})
    assert rank(m) == 3
    t = transpose(m)
    assert t.nonzero == {(1, 0): 2, (0, n - 1): 3, (n - 1, 5): -1}
    assert (m @ t).nonzero == {(0, 0): 4, (n - 1, n - 1): 9, (5, 5): 1}
    assert (m @ m).nonzero == {(n - 1, 1): 6, (5, 0): -3}
    assert m[n - 1, 0] == 3 and m[n - 1, n - 1] == 0
