from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodgradings.linalg import Matrix, kernel_basis, rank, solve
from goodgradings.superalgebra import build_gl, build_osp


def M(rows):
    return Matrix.from_rows([[Fraction(x) for x in r] for r in rows])


def test_rank_examples():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zero(3, 4)) == 0
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(2)) == []
    k = kernel_basis(Matrix.zero(2, 2))
    assert len(k) == 2
    k = kernel_basis(M([[1, 1]]))
    assert len(k) == 1
    x, y = k[0]
    assert x + y == 0 and (x, y) != (0, 0)


def test_solve_examples():
    assert solve(Matrix.identity(2), [Fraction(3), Fraction(5)]) == [3, 5]
    x = solve(M([[1, 1]]), [Fraction(2)])
    assert x[0] + x[1] == 2
    assert solve(M([[1], [1]]), [Fraction(0), Fraction(1)]) is None


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw):
    r = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=5))
    rows = [[Fraction(draw(small_entries)) for _ in range(c)]
            for _ in range(r)]
    return Matrix.from_rows(rows)


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.apply(v))


@given(matrices())
def test_solve_consistency(m):
    # b in the column space: A x = b must be solved exactly
    x0 = [Fraction(i - 1) for i in range(m.cols)]
    b = m.apply(x0)
    x = solve(m, b)
    assert x is not None
    assert m.apply(x) == b


def test_solve_fractional():
    m = M([[2, 0], [0, 3]])
    assert solve(m, [Fraction(1), Fraction(1)]) == \
        [Fraction(1, 2), Fraction(1, 3)]


ALGEBRAS = [build_gl(2, 1), build_osp(3, 1), build_osp(2, 2)]


@pytest.mark.parametrize("R", ALGEBRAS, ids=["gl21", "osp31", "osp22"])
def test_coords_of_basis_are_unit_vectors(R):
    for i, b in enumerate(R.basis):
        assert R.coords(b) == [int(j == i) for j in range(R.dim)]


@pytest.mark.parametrize("R", ALGEBRAS, ids=["gl21", "osp31", "osp22"])
@given(data=st.data())
def test_coords_roundtrip(R, data):
    c = [Fraction(v) for v in data.draw(
        st.lists(small_entries, min_size=R.dim, max_size=R.dim))]
    x = R.from_coords(c)
    assert R.coords(x) == c
    assert R.from_coords(R.coords(x)).matrix == x.matrix


@pytest.mark.parametrize("R", ALGEBRAS[1:], ids=["osp31", "osp22"])
def test_coords_outside_osp(R):
    assert R.coords(R.element(Matrix.identity(R.size))) is None
    assert R.coords(R.from_entries({(0, 1): 1})) is None      # E12
