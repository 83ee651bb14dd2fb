import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodgradings.partitions import (NotOrthosymplectic, SuperPartition,
                                     cp_dq, dual_partition,
                                     enumerate_super_partitions,
                                     is_orthosymplectic, multiplicities,
                                     partitions_of, psi_merge)


def test_enumerate_counts():
    assert enumerate_super_partitions(1, 1) == [SuperPartition((1,), (1,))]
    assert len(enumerate_super_partitions(2, 1)) == 2
    assert len(enumerate_super_partitions(4, 6)) == 55


def test_partition_validation():
    with pytest.raises(ValueError):
        SuperPartition((1, 2), (1,))
    with pytest.raises(ValueError):
        SuperPartition((0,), (1,))
    # parts are ints: no truncation of 1.5, no bool read as 1
    with pytest.raises(ValueError):
        SuperPartition((1.5,), ())
    with pytest.raises(ValueError):
        SuperPartition((True,), ())


def test_is_orthosymplectic():
    assert is_orthosymplectic(SuperPartition((5, 3, 1), (3, 3)))
    assert not is_orthosymplectic(SuperPartition((2,), (2,)))
    assert is_orthosymplectic(SuperPartition((1, 1), (2,)))


def test_dual_partition():
    assert dual_partition((4, 3, 2, 1)) == (4, 3, 2, 1)
    assert dual_partition((3,)) == (1, 1, 1)
    assert dual_partition((2, 2)) == (2, 2)


def test_psi_merge():
    assert psi_merge(SuperPartition((3, 1), (4, 2))) == \
        [(4, "-"), (3, "+"), (2, "-"), (1, "+")]
    assert psi_merge(SuperPartition((2,), (2,))) == [(2, "+"), (2, "-")]
    assert psi_merge(SuperPartition((), (3,))) == [(3, "-")]


def test_cp_dq():
    assert cp_dq(SuperPartition((3, 3), (4,))) == ((3,), ())
    assert cp_dq(SuperPartition((5, 3, 1), (3, 3))) == ((), ())
    assert cp_dq(SuperPartition((1, 1), (2, 2))) == ((1,), (2,))


def test_cp_dq_rejects_non_orthosymplectic():
    with pytest.raises(NotOrthosymplectic):
        cp_dq(SuperPartition((2,), (2,)))


partitions = st.integers(min_value=0, max_value=8).map(
    lambda n: partitions_of(n))


@given(st.integers(min_value=0, max_value=9))
def test_dual_involution(n):
    for p in partitions_of(n):
        assert dual_partition(dual_partition(p)) == p


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0,
                                                          max_value=5))
def test_psi_merge_multiset(m, n):
    for sp in enumerate_super_partitions(m, n):
        merged = psi_merge(sp)
        assert sorted(r for r, t in merged) == sorted(sp.p + sp.q)
        assert [r for r, t in merged] == \
            sorted((r for r, t in merged), reverse=True)
        # within equal values, the rows of p come before those of q
        assert not [r for (r, t), (s, u) in zip(merged, merged[1:])
                    if r == s and (t, u) == ("-", "+")]


def test_multiplicities():
    assert multiplicities((3, 3, 1)) == [(3, 2), (1, 1)]
    assert multiplicities(()) == []


def test_json_roundtrip():
    sp = SuperPartition((3, 1), (4, 2))
    assert SuperPartition.from_json(sp.to_json()) == sp


@pytest.mark.parametrize("obj", [5, [1, 2], {"p": [2]}, {"q": [1]},
                                 {"p": 2, "q": [1]}, {"p": [2], "q": "1"}])
def test_from_json_names_the_expected_shape(obj):
    with pytest.raises(ValueError, match=r'expected an object \{"p"'):
        SuperPartition.from_json(obj)
