import random
from fractions import Fraction

import pytest

from goodgradings import pyramids
from goodgradings.partitions import (NotOrthosymplectic,
                                     SuperPartition, cp_dq,
                                     enumerate_super_partitions,
                                     is_orthosymplectic)
from goodgradings.pyramids import (LengthMismatch, MembershipFailure,
                                   NotNilpotent, Pyramid, PyramidError,
                                   SizeMismatch, dynkin_pair,
                                   dynkin_pyramid_gl, dynkin_pyramid_osp,
                                   enumerate_pyr, jordan_type,
                                   realize_osp_pyramid, realize_pyramid,
                                   render, shift_matrix)
from goodgradings.superalgebra import (EVEN, ODD, build_gl, build_osp,
                                       superbracket)
from reference import is_member_osp, jordan_type_by_all_ranks, transpose


def test_enumerate_counts():
    assert len(enumerate_pyr(SuperPartition((1,), (1,)))) == 1
    assert len(enumerate_pyr(SuperPartition((3, 1), (4, 2)))) == 27
    assert len(enumerate_pyr(SuperPartition((2, 2), ()))) == 1


def test_pyramid_nesting_validation():
    with pytest.raises(ValueError):
        Pyramid(((2, "+", -1), (1, "+", 5)))
    with pytest.raises(ValueError):
        Pyramid(((2, "+", 0),))  # bottom row not centered


def test_realize_single_row():
    R = build_gl(2, 0)
    P = dynkin_pyramid_gl(SuperPartition((2,), ()))
    e, h = realize_pyramid(P, R)
    assert [h.matrix[i, i] for i in range(2)] == [-1, 1]
    assert jordan_type(R, e) == ((2,), ())
    assert (superbracket(h, e) - e.scale(2)).is_zero()


def test_realize_aligned_singletons():
    R = build_gl(1, 1)
    e, h = realize_pyramid(dynkin_pyramid_gl(SuperPartition((1,), (1,))), R)
    assert e.is_zero() and h.is_zero()


def test_realize_jordan_type():
    sp = SuperPartition((3, 1), (4, 2))
    R = build_gl(4, 6)
    e, h = realize_pyramid(dynkin_pyramid_gl(sp), R)
    assert jordan_type(R, e) == (sp.p, sp.q)


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        realize_pyramid(dynkin_pyramid_gl(SuperPartition((2,), ())),
                        build_gl(1, 1))


def test_shift_independence_of_e():
    for m in range(0, 4):
        for n in range(0, 4 - m):
            if m + n == 0:
                continue
            for sp in enumerate_super_partitions(m, n):
                R = build_gl(m, n)
                mats = set()
                for P in enumerate_pyr(sp):
                    e, h = realize_pyramid(P, R)
                    mats.add(frozenset(e.entries.items()))
                    assert (superbracket(h, e) - e.scale(2)).is_zero()
                assert len(mats) == 1


def test_h_eigenvalues_are_box_coordinates():
    sp = SuperPartition((3, 1), (4, 2))
    for P in enumerate_pyr(sp)[:5]:
        R = build_gl(4, 6)
        e, h = realize_pyramid(P, R)
        coords = sorted(x for x, y, t, lab in P.boxes)
        assert sorted(h.matrix[i, i] for i in range(R.size)) == coords


def _box_shape(P):
    return sorted((x, y, t) for x, y, t, lab in P.boxes)


def test_osp_pyramid_531_33():
    P = dynkin_pyramid_osp(SuperPartition((5, 3, 1), (3, 3)))
    shape = _box_shape(P)
    expected = sorted(
        [(x, 0, "+") for x in (-4, -2, 0, 2, 4)]        # zeroth row, part 5
        + [(0, 2, "+"), (2, 2, "+")]                     # even skew-row (3,1)
        + [(-2, -2, "+"), (0, -2, "+")]
        + [(x, 4, "-") for x in (-2, 0, 2)]              # odd row, part 3
        + [(x, -4, "-") for x in (-2, 0, 2)])
    assert shape == expected


def test_osp_pyramid_441_6():
    P = dynkin_pyramid_osp(SuperPartition((4, 4, 1), (6,)))
    shape = _box_shape(P)
    expected = sorted(
        [(0, 0, "+")]                                    # zeroth row, part 1
        + [(x, 2, "-") for x in (1, 3, 5)]               # odd skew-row len 3
        + [(x, -2, "-") for x in (-5, -3, -1)]
        + [(x, 4, "+") for x in (-3, -1, 1, 3)]          # even row, part 4
        + [(x, -4, "+") for x in (-3, -1, 1, 3)])
    assert shape == expected


def test_osp_pyramid_1_2():
    P = dynkin_pyramid_osp(SuperPartition((1,), (2,)))
    assert _box_shape(P) == sorted([(0, 0, "+"), (1, 2, "-"), (-1, -2, "-")])


def test_realize_osp_checks_degree_of_e(monkeypatch):
    # with a bracket that always vanishes, [h, e] = 2e fails
    monkeypatch.setattr(pyramids, "superbracket",
                        lambda x, y: x.ambient.from_entries({}))
    P = dynkin_pyramid_osp(SuperPartition((3,), (2,)))
    with pytest.raises(MembershipFailure, match=r"\[h, e\] != 2e"):
        realize_osp_pyramid(P, build_osp(3, 1))


def test_realize_osp_checks_membership_of_e(monkeypatch):
    # one entry of a two-entry even support is not an element of osp
    R = build_osp(3, 1)
    sup = next(sup for sup, p in zip(R.supports, R.basis_parities)
               if p == EVEN and len(sup) == 2)
    a, b = next(iter(sup))
    monkeypatch.setattr(pyramids, "_osp_connections",
                        lambda P: [(R.labels[a], R.labels[b])])
    P = dynkin_pyramid_osp(SuperPartition((3,), (2,)))
    with pytest.raises(MembershipFailure, match="e is not in osp"):
        realize_osp_pyramid(P, R)


def test_realize_osp_checks_jordan_type(monkeypatch):
    monkeypatch.setattr(pyramids, "jordan_type",
                        lambda R, e: ((1, 1, 1), (1, 1)))
    P = dynkin_pyramid_osp(SuperPartition((3,), (2,)))
    with pytest.raises(MembershipFailure, match="Jordan type"):
        realize_osp_pyramid(P, build_osp(3, 1))


@pytest.mark.parametrize("build, m, n", [(build_osp, 1, 1), (build_gl, 3, 2)],
                         ids=["smaller-osp", "gl"])
def test_realize_osp_checks_size(build, m, n):
    P = dynkin_pyramid_osp(SuperPartition((3,), (2,)))
    with pytest.raises(SizeMismatch):
        realize_osp_pyramid(P, build(m, n))


def test_osp_pyramid_rejects_non_orthosymplectic():
    with pytest.raises(NotOrthosymplectic):
        dynkin_pyramid_osp(SuperPartition((2,), (2,)))


def test_osp_central_symmetry():
    for pq in [((5, 3, 1), (3, 3)), ((3, 3), (4,)), ((5, 1), (2, 2)),
               ((2, 2, 1), (2, 2))]:
        P = dynkin_pyramid_osp(SuperPartition(*pq))
        shape = set(_box_shape(P))
        assert {(-x, -y, t) for x, y, t in shape} == shape
        assert len(P.boxes) == P.m + P.n2


def test_realize_osp_11_2():
    sp = SuperPartition((1, 1), (2,))
    R = build_osp(2, 1)
    e, h = realize_osp_pyramid(dynkin_pyramid_osp(sp), R)
    assert jordan_type(R, e) == ((1, 1), (2,))
    assert (superbracket(h, e) - e.scale(2)).is_zero()


def test_realize_osp_33_4_labels():
    sp = SuperPartition((3, 3), (4,))
    R = build_osp(6, 2)
    P = dynkin_pyramid_osp(sp)
    e, h = realize_osp_pyramid(P, R)
    assert is_member_osp(R, e.matrix, EVEN)
    assert jordan_type(R, e) == (sp.p, sp.q)


def test_realize_osp_51_22_membership():
    sp = SuperPartition((5, 1), (2, 2))
    R = build_osp(6, 2)
    e, h = realize_osp_pyramid(dynkin_pyramid_osp(sp), R)
    # defining property phi(e u, v) = -phi(u, e v)
    G = R.phi
    lhs = transpose(e.matrix) @ G
    rhs = G @ e.scale(-1).matrix
    assert lhs == rhs
    assert jordan_type(R, e) == (sp.p, sp.q)


def test_realize_osp_rejects_connection_outside_even_part(monkeypatch):
    """A connection that lies in no even support means e is not in osp; it
    must not become a zero entry that fails later as a Jordan type."""
    sp = SuperPartition((3,), (2,))
    R = build_osp(3, 1)
    a, b = next(iter(R.supports[R.basis_parities.index(ODD)]))
    monkeypatch.setattr(pyramids, "_osp_connections",
                        lambda P: [(R.labels[a], R.labels[b])])
    with pytest.raises(MembershipFailure, match="e is not in osp"):
        realize_osp_pyramid(dynkin_pyramid_osp(sp), R)


def test_shift_matrix():
    sp = SuperPartition((3, 3), (4,))
    R = build_osp(6, 2)
    P = dynkin_pyramid_osp(sp)
    z = shift_matrix(R, P, [Fraction(0)], [])
    assert z.is_zero()
    z = shift_matrix(R, P, [Fraction(1)], [])
    vals = sorted(z.matrix[i, i] for i in range(R.size))
    assert vals == [-1, -1, -1, 0, 0, 0, 0, 1, 1, 1]
    e, h = realize_osp_pyramid(P, R)
    assert superbracket(z, e).is_zero()
    assert superbracket(z, h).is_zero()


def test_shift_matrix_commutes_1122():
    sp = SuperPartition((1, 1), (2, 2))
    R = build_osp(2, 2)
    P = dynkin_pyramid_osp(sp)
    z = shift_matrix(R, P, [Fraction(1)], [Fraction(1)])
    e, h = realize_osp_pyramid(P, R)
    assert superbracket(z, e).is_zero()


def test_shift_matrix_length_check():
    sp = SuperPartition((3, 3), (4,))
    R = build_osp(6, 2)
    P = dynkin_pyramid_osp(sp)
    with pytest.raises(LengthMismatch):
        shift_matrix(R, P, [], [Fraction(1)])


def test_shift_matrix_checks_row_lookup():
    """Each C(p) part needs exactly one upper even row: with that row gone,
    or with it listed twice, there is no one row to shift."""
    sp = SuperPartition((3, 3), (4,))
    R = build_osp(6, 2)
    P = dynkin_pyramid_osp(sp)
    (row,) = [spec for spec in P.rows if spec["kind"] == "even"]
    P.rows.remove(row)
    with pytest.raises(PyramidError, match="0 shiftable rows"):
        shift_matrix(R, P, [Fraction(1)], [])
    P.rows += [row, dict(row)]
    with pytest.raises(PyramidError, match="2 shiftable rows"):
        shift_matrix(R, P, [Fraction(1)], [])


def _row_walk_connections(P):
    """Reference: e's pairs found row by row, then mirror row by mirror
    row, then each skew row's crossings."""
    pos = {(x, y): lab for x, y, t, lab in P.boxes}
    conns = []
    for spec in P.rows:
        y = spec["y"]
        cols = spec["cols"]
        mirror_cols = [-x for x in cols]
        for x in cols:
            if (x + 2, y) in pos and x + 2 in cols:
                conns.append((pos[(x + 2, y)], pos[(x, y)]))
        if y != 0:
            for x in mirror_cols:
                if (x + 2, -y) in pos and x + 2 in mirror_cols:
                    conns.append((pos[(x + 2, -y)], pos[(x, -y)]))
        if spec["kind"] == "even_skew":
            conns.append((pos[(2, y)], pos[(0, -y)]))
            conns.append((pos[(0, y)], pos[(-2, -y)]))
        elif spec["kind"] == "odd_skew":
            conns.append((pos[(1, y)], pos[(-1, -y)]))
    return conns


def _row_table_shift(P, s, t):
    """Reference: the diagonal {label: value} of z(s, t), read from a table
    of the upper even and odd rows' labels keyed by (kind, part), a key
    with two rows marked ambiguous (None)."""
    by_pos = {(x, y): lab for x, y, _, lab in P.boxes}
    table = {}
    for spec in P.rows:
        if spec["y"] <= 0 or spec["kind"] not in ("even", "odd"):
            continue
        key = (spec["kind"], spec["part"])
        table[key] = None if key in table else \
            [by_pos[(x, spec["y"])] for x in spec["cols"]]
    cp, dq = cp_dq(P.sp)
    diag = {}
    for kind, parts, values in (("even", cp, s), ("odd", dq, t)):
        for part, val in zip(parts, values):
            for lab in table[kind, part]:
                diag[lab], diag[-lab] = val, -val
    return diag


def _osp_orbits(size):
    """(m, n, sp) for every orthosymplectic orbit of osp(m|2n), m, n >= 1,
    m + 2n <= size."""
    return [(m, n, sp) for m in range(1, size) for n in range(1, size)
            if m + 2 * n <= size
            for sp in enumerate_super_partitions(m, 2 * n)
            if is_orthosymplectic(sp)]


def test_steps_and_row_lookup_match_row_walk_reference():
    """One step rule plus the skew crossings gives the row walk's pairs on
    every osp Dynkin pyramid with m+2n <= 14, and the row read gives the
    row table's shift on every unit generator with m+2n <= 12."""
    orbits = _osp_orbits(14)
    osp_pyramids = [dynkin_pyramid_osp(sp) for m, n, sp in orbits]
    assert len(osp_pyramids) == 1206
    assert sum(any(spec["kind"].endswith("skew") for spec in P.rows)
               for P in osp_pyramids) == 840
    for P in osp_pyramids:
        assert sorted(pyramids._osp_connections(P)) == \
            sorted(_row_walk_connections(P))
    units = 0
    for (m, n, sp), P in zip(orbits, osp_pyramids):
        if m + 2 * n > 12:
            continue
        R = build_osp(m, n)
        cp, dq = cp_dq(sp)
        k, count = len(cp), len(cp) + len(dq)
        for i in range(count):
            u = [int(i == j) for j in range(count)]
            diag = _row_table_shift(P, u[:k], u[k:])
            expected = {(R.index(lab), R.index(lab)): v
                        for lab, v in diag.items() if v}
            assert shift_matrix(R, P, u[:k], u[k:]).entries == expected
            units += 1
    assert units == 150


@pytest.mark.parametrize("p, q, match", [
    ((3, 2), (), "unpaired"),               # odd m: 2 is left alone
    ((2, 1), (), "unpaired"),               # even part of odd multiplicity
    ((1, 1), (1,), "odd part 1 of q"),
])
def test_osp_pyramid_checks_pairing(monkeypatch, p, q, match):
    monkeypatch.setattr(pyramids, "is_orthosymplectic", lambda sp: True)
    with pytest.raises(PyramidError, match=match):
        dynkin_pyramid_osp(SuperPartition(p, q))


def test_osp_pyramid_checks_box_count(monkeypatch):
    monkeypatch.setattr(pyramids, "_centered_cols",
                        lambda r: list(range(1 - r, r + 2, 2)))
    with pytest.raises(PyramidError, match="boxes for 10"):
        dynkin_pyramid_osp(SuperPartition((3, 3), (4,)))


def test_render():
    out = render(dynkin_pyramid_gl(SuperPartition((2,), ())))
    assert out.count("+") == 2 and "\n" not in out
    out = render(dynkin_pyramid_gl(SuperPartition((3, 1), (4, 2))))
    assert out.count("+") == 4 and out.count("-") == 6
    assert len(out.splitlines()) == 4
    out = render(dynkin_pyramid_osp(SuperPartition((5, 3, 1), (3, 3))))
    assert out.count("+") == 9 and out.count("-") == 6
    assert len(out.splitlines()) == 5


def test_empty_orbit_has_the_empty_pyramid():
    assert enumerate_pyr(SuperPartition((), ())) == [Pyramid(())]
    assert render(Pyramid(())) == ""


def test_osp_realize_all_small():
    for m in range(1, 5):
        for n2 in range(2, 7 - m, 2):
            for sp in enumerate_super_partitions(m, n2):
                if not is_orthosymplectic(sp):
                    continue
                R = build_osp(m, n2 // 2)
                e, h = realize_osp_pyramid(dynkin_pyramid_osp(sp), R)
                assert jordan_type(R, e) == (sp.p, sp.q)


@pytest.mark.parametrize("entries", [
    {(0, 0): 1},                      # ranks 2, 1, 1: one block claimed
    {(0, 0): 1, (1, 1): -1},          # ranks 2, 2
    {(0, 1): 1, (1, 0): 1},           # a swap, off the diagonal
    {(0, 0): 1, (0, 1): 1, (2, 2): 1},
])
def test_jordan_type_refuses_a_non_nilpotent_element(entries):
    """A diagonal block that is not nilpotent raises NotNilpotent, also
    where the rank falls to one block left before it stops falling."""
    R = build_gl(2, 1)
    with pytest.raises(NotNilpotent):
        jordan_type(R, R.from_entries(entries))


def test_jordan_type_equals_the_ranks_to_zero_reference():
    """Seeded sweep: on random nilpotents, strictly upper-triangular
    matrices of random density with their indices permuted inside each
    parity block, the Jordan type stopped at its last block equals the
    one read off the ranks of all powers."""
    rng = random.Random(30)
    for _ in range(400):
        m = rng.randint(0, 9)
        n = rng.randint(0 if m else 1, 9 - m)
        R = build_gl(m, n)
        entries = {}
        for block in (list(range(m)), list(range(m, m + n))):
            order = rng.sample(block, len(block))
            density = rng.choice([0.15, 0.3, 0.5, 0.9])
            for i, a in enumerate(order):
                for b in order[i + 1:]:
                    if rng.random() < density:
                        entries[a, b] = rng.choice([1, -1, 2, Fraction(1, 2)])
        e = R.from_entries(entries)
        expected = tuple(jordan_type_by_all_ranks(e.matrix.submatrix(b, b))
                         for b in (range(m), range(m, m + n)))
        assert jordan_type(R, e) == expected, entries


def test_every_dynkin_e_keeps_its_jordan_type():
    """The Dynkin e of every orbit of gl(m|n), m+n <= 7, and of
    osp(m|2n), m+2n <= 12, has Jordan type (p, q)."""
    orbits = [(build_gl(m, size - m), sp) for size in range(1, 8)
              for m in range(size + 1)
              for sp in enumerate_super_partitions(m, size - m)]
    orbits += [(build_osp(m, n2 // 2), sp) for m in range(1, 11)
               for n2 in range(2, 13 - m, 2)
               for sp in enumerate_super_partitions(m, n2)
               if is_orthosymplectic(sp)]
    assert len(orbits) > 500
    for R, sp in orbits:
        _, e, _ = dynkin_pair(sp, R)
        assert jordan_type(R, e) == (sp.p, sp.q), sp


def test_osp_pyramid_json_lists_every_box():
    Po = dynkin_pyramid_osp(SuperPartition((3, 3), (4,)))
    js = Po.to_json()
    assert len(js["boxes"]) == 10
