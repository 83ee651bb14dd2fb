"""Pyramid combinatorics for nilpotent elements.

gl pyramids are stacks of centered-or-shifted rows, one per Jordan block,
ordered by merging the two partitions.  Orthosymplectic pyramids are the
centrally symmetric diagrams with skew-rows for odd-multiplicity parts;
both realize a nilpotent e and a diagonal grading element h.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .linalg import rank
from .partitions import (NotOrthosymplectic, SuperPartition, cp_dq,
                         dual_partition, is_orthosymplectic, multiplicities,
                         psi_merge)
from .superalgebra import EVEN, superbracket


class SizeMismatch(ValueError):
    pass


class PyramidError(ValueError):
    """A partition the pyramid rules cannot place, or a row not found."""


class MembershipFailure(ValueError):
    """A pyramid's (e, h) is not a realization: e outside osp, of the wrong
    Jordan type, or not of degree 2 under h."""


class NotNilpotent(ValueError):
    """An element whose Jordan type was asked for is not nilpotent."""


# ---------------------------------------------------------------------------
# gl pyramids


@dataclass(frozen=True)
class Pyramid:
    """Rows bottom-up: (length, parity tag '+'/'-', leftmost x-coordinate).

    Box x-coordinates in a row of length r starting at f are
    f, f+2, ..., f + 2(r-1); row i (from 1) has y = i.
    """

    rows: tuple  # of (length, tag, f)

    def __post_init__(self):
        rows = tuple((int(r), t, int(f)) for r, t, f in self.rows)
        object.__setattr__(self, "rows", rows)
        prev = None
        for r, t, f in rows:
            l = f + 2 * (r - 1)
            if prev is not None:
                pr, pf, pl = prev
                if not (r <= pr and pf <= f and l <= pl):
                    raise ValueError("rows not nested")
            prev = (r, f, l)
        if rows:
            r0, _, f0 = rows[0]
            if f0 != -(r0 - 1):
                raise ValueError("bottom row not centered")

    @property
    def m(self):
        return sum(r for r, t, f in self.rows if t == "+")

    @property
    def n(self):
        return sum(r for r, t, f in self.rows if t == "-")

    @property
    def boxes(self):
        """(x, y, parity, label) per box; labels 1..m even then m+1..m+n odd,
        assigned rows bottom-up, boxes left-to-right."""
        labels = {"+": itertools.count(1), "-": itertools.count(self.m + 1)}
        return [(f + 2 * i, y, tag, next(labels[tag]))
                for y, (r, tag, f) in enumerate(self.rows, start=1)
                for i in range(r)]

    def to_json(self):
        return {"rows": [{"len": r, "parity": t, "f": f}
                         for r, t, f in self.rows]}


def enumerate_pyr(sp):
    """All pyramids for the orbit (p, q): every integer row-shift choice
    satisfying the nesting inequalities."""
    merged = psi_merge(sp)
    if not merged:
        return [Pyramid(())]
    lengths = [r for r, _ in merged]
    f1 = -(lengths[0] - 1)
    choices = []
    for j in range(1, len(lengths)):
        gap = lengths[j - 1] - lengths[j]
        choices.append(range(0, 2 * gap + 1))
    out = []
    for offsets in itertools.product(*choices):
        fs = [f1]
        for off in offsets:
            fs.append(fs[-1] + off)
        out.append(Pyramid(tuple((r, t, f)
                                 for (r, t), f in zip(merged, fs))))
    return out


def dynkin_pyramid_gl(sp):
    """The centered (symmetric) pyramid: every row has f = -(r-1)."""
    merged = psi_merge(sp)
    return Pyramid(tuple((r, t, -(r - 1)) for r, t in merged))


def _steps(boxes):
    """Pairs (a, b) of box labels with a term E_{a,b} in e: each box b steps
    to the box a two columns to its right.  No two rows share a y, so a is
    in b's row."""
    label_at = {(x, y): lab for x, y, t, lab in boxes}
    return [(label_at[x + 2, y], lab) for x, y, t, lab in boxes
            if (x + 2, y) in label_at]


def realize_pyramid(P, R):
    """(e, h) in gl(m|n) from a pyramid: h = diag of box x-coordinates,
    e steps each box to its right neighbor (degree 2)."""
    if R.kind != "gl" or P.m != R.m or P.n != R.odd_dim:
        raise SizeMismatch("pyramid size (%d|%d) vs realization (%d|%d)"
                           % (P.m, P.n, R.m, R.odd_dim))
    boxes = P.boxes
    h = R.diagonal({label: x for x, y, t, label in boxes})
    e = R.from_entries({(R.index(a), R.index(b)): 1
                        for a, b in _steps(boxes)})
    return e, h


def dynkin_pair(sp, R):
    """The Dynkin pyramid P of the orbit and its (e, h) in R: (P, e, h)."""
    if R.kind == "gl":
        P = dynkin_pyramid_gl(sp)
        return (P,) + realize_pyramid(P, R)
    P = dynkin_pyramid_osp(sp)
    return (P,) + realize_osp_pyramid(P, R)


# ---------------------------------------------------------------------------
# orthosymplectic pyramids


@dataclass
class OspPyramid:
    """Centrally symmetric pyramid.

    rows: list of dicts {"y", "kind", "part", "parity", "cols"} where kind is
    one of zeroth / even / odd / even_skew / odd_skew, covering the upper half
    (y >= 0) bottom-up; the lower half is the central mirror, and no two
    rows share a y.  boxes: (x, y, parity, label) in the format of
    `Pyramid.boxes`, with mirror boxes labeled by negation and the origin
    labeled 0.
    """

    sp: SuperPartition
    rows: list
    boxes: list

    @property
    def m(self):
        return self.sp.m

    @property
    def n(self):
        """dim V1 = sum of q."""
        return self.sp.n

    def to_json(self):
        return {"boxes": [{"x": x, "y": y, "parity": t, "label": lab}
                          for x, y, t, lab in self.boxes]}


def _centered_cols(r):
    return list(range(1 - r, r, 2))


def dynkin_pyramid_osp(sp):
    """Build the orthosymplectic Dynkin pyramid for an orthosymplectic (p|q).

    Zeroth row from the largest odd-multiplicity part of p when m is odd;
    remaining odd-multiplicity parts of p pair into even skew-rows; even
    multiplicities give centered rows; a q-part with odd multiplicity gives
    an odd skew-row.  The lower half is the central mirror image.
    """
    if not is_orthosymplectic(sp):
        raise NotOrthosymplectic(f"{sp} is not orthosymplectic")
    m = sp.m
    p_mult = dict(multiplicities(sp.p))
    q_mult = dict(multiplicities(sp.q))

    rows = []
    if m % 2 == 1:
        rk = max(v for v, c in p_mult.items() if c % 2 == 1)
        p_mult[rk] -= 1
        rows.append({"y": 0, "kind": "zeroth", "part": rk, "parity": "+",
                     "cols": _centered_cols(rk)})

    odd_mult_parts = sorted((v for v, c in p_mult.items() if c % 2 == 1),
                            reverse=True)
    pairs = dict(zip(odd_mult_parts[::2], odd_mult_parts[1::2]))  # c -> d
    for c, d in pairs.items():
        p_mult[c] -= 1
        p_mult[d] -= 1
    if any(c % 2 for c in p_mult.values()):
        raise PyramidError("%s leaves a part of p unpaired" % (sp,))

    upper = []  # row specs above the axis, in bottom-up emission order
    values = sorted(set(p_mult) | set(q_mult), reverse=True)
    for v in values:
        if v in pairs:
            c, d = v, pairs[v]
            upper.append({"kind": "even_skew", "part": (c, d), "parity": "+",
                          "cols": list(range(1 - d, c, 2))})
        for _ in range(p_mult.get(v, 0) // 2):
            upper.append({"kind": "even", "part": v, "parity": "+",
                          "cols": _centered_cols(v)})
        qcnt = q_mult.get(v, 0)
        if qcnt % 2 == 1:
            if v % 2:
                raise PyramidError("odd part %d of q has odd multiplicity"
                                   % v)
            upper.append({"kind": "odd_skew", "part": v, "parity": "-",
                          "cols": list(range(1, v, 2))})
        for _ in range(qcnt // 2):
            upper.append({"kind": "odd", "part": v, "parity": "-",
                          "cols": _centered_cols(v)})

    for j, spec in enumerate(upper, start=1):
        spec["y"] = 2 * j if m % 2 == 1 else 2 * j - 1
        rows.append(spec)

    # label the upper half (y > 0, or y = 0 and x > 0) rows bottom-up, boxes
    # left-to-right: even boxes 1..k, odd boxes k+1..k+n; mirrors negate
    labels = {"+": itertools.count(1), "-": itertools.count(m // 2 + 1)}
    boxes = []
    for spec in rows:
        y, parity = spec["y"], spec["parity"]
        for x in spec["cols"]:
            if (x, y) == (0, 0):
                boxes.append((0, 0, parity, 0))
            elif y > 0 or x > 0:
                lab = next(labels[parity])
                boxes += [(x, y, parity, lab), (-x, -y, parity, -lab)]
    total = m + sp.n
    if len(boxes) != total:
        raise PyramidError("%d boxes for %d basis vectors"
                           % (len(boxes), total))
    return OspPyramid(sp, rows, boxes)


def _osp_connections(P):
    """Pairs (a, b) of box labels with a term E_{a,b} in e: the steps within
    rows, and each skew row's crossings to its mirror row."""
    label_at = {(x, y): lab for x, y, t, lab in P.boxes}
    conns = _steps(P.boxes)
    for spec in P.rows:
        y = spec["y"]
        if spec["kind"] == "even_skew":     # columns 0 -> 2 and -2 -> 0
            conns.append((label_at[2, y], label_at[0, -y]))
            conns.append((label_at[0, y], label_at[-2, -y]))
        elif spec["kind"] == "odd_skew":    # column -1 -> 1
            conns.append((label_at[1, y], label_at[-1, -y]))
    return conns


def _restricted_jordan_type(mat, indices):
    """Jordan type of a nilpotent matrix restricted to a coordinate block;
    NotNilpotent if the block is not nilpotent.

    With r_k = rank(sub^k), r_(k-1) - r_k counts the blocks of size >= k,
    and these counts form the conjugate partition.  A count of 0 with r_k
    nonzero means the ranks stopped falling.  Once a count is 1, the one
    block left has size k + r_k, so the counts after it are r_k ones, and
    sub^(k + r_k) must vanish: sub^k is squared until its exponent reaches
    k + r_k, in place of ranking the r_k powers between."""
    sub = mat.submatrix(indices, indices)
    dual, power, k, last = [], sub, 1, len(indices)
    while last:
        left = rank(power)
        if left == last:
            raise NotNilpotent("rank %d of a power repeats" % left)
        dual.append(last - left)
        if last - left == 1:
            exponent = k
            while exponent < k + left:
                power, exponent = power @ power, 2 * exponent
            if power.nonzero:
                raise NotNilpotent("one block left, of size %d, but its "
                                   "power does not vanish" % (k + left))
            dual += [1] * left
            break
        k, last = k + 1, left
        if last:
            power = power @ sub
    return dual_partition(tuple(dual))


def jordan_type(R, e):
    """Jordan type of an even nilpotent element on (V0, V1); NotNilpotent
    if a diagonal block of e is not nilpotent."""
    mat = e.matrix
    return (_restricted_jordan_type(mat, range(R.m)),
            _restricted_jordan_type(mat, range(R.m, R.size)))


def realize_osp_pyramid(P, R):
    """(e, h) in osp(m|2n) from an orthosymplectic pyramid; each entry of e
    takes its sign from the even basis element whose support holds it."""
    if R.kind != "osp" or P.m != R.m or P.n != R.odd_dim:
        raise SizeMismatch("pyramid (%d|%d) vs realization (%d|%d)"
                           % (P.m, P.n, R.m, R.odd_dim))
    h = R.diagonal({lab: x for x, y, t, lab in P.boxes})
    entries = {}
    for a, b in _osp_connections(P):
        ab = (R.index(a), R.index(b))
        if ab not in R.even_signs:
            raise MembershipFailure("e is not in osp")
        entries[ab] = R.even_signs[ab]
    e = R.from_entries(entries)
    coords = e.coordinates
    if coords is None or any(R.basis_parities[j] != EVEN for j in coords):
        raise MembershipFailure("e is not in osp")
    jt = jordan_type(R, e)
    if jt != (P.sp.p, P.sp.q):
        raise MembershipFailure("Jordan type %s != %s" % (jt, (P.sp.p, P.sp.q)))
    if superbracket(h, e).entries != e.scale(2).entries:
        raise MembershipFailure("[h, e] != 2e")
    return e, h


def shift_rows(P):
    """The labels of the one upper row of each C(p) part (descending), then
    of each D(q) part: a shift moves these boxes by its value and their
    mirrors, labeled by negation, by minus it."""
    cp, dq = cp_dq(P.sp)
    label_at = {(x, y): lab for x, y, _, lab in P.boxes}
    out = []
    for kind, parts in (("even", cp), ("odd", dq)):
        for part in parts:
            rows = [spec for spec in P.rows
                    if spec["kind"] == kind and spec["part"] == part]
            if len(rows) != 1:
                raise PyramidError("part %s has %d shiftable rows, not 1"
                                   % (part, len(rows)))
            out.append([label_at[x, rows[0]["y"]] for x in rows[0]["cols"]])
    return out


# ---------------------------------------------------------------------------
# rendering


def render(P):
    """ASCII picture: one line per row, top-down, parity marks at the box
    x-coordinates."""
    boxes = P.boxes
    if not boxes:
        return ""
    xmin = min(x for x, y, t, lab in boxes)
    lines = []
    for y in sorted({y for x, y, t, lab in boxes}, reverse=True):
        marks = {x: t for x, yy, t, lab in boxes if yy == y}
        line = [" "] * (2 * (max(marks) - xmin + 1))
        for x, t in marks.items():
            line[2 * (x - xmin)] = t
        lines.append("".join(line).rstrip())
    return "\n".join(lines)
