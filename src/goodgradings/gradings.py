"""Z-gradings from diagonal elements, the goodness test, and centralizers.

The rank form of goodness and the Richardson test are test-side references
(tests/reference.py): the package decides goodness by counting alone."""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import solve
from .partitions import (NotOrthosymplectic, is_orthosymplectic,
                         multiplicities)
# adjoint_matrix is bound here only for the bench tracer, whose test
# checks that it wraps the function in every namespace binding it
from .superalgebra import EVEN, adjoint_matrix, superbracket  # noqa: F401


class NoSolution(ValueError):
    pass


@dataclass
class Grading:
    ambient: object
    H: object                      # diagonal AlgebraElement
    degrees: tuple                 # integer ad-H eigenvalue per basis element

    def key(self):
        """Degree map fingerprint: the classifications are sorted by it."""
        return self.degrees

    def to_json(self):
        return {"H": [str(x) for x in self.H.diag()],
                "degrees": dict(zip(self.ambient.degree_keys, self.degrees))}


def grading_from(R, H):
    """Grading defined by ad H; every homogeneous basis element must be an
    eigenvector with integer eigenvalue (else NonIntegralGrading)."""
    return Grading(R, H, H.ad_degrees)


@dataclass
class Sl2Triple:
    """[e, f] = h, [h, e] = 2e and [h, f] = -2f, checked when the triple
    is made (else NoSolution).  Each relation compares the bracket's
    entries with the other side's: entries are `exact` and hold no zeros,
    so equal elements have equal entries."""
    e: object
    f: object
    h: object

    def __post_init__(self):
        if not self.verify():
            raise NoSolution("(e, f, h) breaks the sl2 relations")

    def verify(self):
        # [h, e] first: with [e, f] it raises AmbientMismatch for an h or
        # f of another realization before a comparison can return False
        e, f, h = self.e, self.f, self.h
        return superbracket(h, e).entries == e.scale(2).entries \
            and superbracket(e, f).entries == h.entries \
            and superbracket(h, f).entries == f.scale(-2).entries


@dataclass
class CentralizerReport:
    evenDim: int
    oddDim: int
    vectors: list                  # e.ad_kernel vectors {index: c}, read only


def _report(R, vectors):
    """CentralizerReport of even or odd kernel vectors, even first; the
    parity of each is read at any index of its support."""
    by_parity = ([], [])
    for v in vectors:
        by_parity[R.basis_parities[next(iter(v))]].append(v)
    even, odd = by_parity
    return CentralizerReport(len(even), len(odd), even + odd)


def centralizer(R, e):
    """ker(ad e), split by parity.  For e even or odd, ad e links no even
    column to an odd one, so each kernel vector is even or odd."""
    if e.parity() is None:
        raise ValueError("ker(ad e) of a mixed e is not split by parity")
    return _report(R, e.ad_kernel[1])


def dim_formula_gl(sp):
    """Closed-form centralizer dimensions for gl(m|n)."""
    p, q = sp.p, sp.q
    even = sum(min(a, b) for a in p for b in p) \
        + sum(min(a, b) for a in q for b in q)
    odd = 2 * sum(min(a, b) for a in p for b in q)
    return even, odd


def dim_formula_osp(sp):
    """Closed-form centralizer dimensions for osp(m|2n); the symplectic
    part is read with Sum(q) = 2n.  The halves (Sum(p) - #odd p) / 2 and
    (Sum(q) + #odd q) / 2 are integers, as a partition's sum and its
    number of odd parts have the same parity."""
    if not is_orthosymplectic(sp):
        raise NotOrthosymplectic(f"{sp} is not orthosymplectic")
    p, q = sp.p, sp.q
    odd_p, odd_q = sum(v % 2 for v in p), sum(v % 2 for v in q)
    even = (sum(p) - odd_p) // 2 + sum(i * v for i, v in enumerate(p)) \
        + (sum(q) + odd_q) // 2 + sum(j * v for j, v in enumerate(q))
    odd = sum(min(a, b) for a in p for b in q)
    return even, odd


def complete_sl2(R, e, h):
    """Find f completing (e, h) to an sl2-triple: solve [e, f] = h in basis
    coordinates over the (-2)-eigenspace of ad h.  With e in degree 2,
    ad e sends that eigenspace into degree 0, so only the degree-0 rows
    are solved; the triple's own relation check covers any other e.  An h
    outside g raises NoSolution; an h in g with a non-integer degree, which
    no sl2-triple has, raises NonIntegralGrading."""
    hc = h.coordinates
    if hc is None:
        raise NoSolution("h is not in the algebra")
    degrees = h.ad_degrees
    candidates = [j for j, p in enumerate(R.basis_parities)
                  if p == EVEN and degrees[j] == -2]
    rows = [i for i, d in enumerate(degrees) if d == 0]
    x = solve(e.ad_kernel[0].submatrix(rows, candidates),
              [hc.get(i, 0) for i in rows])
    if x is None:
        raise NoSolution("(e, h) does not complete to an sl2-triple")
    return Sl2Triple(e, R.from_coords({candidates[t]: c
                                       for t, c in x.items()}), h)


def predicted_block_types(R, sp):
    """Factor types of the sl2-centralizer from part multiplicities.

    gl: one gl(m_t|n_t) per distinct part value t.  osp: osp(a|b) per
    distinct value, with (a, b) = (p-mult, q-mult) for odd values and
    (q-mult, p-mult) for even values.
    """
    pm = dict(multiplicities(sp.p))
    qm = dict(multiplicities(sp.q))
    values = sorted(set(pm) | set(qm), reverse=True)
    out = []
    for v in values:
        a, b = pm.get(v, 0), qm.get(v, 0)
        if R.kind == "gl":
            out.append(("gl", a, b))
        else:
            out.append(("osp", a, b) if v % 2 == 1 else ("osp", b, a))
    return out


def block_type_dim(t):
    kind, a, b = t
    if kind == "gl":
        return (a + b) ** 2
    return a * (a - 1) // 2 + b * (b + 1) // 2 + a * b


def s_centralizer(R, triple):
    """Simultaneous centralizer g^s of an sl2-triple {e, f, h} with e even
    and h diagonal: the kernel vectors of ad e in h-degree 0.

    g is a finite-dimensional module over the even sl2 <e, h, f>, so a
    weight-0 vector that ad e kills spans a trivial submodule and f kills
    it too.  ad e has degree 2, so each kernel vector (the unique one with
    a 1 at its free column) lies in a single degree."""
    if triple.e.parity() != EVEN:
        raise NoSolution("(e, f, h) is not an even sl2-triple")
    degrees = triple.h.ad_degrees
    return _report(R, [v for v in triple.e.ad_kernel[1]
                        if all(degrees[j] == 0 for j in v)])


def _in_degree_2(g, e):
    """Is e in g(2)?  The zero element counts only for the zero grading."""
    ec = e.coordinates
    if ec is None or any(g.degrees[j] != 2 for j in ec):
        return False
    return not (e.is_zero() and any(g.degrees))


def is_good(g, e, dim=None):
    """Counting criterion: e in g(2) and dim g^e = dim g(0) + dim g(1),
    with dim the closed-form dim g^e where the caller knows e's orbit, and
    otherwise the count of ker(ad e) vectors.

    ad e has degree 2, so its kernel on g(j) has dimension at least
    dim g(j) - dim g(j+2); a diagonal H grades the root spaces g_a and g_-a
    oppositely, so dim g(j) = dim g(-j).  Summing over j >= 0 gives
    dim g^e >= dim g(0) + dim g(1), with equality exactly when ad e is
    injective on g(j) for j <= -1 and surjective for j >= -1.
    """
    if not _in_degree_2(g, e):
        return False
    if dim is None:
        dim = len(e.ad_kernel[1])
    return sum(d in (0, 1) for d in g.degrees) == dim
