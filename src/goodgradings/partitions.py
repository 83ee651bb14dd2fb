"""Super partitions labeling nilpotent even orbits, and their combinatorics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache


class NotOrthosymplectic(ValueError):
    pass


def _check_partition(parts):
    parts = tuple(parts)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in parts):
        raise ValueError("partition parts must be integers, got %r"
                         % (parts,))
    if any(x <= 0 for x in parts):
        raise ValueError("partition parts must be positive")
    if list(parts) != sorted(parts, reverse=True):
        raise ValueError("partition parts must be non-increasing")
    return parts


@dataclass(frozen=True)
class SuperPartition:
    """Pair (p, q): p labels the even Jordan blocks, q the odd ones."""

    p: tuple
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", _check_partition(self.p))
        object.__setattr__(self, "q", _check_partition(self.q))

    @property
    def m(self):
        return sum(self.p)

    @property
    def n(self):
        return sum(self.q)

    def to_json(self):
        return {"p": list(self.p), "q": list(self.q)}

    @classmethod
    def from_json(cls, obj):
        if not (isinstance(obj, dict)
                and all(isinstance(obj.get(k), list) for k in "pq")):
            raise ValueError('expected an object {"p": [...], "q": [...]}')
        return cls(tuple(obj["p"]), tuple(obj["q"]))


@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of n, largest part first, lexicographically descending."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(maxpart, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def enumerate_super_partitions(m, n):
    """All (p, q) with p a partition of m and q of n."""
    return [SuperPartition(p, q)
            for p in partitions_of(m) for q in partitions_of(n)]


def multiplicities(parts):
    """Distinct parts (descending) with multiplicities."""
    return sorted(Counter(parts).items(), reverse=True)


def is_orthosymplectic(sp):
    """p orthogonal (even parts have even multiplicity) and q symplectic
    (odd parts have even multiplicity)."""
    for part, mult in multiplicities(sp.p):
        if part % 2 == 0 and mult % 2 == 1:
            return False
    for part, mult in multiplicities(sp.q):
        if part % 2 == 1 and mult % 2 == 1:
            return False
    return True


def dual_partition(parts):
    """Conjugate partition."""
    parts = tuple(parts)
    if not parts:
        return ()
    return tuple(sum(1 for x in parts if x >= k)
                 for k in range(1, parts[0] + 1))


def psi_merge(sp):
    """Merge p and q into one descending sequence of (value, tag) rows.

    Tags are '+' for rows from p and '-' for rows from q; on ties the
    p-part is placed first (the sort is stable).
    """
    return sorted([(x, "+") for x in sp.p] + [(x, "-") for x in sp.q],
                  key=lambda row: -row[0])


@lru_cache(maxsize=None)
def cp_dq(sp):
    """The shift-carrying part sets C(p), D(q), each descending.

    C(p): odd parts of p with multiplicity exactly 2 that do not occur in q.
    D(q): even parts of q with multiplicity exactly 2 that do not occur in p.
    Cached per orbit (a raised NotOrthosymplectic is not cached).
    """
    if not is_orthosymplectic(sp):
        raise NotOrthosymplectic(f"{sp} is not orthosymplectic")
    jp = set(sp.p)
    jq = set(sp.q)
    cp = [part for part, mult in multiplicities(sp.p)
          if part % 2 == 1 and mult == 2 and part not in jq]
    dq = [part for part, mult in multiplicities(sp.q)
          if part % 2 == 0 and mult == 2 and part not in jp]
    return tuple(cp), tuple(dq)
