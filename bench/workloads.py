"""The benchmark's workloads: orbit requests, how to run them, exact checks.

One *orbit request* is the per-orbit pipeline of a workload: a sequence of
library calls for `dynkin_sweep`, one in-process
`goodgradings.cli.main(argv)` call with stdout captured and parsed for
`classify_oracle` and `pyramid_diagram`.  `check` runs after the timed
call and turns its result into a canonical, seed-independent record, or
raises `CheckFailed`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

# the program under test is the source tree next to this directory
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
sys.path.insert(0, SRC)

# Library calls go through the module attributes, so that a traced run's
# wrappers (installed on those attributes) see them.
from goodgradings import (cli, gradings, pyramids, roots,  # noqa: E402
                          superalgebra)
from goodgradings.partitions import (SuperPartition,  # noqa: E402
                                     enumerate_super_partitions,
                                     is_orthosymplectic)

# Known classification counts of the named orbits.
KNOWN_COUNTS = {
    ("gl", (3, 1), (4, 2)): 27,
    ("osp", (3, 3), (4,)): 3,
    ("osp", (3, 3, 1, 1), (2, 2)): 19,
}


class CheckFailed(Exception):
    """An orbit request returned a wrong answer."""


@dataclass(frozen=True)
class Request:
    kind: str                  # "gl" or "osp"
    sp: SuperPartition
    verb: str = ""             # CLI verb; "" for a library pipeline
    bound: int = 0             # classify --bound (0: none)

    @property
    def argv(self):
        out = [self.verb, self.kind, str(self.sp.m), str(self.sp.n),
               "--orbit", json.dumps(self.sp.to_json())]
        return out + ["--bound", str(self.bound)] if self.bound else out

    @property
    def key(self):
        """Seed-independent identity, used to sort outputs for the digest."""
        return " ".join(self.argv).strip()


@dataclass(frozen=True)
class CliOutput:
    rc: int
    text: str


@dataclass(frozen=True)
class Workload:
    name: str
    requests: Callable          # size ("full" or "smoke") -> [Request]
    run: Callable               # Request -> raw result (the timed part)
    check: Callable             # (Request, raw) -> canonical dict


def _expect(cond, what, req):
    if not cond:
        raise CheckFailed("%s for %s" % (what, req.key))


def _osp_orbits(limit):
    """Orthosymplectic orbits of osp(m|2n), m, n >= 1, in increasing m+2n."""
    return [sp for size in range(3, limit + 1)
            for m in range(1, size - 1) if (size - m) % 2 == 0
            for sp in enumerate_super_partitions(m, size - m)
            if is_orthosymplectic(sp)]


def _gl_orbits(limit, min_dim):
    """Orbits of gl(m|n) with 1 <= m+n <= limit and m, n >= min_dim."""
    return [sp for size in range(1, limit + 1)
            for m in range(min_dim, size - min_dim + 1)
            for sp in enumerate_super_partitions(m, size - m)]


def _algebra(req):
    sp = req.sp
    return superalgebra.build_gl(sp.m, sp.n) if req.kind == "gl" \
        else superalgebra.build_osp(sp.m, sp.n // 2)


def _dynkin(req, R):
    if req.kind == "gl":
        return pyramids.realize_pyramid(pyramids.dynkin_pyramid_gl(req.sp), R)
    return pyramids.realize_osp_pyramid(
        pyramids.dynkin_pyramid_osp(req.sp), R)


def _dim_formula(req):
    return gradings.dim_formula_gl(req.sp) if req.kind == "gl" \
        else gradings.dim_formula_osp(req.sp)


def pyramid_count(sp):
    """Number of gl pyramids: rows sorted by length, each row may shift by
    any of 2*gap+1 positions over the row below it."""
    lengths = sorted(sp.p + sp.q, reverse=True)
    count = 1
    for below, above in zip(lengths, lengths[1:]):
        count *= 2 * (below - above) + 1
    return count


def expected_count(req):
    known = KNOWN_COUNTS.get((req.kind, req.sp.p, req.sp.q))
    if known is not None:
        return known
    if req.kind == "gl":
        return pyramid_count(req.sp)
    raise CheckFailed("no known classification count for %s" % req.key)


# ---------------------------------------------------------------------------
# library pipelines


def _dynkin_requests(size):
    osp_limit, gl_limit = (8, 5) if size == "full" else (4, 2)
    return ([Request("osp", sp) for sp in _osp_orbits(osp_limit)]
            + [Request("gl", sp) for sp in _gl_orbits(gl_limit, 1)])


def _dynkin_run(req):
    R = _algebra(req)
    e, h = _dynkin(req, R)
    rep = gradings.centralizer(R, e)
    g = gradings.grading_from(R, h)
    good = gradings.is_good(g, e)
    triple = gradings.complete_sl2(R, e, h)
    base = roots.find_nonnegative_base(g)
    return R, e, rep, g, good, triple, base


def _dynkin_check(req, raw):
    R, e, rep, g, good, triple, base = raw
    _expect(pyramids.jordan_type(R, e) == (req.sp.p, req.sp.q),
            "Jordan type", req)
    _expect((rep.evenDim, rep.oddDim) == _dim_formula(req),
            "centralizer dimensions", req)
    _expect(triple.verify(), "sl2-triple relations", req)
    _expect(good, "Dynkin grading is good", req)
    _expect(set(base.marks) <= {0, 1, 2}, "diagram marks in {0,1,2}", req)
    return {"dims": [rep.evenDim, rep.oddDim], "degrees": list(g.degrees),
            "f": [str(x) for x in triple.f.matrix.entries],
            "diagram": base.to_json()}


# ---------------------------------------------------------------------------
# CLI requests


def _cli_run(req):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(req.argv)
        except SystemExit as exc:      # argparse rejected the argv
            rc = exc.code
    return CliOutput(rc, buf.getvalue())


def _cli_check(req, raw):
    _expect(raw.rc == 0, "exit code 0 (got %r)" % raw.rc, req)
    out = json.loads(raw.text)
    if req.verb == "classify":
        count = expected_count(req)
        _expect(out["count"] == count == len(out["gradings"]),
                "classification count %d (got %s)" % (count, out["count"]),
                req)
        if req.bound:
            _expect(out["notes"].get("oracleAgrees") is True,
                    "oracle agrees", req)
        elif req.kind == "osp":
            _expect(out["notes"].get("case", "").startswith("1 in C(p)"),
                    "1 in C(p) oracle path", req)
    elif req.verb == "diagram":
        _expect(set(out["marks"]) <= {0, 1, 2}, "diagram marks in {0,1,2}",
                req)
        _expect(len(out["marks"]) == len(out["simple"]), "one mark per root",
                req)
    elif req.kind == "gl":             # pyramids
        _expect(out["count"] == pyramid_count(req.sp)
                == len(out["pyramids"]), "pyramid count", req)
    else:
        _expect(len(out["pyramid"]["boxes"]) == req.sp.m + req.sp.n,
                "one box per basis vector", req)
    return {"rc": raw.rc, "output": out}


def _classify_requests(size):
    gl_limit = 5 if size == "full" else 2
    reqs = [Request("gl", sp, "classify", max(sp.p + sp.q))
            for sp in _gl_orbits(gl_limit, 0)]
    named = [Request("osp", SuperPartition((3, 3), (4,)), "classify", 4)]
    if size == "full":
        named += [Request("gl", SuperPartition((3, 1), (4, 2)), "classify",
                          4),
                  Request("osp", SuperPartition((3, 3, 1, 1), (2, 2)),
                          "classify")]
    return reqs + named


# gl orbits with many pyramids (distinct part values with gaps)
PYRAMID_ORBITS = [((4, 2), (5, 3, 1)), ((3, 1), (4, 2)), ((4, 2), (3, 1)),
                  ((5, 1), (4, 2)), ((6, 2), (4,)), ((5, 3), (4, 2)),
                  ((3, 1), (5, 3, 1))]


def _pyramid_requests(size):
    if size == "full":
        gl = [SuperPartition(p, q) for p, q in PYRAMID_ORBITS]
        big = [SuperPartition((4, 3, 2, 1), (4, 3, 2, 1))]
        osp = _osp_orbits(7)
    else:
        gl = [SuperPartition((2, 1), (1,))]
        big = [SuperPartition((1,), (1,))]
        osp = _osp_orbits(4)
    return ([Request("gl", sp, verb) for sp in gl
             for verb in ("classify", "pyramids")]
            + [Request("gl", sp, "diagram") for sp in big]
            + [Request("osp", sp, verb) for sp in osp
               for verb in ("diagram", "pyramids")])


WORKLOADS = {w.name: w for w in [
    Workload("dynkin_sweep", _dynkin_requests, _dynkin_run, _dynkin_check),
    Workload("classify_oracle", _classify_requests, _cli_run, _cli_check),
    Workload("pyramid_diagram", _pyramid_requests, _cli_run, _cli_check),
]}
