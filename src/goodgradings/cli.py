"""Command-line front end.

Subcommands: classify, verify, centralizer, pyramids, diagram, selftest.
Output is JSON (rationals as "a/b" strings); --pretty indents the JSON and
renders pyramids as ASCII.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .classification import (brute_force_shifts, good_gradings_gl,
                             good_gradings_osp)
from .gradings import (block_type_dim, centralizer, complete_sl2,
                       dim_formula_gl, dim_formula_osp, grading_from, is_good,
                       predicted_block_types, s_centralizer)
from .linalg import exact
from .partitions import (NotOrthosymplectic, SuperPartition,
                         enumerate_super_partitions, is_orthosymplectic)
from .pyramids import dynkin_pair, dynkin_pyramid_osp, enumerate_pyr, render
from .roots import find_nonnegative_base
from .superalgebra import (DimensionError, NonIntegralGrading, build_gl,
                           build_osp, check_size)


class UsageError(Exception):
    pass


# Errors that mean the request is malformed: exit 2 with a message.
INPUT_ERRORS = (UsageError, DimensionError, NonIntegralGrading,
                NotOrthosymplectic)


def _parse_orbit(text):
    try:
        obj = json.loads(text)
        return SuperPartition.from_json(obj)
    except ValueError as exc:
        raise UsageError("bad --orbit value: %s" % exc)


def _size(args):
    """(m, n) of the requested gl(m|n) or osp(m|2n), checked without
    building the algebra."""
    if args.kind == "osp" and args.n % 2:
        raise UsageError("osp odd dimension must be even (osp(m|2n))")
    m, n = args.m, args.n if args.kind == "gl" else args.n // 2
    check_size(args.kind, m, n)
    return m, n


def _algebra(args):
    return (build_gl if args.kind == "gl" else build_osp)(*_size(args))


def _check_orbit_size(sp, args):
    if sp.m != args.m or sp.n != args.n:
        raise UsageError("orbit (%d|%d) does not match algebra (%d|%d)"
                         % (sp.m, sp.n, args.m, args.n))


def _emit(obj, args):
    print(json.dumps(obj, indent=2 if args.pretty else None))


def cmd_classify(args):
    sp = _parse_orbit(args.orbit)
    _check_orbit_size(sp, args)
    out = (good_gradings_gl if args.kind == "gl" else good_gradings_osp)(sp)
    if args.bound:
        largest = max(sp.p + sp.q)
        if args.bound < largest:
            raise UsageError("bound %d is below the largest part %d"
                             % (args.bound, largest))
        oracle = brute_force_shifts(_algebra(args), sp)
        out.notes["oracleAgrees"] = out.keys() == oracle.keys()
    _emit(out.to_json(), args)
    return 0


def _json(text, what):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise UsageError("bad %s value %r: %s" % (what, text, exc))


def _rationals(items, what):
    """Numbers or "a/b" strings as `exact` values."""
    if not isinstance(items, list):
        raise UsageError("%s must be a list, got %r" % (what, items))
    try:
        return [exact(str(x)) for x in items]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad %s entry: %s" % (what, exc))


def _parse_e(text, R):
    text = text.strip()
    s = R.size
    if text.startswith("E"):
        body = text[1:]
        try:
            if "," in body:
                i, j = (int(x) for x in body.split(","))
            elif len(body) == 2:
                i, j = int(body[0]), int(body[1])
            else:
                raise ValueError("expected E<i><j> or E<i>,<j>")
        except ValueError as exc:
            raise UsageError("cannot parse element spec %r: %s"
                             % (text, exc))
        if not (1 <= i <= s and 1 <= j <= s):
            raise UsageError("%s is outside the %dx%d matrices" % (text, s, s))
        return R.from_entries({(i - 1, j - 1): 1})
    rows = _json(text, "--e")
    if not isinstance(rows, list) or len(rows) != s:
        raise UsageError("--e must be a %dx%d matrix" % (s, s))
    rows = [_rationals(row, "--e row") for row in rows]
    if any(len(row) != s for row in rows):
        raise UsageError("--e must be a %dx%d matrix" % (s, s))
    return R.from_entries({(i, j): v for i, row in enumerate(rows)
                           for j, v in enumerate(row)})


def cmd_verify(args):
    _size(args)
    diag = _rationals(_json(args.H, "--H"), "--H")
    if len(diag) != args.m + args.n:
        raise UsageError("need %d diagonal entries" % (args.m + args.n))
    R = _algebra(args)
    g = grading_from(R, R.from_entries({(i, i): v
                                        for i, v in enumerate(diag)}))
    e = _parse_e(args.e, R)
    if e.coordinates is None:
        raise UsageError("e is not in %s(%d|%d)" % (args.kind, args.m, args.n))
    good = is_good(g, e)
    _emit({"good": good, "degrees": g.to_json()["degrees"]}, args)
    return 0 if good else 1


def _dim_formula(sp, kind):
    return dim_formula_gl(sp) if kind == "gl" else dim_formula_osp(sp)


def cmd_centralizer(args):
    sp = _parse_orbit(args.orbit)
    _check_orbit_size(sp, args)
    R = _algebra(args)
    _, e, h = dynkin_pair(sp, R)
    formula = _dim_formula(sp, args.kind)
    rep = centralizer(R, e)
    srep = s_centralizer(R, complete_sl2(R, e, h))
    types = predicted_block_types(R, sp)
    out = {"orbit": sp.to_json(),
           "evenDim": rep.evenDim, "oddDim": rep.oddDim,
           "formulaEvenDim": formula[0], "formulaOddDim": formula[1],
           "sCentralizerDim": srep.evenDim + srep.oddDim,
           "blockTypes": [list(t) for t in types],
           "predictedBlockDim": sum(block_type_dim(t) for t in types)}
    _emit(out, args)
    return 0 if (rep.evenDim, rep.oddDim) == formula \
        and out["sCentralizerDim"] == out["predictedBlockDim"] else 1


def cmd_pyramids(args):
    sp = _parse_orbit(args.orbit)
    _check_orbit_size(sp, args)
    _size(args)
    if args.kind == "gl":
        pyrs = enumerate_pyr(sp)
        if args.pretty:
            for P in pyrs:
                print(render(P))
                print()
        else:
            _emit({"orbit": sp.to_json(), "count": len(pyrs),
                   "pyramids": [P.to_json() for P in pyrs]}, args)
    else:
        P = dynkin_pyramid_osp(sp)
        if args.pretty:
            print(render(P))
        else:
            _emit({"orbit": sp.to_json(), "pyramid": P.to_json()}, args)
    return 0


def cmd_diagram(args):
    sp = _parse_orbit(args.orbit)
    _check_orbit_size(sp, args)
    R = _algebra(args)
    _, e, h = dynkin_pair(sp, R)
    base = find_nonnegative_base(grading_from(R, h))
    _emit(dict(base.to_json(), orbit=sp.to_json()), args)
    return 0


def _selftest_orbits(limit):
    """(orbit, algebra) for gl(m|n), m+n <= limit, then osp(m|2n),
    m+2n <= limit, all with m, n >= 1."""
    for m in range(1, limit):
        for n in range(1, limit - m + 1):
            for sp in enumerate_super_partitions(m, n):
                yield sp, build_gl(m, n)
    for m in range(1, limit + 1):
        for n2 in range(2, limit - m + 1, 2):
            for sp in enumerate_super_partitions(m, n2):
                if is_orthosymplectic(sp):
                    yield sp, build_osp(m, n2 // 2)


def cmd_selftest(args):
    if args.max_size < 2:
        raise UsageError("--max-size must be at least 2, the size of "
                         "gl(1|1)")
    failures = []
    for sp, R in _selftest_orbits(args.max_size):
        _, e, h = dynkin_pair(sp, R)
        rep = centralizer(R, e)
        if (rep.evenDim, rep.oddDim) != _dim_formula(sp, R.kind):
            failures.append("%s dims %s" % (R.kind, sp))
        if not is_good(grading_from(R, h), e):
            failures.append("%s dynkin not good %s" % (R.kind, sp))
    _emit({"checked": "all orbits with m+n <= %d" % args.max_size,
           "failures": failures}, args)
    return 0 if not failures else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process (parsing leaves it
    unchanged)."""
    ap = argparse.ArgumentParser(
        prog="goodgradings",
        description="Classify and verify good Z-gradings of gl(m|n) "
                    "and osp(m|2n).")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, orbit=True):
        p.add_argument("kind", choices=["gl", "osp"])
        p.add_argument("m", type=int)
        p.add_argument("n", type=int,
                       help="odd dimension (2n for osp(m|2n))")
        if orbit:
            p.add_argument("--orbit", required=True,
                           help='JSON, e.g. {"p":[3,1],"q":[4,2]}')
        p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("classify", help="all good gradings for an orbit")
    common(p)
    p.add_argument("--bound", type=int, default=0,
                   help="also run the polytope oracle, which needs no "
                        "bound: this one must be at least the largest part")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="check a user-supplied grading")
    common(p, orbit=False)
    p.add_argument("--H", required=True, help="JSON diagonal, e.g. [1,-1]")
    p.add_argument("--e", required=True,
                   help="element: E12, E1,2 or JSON matrix")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("centralizer", help="centralizer dims and blocks")
    common(p)
    p.set_defaults(func=cmd_centralizer)

    p = sub.add_parser("pyramids", help="enumerate or render pyramids")
    common(p)
    p.set_defaults(func=cmd_pyramids)

    p = sub.add_parser("diagram", help="characteristic of the Dynkin grading")
    common(p)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("selftest", help="run the built-in checks")
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
