"""Output equivalence sweeps: python3 tools/equivalence.py

Runs fixed sweeps of the package and prints one sha256 per sweep, next to
the digest that tools/equivalence.json records for it.  Exits 0 when every
digest matches and 1 otherwise.  Two checkouts print the same digests
exactly when their output is the same on the sweeps, so a change that
claims byte-identical output shows it with this one command; a change
that alters output on purpose updates tools/equivalence.json.

The sweeps:
- `good_gradings_gl` on every gl orbit with m+n <= 8 (m or n may be 0),
  and `good_gradings_osp` on every orthosymplectic orbit with m+2n <= 16:
  one line per orbit, json.dumps(S.to_json(), sort_keys=True) + "\\n",
  with the orbits in `enumerate_super_partitions` order, by size and
  then by m;
- the polytope oracle, `brute_force_shifts`, on the same gl orbits and
  on the osp orbits with m+2n <= 14, hashed the same way;
- `find_nonnegative_base` on every good grading of those gl orbits and
  osp orbits with m+2n <= 14 (4,649 gradings): one line per grading,
  json.dumps(base.to_json()) + "\\n", in classifier order;
- `cli`: argv, exit code, stdout and stderr of `cli.main` on CLI_ARGV
  (every verb, --pretty, --bound, and malformed inputs), one JSON line
  each, with COLUMNS=80 so that argparse's usage lines do not depend on
  the terminal.  argparse words its messages per Python version, so this
  digest is that of the Python version named in the JSON file.

Stdlib only and not part of the tier-1 run; tier-1 checks the two
classifier sweeps and the base sweep on smaller ranges (the `SLICES`)
against the same file (tests/test_equivalence.py).  The full sweeps take
a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from goodgradings.classification import (brute_force_shifts,  # noqa: E402
                                         good_gradings_gl, good_gradings_osp)
from goodgradings.cli import main as cli_main  # noqa: E402
from goodgradings.partitions import (enumerate_super_partitions,  # noqa: E402
                                     is_orthosymplectic)
from goodgradings.roots import find_nonnegative_base  # noqa: E402
from goodgradings.superalgebra import build_gl, build_osp  # noqa: E402

EXPECTED = ROOT / "tools" / "equivalence.json"


def gl_orbits(limit):
    """Every gl orbit with m+n <= limit, by size and then by m."""
    for size in range(1, limit + 1):
        for m in range(size + 1):
            yield from enumerate_super_partitions(m, size - m)


def osp_orbits(limit):
    """Every orthosymplectic orbit with m+2n <= limit, m, n >= 1, by size
    and then by m."""
    for size in range(3, limit + 1):
        for m in range(1, size - 1):
            if (size - m) % 2 == 0:
                yield from (sp for sp in enumerate_super_partitions(
                    m, size - m) if is_orthosymplectic(sp))


def classified(classify, orbits):
    for sp in orbits:
        yield json.dumps(classify(sp).to_json(), sort_keys=True) + "\n"


def bases(gl_limit, osp_limit):
    """The nonnegative base of every good grading of the gl orbits with
    m+n <= gl_limit and then of the osp orbits with m+2n <= osp_limit."""
    for classify, orbits in ((good_gradings_gl, gl_orbits(gl_limit)),
                             (good_gradings_osp, osp_orbits(osp_limit))):
        for sp in orbits:
            for g in classify(sp).gradings:
                yield json.dumps(find_nonnegative_base(g).to_json()) + "\n"


def oracle_gl(sp):
    return brute_force_shifts(build_gl(sp.m, sp.n), sp)


def oracle_osp(sp):
    return brute_force_shifts(build_osp(sp.m, sp.n // 2), sp)


ORBIT21 = ["--orbit", '{"p":[2],"q":[1]}']
ORBIT64 = ["--orbit", '{"p":[3,3],"q":[4]}']
WELL_FORMED = [
    ["classify", "gl", "2", "1", *ORBIT21],
    ["classify", "gl", "2", "1", *ORBIT21, "--pretty"],
    ["classify", "gl", "2", "1", *ORBIT21, "--bound", "2"],
    ["classify", "gl", "2", "1", *ORBIT21, "--bound", "1"],
    ["classify", "gl", "4", "6", "--orbit", '{"p":[3,1],"q":[4,2]}'],
    ["classify", "osp", "6", "4", *ORBIT64, "--bound", "4"],
    ["classify", "osp", "6", "4", "--orbit", '{"p":[3,3],"q":[2,2]}'],
    ["classify", "osp", "2", "2", "--orbit", '{"p":[1,1],"q":[2]}',
     "--pretty"],
    ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e", "E12"],
    ["verify", "gl", "2", "0", "--H", "[1,-1]", "--e", "E1,2", "--pretty"],
    ["verify", "gl", "2", "1", "--H", '["1/2","-1/2","1/2"]', "--e", "E12"],
    ["verify", "gl", "2", "0", "--H", "[2,0]", "--e", "[[0,1],[0,0]]"],
    ["centralizer", "gl", "2", "1", *ORBIT21],
    ["centralizer", "osp", "6", "4", *ORBIT64, "--pretty"],
    ["pyramids", "gl", "2", "1", *ORBIT21],
    ["pyramids", "gl", "2", "1", *ORBIT21, "--pretty"],
    ["pyramids", "osp", "6", "4", *ORBIT64],
    ["pyramids", "osp", "6", "4", *ORBIT64, "--pretty"],
    ["diagram", "gl", "2", "1", *ORBIT21],
    ["diagram", "osp", "6", "4", *ORBIT64, "--pretty"],
    ["selftest", "--max-size", "3"],
    ["selftest", "--max-size", "2", "--pretty"],
]
# the malformed values of tests/test_cli.py::test_main_never_raises
JUNK = ["", "x", "-1", "2.5", "1e9", "null", "[1,", "[1]", '{"p":[2]',
        '{"q":[2]}', '{"p":"x","q":[]}', '{"p":[1.5],"q":[]}',
        '{"p":[true],"q":[]}', '["1/0"]', '[[0,1],5]', "E1", "Exy", "E99"]
# (request, index of the argument that each junk value replaces)
JUNK_SLOTS = [(WELL_FORMED[2], 1), (WELL_FORMED[2], 2), (WELL_FORMED[2], 5),
              (WELL_FORMED[2], 7), (WELL_FORMED[8], 5), (WELL_FORMED[8], 7),
              (WELL_FORMED[20], 2)]
CLI_ARGV = WELL_FORMED + [[], ["nope"], ["classify", "gl", "2", "1"]] + [
    argv[:i] + [junk] + argv[i + 1:]
    for argv, i in JUNK_SLOTS for junk in JUNK]


def cli_runs():
    os.environ["COLUMNS"] = "80"
    for argv in CLI_ARGV:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
        yield json.dumps([argv, code, out.getvalue(), err.getvalue()]) + "\n"


SWEEPS = {
    "good_gradings_gl m+n<=8": lambda: classified(good_gradings_gl,
                                                  gl_orbits(8)),
    "good_gradings_osp m+2n<=16": lambda: classified(good_gradings_osp,
                                                     osp_orbits(16)),
    "brute_force_shifts gl m+n<=8": lambda: classified(oracle_gl,
                                                       gl_orbits(8)),
    "brute_force_shifts osp m+2n<=14": lambda: classified(oracle_osp,
                                                          osp_orbits(14)),
    "find_nonnegative_base gl m+n<=8, osp m+2n<=14": lambda: bases(8, 14),
    "cli": cli_runs,
}
SLICES = {
    "good_gradings_gl m+n<=5": lambda: classified(good_gradings_gl,
                                                  gl_orbits(5)),
    "good_gradings_osp m+2n<=8": lambda: classified(good_gradings_osp,
                                                    osp_orbits(8)),
    "find_nonnegative_base gl m+n<=5, osp m+2n<=8": lambda: bases(5, 8),
}


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
    return h.hexdigest()


def main():
    expected = json.loads(EXPECTED.read_text())["digests"]
    differ = []
    for name, sweep in SWEEPS.items():
        got = digest(sweep())
        verdict = "ok" if got == expected.get(name) else "DIFFERS"
        if verdict != "ok":
            differ.append(name)
        print("%-46s %s %s" % (name, got, verdict), flush=True)
    if differ:
        print("differ from %s: %s" % (EXPECTED.name, ", ".join(differ)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
