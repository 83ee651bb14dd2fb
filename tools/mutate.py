"""Mutation check of the test suite: python3 tools/mutate.py

Each mutant in MUTANTS replaces one exact source text of a module in
src/goodgradings/ by a wrong one.  For each mutant the script copies
src/, tests/ and pyproject.toml to a fresh temporary directory, makes the
replacement there and runs
`python -m pytest -x -q` on the mutant's test files.  The mutant is killed
when pytest reports a failed test; it survives when every test passes.
The script prints one line per mutant and exits 1 if any mutant survives,
2 if a mutant cannot be made or run (its text is not in the source exactly
once, the mutated module does not compile, or pytest ends otherwise), and
0 when all are killed.  The checkout itself is never written.

Stdlib only and not part of the tier-1 run; tier-1 checks only that each
listed source text occurs exactly once in src/
(tests/test_source.py::test_mutation_targets_are_unique).  A refactor that
moves a target updates its entry here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "goodgradings")

# (name, module in src/goodgradings, exact source text, replacement,
#  test files or node ids run against the mutant)
MUTANTS = [
    ("steps-go-left", "pyramids.py",
     "(label_at[x + 2, y], lab) for", "(lab, label_at[x + 2, y]) for",
     ["tests/test_pyramids.py"]),
    ("even-skew-crossing-0-2-dropped", "pyramids.py",
     "conns.append((label_at[2, y], label_at[0, -y]))", "None",
     ["tests/test_pyramids.py"]),
    ("even-skew-crossing-2-0-dropped", "pyramids.py",
     "conns.append((label_at[0, y], label_at[-2, -y]))", "None",
     ["tests/test_pyramids.py"]),
    ("odd-skew-crossing-dropped", "pyramids.py",
     "conns.append((label_at[1, y], label_at[-1, -y]))", "None",
     ["tests/test_pyramids.py"]),
    ("shift-mirror-unsigned", "pyramids.py",
     "diag[lab], diag[-lab] = val, -val", "diag[lab], diag[-lab] = val, val",
     ["tests/test_pyramids.py"]),
    ("osp-odd-labels-start-early", "pyramids.py",
     "itertools.count(m // 2 + 1)", "itertools.count(m // 2)",
     ["tests/test_pyramids.py"]),
    ("gl-odd-labels-start-late", "pyramids.py",
     "itertools.count(self.m + 1)", "itertools.count(self.m + 2)",
     ["tests/test_pyramids.py"]),
    ("pyramid-offsets-one-short", "pyramids.py",
     "range(0, 2 * gap + 1)", "range(0, 2 * gap)",
     ["tests/test_pyramids.py"]),
    ("polytope-edge-reversed", "classification.py",
     "2 * degrees[j]", "-2 * degrees[j]",
     ["tests/test_classification.py"]),
    ("osp-anchor-not-mirrored", "classification.py",
     "z[anchor[B]] = -value", "z[anchor[B]] = value",
     ["tests/test_classification.py"]),
    ("odd-parity-pass-dropped", "classification.py",
     "for parity in (0, 1) if odd else (0,):", "for parity in (0,):",
     ["tests/test_classification.py"]),
    ("gl-pyramid-h-reads-y", "classification.py",
     "grading_from(R, R.diagonal({lab: x",
     "grading_from(R, R.diagonal({lab: y",
     ["tests/test_classification.py"]),
    ("osp-box-doubled", "classification.py",
     "range(step - 2, 3 - step, 2)", "[*range(step - 2, 3 - step, 2)] * 2",
     ["tests/test_classification.py::"
      "test_each_pyramid_and_each_admitted_shift_grades_once"]),
    ("pair-filter-ignored", "classification.py",
     "abs(s[k] - t[l]) <= 2", "abs(s[k] - t[l]) <= 4",
     ["tests/test_classification.py", "tests/test_golden.py"]),
    ("oracle-centrality-unchecked", "classification.py",
     "any(g.degrees[j] for j in central)", "False",
     ["tests/test_classification.py"]),
    ("oracle-central-set-empty", "classification.py",
     "central = {j for v in screp.vectors for j in v}", "central = set()",
     ["tests/test_classification.py"]),
    ("case-table-moved-e-passes", "classification.py",
     "not all(g.degrees[j] == 2 for j in ec)", "False",
     ["tests/test_classification.py::"
      "test_scan_refuses_a_generator_moving_e"]),
    ("last-shift-bound-one-smaller", "classification.py",
     "bound = min(terms)", "bound = min(terms) - 1",
     ["tests/test_classification.py::"
      "test_last_shift_bound_equals_the_oracle"]),
    ("last-shift-bound-one-larger", "classification.py",
     "bound = min(terms)", "bound = min(terms) + 1",
     ["tests/test_classification.py::"
      "test_last_shift_bound_equals_the_oracle"]),
    ("cli-bound-check-inclusive", "cli.py",
     "if args.bound < largest:", "if args.bound <= largest:",
     ["tests/test_golden.py"]),
    ("centralizer-prediction-unchecked", "cli.py",
     'out["sCentralizerDim"] == out["predictedBlockDim"]', "True",
     ["tests/test_cli.py"]),
    ("jordan-last-block-one-long", "pyramids.py",
     "dual += [1] * left", "dual += [1] * (left + 1)",
     ["tests/test_pyramids.py::"
      "test_jordan_type_equals_the_ranks_to_zero_reference"]),
    ("jordan-last-block-unchecked", "pyramids.py",
     "if power.nonzero:", "if False:",
     ["tests/test_pyramids.py::"
      "test_jordan_type_refuses_a_non_nilpotent_element"]),
    ("osp-jordan-type-unchecked", "pyramids.py",
     "if jt != (P.sp.p, P.sp.q):", "if False:",
     ["tests/test_pyramids.py::test_realize_osp_checks_jordan_type"]),
    ("sl2-he-relation-dropped", "gradings.py",
     "superbracket(h, e).entries == e.scale(2).entries", "True",
     ["tests/test_gradings.py::"
      "test_sl2_triple_refuses_each_broken_relation"]),
    ("sl2-hf-relation-dropped", "gradings.py",
     "superbracket(h, f).entries == f.scale(-2).entries", "True",
     ["tests/test_gradings.py::"
      "test_sl2_triple_refuses_each_broken_relation"]),
    ("sl2-triple-unchecked", "gradings.py",
     'raise NoSolution("(e, f, h) breaks the sl2 relations")', "pass",
     ["tests/test_gradings.py"]),
    ("count-without-degree-1", "gradings.py",
     "sum(d in (0, 1) for d in g.degrees)", "sum(d == 0 for d in g.degrees)",
     ["tests/test_gradings.py::"
      "test_counting_with_the_formula_equals_rank_definition"]),
    ("kernel-zero-column-not-unit", "linalg.py",
     "{j: 1}", "{j: 2}",
     ["tests/test_linalg.py"]),
    ("fill-in-pivot-row-never-queued", "linalg.py",
     "heappush(heap, number[i])", "pass",
     ["tests/test_linalg.py::test_fill_in_at_a_later_pivot_row"]),
    ("bracket-column-side-dropped", "superalgebra.py",
     "by_col.get(a, ())", "()",
     ["tests/test_superalgebra.py"]),
    ("coords-without-quotient", "superalgebra.py",
     "out[i] = quotient(v, self.supports[i][ab])", "out[i] = v",
     ["tests/test_superalgebra.py"]),
    ("degrees-not-divided-by-den", "superalgebra.py",
     "tuple([d // den for d in picks])", "tuple(picks)",
     ["tests/test_gradings.py", "tests/test_superalgebra.py"]),
    ("degrees-integrality-unchecked", "superalgebra.py",
     "any([d % den for d in picks])", "False",
     ["tests/test_superalgebra.py::"
      "test_degrees_match_fraction_differences"]),
    ("degree-second-entry-unchecked", "superalgebra.py",
     "seconds != picks or ", "",
     ["tests/test_superalgebra.py::"
      "test_degrees_match_fraction_differences"]),
    ("degree-keys-start-at-1", "superalgebra.py",
     "range(len(self.supports))", "range(1, len(self.supports) + 1)",
     ["tests/test_classification.py::"
      "test_grading_json_reads_the_key_table"]),
    ("private-entry-may-be-shared", "superalgebra.py",
     "touched[ab] == 1", "touched[ab] >= 1",
     ["tests/test_superalgebra.py::"
      "test_realization_refuses_a_basis_it_cannot_read"]),
    ("coordinates-record-rebuilt-per-read", "superalgebra.py",
     "@cached_property\n    def coordinates(self):",
     "@property\n    def coordinates(self):",
     ["tests/test_gradings.py::"
      "test_one_coordinate_and_degree_record_per_element"]),
    ("ad-kernel-rebuilt-per-read", "superalgebra.py",
     "@cached_property\n    def ad_kernel(self):",
     "@property\n    def ad_kernel(self):",
     ["tests/test_gradings.py::test_one_ad_kernel_record_per_element"]),
    ("build-osp-uncached", "superalgebra.py",
     "@cache\ndef build_osp(m, n, /):", "def build_osp(m, n, /):",
     ["tests/test_superalgebra.py::test_each_algebra_is_built_once"]),
    ("ad-combination-drops-coefficient", "superalgebra.py",
     "nonzero.get(kj, 0) + c * v", "nonzero.get(kj, 0) + v",
     ["tests/test_superalgebra.py::"
      "test_adjoint_columns_are_the_bracket_coordinates"]),
    ("ad-basis-uncached", "superalgebra.py",
     "@cache\ndef _ad_basis(R, i):", "def _ad_basis(R, i):",
     ["tests/test_superalgebra.py::"
      "test_ad_basis_brackets_each_basis_element_once"]),
    ("simple-roots-unordered", "roots.py",
     "in sorted(pos):", "in pos:",
     ["tests/test_roots.py::"
      "test_simple_roots_by_one_subtraction_match_pairwise"]),
    ("case-table-reads-ad-kernel", "classification.py",
     "sum(dim_formula_osp(sp))", "len(e.ad_kernel[1])",
     ["tests/test_source.py::"
      "test_case_table_calls_neither_the_oracle_nor_ad_kernel"]),
    ("osp-formula-half-sign", "gradings.py",
     "(sum(q) + odd_q) // 2", "(sum(q) - odd_q) // 2",
     ["tests/test_gradings.py::"
      "test_dim_formula_osp_matches_the_rational_halves",
      "tests/test_acceptance.py::test_criterion_5_osp_suite"]),
]


class HarnessError(RuntimeError):
    pass


def mutate(path, text, replacement):
    """Replace the one occurrence of text in the file at path."""
    source = path.read_text()
    if source.count(text) != 1:
        raise HarnessError("%s holds %r %d times, not once"
                           % (path.name, text, source.count(text)))
    mutated = source.replace(text, replacement)
    try:
        compile(mutated, str(path), "exec")
    except SyntaxError as exc:
        raise HarnessError("mutated %s does not compile: %s"
                           % (path.name, exc)) from None
    path.write_text(mutated)


def killed(module, text, replacement, tests):
    """Do the tests fail on a copy of the tree with the one mutation?"""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        mutate(work / PACKAGE / module, text, replacement)
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *tests],
            cwd=work, env=dict(os.environ, PYTHONPATH=str(work / "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if run.returncode not in (0, 1):
        raise HarnessError("pytest exited with %d" % run.returncode)
    return run.returncode == 1


def main():
    survivors, broken = [], []
    for name, module, text, replacement, tests in MUTANTS:
        try:
            verdict = "killed" if killed(module, text, replacement, tests) \
                else "SURVIVED"
        except HarnessError as exc:
            verdict = "ERROR (%s)" % exc
            broken.append(name)
        if verdict == "SURVIVED":
            survivors.append(name)
        print("%-34s %s" % (name, verdict), flush=True)
    if broken:
        print("could not run: %s" % ", ".join(broken))
        return 2
    if survivors:
        print("survivors: %s" % ", ".join(survivors))
        return 1
    print("all mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
