"""Checks on the package source itself."""

import ast
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import goodgradings
from goodgradings.classification import brute_force_shifts
from goodgradings.gradings import Sl2Triple, s_centralizer
from goodgradings.linalg import Matrix
from goodgradings.superalgebra import build_gl, build_osp

SOURCES = sorted(Path(goodgradings.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


def test_no_assert_in_package():
    """Invariants raise named exceptions: `python -O` strips asserts."""
    assert len(SOURCES) >= 9
    found = ["%s:%d" % (path.name, node.lineno)
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _owners(is_target):
    """Names of the functions in the package source that hold a node
    is_target accepts (None at module level)."""
    owners = set()

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if is_target(node):
            owners.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), str(path)), None)
    return owners


def test_one_element_representation():
    """Elements are supports: only the Matrix view itself and the one
    whole-matrix algorithm, the Jordan type, read `.matrix`, and ad maps
    are built in one place."""
    readers = _owners(lambda node: isinstance(node, ast.Attribute)
                      and node.attr == "matrix")
    assert "jordan_type" in readers
    assert readers <= {"matrix", "jordan_type"}
    callers = _owners(lambda node: isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "_bracket")
    assert callers == {"superbracket", "_ad_basis"}


def test_one_ad_builder_call_site():
    """ad e is built once per element, by `ad_kernel`, whose record the
    centralizers, the oracle and `is_good` without a formula dimension
    read; the osp classifier builds none."""
    def calls_adjoint(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return getattr(f, "id", getattr(f, "attr", None)) == "adjoint_matrix"

    assert _owners(calls_adjoint) == {"ad_kernel"}


def test_coordinates_and_degree_tables_are_read_by_the_records():
    """An element's coordinates and ad-degree table are read once, by its
    records: in the package only `coordinates` calls `.coords(`, besides
    `_ad_basis`, which reads bracket entries that are no element, and only
    `ad_degrees` calls `.degrees(`."""
    def calls(name):
        return lambda node: isinstance(node, ast.Call) \
            and getattr(node.func, "attr", None) == name

    assert _owners(calls("coords")) == {"coordinates", "_ad_basis"}
    assert _owners(calls("degrees")) == {"ad_degrees"}


def test_one_elimination_path():
    """Exact elimination has one path and one owner: only the Matrix
    accessor `elimination` calls `_eliminate`, which keeps its record;
    `_reduce` is the one reduction loop, and `solve` calls it on b, builds
    no Matrix and calls no `kernel_basis`."""
    def calls(name):
        return lambda node: isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Name) and node.func.id == name

    assert _owners(calls("_eliminate")) == {"elimination"}
    assert _owners(calls("_reduce")) == {"_eliminate", "solve"}
    assert "solve" not in _owners(calls("kernel_basis")) \
        | _owners(calls("Matrix"))


def test_matrix_shape_is_positional():
    """A Matrix is built as Matrix(rows, cols, ...), or cls(rows, cols, ...)
    in its class, everywhere, and __init__ and __matmul__ are defined on
    the class: the bench tracer reads the shape as the call's first two
    arguments and patches both methods by name."""
    def builds(node, name):
        return isinstance(node, ast.Call) \
            and getattr(node.func, "id", None) == name

    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    matrix_class = next(node for node in ast.walk(trees["linalg.py"])
                        if isinstance(node, ast.ClassDef)
                        and node.name == "Matrix")
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if builds(node, "Matrix")] \
        + [node for node in ast.walk(matrix_class) if builds(node, "cls")]
    assert len(calls) >= 6
    bad = [node.lineno for node in calls
           if len(node.args) < 2
           or any(isinstance(a, ast.Starred) for a in node.args[:2])
           or any(kw.arg in ("rows", "cols", None) for kw in node.keywords)]
    assert bad == []
    assert {"__init__", "__matmul__"} <= set(vars(Matrix))


def test_one_true_division_and_no_float():
    """Values are ints where integral, and int / int is a float: the one
    true division is the one in `linalg.quotient`, which keeps the value
    exact, and nothing converts to or writes a float."""
    def divides(node):
        return isinstance(node, (ast.BinOp, ast.AugAssign)) \
            and isinstance(node.op, ast.Div)

    nodes = [node for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))]
    assert sum(map(divides, nodes)) == 1
    assert _owners(divides) == {"quotient"}
    assert not [node for node in nodes
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "float"
                or isinstance(node, ast.Constant)
                and type(node.value) is float]


def test_one_box_format_and_step_rule():
    """Both pyramid families list their boxes as (x, y, parity, label):
    e's steps within rows come from one rule, `_steps`, and `render` reads
    either family's boxes without asking which it has."""
    def calls(name):
        return lambda node: isinstance(node, ast.Call) \
            and getattr(node.func, "id", None) == name

    assert _owners(calls("_steps")) == {"realize_pyramid", "_osp_connections"}
    assert "render" not in _owners(calls("isinstance"))


def test_realizations_are_built_only_by_the_cached_builders():
    """A Realization is constructed only by `build_gl` and `build_osp`,
    both cached, so each algebra has one realization per process and
    `roots.root_system` may cache on it; the root systems are read off the
    realization passed in, never from a build of their own: no function of
    roots.py calls a builder."""
    def calls(*names):
        return lambda node: isinstance(node, ast.Call) \
            and getattr(node.func, "id", None) in names

    assert _owners(calls("Realization")) == {"build_gl", "build_osp"}
    assert all(hasattr(f, "cache_info") for f in (build_gl, build_osp))
    roots = next(path for path in SOURCES if path.name == "roots.py")
    builders = {node.name for node in ast.walk(ast.parse(roots.read_text()))
                if isinstance(node, ast.FunctionDef)
                and any(map(calls("build_gl", "build_osp"), ast.walk(node)))}
    assert builders == set()


def test_partitions_and_roots_cache_only_their_tables():
    """Each orbit's and each algebra's data has one owner: partitions.py
    caches only `partitions_of`, and roots.py only `root_system`, which
    reads each root's generic value and code once per algebra."""
    def cached(path):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                for d in node.decorator_list:
                    f = getattr(d, "func", d)
                    if getattr(f, "id", getattr(f, "attr", None)) in (
                            "cache", "lru_cache", "cached_property"):
                        names.add(node.name)
        return names

    modules = {path.name: path for path in SOURCES}
    assert cached(modules["partitions.py"]) == {"partitions_of"}
    assert cached(modules["roots.py"]) == {"root_system"}


def test_realization_tables_are_set_only_when_built():
    """A realization is built whole: no package code outside
    `Realization.__post_init__` assigns, deletes or `setattr`s an
    attribute named like one of a built realization's tables."""
    names = set(vars(build_osp(3, 1)))
    assert {"supports", "phi", "even_signs", "_private"} <= names

    def sets_table(node):
        if isinstance(node, ast.Attribute):
            return node.attr in names \
                and isinstance(node.ctx, (ast.Store, ast.Del))
        return isinstance(node, ast.Call) \
            and getattr(node.func, "id", None) in ("setattr", "delattr") \
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant) \
            and node.args[1].value in names

    found = []

    def visit(node, scope, path):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if sets_table(node) and scope != ("Realization", "__post_init__"):
            found.append("%s:%d" % (path.name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, path)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), str(path)), (), path)
    assert found == []


def test_classification_makes_no_bracket():
    """The classifiers and the oracle read degree tables: classification.py
    neither imports nor calls `superbracket`."""
    path = next(path for path in SOURCES if path.name == "classification.py")
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    assert "superbracket" not in names


def test_case_table_calls_neither_the_oracle_nor_ad_kernel():
    """`good_gradings_osp`, and the functions of classification.py that it
    calls, call neither the polytope oracle nor anything named
    `ad_kernel`, and read no `ad_kernel` attribute (an element's ker(ad e)
    record): goodness there is a count against the centralizer formula,
    so the classifier and the oracle share no kernel."""
    path = next(path for path in SOURCES if path.name == "classification.py")
    functions = {node.name: node
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.FunctionDef)}
    reached, called, read, todo = set(), set(), set(), ["good_gradings_osp"]
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                f = node.func
                called.add(getattr(f, "id", getattr(f, "attr", None)))
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        todo += [f for f in called & set(functions) if f not in reached]
    assert {"is_good", "_pair_constraint_ok"} <= called
    assert "coordinates" in read
    assert not called & {"brute_force_shifts", "_good_shifts", "ad_kernel"}
    assert "ad_kernel" not in read


def test_oracle_reads_the_degree_table():
    """The polytope oracle reads each constant off h's degree table, the
    one source of ad-degrees: `_good_shifts` reads `ad_degrees` and calls
    no `.diag()`."""
    path = next(path for path in SOURCES if path.name == "classification.py")
    shifts = next(node for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_good_shifts")
    read = {node.attr for node in ast.walk(shifts)
            if isinstance(node, ast.Attribute)}
    called = {getattr(node.func, "attr", None) for node in ast.walk(shifts)
              if isinstance(node, ast.Call)}
    assert "ad_degrees" in read and "diag" not in called


def test_rationals_are_made_in_linalg():
    """`linalg` is the only module that builds a rational: no other module
    of the package imports `fractions` or names `Fraction`; the others
    make values with `exact` and `quotient`."""
    def makes_rationals(node):
        if isinstance(node, ast.Import):
            return any(a.name == "fractions" for a in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.module == "fractions"
        return getattr(node, "id", getattr(node, "attr", None)) == "Fraction"

    found = {path.name for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if makes_rationals(node)}
    assert found == {"linalg.py"}


def test_oracle_takes_no_bound():
    """The polytope oracle works its range out from e and h."""
    assert list(inspect.signature(brute_force_shifts).parameters) == \
        ["R", "sp"]


def test_one_sl2_relation_check():
    """The sl2 relations are checked once, when an Sl2Triple is made: only
    its `__post_init__` calls `.verify()`, and `s_centralizer` reads the
    triple alone, with no orbit for block types."""
    callers = _owners(lambda node: isinstance(node, ast.Call)
                      and getattr(node.func, "attr", None) == "verify")
    assert callers == {"__post_init__"}
    assert ".verify()" in inspect.getsource(Sl2Triple.__post_init__)
    assert list(inspect.signature(s_centralizer).parameters) == \
        ["R", "triple"]


def test_mutation_targets_are_unique():
    """Each source text that tools/mutate.py replaces occurs exactly once
    in the package, so every mutant changes the code it names."""
    harness = ROOT / "tools" / "mutate.py"
    spec = importlib.util.spec_from_file_location("mutate", harness)
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    assert len(mutate.MUTANTS) >= 10
    sources = {path.name: path.read_text() for path in SOURCES}
    counts = {name: (sources[module].count(text),
                     sum(source.count(text) for source in sources.values()))
              for name, module, text, _, _ in mutate.MUTANTS}
    assert counts == {name: (1, 1) for name in counts}


def test_every_package_function_is_named_outside_tests():
    """Every function, method and class the package defines, dunders
    aside, is read by name somewhere in the package (not counting
    `__init__.py`) or in bench/, other than inside its own definition:
    code that only tests reach lives in tests/reference.py.  Names are
    read from the syntax tree, so a docstring or comment does not count."""
    def is_dunder(name):
        return name.startswith("__") and name.endswith("__")

    defined = {node.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not is_dunder(node.name)}
    read = set()

    def visit(node, inside):
        """Add to `read` each name node reads, but not inside a definition
        of that name (inside: the names of the enclosing definitions)."""
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            name = None
        if name not in inside:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    bench = ROOT / "bench"
    for path in [path for path in SOURCES if path.name != "__init__.py"] \
            + sorted(bench.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), frozenset())
    assert len(defined) >= 100
    assert defined - read == set()


# Runs tools/equivalence.py's CLI sweep under a profiler and prints, as
# JSON, the (file name, first line) of every package function it calls.
# argv: the equivalence tool and the package directory.
SWEEP_UNDER_PROFILE = """
import importlib.util, json, sys
from pathlib import Path

tool, package = sys.argv[1], Path(sys.argv[2]).resolve()
spec = importlib.util.spec_from_file_location("equivalence", tool)
equivalence = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equivalence)
codes = set()

def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

sys.setprofile(profile)
for _ in equivalence.cli_runs():
    pass
sys.setprofile(None)
print(json.dumps(sorted((path.name, code.co_firstlineno) for code, path in
                        ((c, Path(c.co_filename).resolve()) for c in codes)
                        if path.parent == package)))
"""


def test_every_package_function_runs_in_the_cli_sweep():
    """Every function and method the package defines, dunders aside and
    nested ones included, is called by the CLI sweep of tools/equivalence.py
    (each verb, well-formed and malformed requests), other than
    `Matrix.entries`, which only bench/ reads.  The sweep runs in a fresh
    process, so no cache warmed by an earlier test hides a body; code
    that only tests call lives in tests/reference.py."""
    defined = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                name = prefix + child.name
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    defined[(path.name, first)] = "%s:%s" % (path.name, name)
                visit(child, path, name + ".<locals>.")
            else:
                visit(child, path, prefix)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), str(path)), path, "")
    out = subprocess.run(
        [sys.executable, "-c", SWEEP_UNDER_PROFILE,
         str(ROOT / "tools" / "equivalence.py"), str(SOURCES[0].parent)],
        capture_output=True, text=True, check=True).stdout
    called = {tuple(key) for key in json.loads(out)}
    assert len(defined) >= 100
    assert sorted(defined[key] for key in defined.keys() - called) == \
        ["linalg.py:Matrix.entries"]
