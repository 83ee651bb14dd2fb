"""Spans and counters around the public functions of each goodgradings layer.

The program is not changed: `Tracer.installed()` replaces each target
function in every `goodgradings.*` namespace that binds it (modules import
by name, so patching only the defining module would miss most calls), and
puts the originals back on exit.  Spans are kept in memory as
(name, start, end, parent, orbit) and written out by `write_spans`.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, layer metric prefix).  An attribute "Class.method"
# is patched on the class.  Functions that share a prefix are summed.
TARGETS = [
    ("superalgebra", "adjoint_matrix", "superalgebra.adjoint"),
    ("superalgebra", "Realization.coords", "superalgebra.coords"),
    ("superalgebra", "build_gl", "superalgebra.build"),
    ("superalgebra", "build_osp", "superalgebra.build"),
    ("linalg", "kernel_basis", "linalg.kernel"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("pyramids", "enumerate_pyr", "pyramids.enumerate"),
    ("pyramids", "realize_pyramid", "pyramids.realize"),
    ("pyramids", "realize_osp_pyramid", "pyramids.realize"),
    ("pyramids", "jordan_type", "pyramids.jordan_type"),
    ("gradings", "grading_from", "gradings.grading_from"),
    ("gradings", "centralizer", "gradings.centralizer"),
    ("gradings", "s_centralizer", "gradings.s_centralizer"),
    ("gradings", "is_good", "gradings.is_good"),
    ("gradings", "complete_sl2", "gradings.complete_sl2"),
    ("classification", "brute_force_shifts", "classification.oracle"),
    ("classification", "good_gradings_gl", "classification.good_gradings_gl"),
    ("classification", "good_gradings_osp",
     "classification.good_gradings_osp"),
    ("roots", "find_nonnegative_base", "roots.find_base"),
    ("cli", "main", "cli.main"),
]

# Called so often that a span each would dominate the trace: these are
# counted only, and their time stays in the caller's self time.
COUNTED = [
    ("superalgebra", "superbracket", "superalgebra.superbracket"),
    ("linalg", "Matrix.__init__", "linalg.matrix_init"),
]

# Per-layer metrics reported by the traced run, in BENCHMARK.json order.
# Times are per pass (one fresh process over the workload's orbits),
# inclusive of callees, except cli.main_self_s which excludes traced
# callees.  Counts are exact.
LAYER_METRICS = [
    ("superalgebra.adjoint_s", "s"),
    ("superalgebra.adjoint_calls", "count"),
    ("superalgebra.adjoint_distinct_ratio", "ratio"),
    ("superalgebra.superbracket_calls", "count"),
    ("superalgebra.coords_s", "s"),
    ("superalgebra.coords_calls", "count"),
    ("superalgebra.build_s", "s"),
    ("superalgebra.build_calls", "count"),
    ("superalgebra.build_distinct_ratio", "ratio"),
    ("linalg.kernel_s", "s"),
    ("linalg.kernel_calls", "count"),
    ("linalg.kernel_entries", "count"),
    ("linalg.rank_s", "s"),
    ("linalg.solve_s", "s"),
    ("linalg.matmul_s", "s"),
    ("linalg.matrix_entries_built", "count"),
    ("pyramids.enumerate_s", "s"),
    ("pyramids.count", "count"),
    ("pyramids.realize_s", "s"),
    ("pyramids.realize_calls", "count"),
    ("pyramids.jordan_type_s", "s"),
    ("gradings.grading_from_s", "s"),
    ("gradings.grading_from_calls", "count"),
    ("gradings.centralizer_s", "s"),
    ("gradings.s_centralizer_s", "s"),
    ("gradings.is_good_s", "s"),
    ("gradings.complete_sl2_s", "s"),
    ("classification.oracle_s", "s"),
    ("classification.good_gradings_gl_s", "s"),
    ("classification.good_gradings_osp_s", "s"),
    ("classification.accepted", "count"),
    ("roots.find_base_s", "s"),
    ("roots.find_base_calls", "count"),
    ("cli.main_self_s", "s"),
    ("cli.output_bytes", "bytes"),
]

# Which layer each workload must reach.  A traced run fails when a listed
# prefix was never called, so a rename in the program cannot silently zero
# a layer; NEVER_CALLED lists what a workload must not reach.
_ALL = {"dynkin_sweep", "classify_oracle", "pyramid_diagram"}
_ADJOINT = {"dynkin_sweep", "classify_oracle"}
EXPECTED_CALLED = {
    "superalgebra.adjoint": _ADJOINT,
    "superalgebra.coords": _ADJOINT,
    "superalgebra.superbracket": _ALL,
    "superalgebra.build": _ALL,
    "linalg.kernel": _ALL,
    "linalg.rank": {"dynkin_sweep", "pyramid_diagram"},
    "linalg.solve": _ADJOINT,
    "linalg.matmul": _ALL,
    "linalg.matrix_init": _ALL,
    "pyramids.enumerate": {"classify_oracle", "pyramid_diagram"},
    "pyramids.realize": _ALL,
    "pyramids.jordan_type": _ALL,
    "gradings.grading_from": _ALL,
    "gradings.centralizer": {"dynkin_sweep"},
    "gradings.s_centralizer": {"classify_oracle"},
    "gradings.is_good": {"dynkin_sweep"},
    "gradings.complete_sl2": _ADJOINT,
    "classification.oracle": {"classify_oracle"},
    "classification.good_gradings_gl": {"classify_oracle",
                                        "pyramid_diagram"},
    "classification.good_gradings_osp": {"classify_oracle"},
    "roots.find_base": {"dynkin_sweep", "pyramid_diagram"},
    "cli.main": {"classify_oracle", "pyramid_diagram"},
}
NEVER_CALLED = {"pyramid_diagram": ["superalgebra.adjoint"]}


class TraceError(RuntimeError):
    """A traced function is missing, or a workload missed a layer."""


def _value_key(x):
    """Equality key of an algebra element: its algebra and matrix."""
    R = x.ambient
    return (R.kind, R.m, R.odd_dim, tuple(x.matrix.entries))


class Tracer:
    """Records spans and counters while `active` is true."""

    def __init__(self):
        self.active = False
        self.orbit = None
        self.spans = []            # [name, start, end, parent, orbit]
        self._open = []            # stack of [span index, child seconds]
        self._depth = Counter()    # open spans per prefix
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.distinct = defaultdict(set)

    def _wrap(self, name, prefix, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[prefix] += 1
            if prefix == "superalgebra.adjoint":
                tracer.distinct[prefix].add(_value_key(args[0]))
            elif prefix == "superalgebra.build":
                tracer.distinct[prefix].add((name,) + args)
            elif prefix == "linalg.kernel":
                tracer.counts["linalg.kernel_entries"] += \
                    args[0].rows * args[0].cols
            parent = tracer._open[-1][0] if tracer._open else None
            idx = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, parent, tracer.orbit])
            tracer._open.append([idx, 0.0])
            tracer._depth[prefix] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = tracer._open.pop()
                tracer._depth[prefix] -= 1
                span = tracer.spans[idx]
                span[1], span[2] = start, end
                dur = end - start
                if tracer._open:
                    tracer._open[-1][1] += dur
                if not tracer._depth[prefix]:
                    tracer.inclusive[prefix] += dur
                tracer.self_time[prefix] += dur - child
            if prefix == "pyramids.enumerate":
                tracer.counts["pyramids.count"] += len(result)
            elif prefix.startswith("classification.good_gradings"):
                tracer.counts["classification.accepted"] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, prefix, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[prefix] += 1
                if prefix == "linalg.matrix_init":
                    tracer.counts["linalg.matrix_entries_built"] += \
                        args[1] * args[2]
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target everywhere it is bound; restore on exit."""
        patches = []
        try:
            for module, attr, prefix in TARGETS:
                name = "%s.%s" % (module, attr)
                patches += self._patch(
                    module, attr,
                    lambda fn, n=name, p=prefix: self._wrap(n, p, fn))
            for module, attr, prefix in COUNTED:
                patches += self._patch(
                    module, attr, lambda fn, p=prefix: self._count(p, fn))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    @staticmethod
    def _patch(module, attr, make):
        full = "goodgradings." + module
        mod = sys.modules.get(full)
        if mod is None:
            raise TraceError("module %s is not imported" % full)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                raise TraceError("%s.%s no longer exists" % (full, attr))
            original = vars(cls)[meth]
            setattr(cls, meth, make(original))
            return [(cls, meth, original)]
        original = getattr(mod, attr, None)
        if original is None:
            raise TraceError("%s.%s no longer exists" % (full, attr))
        wrapped = make(original)
        patches = []
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "goodgradings"
                                     or name.startswith("goodgradings.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
                    patches.append((other, key, original))
        return patches

    def layer_metrics(self):
        """Values of LAYER_METRICS from what was recorded.  A name is
        <prefix>_s, <prefix>_calls, <prefix>_distinct_ratio, or a counter."""
        c = self.calls
        out = {}
        for name, unit in LAYER_METRICS:
            prefix, _, kind = name.rpartition("_")
            if name == "cli.main_self_s":
                out[name] = self.self_time["cli.main"]
            elif kind == "s":
                out[name] = self.inclusive[prefix]
            elif kind == "calls":
                out[name] = c[prefix]
            elif name.endswith("_distinct_ratio"):
                base = name[:-len("_distinct_ratio")]
                out[name] = (len(self.distinct[base]) / c[base]
                             if c[base] else 0.0)
            else:
                out[name] = self.counts[name]
        return out

    def coverage_errors(self, workload):
        """Layers the workload should reach but did not, and vice versa."""
        errors = []
        for prefix, workloads in EXPECTED_CALLED.items():
            if workload in workloads and not self.calls[prefix]:
                errors.append("%s was never called on %s"
                              % (prefix, workload))
        for prefix in NEVER_CALLED.get(workload, []):
            if self.calls[prefix]:
                errors.append("%s was called %d times on %s"
                              % (prefix, self.calls[prefix], workload))
        return errors

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, orbit in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "orbit": orbit}) + "\n")
