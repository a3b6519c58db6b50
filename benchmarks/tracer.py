"""Outside-in span tracer for homcat's public layer functions.

The tracer lives entirely in the benchmark: ``install`` replaces each traced
function with a wrapper in *every* loaded ``homcat.*`` namespace that binds
it (the modules import each other with ``from x import y``), and patches a
few class methods for counts.  ``uninstall`` restores every binding.

Spans are kept in memory as flat arrays (name, parent, start, end) and only
aggregated when the run ends: a span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# Public functions wrapped in a span, by layer (= homcat module).
SPANS = {
    "linalg": ("rref", "solve", "kernel_basis", "inverse"),
    "algebras": ("preset",),
    "modules": ("hom_space", "decompose_with_maps", "is_isomorphic", "classify_indecomposables"),
    "complexes": ("cone_complex", "null_homotopy", "hom_complex", "cohomology_data"),
    "triangles": ("cone_triangle", "certify_triangle", "octahedron", "sum_triangles", "split_seq_to_triangle"),
    "derived": (
        "resolve_complex",
        "proj_resolution",
        "inj_resolution",
        "hom_derived",
        "is_iso_in_D",
        "dg_end",
        "tilting_check",
    ),
    "stable": ("complete_resolution", "stable_hom", "stable_hom_via_cr", "stable_indecomposables"),
    "samples": ("random_complex", "random_chain_map"),
    "exercises": ("run_exercise",),
}

# Class methods hooked for counts: (layer, class, method, metric key, span?).
# The MMap intertwining check also gets a span, so its self time shows.
METHODS = (
    ("linalg", "Mat", "__init__", "linalg.Mat.init", False),
    ("algebras", "Alg", "__eq__", "algebras.Alg.eq", False),
    ("modules", "MMap", "__post_init__", "modules.MMap.check", True),
    ("complexes", "CMap", "__post_init__", "complexes.CMap.check", False),
    ("complexes", "Htp", "__post_init__", "complexes.Htp.check", False),
    ("triangles", "Tri", "__post_init__", "triangles.Tri.check", False),
    ("complexes", "HomComplex", "coords_of", "complexes.HomComplex.coords_of", False),
    ("complexes", "DegreewiseSolver", "solve", "complexes.DegreewiseSolver.solve", False),
)


def _cells_one(m, *_args, **_kw) -> int:
    return m.rows * m.cols


def _cells_solve(a, b, *_args, **_kw) -> int:
    return a.rows * a.cols + b.rows * b.cols


# Work counts computed from the inputs (sum of rows x cols).
CELLS = {
    "linalg.rref": _cells_one,
    "linalg.kernel_basis": _cells_one,
    "linalg.inverse": _cells_one,
    "linalg.solve": _cells_solve,
}

# Functions whose useful outcome is a non-None result.
FOUND = ("linalg.inverse", "modules.is_isomorphic", "complexes.null_homotopy")


def count_name(key: str) -> str:
    """Metric name of the call count kept for a tracer key."""
    if key == "linalg.Mat.init":
        return "linalg.Mat.inits"
    if key == "complexes.DegreewiseSolver.solve":
        return "complexes.DegreewiseSolver.solves"
    if key.endswith(".check"):
        return f"{key}s"
    return f"{key}.calls"


def metric_units() -> dict[str, str]:
    """Every metric a Tracer reports, with its unit; self time is reported
    as a share of the traced wall time (``self_pct``)."""
    out = {}
    spans = [f"{layer}.{f}" for layer, fs in SPANS.items() for f in fs]
    spans += [key for _, _, _, key, span in METHODS if span]
    for key in spans:
        out[count_name(key)] = "count"
        out[f"{key}.self_pct"] = "%"
    for _, _, _, key, span in METHODS:
        out[count_name(key)] = "count"
    for field in ("unknowns", "equations"):
        out[f"complexes.DegreewiseSolver.{field}"] = "count"
    for key in CELLS:
        out[f"{key}.cells"] = "count"
    for key in FOUND:
        out[f"{key}.found_ratio"] = "ratio"
    return out


def homcat_namespaces() -> list:
    """Every loaded homcat module, the package itself included."""
    return [
        m for name, m in sorted(sys.modules.items()) if m is not None and (name == "homcat" or name.startswith("homcat."))
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = [-1]
        self.calls: dict[str, int] = {}
        self.cells: dict[str, int] = {}
        self.found: dict[str, int] = {}
        self.solver = {"unknowns": 0, "equations": 0}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, key: str) -> int:
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.names)
            self.names.append(key)
            self.calls[key] = 0
        return i

    def _wrap(self, key: str, fn, span: bool):
        calls = self.calls
        name_id = self._id(key)
        cells = CELLS.get(key)
        found = key in FOUND
        if cells:
            self.cells[key] = 0
        if found:
            self.found[key] = 0
        if key == "complexes.DegreewiseSolver.solve":
            solver = self.solver

            def wrapper(solver_self, *args, **kwargs):
                calls[key] += 1
                solver["unknowns"] += solver_self.size
                solver["equations"] += sum(r.shape[0] for r in solver_self.rows)
                return fn(solver_self, *args, **kwargs)

        elif not span:

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

        else:
            stack = self._stack
            names, parents = self.span_name, self.span_parent
            starts, ends = self.span_start, self.span_end
            clock = time.perf_counter

            def wrapper(*args, **kwargs):
                calls[key] += 1
                if cells:
                    self.cells[key] += cells(*args, **kwargs)
                stack.append(len(names))
                names.append(name_id)
                parents.append(stack[-2])
                ends.append(0.0)
                starts.append(clock())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    ends[stack.pop()] = clock()
                if found and out is not None:
                    self.found[key] += 1
                return out

        return functools.wraps(fn)(wrapper)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name; a missing name raises AttributeError."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in SPANS:
            importlib.import_module(f"homcat.{layer}")
        namespaces = homcat_namespaces()
        try:
            for layer, fnames in SPANS.items():
                owner = sys.modules[f"homcat.{layer}"]
                for fname in fnames:
                    orig = getattr(owner, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", orig, span=True)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is orig:
                                self._restore.append((ns, attr, orig))
                                setattr(ns, attr, wrapper)
            for layer, cls_name, method, key, span in METHODS:
                cls = getattr(sys.modules[f"homcat.{layer}"], cls_name)
                orig = cls.__dict__[method]
                self._restore.append((cls, method, orig))
                setattr(cls, method, self._wrap(key, orig, span))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore.clear()

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus direct children's."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        out = {key: 0.0 for key in self.names}
        for i in range(n):
            out[self.names[self.span_name[i]]] += dur[i] - child[i]
        return out

    def counts(self) -> dict[str, int]:
        """Every exact count the tracer keeps, keyed by metric name."""
        out = {count_name(key): calls for key, calls in self.calls.items()}
        out.update({f"{key}.cells": cells for key, cells in self.cells.items()})
        out.update({f"complexes.DegreewiseSolver.{k}": v for k, v in self.solver.items()})
        return out

    def ratios(self) -> dict[str, float]:
        return {
            f"{key}.found_ratio": (found / self.calls[key] if self.calls[key] else 0.0)
            for key, found in self.found.items()
        }
