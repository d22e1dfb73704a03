"""Spans around dyalg's layer functions, installed from outside the package.

``install()`` replaces each function listed in ``TARGETS`` with a wrapper
that records one span per call: name, start, end, parent span and one
optional size figure.  The wrapper is set on every loaded ``dyalg`` module
that holds the original function (so ``from .algebra import hochschild_d``
in ``cohomology`` is covered as well as the module-global lookup inside
``algebra`` itself), and on the class for methods.  Nothing under ``src/``
changes.

Spans stay in memory; ``summary()`` reduces them once the measured work is
over.  A span's self time is its duration minus the durations of its direct
children, which nest because everything runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array


# functions wrapped per module; a method's span is named after the method
TARGETS = {
    "rewrite": ("straighten_graph",),
    "terms": ("straighten",),
    "algebra": ("compose_basis", "AlgebraElement.__mul__", "face_map",
                "hochschild_d", "enumerate_basis", "slot_permute", "alt",
                "rho_tilde_b"),
    "cohomology": ("cohomology_table", "differential_columns",
                   "decompose_cocycle", "harmonic_complement"),
    "freelie": ("hochschild_target_dim",),
    "linalg": ("rank", "sparse_rank", "solve", "nullspace"),
    "bialgebra": ("evaluate", "evaluate_slices", "dense_of_sparse",
                  "validate_bialgebra"),
    "series": ("GradedSeries.__mul__", "GradedSeries.inverse"),
    "twists": ("gauge", "solve_gauge", "check_associator_axioms"),
    # modules outside the named layers, so that their work does not land in
    # the self time of ``cli.main``
    "coxeter": ("build_central_family", "build_unit_family",
                "check_coxeter_family"),
    "diagrams": ("maximal_nested_sets",),
    "kacmoody": ("build_kac_moody_borel", "validate_bialgebra_windowed"),
    "cli": ("main",),
}
METHOD_SPANS = {"__mul__": "mul", "inverse": "inverse"}

# span -> (statistic, function of the call's arguments and result) summed
# over its calls
FIGURES = {
    "algebra.hochschild_d": ("out_terms",
                             lambda args, result: len(result.terms)),
    "linalg.sparse_rank": ("nnz", lambda args, result:
                           sum(len(row) for row in args[0])),
    "linalg.solve": ("cells", lambda args, result:
                     len(args[0]) * (len(args[0][0]) + 1) if args[0] else 0),
    "bialgebra.evaluate": ("keys", lambda args, result: len(args[0].terms)),
}


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.figure_names: dict[int, str] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.figure = array("q")
        self.stack: list[int] = []

    def wrap(self, name: str, fn, figure=None):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        if figure is not None:
            self.figure_names[name_id], figure = figure
        span_name, start, end = self.span_name, self.start, self.end
        parent, sizes, stack = self.parent, self.figure, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            sizes.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if figure is not None:
                sizes[idx] = figure(args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, the sum of its size
        figure, and the count of child spans per child name; for
        compose_basis also the hits (calls with no nested straightening)."""
        n = len(self.start)
        child_time = [0.0] * n
        straightens = [0] * n
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                      "children": {}}
               for name in self.names}
        for name_id, fig in self.figure_names.items():
            out[self.names[name_id]][fig] = 0
        straighten_id = self.name_ids.get("rewrite.straighten_graph")
        for idx in range(n):
            dur = self.end[idx] - self.start[idx]
            par = self.parent[idx]
            if par >= 0:
                child_time[par] += dur
                if self.span_name[idx] == straighten_id:
                    straightens[par] += 1
                kids = out[self.names[self.span_name[par]]]["children"]
                child = self.names[self.span_name[idx]]
                kids[child] = kids.get(child, 0) + 1
        compose_id = self.name_ids.get("algebra.compose_basis")
        if compose_id is not None:
            out["algebra.compose_basis"]["hits"] = 0
        for idx in range(n):
            name_id = self.span_name[idx]
            entry = out[self.names[name_id]]
            dur = self.end[idx] - self.start[idx]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child_time[idx]
            if name_id in self.figure_names:
                entry[self.figure_names[name_id]] += self.figure[idx]
            if name_id == compose_id and not straightens[idx]:
                entry["hits"] += 1
        return out


def install(callers=()) -> Tracer:
    """Import every dyalg module and put a recording wrapper in place of
    each target, wherever the original is bound: in the dyalg modules and in
    the benchmark modules ``callers`` that imported it by name."""
    for name in ("dyalg", "dyalg.cli", "dyalg.suites"):
        importlib.import_module(name)
    tracer = Tracer()
    modules = [m for key, m in sys.modules.items()
               if key == "dyalg" or key.startswith("dyalg.")]
    modules.extend(callers)
    for mod_name, attrs in TARGETS.items():
        owner = importlib.import_module(f"dyalg.{mod_name}")
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                span = f"{mod_name}.{METHOD_SPANS[meth]}"
                cls = getattr(owner, cls_name)
                setattr(cls, meth, tracer.wrap(span, getattr(cls, meth),
                                               FIGURES.get(span)))
                continue
            span = f"{mod_name}.{attr}"
            original = getattr(owner, attr)
            wrapped = tracer.wrap(span, original, FIGURES.get(span))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
    suites = sys.modules["dyalg.suites"]
    for key, fn in list(suites.SUITES.items()):
        suites.SUITES[key] = tracer.wrap(f"suites.{fn.__name__}", fn)
    return tracer
