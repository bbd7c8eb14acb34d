"""Layer tracing from outside the package.

``Tracer.install()`` wraps the public functions at the layer boundaries of
``operadkit``.  A function is replaced in its defining module and in every
``operadkit`` module that re-bound it with ``from .x import f`` (found by
identity), so a call through any of those names records a span.  A few hot
methods get a span or a plain call counter on the class itself.
``Tracer.uninstall()`` puts every original object back.

Spans are kept in memory as ``[id, parent_id, name, start, end, sizes]`` and
written out at the end.  Sizes (matrix shapes, ranks, term counts) are
computed after a span closes, on a clock that is paused meanwhile, so the
bookkeeping adds to no span's time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# module -> functions that get a span; the span is named "<module>.<function>"
# unless renamed below.
SPAN_FUNCTIONS = {
    "cli": ("main",),
    "serialize": ("model_to_json", "state_from_json", "state_to_json"),
    "core": ("compose_full", "graft", "enumerate_basis"),
    "differentials": (
        "build_ainf",
        "build_ainf_morphism",
        "build_homotopy_model",
        "build_iso_resolution",
        "extend_derivation",
        "verify_d_squared",
    ),
    "forests": (
        "polarization_iso_m2",
        "verify_polarization",
        "compose_forests",
        "forest_differential",
    ),
    "linalg": ("solve_linear", "rank", "kernel_basis"),
    "tails": ("solve_tail", "build_model_btow", "build_model_homotopy"),
    "reps": ("hom_differential", "compose_maps", "evaluate_element", "check_representation"),
    "transfer": ("extension_step", "find_homotopy", "is_quasi_iso"),
}
# The four model builders share one span name.
RENAMED = {f"differentials.{b}": "differentials.build" for b in SPAN_FUNCTIONS["differentials"][:4]}

# (module, class, method, span name)
SPAN_METHODS = (
    ("core", "OperadElement", "__add__", "core.OperadElement.add"),
    ("linalg", "RationalMatrix", "mul", "linalg.RationalMatrix.mul"),
    ("linalg", "RationalMatrix", "kron", "linalg.RationalMatrix.kron"),
)
# (module, class, method, counter name): calls counted, no span.
COUNTED_METHODS = (
    ("core", "OperadElement", "__init__", "core.OperadElement.init.calls"),
    ("core", "TreeMonomial", "__init__", "core.TreeMonomial.init.calls"),
)

SPAN_NAMES = sorted(
    {RENAMED.get(f"{m}.{f}", f"{m}.{f}") for m, fs in SPAN_FUNCTIONS.items() for f in fs}
    | {s[3] for s in SPAN_METHODS}
)
COUNTER_NAMES = tuple(c[3] for c in COUNTED_METHODS)
# Work sizes, summed over the spans that carry them.
SIZE_NAMES = (
    "core.enumerate_basis.monomials",
    "differentials.image_terms",
    "differentials.extend_derivation.terms_in",
    "differentials.extend_derivation.terms_out",
    "linalg.solve_linear.rows",
    "linalg.solve_linear.cols",
    "linalg.solve_linear.nnz",
    "linalg.solve_linear.rank",
    "linalg.solve_linear.max_cols",
    "linalg.solve_linear.free_vars",
    "linalg.elim_work",
    "tails.candidates",
    "tails.tail_terms",
    "transfer.unknowns",
    "transfer.equations",
)


def _module(name):
    return importlib.import_module(f"operadkit.{name}")


def package_modules():
    """The imported ``operadkit`` modules, the package itself included."""
    names = [n for n in sys.modules if n == "operadkit" or n.startswith("operadkit.")]
    return [sys.modules[n] for n in sorted(names) if sys.modules[n] is not None]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._paused = 0.0
        self.counters = Counter()
        self._patches = []  # (owner, attribute, original), in patch order
        self._rank = None

    def now(self) -> float:
        return time.perf_counter() - self._paused

    # -- recording -------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, name, self.now(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec):
        rec[4] = self.now()
        self._stack.pop()

    def _span_wrapper(self, name, fn, sizer=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if sizer is not None:  # on a paused span clock
                t = time.perf_counter()
                rec[5] = sizer(args, result)
                self._paused += time.perf_counter() - t
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- sizes, computed after the span closes ----------------------------

    def _solve_sizes(self, args, result):
        a = args[0]
        nnz = sum(1 for row in a.entries for x in row if x)
        r = self._rank(a)
        return {"rows": a.rows, "cols": a.cols, "nnz": nnz, "rank": r}

    @staticmethod
    def _model_sizes(args, result):
        return {"differentials.image_terms": sum(len(img.terms) for img in result.images.values())}

    @staticmethod
    def _derivation_sizes(args, result):
        return {
            "differentials.extend_derivation.terms_in": len(args[1].terms),
            "differentials.extend_derivation.terms_out": len(result.terms),
        }

    @staticmethod
    def _basis_sizes(args, result):
        return {"core.enumerate_basis.monomials": len(result)}

    @staticmethod
    def _tail_sizes(args, result):
        return {"tails.tail_terms": len(result.terms)}

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name in SPAN_FUNCTIONS:
            _module(name)
        self._rank = _module("linalg").rank
        sizers = {
            "linalg.solve_linear": self._solve_sizes,
            "differentials.build": self._model_sizes,
            "differentials.extend_derivation": self._derivation_sizes,
            "core.enumerate_basis": self._basis_sizes,
            "tails.solve_tail": self._tail_sizes,
        }
        modules = package_modules()
        for mod_name, funcs in SPAN_FUNCTIONS.items():
            home = _module(mod_name)
            for fname in funcs:
                original = getattr(home, fname)
                span = RENAMED.get(f"{mod_name}.{fname}", f"{mod_name}.{fname}")
                wrapper = self._span_wrapper(span, original, sizers.get(span))
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._patch(mod, fname, wrapper)
        for mod_name, cls_name, meth, span in SPAN_METHODS:
            cls = getattr(_module(mod_name), cls_name)
            self._patch(cls, meth, self._span_wrapper(span, getattr(cls, meth)))
        for mod_name, cls_name, meth, counter in COUNTED_METHODS:
            cls = getattr(_module(mod_name), cls_name)
            self._patch(cls, meth, self._count_wrapper(counter, getattr(cls, meth)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def summarize(spans, counters):
    """Per-layer totals over all recorded spans, sizes and counters.

    Self time is a span's duration minus the durations of its direct
    children.  ``total_s`` sums a name's outermost spans only, so recursion
    is not counted twice.  Span 0 is the job root; it contributes only
    ``trace.unattributed_s``, its own self time.
    """
    child_time = defaultdict(float)
    for rec in spans:
        if rec[1] is not None:
            child_time[rec[1]] += rec[4] - rec[3]
    by_id = {rec[0]: rec for rec in spans}
    out = Counter()
    out["trace.unattributed_s"] = spans[0][4] - spans[0][3] - child_time[0]

    for rec in spans[1:]:
        name = rec[2]
        dur = rec[4] - rec[3]
        chain = []
        p = rec[1]
        while p is not None:
            chain.append(by_id[p][2])
            p = by_id[p][1]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur - child_time[rec[0]]
        if name not in chain:
            out[f"{name}.total_s"] += dur
        if name == "linalg.solve_linear":
            size = rec[5]
            for key, value in size.items():
                out[f"{name}.{key}"] += value
            out[f"{name}.max_cols"] = max(out[f"{name}.max_cols"], size["cols"])
            out["linalg.elim_work"] += size["rank"] * size["rows"] * size["cols"]
            if chain[0] == "tails.solve_tail":
                out["tails.candidates"] += size["cols"]
            if chain[0] == "transfer.extension_step":
                out["transfer.unknowns"] += size["cols"]
                out["transfer.equations"] += size["rows"]
        elif rec[5]:
            out.update(rec[5])
        if name == "reps.hom_differential" and "transfer.extension_step" in chain:
            out["transfer.step_residuals"] += 1
    solve = "linalg.solve_linear"
    out[f"{solve}.free_vars"] = out[f"{solve}.cols"] - out[f"{solve}.rank"]
    out.update(counters)
    return out
