"""Span tracing of the lsvcal layers, installed from outside the package.

Every public module-level function of each layer module is wrapped. The
package binds names with ``from .x import f``, so one function object can
sit in several module namespaces (``holder_norm`` lives in ``holder``,
``fixed_point``, ``mixing`` and the package itself); the wrapper replaces
every binding in the package's modules. ``run.py`` checks the traced counts
against the run's own outcome, which catches a binding missed elsewhere.

A span is ``[name, start, end, parent, raised]``. Spans stay in memory and
are summarised (and optionally written) once, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import warnings

LAYERS = ("cli", "pipeline", "market", "model", "fixed_point", "holder",
          "mixing", "linpde", "fd", "tridiag")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = {}

    def _count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        on_call = _ON_CALL.get(name)
        on_result = _ON_RESULT.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            if on_call is not None:
                on_call(self, args, kwargs)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[2] = clock()
                span[4] = True
                stack.pop()
                if on_result is not None:
                    on_result(self, span, None, err)
                raise
            span[2] = clock()
            stack.pop()
            if on_result is not None:
                on_result(self, span, result, None)
            return result
        return traced

    def install(self, package="lsvcal"):
        """Wrap every public function of each layer in every namespace."""
        # keyed by id: the originals stay alive in the wrappers' closures
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name == package or name.startswith(package + "."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        setattr(mod, attr, wrappers[id(obj)])
        self._count_warnings()

    def _count_warnings(self):
        """Count lsvcal warnings as they are issued, before any filter.

        The original ``warnings.warn`` still runs with the caller's stack
        level, so what the program prints is unchanged.
        """
        original = warnings.warn

        def counting_warn(message, category=None, stacklevel=1, source=None,
                          **kwargs):
            cat = category or (type(message) if isinstance(message, Warning)
                               else UserWarning)
            self._count(f"warnings.{cat.__name__}")
            return original(message, category, stacklevel + 1, source, **kwargs)
        warnings.warn = counting_warn

    def summary(self) -> dict:
        """Per-function self time, inclusive time and calls, per-layer self
        time, and the counts the hooks collected."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        funcs = {}
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        min_self = 0.0
        for i, (name, start, end, parent, raised) in enumerate(self.spans):
            incl = end - start
            own = incl - child_time[i]
            min_self = min(min_self, own)
            f = funcs.setdefault(name, {"s": 0.0, "incl_s": 0.0, "calls": 0,
                                        "failed": 0})
            f["s"] += own
            f["incl_s"] += incl
            f["calls"] += 1
            f["failed"] += raised
            layer = layers[name.split(".", 1)[0]]
            layer["self_s"] += own
            layer["calls"] += 1
        return {"functions": funcs, "layers": layers, "counts": dict(self.counts),
                "min_self_s": min_self, "n_spans": len(self.spans)}


# ---------------------------------------------------------------------------
# per-function hooks: work counts and the reports the program discards
# ---------------------------------------------------------------------------

def _holder_cells(tr, args, kwargs):
    tr._count("holder.holder_norm.cells", _size(args[0] if args else kwargs["u"]))


def _solve_batch_unknowns(tr, args, kwargs):
    tr._count("tridiag.solve_batch.unknowns",
              _size(args[1] if len(args) > 1 else kwargs["diag"]))


def _size(a):
    return int(getattr(a, "size", 0))


def _solve_linear_report(tr, span, result, err):
    if err is not None:
        return
    rep = result[1]
    tr._count("linpde.n_tridiag_solves", rep.n_tridiag_solves)
    tr.counts["linpde.cross_cfl_max"] = max(tr.counts.get("linpde.cross_cfl_max", 0.0),
                                            float(rep.cross_cfl))
    k2 = float(rep.k2)
    tr.counts["linpde.k2_min"] = min(tr.counts.get("linpde.k2_min", k2), k2)


def _iterate_report(tr, span, result, err):
    report = result[1] if err is None else getattr(err, "report", None)
    if report is not None:
        tr._count("fixed_point.iterations", report.iterations)
    # shrink_horizon keeps only the horizon of the iterates it runs; any
    # other caller keeps a returned iterate
    parent = span[3]
    if parent >= 0 and tr.spans[parent][0] == "fixed_point.shrink_horizon":
        tr._count("fixed_point.iterate.in_shrink")
    elif err is None:
        tr._count("fixed_point.iterate.kept")


_ON_CALL = {
    "holder.holder_norm": _holder_cells,
    "tridiag.solve_batch": _solve_batch_unknowns,
}
_ON_RESULT = {
    "linpde.solve_linear": _solve_linear_report,
    "fixed_point.iterate": _iterate_report,
}
