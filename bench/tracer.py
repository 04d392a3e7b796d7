"""Per-layer tracing, installed from outside on the package's public functions.

A wrapped module-level function is replaced in every ``artifact`` module that
holds it by name (``ssorbits`` imports ``act_tensor`` from ``groupaction``,
for example); methods are replaced on their class.  Three kinds of wrapper:

* counters: the hot leaf calls (``CycNum`` products and sums, ``g_mul``,
  ``g_key``, ...), aggregated into call counts only;
* timers: counts plus CPU time, taken at the outermost call of the target;
* spans: timers that also record ``(name, start, end, parent)``, for the
  coarse stages (table building, closures, cohomology).  Spans shorter than
  ``SPAN_MIN_S`` are dropped, so cache hits leave no record.

Everything is kept in memory and written by the harness when the run ends.
Tracing is active only while ``enabled`` is set.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SPAN_MIN_S = 1e-3

clock = time.process_time


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.values: dict[str, float] = defaultdict(int)
        self.spans: list[list] = []
        self._open: list[int] = []
        self._active: set[str] = set()

    # -- wrappers -------------------------------------------------------------

    def counter(self, name, fn, extra=None):
        values = self.values

        def wrapper(*args, **kwargs):
            if self.enabled:
                values[name] += 1
                if extra is not None:
                    extra(values, args)
            return fn(*args, **kwargs)

        return wrapper

    def timer(self, name, fn, span=False, calls=True, post=None):
        values = self.values

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if calls:
                values[name + "_calls"] += 1
            if name in self._active:
                return fn(*args, **kwargs)
            self._active.add(name)
            idx = None
            if span:
                idx = len(self.spans)
                self.spans.append([name, None, None, self._open[-1] if self._open else None])
                self._open.append(idx)
            start = clock()
            if idx is not None:
                self.spans[idx][1] = start
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if post is not None and hasattr(exc, "report"):
                    post(values, exc.report)
                raise
            finally:
                end = clock()
                values[name + "_s"] += end - start
                self._active.discard(name)
                if idx is not None:
                    self._open.pop()
                    self.spans[idx][2] = end
                    if end - start < SPAN_MIN_S and idx == len(self.spans) - 1:
                        self.spans.pop()
            if post is not None:
                post(values, result)
            return result

        return wrapper

    def span(self, name):
        """Context manager recording one span (used for benchmark ops)."""
        return _Span(self, name)

    # -- installation ---------------------------------------------------------

    def patch_function(self, module, attr, make):
        orig = getattr(module, attr)
        wrapped = make(orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("artifact"):
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr, make):
        setattr(cls, attr, make(getattr(cls, attr)))


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        if tr.enabled:
            self.idx = len(tr.spans)
            tr.spans.append([self.name, clock(), None, tr._open[-1] if tr._open else None])
            tr._open.append(self.idx)
        else:
            self.idx = None
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.tracer._open.pop()
            self.tracer.spans[self.idx][2] = clock()
        return False


def _single_term(values, args):
    a, b = args
    if a.nums.count(0) >= 7 or getattr(b, "nums", ()).count(0) >= 7:
        values["exactfield.mul_single_term_calls"] += 1


def _solve_result(counter):
    def post(values, result):
        if result is None:
            values[counter] += 1
    return post


def _row_solve_post(values, result):
    if result is not None:
        values["ssorbits.row_solve_matches"] += 1


def _closure_post(values, result):
    values["galois.gelt_closure_elements"] += len(result)


def _class_list_post(values, report):
    values["galois.verify_class_list_probe_pairs"] += (
        report["probes"] * report["pairs_checked"]
    )


#: Metric name -> unit, in the order they are reported.
METRICS = {
    "exactfield.mul_calls": "count",
    "exactfield.mul_single_term_calls": "count",
    "exactfield.add_calls": "count",
    "exactfield.inverse_calls": "count",
    "exactfield.inverse_s": "s",
    "linalg.rref_calls": "count",
    "linalg.rref_s": "s",
    "linalg.solve_calls": "count",
    "linalg.solve_inconsistent": "count",
    "liealg.is_semisimple_calls": "count",
    "liealg.is_semisimple_s": "s",
    "groupaction.act_tensor_calls": "count",
    "groupaction.act_tensor_s": "s",
    "groupaction.g_mul_calls": "count",
    "groupaction.g_key_calls": "count",
    "cartanweyl.weyl_group_s": "s",
    "cartanweyl.w_act_coords_calls": "count",
    "cartanweyl.h_action_matrix_calls": "count",
    "galois.gelt_closure_s": "s",
    "galois.gelt_closure_elements": "count",
    "galois.build_normalizer_s": "s",
    "galois.h1_s": "s",
    "galois.verify_class_list_s": "s",
    "galois.verify_class_list_probe_pairs": "count",
    "invariants.invariants_of_calls": "count",
    "invariants.invariants_of_s": "s",
    "ssorbits.row_solve_calls": "count",
    "ssorbits.row_solve_matches": "count",
    "ssorbits.real_weyl_group_s": "s",
    "ssorbits.blocks_s": "s",
}


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries (imports every traced module)."""
    from artifact import _linalg, cartanweyl, exactfield, galois, groupaction
    from artifact import invariants, liealg, ssorbits

    t = tracer
    cyc = exactfield.CycNum
    t.patch_method(cyc, "__mul__", lambda f: t.counter("exactfield.mul_calls", f, _single_term))
    t.patch_method(cyc, "__add__", lambda f: t.counter("exactfield.add_calls", f))
    t.patch_method(cyc, "__sub__", lambda f: t.counter("exactfield.add_calls", f))
    t.patch_method(cyc, "inverse", lambda f: t.timer("exactfield.inverse", f))

    t.patch_function(_linalg, "rref", lambda f: t.timer("linalg.rref", f))
    t.patch_function(_linalg, "solve", lambda f: t.counter(
        "linalg.solve_calls", _post_call(f, _solve_result("linalg.solve_inconsistent"), t)))

    t.patch_function(liealg, "is_semisimple", lambda f: t.timer("liealg.is_semisimple", f))

    t.patch_function(groupaction, "act_tensor", lambda f: t.timer("groupaction.act_tensor", f))
    t.patch_function(groupaction, "g_mul", lambda f: t.counter("groupaction.g_mul_calls", f))
    t.patch_function(groupaction, "g_key", lambda f: t.counter("groupaction.g_key_calls", f))

    t.patch_function(cartanweyl, "weyl_group",
                     lambda f: t.timer("cartanweyl.weyl_group", f, span=True, calls=False))
    t.patch_function(cartanweyl, "w_act_coords",
                     lambda f: t.counter("cartanweyl.w_act_coords_calls", f))
    t.patch_function(cartanweyl, "h_action_matrix",
                     lambda f: t.counter("cartanweyl.h_action_matrix_calls", f))

    t.patch_function(galois, "gelt_closure", lambda f: t.timer(
        "galois.gelt_closure", f, span=True, calls=False, post=_closure_post))
    t.patch_function(galois, "build_normalizer",
                     lambda f: t.timer("galois.build_normalizer", f, span=True, calls=False))
    t.patch_function(galois, "h1", lambda f: t.timer("galois.h1", f, span=True, calls=False))
    t.patch_function(galois, "verify_class_list", lambda f: t.timer(
        "galois.verify_class_list", f, span=True, calls=False, post=_class_list_post))

    t.patch_function(invariants, "invariants_of",
                     lambda f: t.timer("invariants.invariants_of", f))

    t.patch_method(ssorbits.SSTableRow, "solve", lambda f: t.counter(
        "ssorbits.row_solve_calls", _post_call(f, _row_solve_post, t)))
    t.patch_function(ssorbits, "real_weyl_group",
                     lambda f: t.timer("ssorbits.real_weyl_group", f, span=True, calls=False))
    t.patch_function(ssorbits, "blocks",
                     lambda f: t.timer("ssorbits.blocks", f, span=True, calls=False))


def _post_call(fn, post, tracer):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.enabled:
            post(tracer.values, result)
        return result
    return wrapper


def metrics(tracer: Tracer) -> dict:
    return {
        name: {"value": tracer.values.get(name, 0), "unit": unit}
        for name, unit in METRICS.items()
    }
