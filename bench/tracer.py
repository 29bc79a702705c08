"""Per-layer tracing for one benchmark job, installed from outside ``src/``.

``Tracer.install`` replaces public entry points of the ``bddsets`` modules
with timing wrappers.  Each wrapper keeps an aggregate per entry point:
calls, total (inclusive) time, and self time, the total minus the time
spent in wrapped entry points it called.  Self times of all entry points
partition the time spent inside any of them, so self times plus an
``other`` bucket (benchmark glue and unwrapped code) add up to the job's
wall time.

Entry points are wrapped where callers look them up:

* ``NodeStore`` methods are replaced on the class.  Kernel routines bind
  ``self.apply_or`` and friends to locals when called, so those inner
  calls go through the wrappers too; the recursions inside one routine
  are private closures and are not wrapped, so each entry costs one
  wrapper call.  ``mk_node`` is not wrapped: it runs once per recursion
  frame and would dominate the trace.
* ``propagate`` imports ``card_bounds``, ``fixed_literals``, ``lex_bounds``
  and ``stick_of`` by name, so they are replaced in that module's
  namespace as well as in ``analysis``.
* ``optimize_incremental`` looks ``solve`` up in the ``search`` module.
* ``search.solve``'s labeling choice is a closure; its time is that of the
  ``State.is_determined`` / ``State.fixed_bit_values`` queries it makes,
  grouped as ``search.pick``.

Full spans (name, start, end, parent) are kept only for the coarse
boundaries: model build, ``search.solve`` and ``State.propagate``.
"""

from __future__ import annotations

import time

from bddsets import analysis, engine, instances, models, propagate, search

ENGINE_OPS = (
    "and_exists",
    "apply_or",
    "apply_and",
    "var_set",
    "exists",
    "negate",
    "apply_xor",
    "ite",
    "conjoin",
)
ANALYSIS_OPS = ("fixed_literals", "stick_of", "card_bounds", "lex_bounds")


class Tracer:
    def __init__(self):
        self.stats = {}  # entry point -> [calls, total_s, self_s]
        self.spans = []  # (name, start, end, parent index or -1)
        self._inner = [0.0]  # per open wrapper: time of wrapped callees
        self._open = [-1]  # span index of each open spanned wrapper
        self._pick_depth = [0]
        self.gc_freed = 0

    def wrap(self, name, fn):
        """Aggregate-only wrapper for hot entry points."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        inner = self._inner
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            inner.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = inner.pop()
                inner[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - nested

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_span(self, name, fn):
        """Wrapper that also records a full span for each call."""
        timed = self.wrap(name, fn)
        spans, opened = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, opened[-1]])
            opened.append(idx)
            try:
                return timed(*args, **kwargs)
            finally:
                opened.pop()
                spans[idx][2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_pick(self, fn, name="search.pick"):
        """Wrapper timing only the outermost of nested state queries.

        ``search.snapshot`` shares the guard, so decoding a solution is not
        counted as picking a branch.
        """
        timed = self.wrap(name, fn)
        depth = self._pick_depth

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return timed(*args, **kwargs)
            finally:
                depth[0] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        store_cls, state_cls = engine.NodeStore, propagate.State
        for op in ENGINE_OPS:
            setattr(store_cls, op, self.wrap(f"engine.{op}", getattr(store_cls, op)))
        real_gc = store_cls.collect_garbage

        def collect_garbage(store, roots):
            freed = real_gc(store, roots)
            self.gc_freed += freed
            return freed

        store_cls.collect_garbage = self.wrap("engine.gc", collect_garbage)
        for op in ANALYSIS_OPS:
            w = self.wrap(f"analysis.{op}", getattr(analysis, op))
            setattr(analysis, op, w)
            setattr(propagate, op, w)
        instances.parse_instance = self.wrap("models.parse", instances.parse_instance)
        build = self.wrap_span("models.build", instances.build_from_instance)
        instances.build_from_instance = build
        models.build_hamming = self.wrap_span("models.build", models.build_hamming)
        state_cls.__init__ = self.wrap("models.state", state_cls.__init__)
        state_cls.propagate = self.wrap_span("propagate.propagate", state_cls.propagate)
        state_cls.assign_bit = self.wrap("propagate.assign_bit", state_cls.assign_bit)
        search.solve = self.wrap_span("search.solve", search.solve)
        state_cls.undo = self.wrap("search.undo", state_cls.undo)
        state_cls.maintain = self.wrap("search.maintain", state_cls.maintain)
        state_cls.is_determined = self.wrap_pick(state_cls.is_determined)
        state_cls.fixed_bit_values = self.wrap_pick(state_cls.fixed_bit_values)
        search.snapshot = self.wrap_pick(search.snapshot, "search.snapshot")

    def report(self, wall_s):
        """Aggregates by entry point, plus ``other`` = wall minus all self time."""
        points = {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in self.stats.items()
        }
        return {
            "wall_s": wall_s,
            "other_s": wall_s - sum(p["self_s"] for p in points.values()),
            "points": points,
            "gc_freed": self.gc_freed,
            "spans": self.spans,
        }
