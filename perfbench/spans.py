"""Spans and counters at the package's layer boundaries, for the traced run.

The tracer replaces functions of the installed ``parikhgrid`` modules with
wrappers defined here, so the calls the package makes internally (search to
table build to kernel, cli to export to grid) are recorded as well as the
benchmark's own calls.  Every binding of a wrapped function is replaced,
including the ones other modules made with ``from .x import y``.  ``restore``
puts the originals back.

A span is ``[name, layer, start, end, parent, op]``; ``parent`` is the index
of the enclosing span in the same pass, -1 for an operation's root span.
Calls made outside an operation (output checks, input generation) are not
recorded.  Functions hot enough that a span would distort the measurement
are counted only; their time stays with the calling layer.
"""

import functools
import json
import time
from collections import Counter

import parikhgrid
from parikhgrid import (cli, covering, export, grid, kernel, realize, search,
                        vectors, walks)

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._op = None
        self._patches = []

    # -- recording ---------------------------------------------------------

    def run_op(self, op_id, layer, fn):
        """Run ``fn`` as the root span of operation ``op_id``; the span's own
        time belongs to ``layer``, the layer the benchmark calls into."""
        self._op = op_id
        rec = [op_id, layer, clock(), 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn()
        finally:
            rec[3] = clock()
            self._stack.pop()
            self._op = None

    def take(self):
        """Spans and counts recorded since the last call, then clear them."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _span(self, layer, name, calls=None, observe=None, failures=None,
              listify=False):
        """A wrapper recording a span; ``calls`` counts every call on entry,
        ``failures`` the calls that raise, and ``observe`` reads the result
        of the calls that return."""
        stack, tracer = self._stack, self

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not stack:
                    return fn(*args, **kwargs)
                if calls:
                    tracer.counts[calls] += 1
                rec = [name, layer, clock(), 0.0, stack[-1], tracer._op]
                stack.append(len(tracer.spans))
                tracer.spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                    if listify:
                        result = list(result)
                except Exception:
                    if failures:
                        tracer.counts[failures] += 1
                    raise
                finally:
                    rec[3] = clock()
                    stack.pop()
                if observe:
                    observe(tracer.counts, args, result)
                return result
            return wrapper
        return factory

    def _counter(self, key):
        stack, tracer = self._stack, self

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if stack:
                    tracer.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return factory

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr, factory, modules):
        original = getattr(owner, attr)
        wrapped = factory(original)
        targets = [owner] if isinstance(owner, type) else modules
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, name, original))
                    setattr(target, name, wrapped)

    def install(self):
        """Wrap the layer boundaries of the imported package."""
        modules = [parikhgrid, cli, covering, export, grid, kernel, realize,
                   search, vectors, walks]
        span, count = self._span, self._counter

        def add(key, value):
            def observe(counts, args, result):
                counts[key] += value(args, result)
            return observe

        plan = [
            (search, "_build_tables",
             span("search.tables", "search.tables",
                  calls="search.tables.builds")),
            (search, "_search_length", count("search.lengths")),
            (search, "_subtree_task", count("search.tasks")),
            (kernel, "fixed_length_search",
             span("kernel", "kernel.fixed_length_search",
                  calls="kernel.calls",
                  observe=add("kernel.nodes", lambda a, r: r[2]))),
            (covering, "verify",
             span("covering", "covering.verify",
                  calls="covering.verify.calls")),
            (covering, "covset", span("covering", "covering.covset")),
            (vectors, "neighbors", count("vectors.neighbors.calls")),
            (grid.PdbGrid, "undirected_edges",
             span("grid", "grid.undirected_edges",
                  observe=add("grid.edges", lambda a, r: len(r)),
                  listify=True)),
            (grid.PdbGrid, "directed_edges",
             span("grid", "grid.directed_edges",
                  observe=add("grid.edges", lambda a, r: len(r)),
                  listify=True)),
            (grid, "layout_2d", span("grid", "grid.layout_2d")),
            (walks, "walk_of", span("walks", "walks.walk_of",
                                    failures="walks.failed")),
            (walks, "spell", span("walks", "walks.spell",
                                  failures="walks.failed")),
            (walks, "is_realizable_walk",
             span("walks", "walks.is_realizable_walk",
                  failures="walks.failed")),
            (walks, "string_from_itinerary",
             span("walks", "walks.string_from_itinerary",
                  failures="walks.failed")),
            (realize, "is_realizable_set",
             span("realize", "realize.is_realizable_set",
                  calls="realize.calls", failures="realize.failed")),
            (export, "to_json",
             span("export", "export.to_json",
                  observe=add("export.bytes", lambda a, r: len(r)))),
            (export, "from_json",
             span("export", "export.from_json",
                  observe=add("export.bytes", lambda a, r: len(a[0])))),
            (export, "grid_to_dot",
             span("export", "export.grid_to_dot",
                  observe=add("export.bytes", lambda a, r: len(r)))),
            (export, "grid_to_dict", span("export", "export.grid_to_dict")),
        ]
        for owner, attr, factory in plan:
            self._replace(owner, attr, factory, modules)

    def restore(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches = []


def self_times(spans):
    """Per-layer self time: each span's duration minus the time its child
    spans cover, summed by layer."""
    child = [0.0] * len(spans)
    for _name, _layer, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = Counter()
    for i, (_name, layer, start, end, _parent, _op) in enumerate(spans):
        totals[layer] += (end - start) - child[i]
    return totals


def write_spans(path, passes):
    """Write every traced pass's spans as JSON lines."""
    with open(path, "w") as fh:
        for index, spans in passes:
            for name, layer, start, end, parent, op in spans:
                fh.write(json.dumps({"pass": index, "name": name,
                                     "layer": layer, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
