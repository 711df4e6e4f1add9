"""Span tracing of the simulator's layers, from outside the program.

:class:`LayerTracer` replaces public entry points of each layer with
thin wrappers that record one span per call: the span's name, start,
end (``perf_counter_ns``), parent span and cell id.  Spans are kept in
compact ``array`` columns in memory and written to a span file only
when the run ends.  A layer's self time is its spans' durations minus
the part their child spans cover; calls nest strictly (one thread), so
that part is the sum of the children's durations.

Wrappers go on instance attributes (an engine's protocol, network,
predictor and cache hierarchies, and ``engine.run`` itself), on module
attributes (workload generation, trace compilation, the runner's
engine factory) or on class attributes (the trace store and the disk
result cache).  The engine binds these at ``run()`` start, so wrapping
after construction sees every live call.  The wrappers only observe:
arguments and results pass through untouched, and the benchmark checks
that traced counters are bit-identical to untraced ones.
"""

from __future__ import annotations

import json
import operator
import time
import types
from array import array
from collections import Counter, defaultdict

#: Engine attributes wrapped per instance: (attribute path, method names).
ENGINE_ENTRY_POINTS = (
    ("protocol", ("read_miss", "write_miss", "upgrade_miss")),
    ("network", ("send", "multicast", "broadcast")),
    ("predictor", (
        "predict", "train", "on_sync",
        "peek_private_plan", "commit_private_batch", "observe_external",
    )),
)
HIERARCHY_ENTRY_POINTS = ("classify", "fill", "invalidate")

#: Span-name prefix -> layer (the ``src/repro`` module it belongs to).
LAYER_OF = {
    "protocol": "coherence",
    "network": "noc",
    "predictor": "predictor",
    "hierarchy": "cache",
    "engine": "sim",
    "generator": "workloads",
    "compile": "traces",
    "trace_store": "traces",
    "disk_cache": "runner",
}

SPAN_FILE_VERSION = 1


class LayerTracer:
    """Records one span per wrapped call; see the module docstring."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("H")
        self.span_cell = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        #: Cell id stamped on new spans; 0 is work outside any cell.
        self.cell = 0
        #: Trace events produced by workload generation under the tracer.
        self.generated_events = 0
        self._stack = [-1]
        self._undo: list = []

    # -- wrapping -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrapper(self, fn, name: str):
        nid = self._name_id(name)
        names = self.span_name
        cells = self.span_cell
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def span(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            cells.append(tracer.cell)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end

        return span

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``hook(result)`` runs on the call's return value, inside the
        span.  Module and class attributes are put back by
        :meth:`restore`; instance attributes stay, since each wrapped
        instance belongs to one traced cell.
        """
        original = getattr(owner, attr)
        if isinstance(owner, (type, types.ModuleType)):
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
        fn = original
        if hook is not None:
            def fn(*args, **kwargs):
                result = original(*args, **kwargs)
                hook(result)
                return result
        setattr(owner, attr, self._wrapper(fn, name))

    def restore(self) -> None:
        """Put back every wrapped module and class attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def instrument_engine(self, engine) -> None:
        """Wrap one engine's layer entry points (before ``run()``)."""
        for attr, methods in ENGINE_ENTRY_POINTS:
            owner = getattr(engine, attr)
            if owner is None:
                continue
            for method in methods:
                if hasattr(owner, method):
                    self.wrap(owner, method, f"{attr}.{method}")
        for hier in engine.hierarchies:
            for method in HIERARCHY_ENTRY_POINTS:
                self.wrap(hier, method, f"hierarchy.{method}")
        self.wrap(engine, "run", "engine.run")

    def instrument_modules(self) -> None:
        """Wrap workload generation, trace compilation and storage, and
        the disk result cache where the program looks them up."""
        import repro.runner.diskcache as diskcache
        import repro.traces.compile as compile_mod
        import repro.traces.store as store_mod
        import repro.workloads.generator as generator

        def count_events(workload):
            self.generated_events += workload.total_events()

        self.wrap(generator, "build_workload", "generator.build_workload",
                  hook=count_events)
        self.wrap(compile_mod, "compile_workload", "compile.compile_workload")
        self.wrap(store_mod, "compile_workload", "compile.compile_workload")
        self.wrap(compile_mod, "ensure_compiled", "compile.ensure_compiled")
        self.wrap(store_mod, "ensure_compiled", "compile.ensure_compiled")
        self.wrap(store_mod.TraceStore, "load", "trace_store.load")
        self.wrap(store_mod.TraceStore, "store", "trace_store.store")
        self.wrap(diskcache.DiskCache, "load", "disk_cache.load")
        self.wrap(diskcache.DiskCache, "store", "disk_cache.store")

    def instrument_runner(self) -> None:
        """Instrument every engine the sweep runner builds, and start a
        new cell id each time it loads a cell's workload."""
        import repro.runner.pool as pool

        original_load = pool._load_workload
        original_build = pool._build_engine

        def load_workload(spec):
            self.cell += 1
            return original_load(spec)

        def build_engine(spec, workload):
            engine = original_build(spec, workload)
            self.instrument_engine(engine)
            return engine

        self._undo.append((pool, "_load_workload", original_load))
        self._undo.append((pool, "_build_engine", original_build))
        pool._load_workload = load_workload
        pool._build_engine = build_engine

    # -- analysis -------------------------------------------------------

    def calls(self) -> Counter:
        """Span count per span name."""
        counts = Counter(self.span_name)
        return Counter({self.names[nid]: n for nid, n in counts.items()})

    def self_seconds(self) -> dict:
        """Self time per span name, in seconds."""
        durations = array("q", map(operator.sub, self.span_end,
                                   self.span_start))
        own = array("q", durations)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= durations[i]
        totals: dict = defaultdict(int)
        for nid, ns in zip(self.span_name, own):
            totals[nid] += ns
        return {self.names[nid]: ns / 1e9 for nid, ns in totals.items()}

    def write(self, path, meta: dict) -> None:
        """The span file: one JSON header line, then the five span
        columns as raw arrays (native byte order) in header order."""
        header = {
            "format": "perfbench-spans",
            "version": SPAN_FILE_VERSION,
            "spans": len(self.span_name),
            "names": self.names,
            "columns": [
                ["name", "H"], ["cell", "H"], ["parent", "i"],
                ["start_ns", "q"], ["end_ns", "q"],
            ],
            "meta": meta,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (
                self.span_name, self.span_cell, self.span_parent,
                self.span_start, self.span_end,
            ):
                column.tofile(fh)


def layer_seconds(own: dict) -> dict:
    """Self time per layer (see :data:`LAYER_OF`) from
    :meth:`LayerTracer.self_seconds`."""
    layers: dict = defaultdict(float)
    for name, seconds in own.items():
        layers[LAYER_OF[name.split(".", 1)[0]]] += seconds
    return dict(layers)


def read_span_file(path) -> tuple:
    """``(header, columns)`` of a span file written by
    :meth:`LayerTracer.write`; ``columns`` maps name -> array."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, typecode in header["columns"]:
            column = array(typecode)
            column.fromfile(fh, header["spans"])
            columns[name] = column
    return header, columns
