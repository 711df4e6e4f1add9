"""The benchmark's three workloads.

Each workload has a set-up step (run before timing; its cost is the
``setup_s`` metric) and a pass: one simulation of every cell, returning
the cells' results.  Every pass builds fresh engines, so the simulated
caches, directory, network and predictor tables start empty in every
cell.  Configurations are the program's defaults — default
``MachineConfig`` (except ``private_stream``'s quantum), default engine
path — and no ``REPRO_*`` knob is set (see ``run.py``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass

#: ``contended``: every suite workload at this scale (>= 0.4: below it
#: the vector engine's memo warm-up dominates the timed phase).
CONTENDED_SCALE = 0.4

#: ``private_stream``: outer iterations of the private-stream synthetic
#: (~6.4k trace events each) and its scheduler quantum.
PRIVATE_ITERATIONS = 48
PRIVATE_QUANTUM = 100_000

#: ``cold_zoo``: a cold serial sweep over this grid at this scale (3 of
#: the 6 suggested workloads at half the suggested scale, so a
#: 30-second run gets about 9 passes).
ZOO_WORKLOADS = ("facesim", "dedup", "x264")
ZOO_CONFIGS = (
    {"protocol": "broadcast", "predictor": "none"},
    {"protocol": "directory", "predictor": "ADDR"},
    {"protocol": "directory", "predictor": "INST"},
)
ZOO_SCALE = 0.25


@dataclass
class PassResult:
    """One pass: cell label -> result dict, and what it cost."""

    cells: dict
    wall_s: float
    events: int
    engine_paths: set
    #: Share of the simulated events inside vectorizable segments.
    vector_fraction: float
    #: Engine runs the sweep runner executed (0 outside the runner).
    simulations: int = 0


def _label(name, protocol, predictor) -> str:
    return f"{name}/{protocol}/{predictor}"


def _engine_path(engine) -> str:
    return "vector" if engine._vector_enabled() else "compiled"


def vector_fraction(workloads) -> float:
    """Events inside PRIVATE/THINK segments over all events."""
    vector = total = 0
    for workload in workloads:
        for core in workload._compiled.batch_coverage()["per_core"]:
            vector += core["private_events"] + core["think_events"]
            total += core["events"]
    return vector / total if total else 0.0


def _simulate(workloads, machine, protocol, predictor, tracer,
              between=None) -> PassResult:
    """Simulate each workload once on a fresh engine; ``between`` (not
    timed) runs between two cells."""
    from repro.sim.engine import SimulationEngine

    results, paths = [], set()
    wall = 0.0
    for cell, workload in enumerate(workloads, start=1):
        if between is not None and cell > 1:
            between()
        start = time.perf_counter()
        engine = SimulationEngine(
            workload, machine=machine, protocol=protocol,
            predictor=predictor,
        )
        paths.add(_engine_path(engine))
        if tracer is not None:
            tracer.cell = cell
            tracer.instrument_engine(engine)
        results.append(engine.run())
        wall += time.perf_counter() - start
    if tracer is not None:
        tracer.cell = 0
    return PassResult(
        cells={
            _label(w.name, protocol, predictor): r.to_dict()
            for w, r in zip(workloads, results)
        },
        wall_s=wall,
        events=sum(w.total_events() for w in workloads),
        engine_paths=paths,
        vector_fraction=vector_fraction(workloads),
    )


class Contended:
    name = "contended"
    scale = CONTENDED_SCALE

    def setup(self, seed: int, scratch: str):
        """Generate and compile every suite workload through a fresh
        trace store (the store-miss path a first run pays)."""
        from repro.traces.store import TraceStore, load_benchmark_compiled
        from repro.workloads.suite import benchmark_names

        store = TraceStore(tempfile.mkdtemp(dir=scratch, prefix="traces-"))
        return [
            load_benchmark_compiled(name, scale=self.scale, seed=seed,
                                    store=store)
            for name in benchmark_names()
        ]

    def cell_labels(self) -> list:
        from repro.workloads.suite import benchmark_names

        return [_label(n, "directory", "SP") for n in benchmark_names()]

    def run_pass(self, state, seed: int, scratch: str,
                 tracer=None, between=None) -> PassResult:
        from repro.sim.machine import MachineConfig

        return _simulate(state, MachineConfig(), "directory", "SP", tracer,
                         between)


class PrivateStream:
    name = "private_stream"
    scale = 1.0

    def setup(self, seed: int, scratch: str):
        from repro.traces.compile import ensure_compiled
        from repro.workloads import generator
        from repro.workloads.patterns import PatternKind

        spec = generator.BenchmarkSpec(
            name="private_stream",
            epochs=(generator.EpochSpec(
                pattern=PatternKind.PRIVATE,
                consume_blocks=0,
                produce_blocks=0,
                private_blocks=400,
                rereads=0,
                think=0,
            ),),
            iterations=PRIVATE_ITERATIONS,
            seed=seed,
        )
        workload = generator.build_workload(spec, scale=self.scale)
        ensure_compiled(workload)
        return [workload]

    def cell_labels(self) -> list:
        return [_label("private_stream", "directory", "SP")]

    def run_pass(self, state, seed: int, scratch: str,
                 tracer=None, between=None) -> PassResult:
        from repro.sim.machine import MachineConfig

        return _simulate(
            state, MachineConfig(quantum=PRIVATE_QUANTUM), "directory",
            "SP", tracer, between,
        )


class ColdZoo:
    name = "cold_zoo"
    scale = ZOO_SCALE

    def setup(self, seed: int, scratch: str):
        return None

    def cell_labels(self) -> list:
        return [
            _label(name, cfg["protocol"], cfg["predictor"])
            for name in ZOO_WORKLOADS for cfg in ZOO_CONFIGS
        ]

    def run_pass(self, state, seed: int, scratch: str,
                 tracer=None, between=None) -> PassResult:
        """One cold serial sweep: empty trace store, disk cache, ledger
        and in-process workload memo, as a fresh process starts.  The
        sweep is one call, so ``between`` is not used."""
        import repro.runner.pool as pool
        from repro.experiments.common import RunCache
        from repro.sim.engine import _numpy_available

        root = tempfile.mkdtemp(dir=scratch, prefix="zoo-")
        for var, sub in (
            ("REPRO_TRACE_DIR", "traces"),
            ("REPRO_CACHE_DIR", "cache"),
            ("REPRO_LEDGER_DIR", "ledger"),
        ):
            os.environ[var] = os.path.join(root, sub)
        pool._workloads.clear()
        grid = [
            {"name": name, **cfg}
            for name in ZOO_WORKLOADS for cfg in ZOO_CONFIGS
        ]
        if tracer is not None:
            tracer.instrument_runner()
        start = time.perf_counter()
        cache = RunCache(scale=self.scale, jobs=1, seed=seed, progress=False)
        cache.prefetch(grid)
        results = [cache.get(**cfg) for cfg in grid]
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.cell = 0
        workloads = list(pool._workloads.values())
        pass_result = PassResult(
            cells={
                _label(cfg["name"], cfg["protocol"], cfg["predictor"]):
                r.to_dict()
                for cfg, r in zip(grid, results)
            },
            wall_s=wall,
            events=sum(w.total_events() for w in workloads)
            * len(ZOO_CONFIGS),
            engine_paths={"vector" if _numpy_available() else "compiled"},
            vector_fraction=vector_fraction(workloads),
            simulations=cache.simulations,
        )
        pool._workloads.clear()
        shutil.rmtree(root, ignore_errors=True)
        return pass_result


WORKLOADS = {w.name: w for w in (Contended(), PrivateStream(), ColdZoo())}
