#!/usr/bin/env python3
"""The repository's benchmark: one named workload, one process, one thread.

Usage (from the repository root)::

    python3 perfbench/run.py --workload contended --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the set-up several times and then simulates the
workload's cells in passes for about ``--seconds`` host seconds, with
nothing wrapped; it prints the end-to-end metrics, with host times
scaled to a reference host speed measured alongside (``hostspeed.py``).
``--trace 1`` is the separate traced run: one untraced pass, then
set-up and one pass with every layer's entry points wrapped
(``layers.py``); it asserts the traced counters are bit-identical to
the untraced ones and prints the per-layer metrics.  Every cell is
checked (``check.py``).

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
provenance record (host, seed, scale, numpy version, engine path,
per-cell failures) goes to ``.perfbench_out/`` in the repository root,
next to the traced run's span file.

Everything the program writes — trace store, disk result cache, run
ledger — goes to a per-run directory under ``.perfbench_tmp/`` that is
removed on normal exit, on an exception, on SIGINT and on SIGTERM.
Sweeps run with ``jobs=1``: no worker pool, no extra thread.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

IMPORT_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

#: Set-up repetitions per timed run; ``setup_s`` takes their median.
SETUP_REPS = 3

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_miss_latency_cyc": "cycles",
}

PER_LAYER_UNITS = {
    "workloads.generate_s": "s",
    "workloads.events": "count",
    "traces.compile_s": "s",
    "traces.store_s": "s",
    "traces.vector_fraction": "ratio",
    "sim.self_s": "s",
    "sim.accesses": "count",
    "sim.cycles": "cycles",
    "cache.calls": "count",
    "cache.self_s": "s",
    "cache.l1_hit_ratio": "ratio",
    "coherence.tx_calls": "count",
    "coherence.misses": "count",
    "coherence.tx_call_ratio": "ratio",
    "coherence.self_s": "s",
    "coherence.indirections": "count",
    "coherence.snoop_lookups": "count",
    "noc.messages": "count",
    "noc.bytes": "bytes",
    "noc.send_calls": "count",
    "noc.self_s": "s",
    "predictor.predict_calls": "count",
    "predictor.train_calls": "count",
    "predictor.sync_calls": "count",
    "predictor.self_s": "s",
    "predictor.useful_ratio": "ratio",
    "runner.store_s": "s",
    "runner.load_s": "s",
    "runner.simulations": "count",
    "trace.overhead_ratio": "ratio",
    "failed_frac": "ratio",
    "sim_pred_accuracy": "ratio",
}

#: Environment knobs that select engine paths, quanta, caches, worker
#: counts or telemetry.  The benchmark measures the defaults, so every
#: ``REPRO_*`` variable is removed before the program is imported.
KNOB_PREFIX = "REPRO_"


def _raise_exit(signum, frame):
    sys.exit(128 + signum)


@contextlib.contextmanager
def run_directory(prefix: str = "run-"):
    """A fresh directory under ``.perfbench_tmp/``, removed on normal
    exit, on an exception, on SIGINT (KeyboardInterrupt) and on SIGTERM
    (turned into SystemExit here)."""
    TMP_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=TMP_DIR, prefix=prefix))
    previous = signal.signal(signal.SIGTERM, _raise_exit)
    try:
        yield scratch
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run's directory is still there


def isolate_environment(scratch: Path) -> list:
    """Drop every ``REPRO_*`` knob, keep numpy to one thread, and point
    the trace store, disk cache and ledger into ``scratch``; returns the
    dropped names."""
    dropped = sorted(k for k in os.environ if k.startswith(KNOB_PREFIX))
    for key in dropped:
        del os.environ[key]
    # One thread: numpy's OpenBLAS would otherwise start a worker
    # thread at import (the simulator makes no BLAS calls).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # host_metadata() runs git: do not let it find a repository that
    # encloses a checkout which is not one itself.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    os.environ["REPRO_TRACE_DIR"] = str(scratch / "traces")
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
    os.environ["REPRO_LEDGER_DIR"] = str(scratch / "ledger")
    return dropped


def import_program() -> None:
    """Import the program, including what it imports lazily on the
    timed paths, so no import lands inside a timed phase."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro comes from {repro.__file__}, not {src}")
    import repro.experiments.common  # noqa: F401
    import repro.obs.ledger  # noqa: F401
    import repro.obs.metrics  # noqa: F401
    import repro.obs.spans  # noqa: F401
    import repro.predictors.factory  # noqa: F401
    import repro.sim.engine as engine
    import repro.traces.store  # noqa: F401
    import repro.workloads.suite  # noqa: F401

    if engine._numpy_available():
        import repro.sim.vector  # noqa: F401


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _normalized(counters: dict) -> dict:
    """The counters as the reference file stores them (JSON types)."""
    return json.loads(json.dumps(counters))


class Tally:
    """Cells attempted and failed, with the first reasons."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures: list = []

    def check(self, pass_result, baseline=None) -> None:
        """Check one pass; ``baseline`` is an earlier pass of the same
        cells that this one must equal counter for counter."""
        from check import check_cell, first_difference

        for label, counters in pass_result.cells.items():
            self.attempted += 1
            counters = _normalized(counters)
            reason = check_cell(label, counters, self.reference)
            if reason is None and baseline is not None:
                diff = first_difference(
                    counters, _normalized(baseline.cells[label])
                )
                if diff is not None:
                    reason = f"differs from the baseline pass at {diff}"
            if reason is not None:
                self.failures.append(f"{label}: {reason}")

    def fail_all(self, labels, reason: str) -> None:
        for label in labels:
            self.attempted += 1
            self.failures.append(f"{label}: {reason}")


def sim_totals(cells: dict) -> dict:
    """Counter sums over a pass's cells."""
    keys = (
        "accesses", "l1_hits", "cycles", "read_misses", "write_misses",
        "upgrade_misses", "miss_latency_sum", "comm_misses",
        "pred_correct", "pred_attempted", "indirections", "snoop_lookups",
    )
    totals = {k: sum(c[k] for c in cells.values()) for k in keys}
    totals["misses"] = (
        totals["read_misses"] + totals["write_misses"]
        + totals["upgrade_misses"]
    )
    totals["noc_messages"] = sum(
        c["network"]["messages"] for c in cells.values()
    )
    totals["noc_bytes"] = sum(
        c["network"]["bytes_total"] for c in cells.values()
    )
    return totals


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def checked_pass(workload, state, seed: int, scratch: Path, tally: Tally,
                 baseline=None, tracer=None, between=None):
    """One checked pass, or None when it raised (every cell of the
    pass then counts as failed)."""
    try:
        result = workload.run_pass(state, seed, str(scratch), tracer=tracer,
                                   between=between)
    except Exception as exc:  # a cell raised: record it, stop measuring
        traceback.print_exc()
        tally.fail_all(workload.cell_labels(), f"raised {exc!r}")
        return None
    tally.check(result, baseline=baseline)
    return result


def timed_run(workload, seed: int, seconds: float, scratch: Path,
              tally: Tally, import_s: float, table) -> tuple:
    """Set-up ``SETUP_REPS`` times, then passes for ~``seconds``.

    Calibration samples (``hostspeed.py``) are taken around every
    set-up and every pass, and between the cells of a pass; the host-time
    metrics are scaled to the reference host speed they give.  ``table``
    is the calibration's ``WalkTable``; its memory is taken out of
    ``peak_rss_mb``."""
    from hostspeed import HostClock

    setup_clock = HostClock(table)
    setup_clock.sample()
    setups = []
    state = None
    for _ in range(SETUP_REPS):
        state = None  # let the previous set-up's workloads go first
        start = time.perf_counter()
        state = workload.setup(seed, str(scratch))
        setups.append(time.perf_counter() - start)
        setup_clock.sample()
    clock = HostClock(table)
    passes = []
    measured = 0.0
    while True:
        clock.sample()
        result = checked_pass(workload, state, seed, scratch, tally,
                              baseline=passes[0] if passes else None,
                              between=clock.sample)
        if result is None:
            break
        passes.append(result)
        measured += result.wall_s
        typical = statistics.median(p.wall_s for p in passes)
        if measured + typical > seconds:
            break
    clock.sample()
    if not passes:
        raise RuntimeError("no pass completed: " + tally.failures[-1])
    totals = sim_totals(passes[0].cells)
    # Mean pass time over the mean calibration time of the same
    # interval: both average over the same mix of host-speed phases.
    raw_wall = statistics.fmean(p.wall_s for p in passes)
    raw_setup = import_s + statistics.median(setups)
    wall = raw_wall * clock.speed()
    metrics = {
        "events_per_s": passes[0].events / wall,
        "wall_s": wall,
        "setup_s": raw_setup * setup_clock.speed(),
        "peak_rss_mb": peak_rss_mb() - table.resident_mb,
        "sim_miss_latency_cyc": _ratio(
            totals["miss_latency_sum"], totals["misses"]
        ),
    }
    detail = {
        "host_speed": clock.speed(),
        "setup_host_speed": setup_clock.speed(),
        "raw_events_per_s": passes[0].events / raw_wall,
        "raw_wall_s": raw_wall,
        "raw_setup_s": raw_setup,
        "calibration_s": clock.samples,
        "calibration_table_mb": table.resident_mb,
        "setup_calibration_s": setup_clock.samples,
        "setup_reps_s": setups,
        "pass_wall_s": [p.wall_s for p in passes],
        "events_per_pass": passes[0].events,
        "cells": len(passes[0].cells),
        "engine_paths": sorted(set().union(*(p.engine_paths for p in passes))),
        "sim_pred_accuracy": _ratio(
            totals["pred_correct"], totals["comm_misses"]
        ) if totals["comm_misses"] else None,
    }
    return metrics, detail


def traced_run(workload, seed: int, scratch: Path, tally: Tally) -> tuple:
    """One untraced pass, then set-up and one pass under the tracer."""
    from layers import LayerTracer, layer_seconds

    state = workload.setup(seed, str(scratch))
    untraced = checked_pass(workload, state, seed, scratch, tally)
    state = None

    tracer = LayerTracer()
    tracer.instrument_modules()
    try:
        state = workload.setup(seed, str(scratch))
        traced = checked_pass(workload, state, seed, scratch, tally,
                              baseline=untraced, tracer=tracer)
    finally:
        tracer.restore()
    if untraced is None or traced is None:
        raise RuntimeError("a pass raised: " + tally.failures[-1])

    calls = tracer.calls()
    own = tracer.self_seconds()
    layer_s = layer_seconds(own)
    totals = sim_totals(traced.cells)
    tx_calls = sum(
        calls[f"protocol.{m}"]
        for m in ("read_miss", "write_miss", "upgrade_miss")
    )
    metrics = {
        "workloads.generate_s": layer_s.get("workloads", 0.0),
        "workloads.events": tracer.generated_events,
        "traces.compile_s": own.get("compile.compile_workload", 0.0)
        + own.get("compile.ensure_compiled", 0.0),
        "traces.store_s": own.get("trace_store.load", 0.0)
        + own.get("trace_store.store", 0.0),
        "traces.vector_fraction": traced.vector_fraction,
        "sim.self_s": layer_s.get("sim", 0.0),
        "sim.accesses": totals["accesses"],
        "sim.cycles": totals["cycles"],
        "cache.calls": sum(
            n for name, n in calls.items() if name.startswith("hierarchy.")
        ),
        "cache.self_s": layer_s.get("cache", 0.0),
        "cache.l1_hit_ratio": _ratio(totals["l1_hits"], totals["accesses"]),
        "coherence.tx_calls": tx_calls,
        "coherence.misses": totals["misses"],
        "coherence.tx_call_ratio": _ratio(tx_calls, totals["misses"]),
        "coherence.self_s": layer_s.get("coherence", 0.0),
        "coherence.indirections": totals["indirections"],
        "coherence.snoop_lookups": totals["snoop_lookups"],
        "noc.messages": totals["noc_messages"],
        "noc.bytes": totals["noc_bytes"],
        "noc.send_calls": calls["network.send"],
        "noc.self_s": layer_s.get("noc", 0.0),
        "predictor.predict_calls": calls["predictor.predict"],
        "predictor.train_calls": calls["predictor.train"],
        "predictor.sync_calls": calls["predictor.on_sync"],
        "predictor.self_s": layer_s.get("predictor", 0.0),
        "predictor.useful_ratio": _ratio(
            totals["pred_correct"], totals["pred_attempted"]
        ),
        "runner.store_s": own.get("disk_cache.store", 0.0),
        "runner.load_s": own.get("disk_cache.load", 0.0),
        "runner.simulations": traced.simulations,
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s,
        "sim_pred_accuracy": _ratio(
            totals["pred_correct"], totals["comm_misses"]
        ),
    }
    detail = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "events_per_pass": traced.events,
        "cells": len(traced.cells),
        "engine_paths": sorted(untraced.engine_paths | traced.engine_paths),
        "spans": len(tracer.span_name),
        "span_calls": dict(sorted(calls.items())),
        "span_self_s": dict(sorted(own.items())),
    }
    return metrics, detail, tracer


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scratch: Path, import_s: float, reference=..., table=None) -> dict:
    """Run one workload; returns the result record (see module doc).

    ``reference`` defaults to the committed counters for ``seed`` (None
    when the seed has none: invariants only).  ``table`` is the timed
    run's calibration ``WalkTable`` (``hostspeed.py``).
    """
    from check import load_reference
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    if reference is ...:
        reference = load_reference(seed, workload_name)
    tally = Tally(reference)
    tracer = None
    if trace:
        metrics, detail, tracer = traced_run(workload, seed, scratch, tally)
    else:
        metrics, detail = timed_run(
            workload, seed, seconds, scratch, tally, import_s, table
        )
    failed = len(tally.failures)
    if trace:
        metrics["failed_frac"] = _ratio(failed, tally.attempted)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "workload": workload_name,
        "seed": seed,
        "scale": workload.scale,
        "trace": trace,
        "check": "reference counters" if reference is not None
        else "invariants only",
        "attempted": tally.attempted,
        "failed": failed,
        "failures": tally.failures[:20],
        "metrics": {name: metrics[name] for name in units},
        "units": units,
        "detail": detail,
        "tracer": tracer,
    }


def provenance(record: dict, dropped_env: list) -> dict:
    from repro.obs import host_metadata

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "host": host_metadata(),
        "seed": record["seed"],
        "scale": record["scale"],
        "numpy": numpy_version,
        "engine_paths": record["detail"]["engine_paths"],
        "dropped_env": dropped_env,
    }


def report_lines(record: dict) -> list:
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} "
        f"scale={record['scale']} trace={int(record['trace'])} "
        f"engine={'+'.join(record['detail']['engine_paths'])} "
        f"check: {record['check']}",
        f"  cells attempted {record['attempted']}, failed "
        f"{record['failed']}",
    ]
    lines += [f"  FAILED {reason}" for reason in record["failures"]]
    detail = record["detail"]
    if "host_speed" in detail:
        lines.append(
            f"  host speed {detail['host_speed']:.3f} (set-up "
            f"{detail['setup_host_speed']:.3f}) of the reference; raw "
            f"events_per_s {detail['raw_events_per_s']:.6g}, wall_s "
            f"{detail['raw_wall_s']:.6g}, setup_s "
            f"{detail['raw_setup_s']:.6g}"
        )
    for name, value in record["metrics"].items():
        lines.append(f"  {name:<26} {value:>16.6g} {record['units'][name]}")
    return lines


def write_outputs(record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{int(record['trace'])}")
    tracer = record.pop("tracer")
    if tracer is not None:
        span_path = OUT_DIR / f"{stem}.spans"
        tracer.write(span_path, {
            "workload": record["workload"], "seed": record["seed"],
        })
        record["span_file"] = str(span_path.relative_to(ROOT))
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")


def main(argv=None) -> int:
    from hostspeed import WalkTable
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with run_directory() as scratch:
        dropped = isolate_environment(scratch)
        table = None
        table_s = 0.0
        if not args.trace:
            # Before the program, so its memory is the table's alone.
            start = time.perf_counter()
            table = WalkTable()
            table_s = time.perf_counter() - start
        try:
            import_program()
        except ImportError as exc:
            print(f"perfbench: cannot import the program: {exc}",
                  file=sys.stderr)
            return 2
        import_s = time.perf_counter() - IMPORT_START - table_s
        record = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), scratch, import_s, table=table)
        record["provenance"] = provenance(record, dropped)
        for line in report_lines(record):
            print(line)
        write_outputs(record)
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": record["units"][name]}
                for name, value in record["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
