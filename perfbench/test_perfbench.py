"""The benchmark's own tests: it leaves nothing behind, and its checks bite.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from check import (  # noqa: E402
    first_difference, invariant_violation, load_reference,
)
from hostspeed import REFERENCE_S, HostClock, WalkTable  # noqa: E402
from layers import LayerTracer, read_span_file  # noqa: E402

USER_DIRS = (
    Path.home() / ".cache",
    Path.home() / ".local" / "share" / "repro",
)


def _user_files() -> set:
    """Every path under ``~/.cache/repro-*`` and ``~/.local/share/repro``."""
    found = set()
    roots = [USER_DIRS[1]]
    if USER_DIRS[0].is_dir():
        roots += sorted(USER_DIRS[0].glob("repro-*"))
    for root in roots:
        if root.exists():
            found.add(root)
            found.update(root.rglob("*"))
    return found


def _child_pids() -> list:
    """Live processes whose parent is this one."""
    me = str(os.getpid())
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            children.append(int(stat.parent.name))
    return children


def _threads() -> int:
    """Threads of this process, native ones included."""
    return len(os.listdir("/proc/self/task"))


def _run_dirs() -> set:
    return set(run.TMP_DIR.glob("*")) if run.TMP_DIR.exists() else set()


@pytest.fixture
def saved_environ():
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


def test_run_leaves_nothing_behind(saved_environ, capsys):
    """A cold_zoo run (runner, disk cache, trace store, ledger) ends
    with no child process, only the main thread, no new file in the
    user's cache or data directories and its run directory removed."""
    before_files = _user_files()
    before_dirs = _run_dirs()
    before_threads = _threads()
    assert run.main(["--workload", "cold_zoo", "--seed", "5",
                     "--seconds", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is True
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(run.END_TO_END_UNITS)
    assert _child_pids() == []
    assert threading.active_count() == 1
    assert _threads() == before_threads
    assert _user_files() == before_files
    assert _run_dirs() == before_dirs


def test_perturbed_reference_fails_the_cell(saved_environ):
    """One changed reference counter makes the traced run report
    failed_frac > 0 and name the counter."""
    reference = load_reference(1, "private_stream")
    perturbed = json.loads(json.dumps(reference))
    (cell,) = perturbed.values()
    cell["network"]["bytes_total"] += 1
    with run.run_directory() as scratch:
        run.isolate_environment(scratch)
        run.import_program()
        record = run.run("private_stream", 1, 1.0, True, scratch, 0.0,
                         reference=perturbed)
        clean = run.run("private_stream", 1, 1.0, True, scratch, 0.0,
                        reference=reference)
    assert record["metrics"]["failed_frac"] > 0
    assert "network.bytes_total" in record["failures"][0]
    assert clean["failed"] == 0


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_run_cleans_up(signum):
    """SIGINT or SIGTERM mid-run: non-zero exit, no result line, and the
    run directory is gone."""
    before = _run_dirs()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "private_stream", "--seconds", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (_run_dirs() - before) and time.monotonic() < deadline:
            time.sleep(0.05)
        created = _run_dirs() - before
        assert created, "the run never created its directory"
        time.sleep(2.0)  # into set-up or the timed phase
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert '"correct"' not in out
    assert not any(path.exists() for path in created)


def test_without_the_program_exits_nonzero(tmp_path):
    """Only the benchmark's files, no ``src/``: exit non-zero, no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = HERE.parent / "BENCHMARK.json"
    if bench.exists():
        shutil.copy(bench, tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "contended",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_tmp").exists()


def test_span_self_time_and_file_round_trip(tmp_path):
    """Self time is duration minus children; the span file reads back."""

    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            time.sleep(0.01)

    tracer = LayerTracer()
    layer = Layer()
    tracer.wrap(layer, "inner", "hierarchy.inner")
    tracer.wrap(layer, "outer", "engine.outer")
    tracer.cell = 3
    layer.outer()
    assert tracer.calls() == {"engine.outer": 1, "hierarchy.inner": 2}
    own = tracer.self_seconds()
    assert own["hierarchy.inner"] >= 0.02
    assert 0 <= own["engine.outer"] < own["hierarchy.inner"]
    path = tmp_path / "spans"
    tracer.write(path, {"workload": "toy"})
    header, columns = read_span_file(path)
    assert header["spans"] == 3
    assert list(columns["cell"]) == [3, 3, 3]
    assert list(columns["parent"]) == [-1, 0, 0]


def test_checks_name_the_first_difference():
    assert first_difference({"a": [1, 2]}, {"a": [1, 3]}) == "a[1]: 2 != 3"
    reference = load_reference(17, "contended")
    cell = json.loads(json.dumps(next(iter(reference.values()))))
    assert invariant_violation(cell) is None
    cell["pred_incorrect"] += 1
    assert "pred_on_comm" in invariant_violation(cell)


def test_host_clock_scales_to_the_reference():
    """The walk visits every table slot once per cycle, and the speed is
    the reference time over the mean sample time."""
    table = WalkTable(entries=64)
    seen, i = set(), 0
    for _ in range(64):
        i = table.next[i]
        seen.add(i)
    assert seen == set(range(64))
    assert table.resident_mb >= 0
    clock = HostClock(table)
    clock.sample()
    assert len(clock.samples) == 1 and clock.samples[0] > 0
    clock.samples = [REFERENCE_S / 2, REFERENCE_S / 2]
    assert clock.speed() == pytest.approx(2.0)
