"""Correctness of every simulated cell.

At a seed with a committed reference (``reference/seed-<n>.json``,
written by ``make_reference.py``) every cell's full
``SimulationResult.to_dict()`` must equal the reference exactly; a
mismatch names the first differing counter.  ``to_dict()`` holds no
host-time field, so the whole payload is compared.  At any other seed
only conservation invariants are checked ("invariants only").
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Seeds with committed reference counters: the suite's default seed
#: and one held-out seed.
REFERENCE_SEEDS = (1, 17)


def reference_path(seed: int) -> Path:
    return REFERENCE_DIR / f"seed-{seed}.json"


def load_reference(seed: int, workload: str) -> dict | None:
    """Cell label -> counters for ``workload`` at ``seed``, or None when
    the seed has no committed reference."""
    path = reference_path(seed)
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)["workloads"][workload]


def first_difference(actual, expected, path: str = "") -> str | None:
    """``"<counter path>: <actual> != <expected>"`` for the first
    difference in key/index order, or None when equal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual), key=str):
            where = f"{path}.{key}" if path else str(key)
            if key not in actual:
                return f"{where}: missing (expected {expected[key]!r})"
            if key not in expected:
                return f"{where}: unexpected {actual[key]!r}"
            diff = first_difference(actual[key], expected[key], where)
            if diff is not None:
                return diff
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return f"{path}: length {len(actual)} != {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            diff = first_difference(a, e, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    if actual != expected or type(actual) is not type(expected):
        return f"{path}: {actual!r} != {expected!r}"
    return None


def invariant_violation(counters: dict) -> str | None:
    """The first broken conservation invariant, or None."""
    c = counters
    misses = c["read_misses"] + c["write_misses"] + c["upgrade_misses"]
    net = c["network"]
    checks = (
        ("pred_correct + pred_incorrect == pred_on_comm",
         c["pred_correct"] + c["pred_incorrect"], c["pred_on_comm"]),
        ("pred_on_comm + pred_on_noncomm == pred_attempted",
         c["pred_on_comm"] + c["pred_on_noncomm"], c["pred_attempted"]),
        ("read + write + upgrade == accesses - l1_hits - l2_hits",
         misses, c["accesses"] - c["l1_hits"] - c["l2_hits"]),
        ("read + write + upgrade == latency histogram total",
         misses, sum(c["latency_histogram"].values())),
        ("sum(bytes_by_category) == bytes_total",
         sum(net["bytes_by_category"].values()), net["bytes_total"]),
    )
    for rule, lhs, rhs in checks:
        if lhs != rhs:
            return f"invariant {rule} broken: {lhs} != {rhs}"
    return None


def check_cell(label: str, counters: dict, reference: dict | None):
    """None when the cell is correct, else a one-line reason."""
    if reference is None:
        return invariant_violation(counters)
    expected = reference.get(label)
    if expected is None:
        return f"no reference counters for cell {label}"
    diff = first_difference(counters, expected)
    return None if diff is None else f"counter {diff}"
