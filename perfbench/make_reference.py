#!/usr/bin/env python3
"""Regenerate the committed reference counters.

Simulates one pass of every workload at each reference seed and writes
every cell's full ``SimulationResult.to_dict()`` to
``reference/seed-<n>.json``.  Run it only when the program's counters
change on purpose::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import REFERENCE_DIR, REFERENCE_SEEDS, reference_path  # noqa: E402
from run import (  # noqa: E402
    import_program, isolate_environment, run_directory,
)
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    with run_directory("reference-") as scratch:
        isolate_environment(scratch)
        import_program()
        REFERENCE_DIR.mkdir(exist_ok=True)
        for seed in REFERENCE_SEEDS:
            cells = {}
            for name, workload in WORKLOADS.items():
                state = workload.setup(seed, str(scratch))
                result = workload.run_pass(state, seed, str(scratch))
                cells[name] = result.cells
                print(f"seed {seed}: {name}: {len(result.cells)} cells")
            with open(reference_path(seed), "w") as fh:
                json.dump({"seed": seed, "workloads": cells}, fh,
                          sort_keys=True, separators=(",", ":"))
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
