"""Capture the benchmark's reference results on the reference ladders.

Runs every cell of every workload once with ``REPRO_FAST_INTERP=0`` (the
reference interpreters, the repository's differential oracle) and writes
``perfbench/reference.jsonl``: one line per cell, sorted by cell label,
holding the cell and its result value.  ``run.py`` compares the ``cell``
and ``value`` of every result the fast tiers produce against it; the
result ``key`` is not stored because it embeds the code fingerprint.

The cell set does not depend on the seed (seeds only reorder cells and
requests), so one capture serves every seed.  Re-capture after an
intentional model change, from the repository root::

    python3 perfbench/capture.py

It takes several minutes (the reference ladders are slow).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads


def capture(out_path):
    """In a process with the reference tier pinned: run every cell."""
    from repro.service.cells import direct_lines

    cells = {}
    for name in workloads.WORKLOADS:
        for spec in workloads.build(name, 0).expected_cells():
            cells[spec.label()] = spec
    partial = run.RUN_DIR / "reference.jsonl.partial"
    with open(partial, "w", encoding="utf-8") as handle:
        for label in sorted(cells):
            record = json.loads(direct_lines([cells[label]])[0])
            handle.write(json.dumps({"label": label, "cell": record["cell"],
                                     "value": record["value"]},
                                    sort_keys=True) + "\n")
    os.replace(partial, out_path)
    return len(cells)


def main():
    if os.environ.get("PERFBENCH_CAPTURE_CHILD"):
        count = capture(sys.argv[1])
        print(f"captured {count} cells into {sys.argv[1]}")
        return 0
    run.RUN_DIR.mkdir(exist_ok=True)
    cache_dir = run.RUN_DIR / "capture-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir()
    env = run.pinned_env(cache_dir, 1, reference_tier=True)
    env["REPRO_RESULT_CACHE"] = "0"
    env["PERFBENCH_CAPTURE_CHILD"] = "1"
    try:
        return subprocess.run(
            [sys.executable, __file__, str(run.REFERENCE)], env=env,
            cwd=run.ROOT, check=False).returncode
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
