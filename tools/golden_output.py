#!/usr/bin/env python3
"""Rewrite the committed golden record of detector output.

Usage (from the repository root)::

    PYTHONPATH=src python tools/golden_output.py

Recomputes :func:`repro.eval.golden.golden_record` over the pinned corpora
and writes it to ``tests/golden/detector_output.json``, then lists every
cell that changed.  Run it only after an intended change of some detector's
output, and say in the change log why the output moved;
``tests/test_golden_output.py`` fails on any unexplained drift.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.eval.golden import differences, golden_record, render

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "detector_output.json"


def main() -> int:
    began = time.perf_counter()
    record = golden_record()
    previous = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(render(record))
    changed = differences(previous, record)
    for line in changed:
        print(line)
    print(
        f"wrote {GOLDEN_PATH} ({len(changed)} changed leaves, "
        f"{time.perf_counter() - began:.1f} s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
