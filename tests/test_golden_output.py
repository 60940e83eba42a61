"""Golden-output gate: every registered detector's starts on the pinned corpora.

Recomputes :func:`repro.eval.golden.golden_record` and compares it with the
committed ``tests/golden/detector_output.json``.  Any change of a detector's
starts on any binary, or of any (corpus, detector) FP/FN count, fails here.
After an intended output change, regenerate the record with
``PYTHONPATH=src python tools/golden_output.py`` and record why.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.eval.golden import differences, golden_record, render

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "detector_output.json"


def test_detector_output_matches_golden_record():
    record = golden_record()
    committed = GOLDEN_PATH.read_text()
    if render(record) != committed:
        changed = differences(json.loads(committed), record)
        shown = "\n".join(changed[:40])
        raise AssertionError(
            f"{len(changed)} golden cells changed (first 40):\n{shown}"
        )
    table3 = record["corpora"]["selfbuilt"]["totals"]["fetch"]
    assert (table3["fp"], table3["fn"], table3["functions"]) == (24, 88, 22153)
