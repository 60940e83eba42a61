"""Golden record of every registered detector's output on the pinned corpora.

The record pins, for each (corpus, binary, detector), the SHA-256 of the
detector's sorted function starts, and for each (corpus, detector) the false
positive and false negative counts against ground truth — Table III's
``Avg.`` row for the self-built corpus and one scenario-matrix cell per
scenario row.  A refactor of the analysis layers must leave the rendered
record byte-identical; an intended output change regenerates it with
``tools/golden_output.py`` and says why.

Each binary gets one :class:`~repro.core.context.AnalysisContext` shared by
all detectors, the evaluation's production path.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.core.context import AnalysisContext
from repro.core.registry import detectors
from repro.eval.metrics import compute_metrics
from repro.synth import build_scenario_matrix_corpora, build_selfbuilt_corpus

#: corpus parameters; changing one changes the record
SEED = 2021
SCALE = 1.0
SCENARIO_PROGRAMS = 3


def starts_digest(starts: set[int]) -> str:
    """SHA-256 of the sorted function starts, one decimal address per line."""
    text = "\n".join(str(address) for address in sorted(starts))
    return hashlib.sha256(text.encode()).hexdigest()


def _corpus_record(binaries, infos) -> dict[str, Any]:
    digests: dict[str, dict[str, str]] = {}
    totals = {info.name: {"fp": 0, "fn": 0, "functions": 0} for info in infos}
    for binary in binaries:
        context = AnalysisContext(binary.image)
        row: dict[str, str] = {}
        for info in infos:
            starts = info.create().detect(binary.image, context).function_starts
            row[info.name] = starts_digest(starts)
            metrics = compute_metrics(binary.ground_truth, starts)
            cell = totals[info.name]
            cell["fp"] += metrics.fp_count
            cell["fn"] += metrics.fn_count
            cell["functions"] += metrics.true_count
        if binary.name in digests:
            raise ValueError(f"duplicate binary name {binary.name!r}")
        digests[binary.name] = row
    return {"totals": totals, "starts_sha256": digests}


def golden_record() -> dict[str, Any]:
    """Recompute the record: the cold corpus plus every scenario row.

    The detector set is the scenario matrix's (every detector of the
    paper's evaluation), so stub detectors registered by tests stay out.
    """
    infos = detectors(matrix=True)
    corpora = {"selfbuilt": build_selfbuilt_corpus(scale=SCALE, seed=SEED)}
    matrix = build_scenario_matrix_corpora(
        scale=SCALE, programs=SCENARIO_PROGRAMS, seed=SEED
    )
    for scenario, binaries in matrix.items():
        corpora[f"scenario:{scenario}"] = binaries
    return {
        "parameters": {
            "seed": SEED,
            "scale": SCALE,
            "scenario_programs": SCENARIO_PROGRAMS,
        },
        "detectors": [info.name for info in infos],
        "corpora": {
            name: _corpus_record(binaries, infos) for name, binaries in corpora.items()
        },
    }


def render(record: dict[str, Any]) -> str:
    """The canonical text of ``record`` as committed."""
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def differences(expected: dict[str, Any], actual: dict[str, Any]) -> list[str]:
    """Human-readable paths of every leaf where the two records differ."""
    found: list[str] = []

    def walk(left: Any, right: Any, path: str) -> None:
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                walk(left.get(key), right.get(key), f"{path}/{key}")
        elif left != right:
            found.append(f"{path}: {left!r} -> {right!r}")

    walk(expected, actual, "")
    return found
