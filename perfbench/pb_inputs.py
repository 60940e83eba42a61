"""Seeded inputs: which corpus binaries a workload uses, and in what order.

Every input comes from ``build_selfbuilt_corpus(scale=1.0, seed=...)``.
The Table III workload builds the whole corpus.  The service workload
builds a project-stratified sample of its cells (one cell is a
project built by one compiler at one optimisation level), by passing the
drawn project, compiler and level to the same builder; the sampled
binaries are byte-identical to the full corpus's.  Stratifying by project
keeps the mix of binary sizes, and so the work per operation, the same
from seed to seed, and sampling keeps set-up short enough to repeat it
several times per run.
"""

from __future__ import annotations

import inspect
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.elf.writer import write_elf
from repro.synth import corpus as synth_corpus

#: an operation's output fails the ground-truth check below these shares
MIN_OP_PRECISION = 0.9
MIN_OP_RECALL = 0.9


def _builder_default(parameter: str) -> Any:
    signature = inspect.signature(synth_corpus.build_selfbuilt_corpus)
    return signature.parameters[parameter].default


def draw_cells(seed: int, purpose: str, *, per_project: int) -> list[tuple[Any, Any, Any]]:
    """``per_project`` (project, compiler, level) cells for every project,
    drawn from ``seed`` and ``purpose``."""
    rng = random.Random(f"perfbench:{purpose}:cells:{seed}")
    grid = [
        (compiler, level)
        for compiler in _builder_default("compilers")
        for level in _builder_default("opt_levels")
    ]
    return [
        (project, compiler, level)
        for project in synth_corpus.SELFBUILT_PROJECTS
        for compiler, level in rng.sample(grid, per_project)
    ]


def build_cells(seed: int, cells: list[tuple[Any, Any, Any]]) -> list[Any]:
    """The corpus binaries of ``cells``, in cell order."""
    binaries: list[Any] = []
    for project, compiler, level in cells:
        binaries.extend(
            synth_corpus.build_selfbuilt_corpus(
                seed=seed,
                scale=1.0,
                projects=(project,),
                compilers=(compiler,),
                opt_levels=(level,),
            )
        )
    return binaries


def build_full_corpus(seed: int) -> list[Any]:
    return synth_corpus.build_selfbuilt_corpus(seed=seed, scale=1.0)


@dataclass
class Input:
    """One corpus binary written out as an ELF file, with its ground truth."""

    name: str
    path: Path
    data: bytes
    truth: frozenset[int]
    variants: dict[int, Path] = field(default_factory=dict)

    def variant(self, number: int) -> Path:
        """The ELF with an 8-byte trailer appended (variant 0: no trailer).

        Bytes past the end of an ELF image are never read, so a variant is
        detected exactly like the original while its content digest — the
        service's cache key — is new.
        """
        if number == 0:
            return self.path
        path = self.variants.get(number)
        if path is None:
            path = self.path.with_name(f"{self.path.stem}.v{number}.elf")
            path.write_bytes(self.data + struct.pack("<Q", number))
            self.variants[number] = path
        return path


def write_inputs(binaries: list[Any], directory: Path) -> list[Input]:
    directory.mkdir(parents=True, exist_ok=True)
    inputs = []
    for index, binary in enumerate(binaries):
        data = write_elf(binary.image.elf)
        path = directory / f"{index:03d}.elf"
        path.write_bytes(data)
        inputs.append(
            Input(binary.name, path, data, frozenset(binary.ground_truth.function_starts))
        )
    return inputs


# ----------------------------------------------------------------------
# Operation sequences
# ----------------------------------------------------------------------

def cold_passes(seed: int, count: int) -> Iterator[tuple[int, int]]:
    """``(index, variant)`` pairs: pass ``k`` visits every index once, in a
    seeded order, as variant ``k`` — so no pair ever repeats."""
    rng = random.Random(f"perfbench:serve-cold:ops:{seed}")
    variant = 0
    while True:
        order = list(range(count))
        rng.shuffle(order)
        for index in order:
            yield index, variant
        variant += 1


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

@dataclass
class Tally:
    """Ground-truth agreement of every operation's starts, plus consistency.

    ``check`` returns an error message for an operation whose starts miss
    the per-operation floors or differ from an earlier operation on the same
    binary (detector output is deterministic), and ``None`` otherwise.
    """

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    #: name -> (sorted starts, hits, verdict) of the first operation on it
    _seen: dict[str, tuple[tuple[int, ...], int, str | None]] = field(default_factory=dict)

    def check(self, name: str, starts: list[int], truth: frozenset[int]) -> str | None:
        key = tuple(sorted(starts))
        first = self._seen.get(name)
        if first is None:
            first = (key, *self._judge(name, key, truth))
            self._seen[name] = first
        elif first[0] != key:
            return f"{name}: starts differ from an earlier operation on the same binary"
        _, hits, verdict = first
        self.true_positives += hits
        self.false_positives += len(key) - hits
        self.false_negatives += len(truth) - hits
        return verdict

    @staticmethod
    def _judge(name: str, key: tuple[int, ...], truth: frozenset[int]) -> tuple[int, str | None]:
        detected = set(key)
        hits = len(detected & truth)
        if len(detected) != len(key):
            return hits, f"{name}: duplicate starts in the output"
        precision = hits / len(detected) if detected else 0.0
        recall = hits / len(truth) if truth else 1.0
        if precision < MIN_OP_PRECISION or recall < MIN_OP_RECALL:
            return hits, f"{name}: precision {precision:.3f} / recall {recall:.3f} below the floor"
        return hits, None

    @property
    def precision(self) -> float:
        detected = self.true_positives + self.false_positives
        return self.true_positives / detected if detected else 0.0

    @property
    def recall(self) -> float:
        truth = self.true_positives + self.false_negatives
        return self.true_positives / truth if truth else 0.0
