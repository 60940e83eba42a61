"""In-memory spans around the program's public layer boundaries.

A :class:`Tracer` records one span per call of a wrapped function: an id,
the id of the enclosing span on the same thread (0 for a root), the span
name, start and end in ``time.perf_counter_ns`` (``CLOCK_MONOTONIC``, so
timestamps from different processes on one machine compare), and a request
id shared by every span of one request.  Spans stay in memory until
:meth:`Tracer.dump` writes them out.

:func:`install` wraps the boundaries listed in :data:`SPAN_TARGETS` (plus
every Table III baseline's ``detect``, the worker pool's task hand-off and
the store's detection lookups) by replacing module and class attributes, so
the program itself is not edited.  :func:`layer_totals` turns spans into
per-layer call counts, inclusive time and self time: a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterable

#: (module, attribute path, span name).  Functions imported by name into a
#: module are wrapped where the caller looks them up, which is why
#: ``decode_block`` appears once per importing module.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.synth.corpus", "build_selfbuilt_corpus", "synth.generate"),
    ("repro.elf.image", "BinaryImage.from_bytes", "elf.load"),
    ("repro.elf.image", "parse_eh_frame", "dwarf.eh_frame_parse"),
    ("repro.core.pipeline", "FetchDetector.detect", "core.detect"),
    ("repro.core.pipeline", "extract_fde_starts", "core.fde_extract"),
    ("repro.core.context", "AnalysisContext.filter_invalid_entries", "core.fde_validate"),
    ("repro.analysis.recursive", "RecursiveDisassembler.disassemble", "analysis.recursion"),
    ("repro.core.pipeline", "collect_potential_pointers", "analysis.xref_collect"),
    ("repro.core.pipeline", "validate_function_pointer", "analysis.xref_validate"),
    ("repro.core.pipeline", "detect_tail_calls_and_merge", "core.tailcall"),
    ("repro.analysis.recursive", "decode_block", "x86.decode"),
    ("repro.core.context", "decode_block", "x86.decode"),
    ("repro.x86.disassembler", "decode_block", "x86.decode"),
    ("repro.eval.runner", "compute_metrics", "eval.metrics"),
    ("repro.store.store", "ArtifactStore.save_detection", "store.save_detection"),
)

#: a span is (id, parent id, name, start ns, end ns, request id)
Span = tuple[int, int, str, int, int, Any]


class Tracer:
    """Spans, counters and marks of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (label, time ns, raw instruction decodes so far)
        self.marks: list[tuple[str, int, int]] = []
        self.counters: Counter[str] = Counter()
        self.pid = os.getpid()
        #: directory where pool children append their per-task aggregates
        self.child_dir: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict,
             rid: Any = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (0, None)
        span_id = next(self._ids)
        rid = inherited if rid is None else rid
        stack.append((span_id, rid))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, rid))

    def record(self, name: str, start: int, end: int, rid: Any = None) -> None:
        """Add a finished root span measured by the caller (a queue wait)."""
        self.spans.append((next(self._ids), 0, name, start, end, rid))

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def mark(self, label: str) -> None:
        """Note the time and the decoder's global work counter."""
        from repro.x86.disassembler import DECODE_STATS

        self.marks.append((label, time.perf_counter_ns(), DECODE_STATS.raw_decodes))

    def dump(self, path: str) -> None:
        record = {
            "pid": self.pid,
            "spans": self.spans,
            "marks": self.marks,
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(record, stream, default=str)


def load_dump(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as stream:
        record = json.load(stream)
    record["spans"] = [tuple(span) for span in record["spans"]]
    return record


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """How much of ``[start, end)`` the union of ``intervals`` covers."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def layer_totals(
    spans: Iterable[Span], window: tuple[int, int] | None = None
) -> dict[str, dict[str, int]]:
    """``{name: {"calls", "total_ns", "self_ns"}}`` over ``spans``.

    With a ``window`` only spans ending inside ``[lo, hi]`` count; their
    self time still subtracts every child they contain.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for span_id, parent, _name, start, end, _rid in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, dict[str, int]] = {}
    for span_id, _parent, name, start, end, _rid in spans:
        if window is not None and not window[0] <= end <= window[1]:
            continue
        duration = end - start
        row = totals.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += duration
        row["self_ns"] += duration - covered_ns(start, end, children.get(span_id, ()))
    return totals


def merge_totals(into: dict[str, dict[str, int]], more: dict[str, dict[str, int]]) -> None:
    for name, row in more.items():
        target = into.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        for key, value in row.items():
            target[key] += value


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------

def _wrap(tracer: Tracer, name: str, fn: Callable[..., Any],
          rid_of: Callable[[tuple], Any] | None = None) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rid = rid_of(args) if rid_of is not None else None
        return tracer.call(name, fn, args, kwargs, rid)

    return traced


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) with ``make(attr)``."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced boundary; returns a function that unwraps them."""
    from repro.core.registry import detectors

    patches = _Patches()
    for module, path, name in SPAN_TARGETS:
        owner, attr = _resolve(module, path)
        patches.replace(owner, attr, functools.partial(_wrap, tracer, name))

    for info in detectors(comparison=True):
        patches.replace(
            info.cls, "detect", functools.partial(_wrap, tracer, f"baselines.{info.name}.detect")
        )

    store_owner, _ = _resolve("repro.store.store", "ArtifactStore.load_detection")
    patches.replace(store_owner, "load_detection", lambda fn: _counting_load(tracer, fn))

    service_owner, _ = _resolve("repro.service.service", "DetectionService.submit")
    patches.replace(
        service_owner,
        "submit",
        functools.partial(_wrap, tracer, "service.submit", rid_of=_first_item),
    )

    pool_owner, _ = _resolve("repro.eval.executor", "ShardedWorkerPool.submit")
    patches.replace(pool_owner, "submit", lambda fn: _stamping_submit(tracer, fn))

    runner, _ = _resolve("repro.eval.runner", "_tool_comparison_metrics")
    patches.replace(runner, "_tool_comparison_metrics", lambda fn: _child_aggregating(tracer, fn))
    return patches.undo


def _first_item(args: tuple) -> Any:
    items = args[1] if len(args) > 1 else None
    if isinstance(items, (list, tuple)) and items:
        return str(items[0])
    return None  # never consume an iterator the service still has to read


def _counting_load(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        record = tracer.call("store.load_detection", fn, args, kwargs)
        tracer.count("store.load_detection.hits" if record is not None
                      else "store.load_detection.misses")
        return record

    return traced


def _stamping_submit(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Stamp each pool task at enqueue and at start (queue wait + task span)."""

    @functools.wraps(fn)
    def submit(pool, shard_key, task):
        enqueued = time.perf_counter_ns()

        def stamped():
            tracer.record("executor.queue_wait", enqueued, time.perf_counter_ns(), shard_key)
            return tracer.call("executor.task", task, (), {}, shard_key)

        return fn(pool, shard_key, stamped)

    return submit


def _child_aggregating(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Ship a process-pool child's per-task layer totals to ``child_dir``.

    ``CorpusEvaluator`` runs the Table III tools in pool children that
    inherit these wrappers through ``fork``; their spans would die with
    them, so after each task the child appends the task's layer totals and
    its analysis context's decode-cache counts to a per-process file.
    """

    @functools.wraps(fn)
    def traced(binary, context, *fn_args):
        mark = len(tracer.spans)
        value = fn(binary, context, *fn_args)
        if os.getpid() != tracer.pid and tracer.child_dir is not None:
            stats = context.stats()
            row = {
                "layers": layer_totals(tracer.spans[mark:]),
                "decode_hits": stats.decode_hits,
                "decode_misses": stats.decode_misses,
            }
            del tracer.spans[mark:]
            path = os.path.join(tracer.child_dir, f"child-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as stream:
                stream.write(json.dumps(row) + "\n")
        return value

    return traced


def read_child_rows(directory: str) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("child-") and entry.endswith(".jsonl"):
            with open(os.path.join(directory, entry), encoding="utf-8") as stream:
                rows.extend(json.loads(line) for line in stream if line.strip())
    return rows
