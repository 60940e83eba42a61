"""Experiment runners for every table and figure of the paper.

Each ``run_*`` function takes a corpus of synthetic binaries (see
:mod:`repro.synth.corpus`) and returns plain data structures; the renderers
in :mod:`repro.eval.tables` turn them into the text tables the benchmarks
print and EXPERIMENTS.md records.

All corpus-level runners accept an optional :class:`CorpusEvaluator`, which
owns one shared :class:`~repro.core.context.AnalysisContext` per binary —
decoded instructions, CFA tables and image scans are then computed once and
reused by every detector, every strategy-ladder rung and every study that
touches the same binary.  The evaluator also fans per-binary work out over a
thread pool (``jobs``) and can emit machine-readable ``BENCH_*.json`` timing
records for the performance trajectory.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.analysis.recursive import RecursiveDisassembler
from repro.baselines import (
    AngrLike,
    AngrOptions,
    GhidraLike,
    GhidraOptions,
    all_comparison_tools,
)
from repro.core import FetchDetector, FetchOptions
from repro.core.context import AnalysisContext
from repro.core.fde_source import extract_fde_starts, fde_symbol_coverage
from repro.core.registry import detectors as registered_detectors
from repro.eval.executor import (
    FAULT_EPOCH_VAR,
    counting_decodes,
    fold_decodes,
    parallel_map,
)
from repro.eval.metrics import BinaryMetrics, CorpusMetrics, compute_metrics
from repro.resilience import faults
from repro.store import ArtifactStore, options_digest
from repro.synth.compiler import SyntheticBinary
from repro.synth.profiles import WildProfile


# ----------------------------------------------------------------------
# Process-pool worker plumbing
#
# The thread pool (``jobs``) shares one decode cache per binary but is bound
# by the GIL; the process pool (``workers``) buys real CPU parallelism at the
# cost of per-process contexts.  Each worker receives the corpus once (via
# the pool initializer) and keeps its own per-binary AnalysisContext, so the
# decode-once property holds within every worker.  Task payloads must be
# picklable: module-level functions only — closures fall back to threads.
# ----------------------------------------------------------------------

_WORKER_CORPUS: list[Any] | None = None
_WORKER_CONTEXTS: dict[int, AnalysisContext] = {}


def _process_worker_init(corpus: list[Any]) -> None:
    global _WORKER_CORPUS, _WORKER_CONTEXTS
    _WORKER_CORPUS = corpus
    _WORKER_CONTEXTS = {}


def _process_invoke(payload: tuple[Callable[..., Any], int, tuple]) -> tuple[Any, int]:
    """Run one task in a pool worker; returns ``(value, raw_decode_delta)``.

    ``DECODE_STATS`` is process-local, so decode work done in a worker is
    invisible to the parent.  Shipping the per-task delta back lets the
    parent fold every worker's decode count into its own counter
    (:func:`~repro.eval.executor.fold_decodes`), making process-backend
    readings exact instead of "compare serial passes".
    """
    fn, index, fn_args = payload
    assert _WORKER_CORPUS is not None, "process pool initializer did not run"
    # ``pool.child`` fault site: a ``kill`` here SIGKILLs this worker, which
    # the parent observes as BrokenProcessPool and survives by respawning
    # (see parallel_map).  The key folds in the respawn epoch so the next
    # pool generation re-rolls instead of re-killing the same item forever.
    try:
        faults.fire(
            "pool.child", f"{index}e{os.environ.get(FAULT_EPOCH_VAR, '0')}"
        )
    except faults.WorkerKilled:
        os.kill(os.getpid(), 9)
    binary = _WORKER_CORPUS[index]
    context = _WORKER_CONTEXTS.get(index)
    if context is None:
        context = AnalysisContext(getattr(binary, "image", binary))
        _WORKER_CONTEXTS[index] = context
    return counting_decodes(fn, binary, context, *fn_args)


def _detect_binary_metrics(
    binary: SyntheticBinary, context: AnalysisContext, detector: Any
) -> BinaryMetrics:
    result = detector.detect(binary.image, context)
    return compute_metrics(binary.ground_truth, result.function_starts)


def _fde_only_binary_metrics(
    binary: SyntheticBinary, context: AnalysisContext
) -> BinaryMetrics:
    detected = extract_fde_starts(binary.image)
    return compute_metrics(binary.ground_truth, detected)


def _tool_comparison_metrics(
    binary: SyntheticBinary, context: AnalysisContext, tools: list[Any]
) -> dict[str, BinaryMetrics]:
    metrics: dict[str, BinaryMetrics] = {}
    for tool in tools:
        result = tool.detect(binary.image, context)
        metrics[tool.name] = compute_metrics(binary.ground_truth, result.function_starts)
    return metrics


# ----------------------------------------------------------------------
# Shared-context corpus evaluation
# ----------------------------------------------------------------------

class CorpusEvaluator:
    """Decode-once, optionally parallel evaluation over a corpus.

    One :class:`AnalysisContext` is kept per binary and handed to every
    detector run, so the corpus is decoded once no matter how many tools or
    ladder rungs are evaluated.  ``jobs > 1`` fans per-binary work out over a
    thread pool; a binary is never processed by two workers at once within a
    single :meth:`map` call, and per-binary results are returned (and
    aggregated) in corpus order, so parallel and serial evaluation produce
    identical metrics.

    ``bench_dir`` enables :meth:`write_bench`, which records the wall-clock
    timings collected by :meth:`timed` as ``BENCH_<name>.json``.

    ``share_contexts=False`` hands out a *fresh* context on every
    :meth:`context_for` call instead — the pre-context behaviour where each
    detector run decodes from scratch.  It exists so benchmarks can measure
    the before/after of decode-once sharing; results are identical either
    way.

    ``store`` plugs in an :class:`~repro.store.ArtifactStore`:
    :meth:`run_detector` then skips binaries whose
    :class:`~repro.eval.metrics.BinaryMetrics` are already cached for the
    (binary digest, detector name, options digest) triple, and :meth:`map`
    callers may pass a ``cache_key`` to persist arbitrary per-binary values.
    :attr:`detector_runs` counts the per-binary detector invocations that
    actually happened, so warm runs can assert they did none.
    """

    def __init__(
        self,
        corpus: Sequence[SyntheticBinary],
        *,
        jobs: int = 1,
        workers: int = 0,
        bench_dir: str | os.PathLike | None = None,
        share_contexts: bool = True,
        store: ArtifactStore | None = None,
    ):
        self.corpus = list(corpus)
        self.jobs = max(1, int(jobs))
        #: ``workers > 1`` enables the :class:`ProcessPoolExecutor` backend
        #: for module-level map functions (closures fall back to threads).
        #: Unlike the GIL-bound thread pool it buys real CPU parallelism;
        #: contexts then live per worker process, one per binary.
        self.workers = max(0, int(workers))
        self.bench_dir = Path(bench_dir) if bench_dir is not None else None
        self.share_contexts = share_contexts
        self.store = store
        #: per-binary detector invocations performed (cache hits excluded)
        self.detector_runs = 0
        self.timings: dict[str, float] = {}
        self._contexts: dict[int, AnalysisContext] = {}
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._corpus_index = {id(binary): i for i, binary in enumerate(self.corpus)}

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut down the process pool (no-op without one)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CorpusEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- contexts -------------------------------------------------------
    def context_for(self, binary: SyntheticBinary) -> AnalysisContext:
        """The shared context of ``binary`` (created on first use).

        Contexts stay alive for the evaluator's lifetime — that is what
        makes ladder rungs and successive studies share work.  A context can
        hold an :class:`~repro.x86.instruction.Instruction` for nearly every
        text byte once a linear-sweep detector has run, so long-lived
        evaluators over large corpora should :meth:`release` binaries whose
        evaluation is finished.
        """
        image = getattr(binary, "image", binary)
        if not self.share_contexts:
            return AnalysisContext(image)
        key = id(image)
        with self._lock:
            context = self._contexts.get(key)
            if context is None:
                context = AnalysisContext(image)
                self._contexts[key] = context
        return context

    def release(self, binary: SyntheticBinary | None = None) -> None:
        """Drop the cached context of ``binary`` (or all of them).

        Purely a memory-footprint knob: the next :meth:`context_for` call
        simply rebuilds a fresh context, so results are unaffected.
        """
        with self._lock:
            if binary is None:
                self._contexts.clear()
            else:
                self._contexts.pop(id(getattr(binary, "image", binary)), None)

    def context_stats(self) -> dict[str, float | int]:
        """Aggregate cache statistics over every context built so far."""
        totals: dict[str, float | int] = defaultdict(int)
        for context in self._contexts.values():
            for key, value in context.stats().as_dict().items():
                if key != "decode_hit_ratio":
                    totals[key] += value
        hits = totals.get("decode_hits", 0)
        misses = totals.get("decode_misses", 0)
        totals["decode_hit_ratio"] = round(hits / (hits + misses), 4) if hits + misses else 0.0
        totals["contexts"] = len(self._contexts)
        return dict(totals)

    # -- fan-out --------------------------------------------------------
    def map(
        self,
        fn: Callable[..., Any],
        items: Iterable[SyntheticBinary] | None = None,
        *,
        fn_args: tuple = (),
        cache_key: str | None = None,
    ) -> list[Any]:
        """``fn(binary, context, *fn_args)`` over ``items`` (default: the corpus).

        Results come back in input order regardless of the backend.  With
        ``workers > 1`` and a picklable, module-level ``fn`` over corpus
        members, the call fans out over the process pool; anything else
        (closures, foreign binaries) uses the thread pool / serial path.

        With a ``store`` and a ``cache_key``, per-binary values are persisted
        and reloaded on later runs; ``fn`` is then only called for binaries
        without a cached value.  The caller owns the key: it must change
        whenever ``fn``'s meaning or ``fn_args`` change.

        Thread safety: the context cache behind :meth:`context_for` is
        lock-guarded, so the pool workers of a single :meth:`map` call may
        share contexts freely; ``fn`` itself must tolerate concurrent
        invocation over *different* binaries (it is never called twice
        concurrently for one binary within a call).  Concurrent :meth:`map`
        calls from different threads are not coordinated — long-lived
        multi-client processes should serialise per evaluator, or hold one
        evaluator per corpus as :class:`repro.service.DetectionService`
        holds one context per in-flight entry.
        """
        binaries = self.corpus if items is None else list(items)
        if self.store is None or cache_key is None:
            return self._map_compute(fn, binaries, fn_args)
        cached = [self.store.load_value(binary, cache_key) for binary in binaries]
        missing = [binary for binary, (hit, _) in zip(binaries, cached) if not hit]
        computed = iter(self._map_compute(fn, missing, fn_args))
        results = []
        for binary, (hit, value) in zip(binaries, cached):
            if not hit:
                value = next(computed)
                self.store.save_value(binary, cache_key, value)
            results.append(value)
        return results

    def _map_compute(
        self, fn: Callable[..., Any], binaries: list[Any], fn_args: tuple
    ) -> list[Any]:
        if self._can_use_processes(fn, binaries, fn_args):
            payloads = [
                (fn, self._corpus_index[id(binary)], fn_args) for binary in binaries
            ]
            wrapped = parallel_map(
                _process_invoke,
                payloads,
                workers=self.workers,
                pool=self._process_pool(),
                pool_factory=self._respawn_pool,
            )
            values = []
            for value, decode_delta in wrapped:
                fold_decodes(decode_delta)
                values.append(value)
            return values
        return parallel_map(
            lambda binary: fn(binary, self.context_for(binary), *fn_args),
            binaries,
            jobs=self.jobs,
        )

    def _can_use_processes(
        self, fn: Callable[..., Any], binaries: list[Any], fn_args: tuple
    ) -> bool:
        if self.workers <= 1 or len(binaries) <= 1:
            return False
        if not self.share_contexts:
            # The process backend inherently reuses one context per binary
            # inside each worker; an unshared evaluator must keep the
            # fresh-context-per-request semantics, so it stays on threads.
            return False
        if any(id(binary) not in self._corpus_index for binary in binaries):
            return False
        try:
            pickle.dumps((fn, fn_args))
        except Exception:
            return False
        return True

    def _process_pool(self) -> ProcessPoolExecutor:
        """The lazily-created persistent process pool.

        The corpus ships to each worker once via the pool initializer;
        individual tasks then reference binaries by index.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_process_worker_init,
                initargs=(self.corpus,),
            )
        return self._pool

    def _respawn_pool(self) -> ProcessPoolExecutor:
        """Replace a broken persistent pool (``parallel_map``'s respawn hook).

        The broken executor was already shut down by the caller; dropping
        the reference makes :meth:`_process_pool` build a fresh one, which
        also becomes the evaluator's pool for subsequent calls.
        """
        self._pool = None
        return self._process_pool()

    def run_detector(
        self,
        detector_factory: Callable[[], Any],
        items: Iterable[SyntheticBinary] | None = None,
    ) -> CorpusMetrics:
        """Run one detector (a fresh instance per binary) over the corpus.

        With a ``store``, binaries whose metrics are already cached for this
        (detector, options) pair are skipped entirely — only the misses are
        detected, and their metrics are persisted for the next run.
        """
        binaries = self.corpus if items is None else list(items)
        if self.store is not None:
            probe = detector_factory()
            name = getattr(probe, "name", type(probe).__name__)
            opts = options_digest(probe)
            cached = [self.store.load_result(b, name, opts) for b in binaries]
            missing = [b for b, m in zip(binaries, cached) if m is None]
            computed = iter(self._detect_metrics(detector_factory, missing))
            per = []
            for binary, binary_metrics in zip(binaries, cached):
                if binary_metrics is None:
                    binary_metrics = next(computed)
                    self.store.save_result(binary, name, opts, binary_metrics)
                per.append(binary_metrics)
        else:
            per = self._detect_metrics(detector_factory, binaries)

        metrics = CorpusMetrics()
        for binary_metrics in per:
            metrics.add(binary_metrics)
        return metrics

    def _detect_metrics(
        self, detector_factory: Callable[[], Any], binaries: list[SyntheticBinary]
    ) -> list[BinaryMetrics]:
        """Actually run the detector over ``binaries`` (no result cache)."""
        if not binaries:
            return []
        self.detector_runs += len(binaries)
        if self.workers > 1:
            # Process backend: one detector instance, pickled per task.
            # Detector runs are stateless, so this is result-identical to the
            # fresh-instance-per-binary thread path.
            return self.map(_detect_binary_metrics, binaries, fn_args=(detector_factory(),))

        def one(binary: SyntheticBinary, context: AnalysisContext) -> BinaryMetrics:
            result = detector_factory().detect(binary.image, context)
            return compute_metrics(binary.ground_truth, result.function_starts)

        return self.map(one, binaries)

    def fde_only_metrics(
        self, items: Iterable[SyntheticBinary] | None = None
    ) -> CorpusMetrics:
        """The FDE-only rung shared by every Figure 5 ladder."""
        metrics = CorpusMetrics()
        per = self.map(_fde_only_binary_metrics, items, cache_key="fde-only-metrics:1")
        for binary_metrics in per:
            metrics.add(binary_metrics)
        return metrics

    # -- benchmarking ---------------------------------------------------
    def timed(self, label: str, fn: Callable[..., Any], *args, **kwargs) -> Any:
        """Run ``fn`` and record its wall-clock time under ``label``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.timings[label] = time.perf_counter() - start
        return result

    def write_bench(
        self,
        name: str,
        *,
        extra: dict[str, Any] | None = None,
        cache_stats: dict[str, float | int] | None = None,
    ) -> Path | None:
        """Write ``BENCH_<name>.json`` with timings, cache and corpus stats.

        ``cache_stats`` substitutes this evaluator's own aggregate when the
        measured work ran on a different evaluator (as the before/after
        benchmarks do).  Returns the path written, or ``None`` when no
        ``bench_dir`` is set.
        """
        if self.bench_dir is None:
            return None
        record = {
            "bench": name,
            "created_unix": round(time.time(), 3),
            "jobs": self.jobs,
            "corpus_size": len(self.corpus),
            "timings_seconds": {k: round(v, 6) for k, v in self.timings.items()},
            "cache": cache_stats if cache_stats is not None else self.context_stats(),
        }
        if extra:
            record["extra"] = extra
        self.bench_dir.mkdir(parents=True, exist_ok=True)
        path = self.bench_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path


def _evaluator(
    corpus: Sequence[SyntheticBinary], evaluator: CorpusEvaluator | None
) -> CorpusEvaluator:
    return evaluator if evaluator is not None else CorpusEvaluator(corpus)


# ----------------------------------------------------------------------
# Strategy ladders (Figure 5)
# ----------------------------------------------------------------------

@dataclass
class StrategyOutcome:
    """One bar pair of Figure 5: a strategy and its corpus-level metrics."""

    label: str
    metrics: CorpusMetrics

    @property
    def full_coverage(self) -> int:
        return self.metrics.binaries_with_full_coverage

    @property
    def full_accuracy(self) -> int:
        return self.metrics.binaries_with_full_accuracy


def run_strategy_ladder(
    corpus: list[SyntheticBinary],
    ladder: Sequence[tuple[str, Any]],
    make_detector: Callable[[Any], Any],
    *,
    evaluator: CorpusEvaluator | None = None,
) -> list[StrategyOutcome]:
    """Evaluate one Figure 5 ladder: ``(label, options)`` rungs in order.

    A rung whose options are ``None`` is the shared FDE-only baseline;
    every other rung runs ``make_detector(options)`` over the corpus.  All
    rungs share the evaluator's per-binary contexts, so the corpus is
    decoded once for the whole ladder.
    """
    evaluator = _evaluator(corpus, evaluator)
    outcomes = []
    for label, options in ladder:
        if options is None:
            metrics = evaluator.fde_only_metrics(corpus)
        else:
            metrics = evaluator.run_detector(
                lambda o=options: make_detector(o), corpus
            )
        outcomes.append(StrategyOutcome(label=label, metrics=metrics))
    return outcomes


def run_figure5a(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> list[StrategyOutcome]:
    """GHIDRA strategy ladder (Figure 5a)."""
    ladder = [
        ("FDE", None),
        ("FDE+Rec+CFR", GhidraOptions(control_flow_repair=True)),
        ("FDE+Rec", GhidraOptions()),
        ("FDE+Rec+Fsig", GhidraOptions(function_matching=True)),
        ("FDE+Rec+Tcall", GhidraOptions(tail_call_heuristic=True)),
    ]
    return run_strategy_ladder(corpus, ladder, GhidraLike, evaluator=evaluator)


def run_figure5b(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> list[StrategyOutcome]:
    """ANGR strategy ladder (Figure 5b)."""
    ladder = [
        ("FDE", None),
        ("FDE+Rec+Fmerg", AngrOptions(function_merging=True)),
        ("FDE+Rec", AngrOptions()),
        ("FDE+Rec+Fsig", AngrOptions(function_matching=True)),
        ("FDE+Rec+Scan", AngrOptions(linear_scan=True)),
        ("FDE+Rec+Tcall", AngrOptions(tail_call_heuristic=True)),
    ]
    return run_strategy_ladder(corpus, ladder, AngrLike, evaluator=evaluator)


def run_figure5c(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> list[StrategyOutcome]:
    """The optimal-strategy ladder (Figure 5c) culminating in full FETCH."""
    ladder = [
        ("FDE", None),
        (
            "FDE+Rec",
            FetchOptions(
                validate_fde_starts=False,
                use_pointer_validation=False,
                use_tail_call_analysis=False,
            ),
        ),
        (
            "FDE+Rec+Xref",
            FetchOptions(validate_fde_starts=False, use_tail_call_analysis=False),
        ),
        ("FDE+Rec+Xref+Tcall", FetchOptions()),
    ]
    return run_strategy_ladder(corpus, ladder, FetchDetector, evaluator=evaluator)


# ----------------------------------------------------------------------
# §IV-B — Q1: FDE-only coverage
# ----------------------------------------------------------------------

@dataclass
class FdeCoverageStudy:
    """Q1 results: how well FDEs alone cover true function starts."""

    binary_count: int = 0
    total_functions: int = 0
    covered_functions: int = 0
    binaries_with_misses: int = 0
    missed_by_kind: dict[str, int] = field(default_factory=dict)
    symbol_count: int = 0
    symbols_covered_by_fdes: int = 0

    @property
    def coverage_percent(self) -> float:
        if self.total_functions == 0:
            return 100.0
        return 100.0 * self.covered_functions / self.total_functions


def run_fde_coverage_study(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> FdeCoverageStudy:
    evaluator = _evaluator(corpus, evaluator)

    def per_binary(binary: SyntheticBinary, context: AnalysisContext):
        fde_starts = extract_fde_starts(binary.image)
        truth = binary.ground_truth
        covered = truth.function_starts & fde_starts
        missed = truth.function_starts - fde_starts
        missed_kinds: dict[str, int] = defaultdict(int)
        for address in missed:
            info = truth.by_address(address)
            missed_kinds[info.kind if info else "unknown"] += 1
        coverage = fde_symbol_coverage(binary.image)
        return (
            truth.function_count,
            len(covered),
            dict(missed_kinds),
            coverage.symbol_count,
            coverage.covered_symbols,
        )

    study = FdeCoverageStudy()
    missed_kinds: dict[str, int] = defaultdict(int)
    for total, covered, missed, symbols, covered_symbols in evaluator.map(
        per_binary, corpus
    ):
        study.binary_count += 1
        study.total_functions += total
        study.covered_functions += covered
        if missed:
            study.binaries_with_misses += 1
            for kind, count in missed.items():
                missed_kinds[kind] += count
        study.symbol_count += symbols
        study.symbols_covered_by_fdes += covered_symbols
    study.missed_by_kind = dict(missed_kinds)
    return study


# ----------------------------------------------------------------------
# §V-A — errors introduced by FDEs
# ----------------------------------------------------------------------

@dataclass
class FdeErrorStudy:
    """How many false starts FDEs introduce and what they are."""

    binary_count: int = 0
    total_false_positives: int = 0
    binaries_with_false_positives: int = 0
    from_non_contiguous_functions: int = 0
    from_handwritten_fdes: int = 0
    rop_gadgets_at_false_starts: int = 0
    worst_binary: str = ""
    worst_binary_false_positives: int = 0


def run_fde_error_study(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> FdeErrorStudy:
    evaluator = _evaluator(corpus, evaluator)

    def per_binary(binary: SyntheticBinary, context: AnalysisContext):
        truth = binary.ground_truth
        fde_starts = extract_fde_starts(binary.image)
        false_positives = fde_starts - truth.function_starts
        cold = false_positives & truth.cold_part_starts
        gadgets = sum(context.gadget_count(address) for address in false_positives)
        return (binary.name, len(false_positives), len(cold), gadgets)

    study = FdeErrorStudy()
    for name, false_positives, cold, gadgets in evaluator.map(per_binary, corpus):
        study.binary_count += 1
        if false_positives:
            study.binaries_with_false_positives += 1
        study.total_false_positives += false_positives
        study.from_non_contiguous_functions += cold
        study.from_handwritten_fdes += false_positives - cold
        study.rop_gadgets_at_false_starts += gadgets
        if false_positives > study.worst_binary_false_positives:
            study.worst_binary_false_positives = false_positives
            study.worst_binary = name
    return study


# ----------------------------------------------------------------------
# §V-C — Algorithm 1 evaluation
# ----------------------------------------------------------------------

@dataclass
class Algorithm1Study:
    """Effect of Algorithm 1 on FDE-introduced errors."""

    false_positives_before: int = 0
    false_positives_after: int = 0
    full_accuracy_before: int = 0
    full_accuracy_after: int = 0
    full_coverage_before: int = 0
    full_coverage_after: int = 0
    new_false_negatives: int = 0
    new_false_negatives_tailcall_only: int = 0

    @property
    def false_positive_reduction_percent(self) -> float:
        if self.false_positives_before == 0:
            return 0.0
        removed = self.false_positives_before - self.false_positives_after
        return 100.0 * removed / self.false_positives_before


def run_algorithm1_study(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> Algorithm1Study:
    evaluator = _evaluator(corpus, evaluator)
    before_options = FetchOptions(validate_fde_starts=False, use_tail_call_analysis=False)
    after_options = FetchOptions()

    def per_binary(binary: SyntheticBinary, context: AnalysisContext):
        truth = binary.ground_truth
        before = FetchDetector(before_options).detect(binary.image, context)
        after = FetchDetector(after_options).detect(binary.image, context)
        metrics_before = compute_metrics(truth, before.function_starts)
        metrics_after = compute_metrics(truth, after.function_starts)
        introduced = metrics_after.false_negatives - metrics_before.false_negatives
        tailcall_only = 0
        for address in introduced:
            info = truth.by_address(address)
            if info is not None and info.reachable_via == "tailcall":
                tailcall_only += 1
        return (metrics_before, metrics_after, len(introduced), tailcall_only)

    study = Algorithm1Study()
    for metrics_before, metrics_after, introduced, tailcall_only in evaluator.map(
        per_binary, corpus
    ):
        study.false_positives_before += metrics_before.fp_count
        study.false_positives_after += metrics_after.fp_count
        study.full_accuracy_before += int(metrics_before.full_accuracy)
        study.full_accuracy_after += int(metrics_after.full_accuracy)
        study.full_coverage_before += int(metrics_before.full_coverage)
        study.full_coverage_after += int(metrics_after.full_coverage)
        study.new_false_negatives += introduced
        study.new_false_negatives_tailcall_only += tailcall_only
    return study


# ----------------------------------------------------------------------
# Table III — tool comparison
# ----------------------------------------------------------------------

@dataclass
class ToolComparisonCell:
    false_positives: int
    false_negatives: int
    functions: int


def run_tool_comparison(
    corpus: list[SyntheticBinary],
    *,
    include_fetch: bool = True,
    evaluator: CorpusEvaluator | None = None,
) -> dict[str, dict[str, ToolComparisonCell]]:
    """FP/FN per tool per optimisation level (Table III).

    Returns ``{opt_level: {tool_name: ToolComparisonCell}}`` plus an ``Avg.``
    row aggregating all levels.  With a shared evaluator, all ten detectors
    reuse one decode cache per binary.
    """
    evaluator = _evaluator(corpus, evaluator)
    tools = all_comparison_tools()
    if include_fetch:
        tools = tools + [FetchDetector()]

    if evaluator.workers > 1:
        # Process backend: each worker keeps one context per binary, which
        # is exactly the shared-context semantics.
        per = evaluator.map(_tool_comparison_metrics, corpus, fn_args=(tools,))
    else:

        def per_binary(binary: SyntheticBinary, context: AnalysisContext):
            metrics: dict[str, BinaryMetrics] = {}
            for tool in tools:
                # Request the context per tool so an unshared evaluator hands
                # every detector run a fresh one (the before/after benchmark).
                result = tool.detect(binary.image, evaluator.context_for(binary))
                metrics[tool.name] = compute_metrics(
                    binary.ground_truth, result.function_starts
                )
            return metrics

        per = evaluator.map(per_binary, corpus)

    groups: dict[str, list[dict[str, BinaryMetrics]]] = defaultdict(list)
    for binary, metrics_by_tool in zip(corpus, per):
        groups[binary.plan.profile.opt_level.value].append(metrics_by_tool)

    by_level: dict[str, dict[str, ToolComparisonCell]] = {}
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for level, rows in sorted(groups.items()):
        row: dict[str, ToolComparisonCell] = {}
        for tool in tools:
            fp = sum(metrics[tool.name].fp_count for metrics in rows)
            fn = sum(metrics[tool.name].fn_count for metrics in rows)
            functions = sum(metrics[tool.name].true_count for metrics in rows)
            row[tool.name] = ToolComparisonCell(fp, fn, functions)
            totals[tool.name][0] += fp
            totals[tool.name][1] += fn
            totals[tool.name][2] += functions
        by_level[level] = row

    by_level["Avg."] = {
        name: ToolComparisonCell(*values) for name, values in totals.items()
    }
    return by_level


# ----------------------------------------------------------------------
# Table IV — stack-height analysis quality
# ----------------------------------------------------------------------

@dataclass
class StackHeightCell:
    """Precision / recall of a static stack-height analysis vs CFI."""

    matching: int = 0
    reported: int = 0
    total: int = 0

    @property
    def precision(self) -> float:
        return 100.0 * self.matching / self.reported if self.reported else 100.0

    @property
    def recall(self) -> float:
        return 100.0 * self.matching / self.total if self.total else 100.0


def run_stack_height_study(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> dict[str, dict[str, dict[str, StackHeightCell]]]:
    """Compare static stack-height analyses against CFI heights (Table IV).

    Returns ``{opt_level: {flavor: {"full": cell, "jump": cell}}}``.
    """
    evaluator = _evaluator(corpus, evaluator)
    flavors = ("angr", "dyninst")

    def per_binary(binary: SyntheticBinary, context: AnalysisContext):
        image = binary.image
        fdes = {fde.pc_begin: fde for fde in image.fdes}
        disassembler = RecursiveDisassembler(image, context=context)
        disassembly = disassembler.disassemble(set(fdes))
        counts = {
            flavor: {"full": [0, 0, 0], "jump": [0, 0, 0]} for flavor in flavors
        }
        for start, function in disassembly.functions.items():
            fde = fdes.get(start)
            if fde is None:
                continue
            table = context.cfa_table(fde)
            if not table.has_complete_stack_height:
                continue
            reference = {
                address: table.stack_height_at(address)
                for address in function.instructions
                if fde.covers(address)
            }
            for flavor in flavors:
                analysis = context.stack_heights(flavor, function)
                for scope in ("full", "jump"):
                    cell = counts[flavor][scope]
                    for address, expected in reference.items():
                        insn = function.instructions[address]
                        if scope == "jump" and not insn.is_jump:
                            continue
                        cell[2] += 1
                        observed = analysis.get(address)
                        if observed is None:
                            continue
                        cell[1] += 1
                        if observed == expected:
                            cell[0] += 1
        return counts

    per = evaluator.map(per_binary, corpus)

    groups: dict[str, list] = defaultdict(list)
    for binary, counts in zip(corpus, per):
        groups[binary.plan.profile.opt_level.value].append(counts)

    results: dict[str, dict[str, dict[str, StackHeightCell]]] = {}
    for level, rows in sorted(groups.items()):
        cells = {
            flavor: {"full": StackHeightCell(), "jump": StackHeightCell()}
            for flavor in flavors
        }
        for counts in rows:
            for flavor in flavors:
                for scope in ("full", "jump"):
                    cell = cells[flavor][scope]
                    matching, reported, total = counts[flavor][scope]
                    cell.matching += matching
                    cell.reported += reported
                    cell.total += total
        results[level] = cells
    return results


# ----------------------------------------------------------------------
# Table V — timing
# ----------------------------------------------------------------------

def run_timing_study(
    corpus: list[SyntheticBinary],
    *,
    include_fetch: bool = True,
    evaluator: CorpusEvaluator | None = None,
) -> dict[str, float]:
    """Average analysis time per binary per tool, in seconds (Table V).

    Timing runs are always serial and always give every detector run a cold
    (private) context: a shared cache would charge all decode misses to
    whichever tool happens to run first and hand later tools a warm cache,
    turning the per-tool comparison into a measurement of run order.  The
    ``evaluator`` argument only contributes its timing/record plumbing.
    """
    tools = all_comparison_tools()
    if include_fetch:
        tools = tools + [FetchDetector()]
    timings: dict[str, float] = {}
    for tool in tools:
        start = time.perf_counter()
        for binary in corpus:
            tool.detect(binary.image)
        elapsed = time.perf_counter() - start
        timings[tool.name] = elapsed / max(len(corpus), 1)
    return timings


# ----------------------------------------------------------------------
# Scenario matrix — every (scenario × detector) cell
# ----------------------------------------------------------------------

#: The ten detectors of the scenario matrix: the paper's eight comparison
#: tools, the ByteWeight model, and FETCH itself.  Registry-driven — these
#: are *classes* straight from :mod:`repro.core.registry`; nothing is
#: instantiated at import time.
MATRIX_DETECTORS: tuple[tuple[str, Callable[[], Any]], ...] = tuple(
    (info.name, info.cls) for info in registered_detectors(matrix=True)
)


class ScenarioMatrix:
    """Evaluate every (scenario × detector) cell of a scenario-keyed corpus.

    Built on :class:`CorpusEvaluator`: one evaluator per scenario row shares
    decode work across all ten detectors, with the ``jobs`` thread pool or
    the ``workers`` process pool fanning binaries out.  :meth:`run` fills
    :attr:`cells` (``{scenario: {tool: metrics summary}}``) and per-cell
    wall-clock :attr:`timings`; :meth:`write_bench` records everything as
    ``BENCH_<name>.json``.

    The detector set comes from the registry (``matrix=True`` entries);
    ``include``/``exclude`` narrow it by name and ``include_fetch=False`` is
    shorthand for excluding FETCH.

    With a ``store``, every completed cell is persisted under a key derived
    from (scenario, detector, options digest, the row's binary digests).
    ``resume`` (default on when a store is given) reloads completed cells on
    a later run and only computes the missing or invalidated ones — a warm
    re-run of an unchanged matrix performs **zero** detector invocations
    (:attr:`detector_invocations` counts the ones that happened).  Deleting
    a cell file (:meth:`ArtifactStore.cell_path` of :attr:`cell_keys`)
    invalidates exactly that cell.
    """

    def __init__(
        self,
        corpora: dict[str, Sequence[SyntheticBinary]],
        *,
        jobs: int = 1,
        workers: int = 0,
        include_fetch: bool = True,
        include: Iterable[str] | None = None,
        exclude: Iterable[str] | None = None,
        bench_dir: str | os.PathLike | None = None,
        store: ArtifactStore | None = None,
        resume: bool | None = None,
    ):
        self.corpora = {name: list(binaries) for name, binaries in corpora.items()}
        self.jobs = max(1, int(jobs))
        self.workers = max(0, int(workers))
        self.bench_dir = Path(bench_dir) if bench_dir is not None else None
        excluded = set(exclude or ())
        if not include_fetch:
            excluded.add("fetch")
        self.detectors: list[tuple[str, Callable[[], Any]]] = [
            (info.name, info.cls)
            for info in registered_detectors(
                matrix=True, include=include, exclude=excluded or None
            )
        ]
        self.store = store
        self.resume = (store is not None) if resume is None else (resume and store is not None)
        #: per-binary detector invocations actually performed by :meth:`run`
        self.detector_invocations = 0
        #: store hit/miss deltas of the last :meth:`run` call (run-scoped,
        #: not store-lifetime, so the BENCH record describes *this* run)
        self.run_store_stats: dict[str, int] = {}
        #: ``(scenario, tool) -> store cell key`` for every cell of the run
        self.cell_keys: dict[tuple[str, str], str] = {}
        self.cells: dict[str, dict[str, dict[str, float | int]]] = {}
        self.timings: dict[str, float] = {}
        self.cache_stats: dict[str, dict[str, float | int]] = {}

    def run(self) -> dict[str, dict[str, dict[str, float | int]]]:
        """Evaluate all cells; returns ``{scenario: {tool: summary}}``."""
        stats_before = self.store.stats_snapshot() if self.store is not None else {}
        for scenario, corpus in self.corpora.items():
            row: dict[str, dict[str, float | int]] = {}
            pending: list[tuple[str, Callable[[], Any]]] = []
            digests = (
                [self.store.binary_digest(binary) for binary in corpus]
                if self.store is not None
                else []
            )
            for tool_name, factory in self.detectors:
                if self.store is not None:
                    key = self.store.cell_key(
                        scenario, tool_name, digests, options_digest(factory())
                    )
                    self.cell_keys[(scenario, tool_name)] = key
                    if self.resume:
                        cell = self.store.load_cell(key)
                        if cell is not None:
                            row[tool_name] = cell["summary"]
                            self.timings[f"{scenario}:{tool_name}"] = cell["seconds"]
                            continue
                pending.append((tool_name, factory))

            if pending:
                evaluator = CorpusEvaluator(
                    corpus, jobs=self.jobs, workers=self.workers, store=self.store
                )
                try:
                    for tool_name, factory in pending:
                        label = f"{scenario}:{tool_name}"
                        metrics = evaluator.timed(label, evaluator.run_detector, factory)
                        row[tool_name] = metrics.summary()
                        if self.store is not None:
                            self.store.save_cell(
                                self.cell_keys[(scenario, tool_name)],
                                {
                                    "scenario": scenario,
                                    "detector": tool_name,
                                    "summary": row[tool_name],
                                    "seconds": evaluator.timings[label],
                                },
                            )
                    self.timings.update(evaluator.timings)
                    self.cache_stats[scenario] = evaluator.context_stats()
                    self.detector_invocations += evaluator.detector_runs
                finally:
                    evaluator.close()

            # cells keep registry column order even when cache hits and
            # computed cells interleave
            self.cells[scenario] = {name: row[name] for name, _ in self.detectors}
        if self.store is not None:
            self.run_store_stats = self.store.stats_delta(stats_before)
        return self.cells

    def write_bench(
        self, name: str = "scenario_matrix", *, extra: dict[str, Any] | None = None
    ) -> Path | None:
        """Write ``BENCH_<name>.json`` with all cells, timings and stats."""
        if self.bench_dir is None:
            return None
        record: dict[str, Any] = {
            "bench": name,
            "created_unix": round(time.time(), 3),
            "jobs": self.jobs,
            "workers": self.workers,
            "scenarios": {
                scenario: len(corpus) for scenario, corpus in self.corpora.items()
            },
            "detectors": [tool_name for tool_name, _ in self.detectors],
            "cells": self.cells,
            "timings_seconds": {k: round(v, 6) for k, v in self.timings.items()},
            "cache": self.cache_stats,
        }
        if self.store is not None:
            description = self.store.describe()
            record["store"] = {
                "detector_invocations": self.detector_invocations,
                **self.run_store_stats,
                "layout": description["layout"],
                "lock": description["lock"],
            }
        if extra:
            record["extra"] = extra
        self.bench_dir.mkdir(parents=True, exist_ok=True)
        path = self.bench_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path


def run_scenario_matrix(
    corpora: dict[str, Sequence[SyntheticBinary]],
    *,
    jobs: int = 1,
    workers: int = 0,
    include_fetch: bool = True,
    store: ArtifactStore | None = None,
    resume: bool | None = None,
) -> dict[str, dict[str, dict[str, float | int]]]:
    """Convenience wrapper: build a :class:`ScenarioMatrix`, run it, return cells."""
    matrix = ScenarioMatrix(
        corpora,
        jobs=jobs,
        workers=workers,
        include_fetch=include_fetch,
        store=store,
        resume=resume,
    )
    return matrix.run()


# ----------------------------------------------------------------------
# Tables I and II — corpus characteristics
# ----------------------------------------------------------------------

@dataclass
class WildRow:
    software: str
    open_source: bool
    language: str
    has_eh_frame: bool
    has_symbols: bool
    fde_symbol_percent: float | None


def run_wild_study(corpus: list[tuple[WildProfile, SyntheticBinary]]) -> list[WildRow]:
    """FDE-vs-symbol coverage over the wild corpus (Table I)."""
    rows: list[WildRow] = []
    for profile, binary in corpus:
        image = binary.image
        if image.has_symbols:
            ratio = fde_symbol_coverage(image).percent
        else:
            ratio = None
        rows.append(
            WildRow(
                software=profile.software,
                open_source=profile.open_source,
                language=profile.language,
                has_eh_frame=image.has_eh_frame,
                has_symbols=image.has_symbols,
                fde_symbol_percent=ratio,
            )
        )
    return rows


@dataclass
class SelfBuiltRow:
    project: str
    category: str
    language: str
    binaries: int
    has_eh_frame: bool
    fde_symbol_percent: float


def run_selfbuilt_fde_study(corpus: list[SyntheticBinary]) -> list[SelfBuiltRow]:
    """FDE-vs-symbol coverage per project over the self-built corpus (Table II)."""
    by_project: dict[str, list[SyntheticBinary]] = defaultdict(list)
    for binary in corpus:
        project = binary.name.split("-")[0] if "-" in binary.name else binary.name
        by_project[binary.name.split(":")[0].rsplit("-", 1)[0]].append(binary)

    rows: list[SelfBuiltRow] = []
    for project, binaries in sorted(by_project.items()):
        symbols = 0
        covered = 0
        has_eh = True
        for binary in binaries:
            coverage = fde_symbol_coverage(binary.image)
            symbols += coverage.symbol_count
            covered += coverage.covered_symbols
            has_eh &= binary.image.has_eh_frame
        percent = 100.0 * covered / symbols if symbols else 100.0
        rows.append(
            SelfBuiltRow(
                project=project,
                category="",
                language="",
                binaries=len(binaries),
                has_eh_frame=has_eh,
                fde_symbol_percent=percent,
            )
        )
    return rows
