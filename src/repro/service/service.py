"""The persistent detection service.

:class:`DetectionService` turns the repository's batch-evaluation substrate
— the detector registry, the content-addressed :class:`ArtifactStore` and
the :mod:`repro.eval.executor` fan-out — into a process that stays up and
serves detection requests:

* a long-lived :class:`~repro.eval.executor.ShardedWorkerPool` survives
  across batches, so worker start-up is paid once per service, not per
  request;
* incoming binaries are sharded across workers by content digest, so
  duplicate submissions serialise behind each other and dedupe against the
  store (or the in-memory memo) before any detector runs;
* each detection runs in its shard's worker process — parse, analysis
  context and detector, nothing kept afterwards — so ``workers`` shards
  use ``workers`` cores, while admission, dedupe, retries, breakers,
  metrics and every counter stay in this process;
* jobs move through queued → running → done states with per-job progress,
  and admission is bounded: a full queue either blocks the submitter or
  rejects the batch (:class:`ServiceSaturated`), per the configured
  backpressure policy;
* results stream — :meth:`JobHandle.results` yields each
  :class:`EntryResult` (with :class:`~repro.eval.metrics.BinaryMetrics`
  when ground truth is available) as it completes, not when the batch ends.

A failure is always entry-scoped: an unreadable file or a detector raising
mid-batch produces an ``error`` result for that entry alone, and every
other entry of the job completes normally.

The service is exposed two ways: this in-process Python API, and the
JSON-lines front-end in :mod:`repro.service.protocol` behind the
``fetch-detect serve`` / ``fetch-detect submit`` CLI verbs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.core.context import AnalysisContext
from repro.core.registry import create_detectors
from repro.elf.image import BinaryImage
from repro.eval.executor import ShardedWorkerPool
from repro.eval.metrics import BinaryMetrics, compute_metrics
from repro.resilience import faults
from repro.resilience.policy import (
    CircuitBreaker,
    CircuitOpen,
    ResilienceConfig,
    failure_record,
)
from repro.store import (
    ArtifactStore,
    blob_digest,
    digest_of_binary,
    elf_bytes_of,
    options_digest,
)


class ServiceSaturated(RuntimeError):
    """Raised by :meth:`DetectionService.submit` under the ``reject`` policy
    when admitting the batch would overflow the bounded queue."""


class ServiceClosed(RuntimeError):
    """Raised when submitting to a service that has been closed."""


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of a :class:`DetectionService`.

    ``queue_limit`` bounds the number of *entries* (binaries) queued or
    running across all jobs; ``0`` disables the bound.  ``backpressure``
    picks what :meth:`~DetectionService.submit` does when the bound is hit:
    ``"block"`` admits entries one at a time as workers free capacity (the
    submitter waits), ``"reject"`` refuses the whole batch atomically with
    :class:`ServiceSaturated` — nothing is partially enqueued.

    ``resilience`` bundles the failure-handling knobs (detector retries and
    timeout, store-operation retries, per-detector circuit breakers); the
    default keeps retries on and breakers/timeouts off.
    """

    workers: int = 2
    queue_limit: int = 256
    backpressure: str = "block"  # or "reject"
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def __post_init__(self) -> None:
        if self.backpressure not in ("block", "reject"):
            raise ValueError(
                f"backpressure must be 'block' or 'reject', got {self.backpressure!r}"
            )


@dataclass
class EntryResult:
    """One (binary × detector) outcome, streamed as it completes."""

    name: str
    digest: str
    detector: str
    #: served from the store / in-memory memo without running the detector
    cached: bool = False
    function_starts: tuple[int, ...] = ()
    #: ground-truth comparison, when the submission carried ground truth
    metrics: BinaryMetrics | None = None
    #: ``None`` on success; a one-line ``Type: message`` rendering otherwise
    error: str | None = None
    #: structured degradation record (site, kind, attempts, …) when the
    #: unit failed — or when it *succeeded* but a store operation degraded
    failure: dict[str, Any] | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class JobHandle:
    """Observer handle for one submitted batch.

    Completed results accumulate on the handle, so :meth:`results` can be
    consumed concurrently with the workers and re-iterated afterwards;
    :meth:`wait` blocks until the job is done.  All methods are safe to call
    from any thread.
    """

    def __init__(self, job_id: int, total: int):
        self.job_id = job_id
        self.total = total
        self._completed: list[EntryResult] = []
        self._started = False
        self._cond = threading.Condition()

    # -- state ----------------------------------------------------------
    @property
    def state(self) -> JobState:
        with self._cond:
            if len(self._completed) >= self.total:
                return JobState.DONE
            return JobState.RUNNING if self._started else JobState.QUEUED

    def progress(self) -> tuple[int, int]:
        """``(completed units, total units)`` — a unit is binary × detector."""
        with self._cond:
            return len(self._completed), self.total

    @property
    def errors(self) -> list[EntryResult]:
        """The failed results completed so far."""
        with self._cond:
            return [result for result in self._completed if not result.ok]

    # -- consumption ----------------------------------------------------
    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is done; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(self._completed) < self.total:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def results(self, timeout: float | None = None) -> Iterator[EntryResult]:
        """Yield each :class:`EntryResult` as it completes (completion order).

        Safe to call while workers are still running — the iterator blocks
        until the next result lands — and safe to call again afterwards (it
        replays the completed results).  ``timeout`` bounds the wait for
        each *next result* and raises ``TimeoutError`` when exceeded; the
        bound is a monotonic deadline, so spurious or unrelated condition
        wakeups spend the budget instead of restarting it.
        """
        index = 0
        while True:
            deadline = None if timeout is None else time.monotonic() + timeout
            with self._cond:
                while index >= len(self._completed) and index < self.total:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise TimeoutError(
                            f"job {self.job_id}: no result within {timeout}s "
                            f"({index}/{self.total} complete)"
                        )
                    self._cond.wait(remaining)
                if index >= self.total:
                    return
                result = self._completed[index]
            index += 1
            yield result

    # -- worker side ----------------------------------------------------
    def _mark_running(self) -> None:
        with self._cond:
            self._started = True

    def _complete(self, result: EntryResult) -> None:
        with self._cond:
            self._completed.append(result)
            self._cond.notify_all()


@dataclass
class _Entry:
    """One admitted binary: its identity, payload and (optional) truth."""

    name: str
    digest: str
    data: bytes = b""
    ground_truth: Any = None
    #: admission-time failure (unreadable file); detectors never run
    error: str | None = None


def _detect_in_worker(name: str, data: bytes, detector: Any) -> dict[str, Any]:
    """One detection, run in a shard's worker process.

    Parses ``data``, builds a fresh :class:`AnalysisContext` and runs the
    detector; nothing outlives the call, so a worker's memory stays flat.
    Returns the store record's detection fields — what the parent needs,
    not the (large) :class:`~repro.core.results.DetectionResult`.
    """
    image = BinaryImage.from_bytes(data, name=name)
    detection = detector.detect(image, AnalysisContext(image))
    return {
        "function_starts": sorted(detection.function_starts),
        "stages": {
            stage: sorted(added) for stage, added in detection.added_by_stage.items()
        },
        "removed_by_stage": {
            stage: sorted(gone) for stage, gone in detection.removed_by_stage.items()
        },
        "merged_parts": {
            str(part): parent for part, parent in detection.merged_parts.items()
        },
    }


class DetectionService:
    """A long-lived function-detection service over a pool of worker processes.

    Wraps the substrate grown by the evaluation stack — detectors resolved
    by name through :mod:`repro.core.registry`, results cached by content
    digest in an :class:`ArtifactStore`, fan-out via
    :class:`~repro.eval.executor.ShardedWorkerPool` — behind a
    batch-submission API::

        with DetectionService(workers=4, store=ArtifactStore(".repro-store")) as service:
            handle = service.submit(paths, detectors=["fetch", "ghidra"])
            for result in handle.results():      # streamed as they complete
                print(result.name, result.detector, len(result.function_starts))

    Submissions may be file paths or in-memory corpus entries
    (:class:`~repro.synth.compiler.SyntheticBinary`); the latter carry
    ground truth, so their results include
    :class:`~repro.eval.metrics.BinaryMetrics`.  Identical binaries — within
    a batch, across batches, or across processes sharing the store — run a
    detector at most once: entries shard by content digest, and each unit
    checks the store (and an in-memory memo) before detecting.
    :attr:`detector_runs` counts the invocations that actually happened, so
    a warm batch can assert it did none.

    Each ``workers`` shard runs its detections in its own worker process
    (started on the shard's first detection), so a detector instance must
    pickle; one that does not fails its units with an entry-scoped error.
    A worker process that dies mid-detection fails that attempt with a
    retryable :class:`~repro.eval.executor.WorkerDied`, and a
    ``detector_timeout`` kills the process; either way the shard starts a
    fresh one (``worker_restarts``).  Everything else — admission, the
    memo and the store, retries, breakers, metrics, counters — stays in
    this process.

    The service is built to stay up: its in-process state is bounded.
    Completed job handles are retained for :meth:`job` lookups only up to
    ``job_history`` (older done jobs are forgotten — handles already held
    by callers keep working), and the in-memory dedupe memo is an LRU
    capped at :attr:`MEMO_LIMIT` entries (the store provides the durable
    dedupe; the memo is just its hot cache).
    """

    #: maximum (digest, detector, options) → starts entries kept in memory
    MEMO_LIMIT = 4096

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = 256,
        backpressure: str = "block",
        store: ArtifactStore | None = None,
        job_history: int = 128,
        config: ServiceConfig | None = None,
        resilience: ResilienceConfig | None = None,
    ):
        self.config = config or ServiceConfig(
            workers=workers,
            queue_limit=queue_limit,
            backpressure=backpressure,
            resilience=resilience or ResilienceConfig(),
        )
        self.resilience = self.config.resilience
        self.store = store
        self.job_history = max(1, int(job_history))
        #: detector invocations actually performed (cache hits excluded)
        self.detector_runs = 0
        #: units served from the store or the in-memory memo
        self.cache_hits = 0
        #: detector invocations retried after a transient failure
        self.detector_retries = 0
        #: store reads/writes retried after a transient failure
        self.store_retries = 0
        #: units that failed after the policy gave up (structured ``failure``)
        self.degraded_units = 0
        #: successful units whose store write/read degraded (result unharmed)
        self.store_degraded = 0
        #: jobs ever submitted (the _jobs dict itself is bounded)
        self.jobs_submitted = 0
        self._jobs: OrderedDict[int, JobHandle] = OrderedDict()
        self._job_counter = 0
        self._pending_entries = 0
        self._closed = False
        self._lock = threading.Lock()
        self._admission = threading.Condition(self._lock)
        self._memo: OrderedDict[tuple[str, str, str], tuple[int, ...]] = OrderedDict()
        self._stats_baseline = store.stats_snapshot() if store is not None else {}
        self._detect_policy = self.resilience.detect_policy()
        self._store_policy = self.resilience.store_policy()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._pool = ShardedWorkerPool(self.config.workers, name="detect-worker")

    # -- lifecycle ------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Refuse new submissions and (with ``wait``) drain in-flight jobs
        and stop the worker processes.  Safe to call again, e.g. with
        ``wait`` after an earlier ``close(wait=False)``."""
        with self._lock:
            self._closed = True
            self._admission.notify_all()
        self._pool.close(wait=wait)

    def __enter__(self) -> "DetectionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission -----------------------------------------------------
    def submit(
        self,
        items: Iterable[Any],
        *,
        detectors: Sequence[Any] | None = None,
    ) -> JobHandle:
        """Admit a batch of binaries; returns a streaming :class:`JobHandle`.

        ``items`` are file paths (str/​``Path``) and/or in-memory
        ``SyntheticBinary`` corpus entries; ``detectors`` mixes registered
        names and detector instances (default: FETCH).  Admission honours
        the configured backpressure policy: ``reject`` refuses the whole
        batch atomically when it would overflow ``queue_limit``, ``block``
        admits entry by entry as capacity frees (so a batch larger than the
        queue simply pipelines through it).  File bytes are read only
        *after* an entry is admitted, so the bounded queue bounds in-flight
        memory too, not just worker backlog.
        """
        specs = create_detectors(detectors)
        pending_items = list(items)
        with self._lock:
            self._check_open()
            self._job_counter += 1
            self.jobs_submitted += 1
            job = JobHandle(self._job_counter, total=len(pending_items) * len(specs))
            self._jobs[job.job_id] = job
            self._evict_done_jobs()
        if job.total == 0:
            return job

        if self.config.backpressure == "reject" and self.config.queue_limit:
            with self._lock:
                self._check_open()
                if self._pending_entries + len(pending_items) > self.config.queue_limit:
                    # the stillborn job must not linger in the lookup table:
                    # it will never run, so it would never become evictable
                    del self._jobs[job.job_id]
                    raise ServiceSaturated(
                        f"queue limit {self.config.queue_limit} reached "
                        f"({self._pending_entries} pending, {len(pending_items)} submitted)"
                    )
                self._pending_entries += len(pending_items)
            for item in pending_items:
                self._dispatch(job, self._entry_for(item), specs)
            return job

        for index, item in enumerate(pending_items):
            # block policy: admit one entry at a time
            try:
                with self._admission:
                    self._check_open()
                    while (
                        self.config.queue_limit
                        and self._pending_entries >= self.config.queue_limit
                    ):
                        self._admission.wait()
                        self._check_open()
                    self._pending_entries += 1
            except ServiceClosed:
                # complete the unadmitted remainder as error units so handle
                # consumers (wait/results loop until total) never hang
                self._fail_items(job, pending_items[index:], specs,
                                 "service closed before admission")
                raise
            self._dispatch(job, self._entry_for(item), specs)
        return job

    def _fail_items(
        self, job: JobHandle, items: list[Any], specs: list[Any], reason: str
    ) -> None:
        """Complete every (item × detector) unit of ``items`` as an error."""
        for item in items:
            name = str(item) if isinstance(item, (str, Path)) else getattr(
                item, "name", repr(item)
            )
            for detector in specs:
                job._complete(
                    EntryResult(
                        name=name,
                        digest="",
                        detector=getattr(detector, "name", type(detector).__name__),
                        error=reason,
                    )
                )

    def _evict_done_jobs(self) -> None:
        """Forget the oldest *completed* jobs beyond ``job_history`` (locked).

        Handles already held by callers stay fully usable — eviction only
        drops the service's own :meth:`job` lookup reference."""
        if len(self._jobs) <= self.job_history:
            return
        for job_id in [
            job_id
            for job_id, job in self._jobs.items()
            if job.state is JobState.DONE
        ][: len(self._jobs) - self.job_history]:
            del self._jobs[job_id]

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("DetectionService is closed")

    def job(self, job_id: int) -> JobHandle:
        """Look a submitted job up by id (raises ``KeyError`` if unknown)."""
        with self._lock:
            return self._jobs[job_id]

    def _dispatch(self, job: JobHandle, entry: _Entry, specs: list[Any]) -> None:
        self._pool.submit(entry.digest, lambda: self._run_entry(job, entry, specs))

    def _entry_for(self, item: Any) -> _Entry:
        """Normalise a path or corpus entry into an admitted :class:`_Entry`.

        Bytes are read (and digested) at admission so sharding and dedupe
        key on content before any worker touches the entry; they are what
        each detection ships to a worker process.  An unreadable path
        becomes an error entry whose units fail without running."""
        if isinstance(item, (str, Path)):
            path = str(item)
            try:
                data = Path(path).read_bytes()
            except OSError as error:
                return _Entry(name=path, digest="", error=f"{type(error).__name__}: {error}")
            return _Entry(name=path, digest=blob_digest(data), data=data)
        try:
            # an in-memory corpus entry: identity is the serialized ELF blob,
            # serialized once here (its digest is memoized on the object)
            data = elf_bytes_of(item)
            return _Entry(
                name=item.name,
                digest=digest_of_binary(item, data),
                data=data,
                ground_truth=getattr(item, "ground_truth", None),
            )
        except Exception as error:  # noqa: BLE001 - admit as an error entry
            return _Entry(
                name=getattr(item, "name", repr(item)),
                digest="",
                error=f"unsubmittable item: {type(error).__name__}: {error}",
            )

    # -- worker side ----------------------------------------------------
    def _run_entry(self, job: JobHandle, entry: _Entry, specs: list[Any]) -> None:
        """Run every requested detector over one entry (on its shard thread).

        Each cache miss ships the entry's bytes to the shard's worker
        process, which parses them — an entry fully served from the cache
        never parses at all.  Failures (admission errors, parse errors, a
        detector raising) are folded into that unit's :class:`EntryResult`;
        the job always completes all of its units.
        """
        job._mark_running()
        try:
            for detector in specs:
                started = time.perf_counter()
                detector_name = getattr(detector, "name", type(detector).__name__)
                result = EntryResult(
                    name=entry.name, digest=entry.digest, detector=detector_name
                )
                try:
                    if entry.error is not None:
                        result.error = entry.error
                    else:
                        self._detect_unit(entry, detector, detector_name, result)
                except Exception as error:  # noqa: BLE001 - entry-scoped failure
                    result.error = f"{type(error).__name__}: {error}"
                    if result.failure is None:
                        result.failure = failure_record(error, site="entry")
                result.seconds = time.perf_counter() - started
                job._complete(result)
        finally:
            with self._admission:
                self._pending_entries -= 1
                self._admission.notify_all()

    def _breaker_for(self, detector_name: str) -> CircuitBreaker | None:
        if self.resilience.breaker_threshold <= 0:
            return None
        with self._lock:
            breaker = self._breakers.get(detector_name)
            if breaker is None:
                breaker = self.resilience.breaker()
                self._breakers[detector_name] = breaker
            return breaker

    def _count_retry(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def _detect_unit(
        self, entry: _Entry, detector: Any, detector_name: str, result: EntryResult
    ) -> None:
        """One (binary × detector) unit, under the resilience policies.

        Failure handling is layered: the ``detect`` fault site and real
        detector errors go through :class:`RetryPolicy` (transient errors
        retry with backoff, as does a worker process dying mid-detection); a
        per-unit ``detector_timeout`` kills the wedged worker process and
        degrades the unit; a per-detector circuit breaker fails
        repeat offenders fast.  A unit that exhausts its policy fails *only
        itself*, with a structured ``failure`` record.  Store reads/writes
        have their own retry budget and **degrade without failing the
        unit**: a detection that cannot be persisted is still a success.
        """
        opts = options_digest(detector)
        memo_key = (entry.digest, detector_name, opts)
        starts = self._cached_starts(memo_key, result)
        if starts is None:
            breaker = self._breaker_for(detector_name)
            if breaker is not None and not breaker.allow():
                error = CircuitOpen(
                    f"detector {detector_name!r} circuit open "
                    f"(state={breaker.state}, trips={breaker.trips})"
                )
                result.error = f"{type(error).__name__}: {error}"
                result.failure = failure_record(error, site="breaker", attempts=0)
                with self._lock:
                    self.degraded_units += 1
                return
            attempts = [0]

            def invoke() -> dict[str, Any]:
                attempts[0] += 1
                with self._lock:
                    self.detector_runs += 1
                faults.fire("detect", f"{entry.digest}:{detector_name}")
                return self._pool.call(
                    entry.digest,
                    _detect_in_worker,
                    entry.name,
                    entry.data,
                    detector,
                    timeout=self.resilience.detector_timeout,
                    label=f"{detector_name}({entry.name})",
                )

            try:
                detection = self._detect_policy.run(
                    invoke, on_retry=lambda n, e: self._count_retry("detector_retries")
                )
            except Exception as error:  # noqa: BLE001 - degrade this unit only
                if breaker is not None:
                    breaker.record_failure()
                result.error = f"{type(error).__name__}: {error}"
                result.failure = failure_record(
                    error,
                    site="detect",
                    attempts=attempts[0],
                    retryable=self._detect_policy.classify(error),
                )
                with self._lock:
                    self.degraded_units += 1
                return
            if breaker is not None:
                breaker.record_success()
            starts = tuple(detection["function_starts"])
            self._memoize(memo_key, starts)
            if self.store is not None:
                record = {"path": entry.name, "detector": detector_name, **detection}
                key = self.store.detection_key(entry.digest, detector_name, opts)
                try:
                    self._store_policy.run(
                        lambda: self.store.save_detection(key, record),
                        on_retry=lambda n, e: self._count_retry("store_retries"),
                    )
                except Exception as error:  # noqa: BLE001 - persistence degrades
                    result.failure = failure_record(error, site="store.save")
                    with self._lock:
                        self.store_degraded += 1
        result.function_starts = starts
        if entry.ground_truth is not None:
            result.metrics = compute_metrics(entry.ground_truth, set(starts))

    def _memoize(self, memo_key: tuple[str, str, str], starts: tuple[int, ...]) -> None:
        """LRU-insert into the bounded in-memory dedupe memo."""
        with self._lock:
            self._memo[memo_key] = starts
            self._memo.move_to_end(memo_key)
            while len(self._memo) > self.MEMO_LIMIT:
                self._memo.popitem(last=False)

    def _cached_starts(
        self, memo_key: tuple[str, str, str], result: EntryResult
    ) -> tuple[int, ...] | None:
        """Dedupe before detecting: in-memory memo first, then the store.

        A store read that keeps failing degrades to a cache miss — the
        detector re-runs rather than the unit failing on a lookup."""
        with self._lock:
            starts = self._memo.get(memo_key)
            if starts is not None:
                self._memo.move_to_end(memo_key)
        if starts is None and self.store is not None:
            digest, detector_name, opts = memo_key
            key = self.store.detection_key(digest, detector_name, opts)
            try:
                record = self._store_policy.run(
                    lambda: self.store.load_detection(key),
                    on_retry=lambda n, e: self._count_retry("store_retries"),
                )
            except Exception:  # noqa: BLE001 - degrade to a miss
                record = None
                with self._lock:
                    self.store_degraded += 1
            if record is not None:
                starts = tuple(record["function_starts"])
                self._memoize(memo_key, starts)
        if starts is None:
            return None
        result.cached = True
        with self._lock:
            self.cache_hits += 1
        return starts

    # -- introspection --------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """A snapshot of the service's counters and queue occupancy.

        ``store`` holds the hit/miss *deltas* since this service was
        created (not store-lifetime totals), so a front-end can report how
        warm its own traffic ran.  ``store_info`` describes the store
        itself (root, layout version, index and lock statistics) from the
        manifest index — no tree walk.
        """
        with self._lock:
            record: dict[str, Any] = {
                "workers": self.config.workers,
                "queue_limit": self.config.queue_limit,
                "backpressure": self.config.backpressure,
                "jobs": self.jobs_submitted,
                "jobs_retained": len(self._jobs),
                "pending_entries": self._pending_entries,
                "detector_runs": self.detector_runs,
                "cache_hits": self.cache_hits,
                "resilience": {
                    "detector_retries": self.detector_retries,
                    "store_retries": self.store_retries,
                    "degraded_units": self.degraded_units,
                    "store_degraded": self.store_degraded,
                    "worker_restarts": self._pool.worker_restarts,
                    "requeued_tasks": self._pool.requeued_tasks,
                    "breaker_trips": sum(b.trips for b in self._breakers.values()),
                    "breakers": {
                        name: breaker.state
                        for name, breaker in self._breakers.items()
                    },
                },
            }
        if self.store is not None:
            record["store"] = self.store.stats_delta(self._stats_baseline)
            record["store_info"] = self.store.describe()
        return record
