"""Recovery policies consumed by the real execution paths.

The counterpart of :mod:`repro.resilience.faults`: where the fault plane
breaks things on purpose, this module is how the service/executor/store
layers absorb those breaks (and the real-world failures they model).

* :class:`RetryPolicy` — bounded attempts with deterministic exponential
  backoff and an exception classifier (``LockTimeout`` and transient I/O
  errors retry; a deliberate :class:`DetectorTimeout` does not).
* :class:`DetectorTimeout` — what a detection that overruns its
  ``detector_timeout`` raises; the service's worker process running it
  is killed and replaced (:meth:`repro.eval.executor.ShardedWorkerPool.
  call`), so a wedged detector costs one process restart, never the batch.
* :class:`CircuitBreaker` — quarantine a repeatedly-failing detector:
  after ``threshold`` *consecutive* failures the circuit opens and calls
  fail fast with :class:`CircuitOpen`; after ``reset_after`` seconds one
  probe call is admitted (half-open) and its outcome closes or re-opens
  the circuit.
* :class:`ResilienceConfig` — the service-facing bundle of knobs, with
  factories for the per-concern policies.
* :func:`failure_record` — the structured ``failure`` dict attached to an
  ``EntryResult`` when an entry degrades instead of completing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.resilience.faults import FaultInjected

T = TypeVar("T")


class DetectorTimeout(TimeoutError):
    """A detector exceeded its per-entry wall-clock budget.

    Not retryable by default: the timeout *is* the policy decision —
    re-running a wedged detector would just wedge again."""


class CircuitOpen(RuntimeError):
    """Fast-fail: the circuit for this detector is open (quarantined)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``backoff(attempt)`` is a pure function of the policy and the attempt
    number — no jitter — so a retried schedule is reproducible, matching
    the determinism contract of the fault plane.
    """

    attempts: int = 3
    base_delay: float = 0.005
    max_delay: float = 0.25
    multiplier: float = 2.0
    #: exception types worth retrying (transient by construction)
    retryable: tuple[type[BaseException], ...] = (
        OSError,
        TimeoutError,
        ConnectionError,
        FaultInjected,
    )
    #: checked before ``retryable`` — subclasses that must NOT retry
    non_retryable: tuple[type[BaseException], ...] = (DetectorTimeout,)

    def classify(self, error: BaseException) -> bool:
        """True if ``error`` is worth another attempt."""
        if isinstance(error, self.non_retryable):
            return False
        return isinstance(error, self.retryable)

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based), capped."""
        delay = self.base_delay * (self.multiplier ** max(0, attempt - 1))
        return min(delay, self.max_delay)

    def run(
        self,
        fn: Callable[[], T],
        *,
        on_retry: Callable[[int, BaseException], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> T:
        """Call ``fn`` up to ``attempts`` times; re-raise the last error.

        ``on_retry(attempt, error)`` fires before each backoff sleep so
        callers can count retries for their stats.
        """
        last: BaseException | None = None
        for attempt in range(1, max(1, self.attempts) + 1):
            try:
                return fn()
            except Exception as error:
                last = error
                if attempt >= self.attempts or not self.classify(error):
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                sleep(self.backoff(attempt))
        raise last  # pragma: no cover - unreachable (loop always returns/raises)


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one detector.

    closed → (``threshold`` consecutive failures) → open → (``reset_after``
    seconds) → half-open single probe → success closes / failure re-opens.
    The clock is injectable so tests drive the state machine directly.
    """

    def __init__(
        self,
        threshold: int = 5,
        reset_after: float = 30.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.reset_after = reset_after
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False
        #: times the circuit transitioned closed/half-open -> open
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self.reset_after:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """True if a call may proceed; at most one probe while half-open."""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._clock() - self._opened_at < self.reset_after:
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            probing = self._probing
            self._probing = False
            self._failures += 1
            if probing or self._failures >= self.threshold:
                if self._opened_at is None or probing:
                    self.trips += 1
                self._opened_at = self._clock()
                self._failures = 0


@dataclass(frozen=True)
class ResilienceConfig:
    """Service-facing resilience knobs (one bundle per ``DetectionService``)."""

    #: attempts per detector invocation (1 = no retries)
    detect_attempts: int = 3
    #: attempts per store read/write (store faults degrade, never fail the entry)
    store_attempts: int = 3
    #: seconds per detector invocation; 0 means no budget
    detector_timeout: float = 0.0
    #: consecutive failures before a detector's circuit opens; 0 disables
    breaker_threshold: int = 0
    #: seconds an open circuit waits before admitting a probe
    breaker_reset_after: float = 30.0
    backoff_base: float = 0.005
    backoff_max: float = 0.25

    def detect_policy(self) -> RetryPolicy:
        return RetryPolicy(
            attempts=self.detect_attempts,
            base_delay=self.backoff_base,
            max_delay=self.backoff_max,
        )

    def store_policy(self) -> RetryPolicy:
        return RetryPolicy(
            attempts=self.store_attempts,
            base_delay=self.backoff_base,
            max_delay=self.backoff_max,
        )

    def breaker(self) -> CircuitBreaker | None:
        if self.breaker_threshold <= 0:
            return None
        return CircuitBreaker(self.breaker_threshold, self.breaker_reset_after)


def failure_record(
    error: BaseException, *, site: str, attempts: int = 1, **extra: Any
) -> dict[str, Any]:
    """The structured ``failure`` payload carried by a degraded ``EntryResult``."""
    record: dict[str, Any] = {
        "site": site,
        "kind": type(error).__name__,
        "message": str(error),
        "attempts": attempts,
        "retryable": False,
    }
    record.update(extra)
    return record
