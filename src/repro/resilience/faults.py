"""Deterministic fault-injection plane.

A :class:`FaultPlan` is a seed plus a list of :class:`FaultSpec` entries,
parsed from a compact spec string (the ``REPRO_FAULTS`` environment
variable and the ``--faults`` CLI flag)::

    seed=42;detect:raise:rate=0.3,max=10;worker:kill:rate=0.1;store.lock:delay:seconds=0.01

Grammar: ``[seed=N;]site:kind[:param=value[,param=value...]][;...]`` with
kinds ``raise`` (raise an exception), ``delay`` (sleep ``seconds``),
``torn`` (signal a torn store write to the call site) and ``kill`` (raise
:class:`WorkerKilled`, which a thread worker lets kill the thread and a
process-pool child converts into ``SIGKILL`` of itself).  ``rate`` is the
injection probability per call (default 1.0) and ``max`` caps the total
injections of that fault (default unlimited; ``max`` is what lets a
retried operation eventually succeed).

**Sites** are the named injection points threaded through the stack:

========================  ====================================================
``detect``                :meth:`repro.service.DetectionService._detect_unit`,
                          around one detector invocation (key: digest:detector)
``worker``                :class:`repro.eval.executor.ShardedWorkerPool` shard
                          thread's drain loop, before a task starts (key:
                          shard index) — ``kill`` here models a dying shard
                          thread
``pool.child``            the process-pool task wrapper
                          (:func:`repro.eval.runner._process_invoke`) — ``kill``
                          SIGKILLs the child, breaking the pool
``store.write``           :func:`repro.store.backend.atomic_write_bytes` —
                          ``torn`` leaves a truncated temp file behind, as a
                          crash mid-write would (key: destination file name)
``store.lock``            :meth:`repro.store.locking.FileLock.acquire`
                          (key: lock file name)
========================  ====================================================

**Determinism.**  Every decision is a pure hash of ``(seed, site, key,
occurrence, fault-index)`` — not wall clock, not a shared RNG stream — so
a given key sees the same fault schedule regardless of thread
interleaving, and the whole run is reproducible from its seed.
Per-``(site, key)`` occurrence counters advance on each call, so a retry
of a faulted operation re-rolls rather than re-failing forever.

**Hot path.**  With no plan installed (the default), :func:`fire` is a
module-global load and a ``None`` check — nothing else.  Sites live in
the service/executor/store layers, never inside the decode pipeline, so
the cold-latency gate is unaffected either way.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

_KINDS = ("raise", "delay", "torn", "kill")


class FaultInjected(RuntimeError):
    """An injected failure (the default payload of a ``raise`` fault).

    Classified retryable by the default :class:`~repro.resilience.policy.
    RetryPolicy`, mirroring the transient errors it stands in for."""


class TornWrite(FaultInjected):
    """Signals a ``torn`` fault to :func:`repro.store.backend.atomic_write_bytes`,
    which turns it into a truncated on-disk temp file plus a raised error —
    exactly what a crash between ``write`` and ``rename`` leaves behind."""


class WorkerKilled(BaseException):
    """A hard worker kill.

    Deliberately a ``BaseException``: task-level ``except Exception``
    handlers must *not* absorb it — it either unwinds a worker thread
    (whose supervisor restarts it and requeues the in-flight task) or is
    converted into ``SIGKILL`` by a process-pool child."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where it fires, what it does, how often, how many times."""

    site: str
    kind: str
    rate: float = 1.0
    max_injections: int = 0  # 0 = unlimited
    seconds: float = 0.001  # delay duration

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (expected one of {_KINDS})")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")

    def render(self) -> str:
        params = []
        if self.rate != 1.0:
            params.append(f"rate={self.rate:g}")
        if self.max_injections:
            params.append(f"max={self.max_injections}")
        if self.kind == "delay" and self.seconds != 0.001:
            params.append(f"seconds={self.seconds:g}")
        suffix = f":{','.join(params)}" if params else ""
        return f"{self.site}:{self.kind}{suffix}"


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the faults it schedules; parses/renders the spec string."""

    seed: int
    faults: tuple[FaultSpec, ...]

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        seed = 0
        faults: list[FaultSpec] = []
        for clause in filter(None, (part.strip() for part in spec.split(";"))):
            if clause.startswith("seed="):
                seed = int(clause[5:])
                continue
            pieces = clause.split(":")
            if len(pieces) not in (2, 3):
                raise ValueError(
                    f"bad fault clause {clause!r} (expected site:kind[:param=value,...])"
                )
            site, kind = pieces[0], pieces[1]
            params: dict[str, float | int] = {}
            if len(pieces) == 3 and pieces[2]:
                for pair in pieces[2].split(","):
                    name, _, value = pair.partition("=")
                    if name == "rate":
                        params["rate"] = float(value)
                    elif name == "max":
                        params["max_injections"] = int(value)
                    elif name == "seconds":
                        params["seconds"] = float(value)
                    else:
                        raise ValueError(f"unknown fault parameter {name!r} in {clause!r}")
            faults.append(FaultSpec(site=site, kind=kind, **params))
        if not faults:
            raise ValueError(f"fault spec {spec!r} declares no faults")
        return cls(seed=seed, faults=tuple(faults))

    def render(self) -> str:
        return ";".join([f"seed={self.seed}", *(fault.render() for fault in self.faults)])


def _unit_interval(seed: int, site: str, key: str, occurrence: int, index: int) -> float:
    """A deterministic pseudo-random draw in ``[0, 1)`` for one decision."""
    token = f"{seed}|{site}|{key}|{occurrence}|{index}".encode()
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big") / 2.0**64


class FaultInjector:
    """Executes a :class:`FaultPlan` at the named sites.

    Thread-safe; all mutable state (occurrence counters, injection caps,
    the :attr:`injections` observability counters) is lock-guarded.  The
    decisions themselves are pure hashes, so two runs of the same workload
    under the same plan inject the same faults.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: ``(site, kind) -> times injected`` — the chaos benchmark uses
        #: this to prove the configured faults actually fired
        self.injections: dict[tuple[str, str], int] = {}
        self._by_site: dict[str, list[tuple[int, FaultSpec]]] = {}
        for index, fault in enumerate(plan.faults):
            self._by_site.setdefault(fault.site, []).append((index, fault))
        self._budget = {
            index: fault.max_injections for index, fault in enumerate(plan.faults)
        }
        self._occurrences: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()

    def fire(
        self, site: str, key: str = "", raises: type[BaseException] | None = None
    ) -> None:
        """Evaluate every fault registered at ``site`` for this call.

        ``key`` identifies the unit of work (digest, shard, file name) so
        its fault schedule is stable under concurrency; ``raises`` lets a
        call site ask for a domain-typed exception (e.g. ``LockTimeout``)
        instead of the generic :class:`FaultInjected`.
        """
        faults_here = self._by_site.get(site)
        if not faults_here:
            return
        with self._lock:
            occurrence = self._occurrences.get((site, key), 0)
            self._occurrences[(site, key)] = occurrence + 1
        for index, fault in faults_here:
            if _unit_interval(self.plan.seed, site, key, occurrence, index) >= fault.rate:
                continue
            with self._lock:
                budget = self._budget[index]
                if fault.max_injections and budget <= 0:
                    continue
                if fault.max_injections:
                    self._budget[index] = budget - 1
                counter = (site, fault.kind)
                self.injections[counter] = self.injections.get(counter, 0) + 1
            self._act(fault, site, key, raises)

    def _act(
        self, fault: FaultSpec, site: str, key: str, raises: type[BaseException] | None
    ) -> None:
        message = f"injected {fault.kind} at {site}" + (f" [{key}]" if key else "")
        if fault.kind == "delay":
            time.sleep(fault.seconds)
            return
        if fault.kind == "kill":
            raise WorkerKilled(message)
        if fault.kind == "torn":
            raise TornWrite(message)
        raise (raises or FaultInjected)(message)

    def injection_counts(self) -> dict[str, int]:
        """``"site:kind" -> count`` snapshot for benchmark records."""
        with self._lock:
            return {f"{site}:{kind}": n for (site, kind), n in sorted(self.injections.items())}


# ----------------------------------------------------------------------
# The process-wide active injector
# ----------------------------------------------------------------------

def _from_environment() -> FaultInjector | None:
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    return FaultInjector(FaultPlan.parse(spec)) if spec else None


#: the active injector; ``None`` (the default) makes every site a no-op.
#: Initialised from ``REPRO_FAULTS`` at import, so forked process-pool
#: children and subprocesses inherit the plan automatically.
_ACTIVE: FaultInjector | None = _from_environment()


def fire(site: str, key: str = "", raises: type[BaseException] | None = None) -> None:
    """Fire ``site`` on the active injector — a no-op when none is installed."""
    injector = _ACTIVE
    if injector is not None:
        injector.fire(site, key, raises=raises)


def active() -> FaultInjector | None:
    """The currently-installed injector, if any."""
    return _ACTIVE


def install(plan: FaultPlan | FaultInjector | str) -> FaultInjector:
    """Install a fault plan process-wide; returns the injector."""
    global _ACTIVE
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Remove the active fault plan (sites become no-ops again)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def injected(plan: FaultPlan | FaultInjector | str) -> Iterator[FaultInjector]:
    """Scoped installation: install ``plan``, restore the previous one after."""
    global _ACTIVE
    previous = _ACTIVE
    injector = install(plan)
    try:
        yield injector
    finally:
        _ACTIVE = previous
