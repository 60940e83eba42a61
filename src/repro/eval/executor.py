"""Shared thread/process fan-out used by the CLI, the corpus evaluator and
the detection service.

Two primitives live here:

* :func:`parallel_map` — the one-shot fan-out that used to be duplicated
  between ``repro.cli`` and :class:`repro.eval.runner.CorpusEvaluator`: a
  process pool when real CPU parallelism is requested (``workers``), a
  thread pool when only I/O-and-GIL-bound concurrency is wanted (``jobs``),
  and a plain serial loop otherwise.  Results always come back in input
  order.  The process backend *survives a broken pool*: when a child is
  killed (OOM, SIGKILL, an injected ``pool.child`` fault) the pool is
  respawned — via ``pool_factory`` when the caller owns a persistent pool —
  and only the unfinished items are retried, up to ``max_respawns`` times.
* :class:`ShardedWorkerPool` — the long-lived counterpart used by
  :class:`repro.service.DetectionService`: shard threads that persist
  across batches, each draining its own FIFO queue.  A task goes to the
  shard with the fewest unfinished tasks, unless its key (a binary
  content digest) still has one queued or running: then it follows that
  task, so all in-flight work for one key runs on one shard in
  submission order.  Each shard also owns
  one worker *process*, started lazily on first use, that runs the
  shard's CPU-bound calls (:meth:`ShardedWorkerPool.call`) outside the
  parent's GIL.  Both halves are *supervised*: a shard thread that dies
  (a :class:`~repro.resilience.faults.WorkerKilled` injection, or any
  ``BaseException`` escaping a task) is restarted in place, and a task
  that was queued-but-not-started when it died is requeued at the front
  of its shard — exactly-once for unstarted tasks, at-most-once for
  started ones; a worker process that dies or overruns its call's budget
  is reaped and replaced on the shard's next call.

Decode accounting crosses the process boundary exactly: a child reports
the raw decodes each call performed (:func:`counting_decodes`) and the
parent adds them to its own ``DECODE_STATS`` (:func:`fold_decodes`).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, Hashable, Iterable, TypeVar

from repro.resilience import faults
from repro.resilience.policy import DetectorTimeout
from repro.x86.disassembler import DECODE_STATS

_Item = TypeVar("_Item")

#: Environment variable carrying the pool-respawn generation.  Forked
#: process-pool children key their ``pool.child`` fault draws on it, so a
#: respawned pool re-rolls instead of deterministically re-killing itself
#: on the same item forever.
FAULT_EPOCH_VAR = "REPRO_FAULT_EPOCH"

_respawn_lock = threading.Lock()
#: process pools respawned after breaking, process-wide (chaos-bench telemetry)
POOL_RESPAWNS = 0


def _bump_fault_epoch() -> None:
    global POOL_RESPAWNS
    with _respawn_lock:
        POOL_RESPAWNS += 1
        epoch = int(os.environ.get(FAULT_EPOCH_VAR, "0")) + 1
        os.environ[FAULT_EPOCH_VAR] = str(epoch)


_decode_fold_lock = threading.Lock()


def counting_decodes(fn: Callable[..., Any], *args: Any) -> tuple[Any, int]:
    """``(fn(*args), raw decodes it performed)`` — the child half of the
    decode accounting.  ``DECODE_STATS`` is process-local, so a child ships
    this delta back and the parent adds it with :func:`fold_decodes`."""
    before = DECODE_STATS.raw_decodes
    value = fn(*args)
    return value, DECODE_STATS.raw_decodes - before


def fold_decodes(count: int) -> None:
    """The parent half: add a child's decode delta to this process's count.

    Locked, because several shard threads fold concurrently and ``+=`` on
    an attribute is not atomic."""
    with _decode_fold_lock:
        DECODE_STATS.raw_decodes += count


def parallel_map(
    fn: Callable[[_Item], Any],
    items: Iterable[_Item],
    *,
    jobs: int = 1,
    workers: int = 0,
    pool: Executor | None = None,
    pool_factory: Callable[[], Executor] | None = None,
    max_respawns: int = 2,
) -> list[Any]:
    """Ordered ``map(fn, items)`` over the selected backend.

    ``workers > 1`` (with more than one item) selects the process backend:
    ``fn`` and the items must be picklable.  A persistent ``pool`` may be
    supplied to amortise worker start-up across calls — it is *not* shut
    down here unless it breaks; without one a pool is created and torn down
    per call.  Otherwise ``jobs > 1`` fans out over a thread pool, and
    anything else runs serially.

    When a process-pool child dies the executor raises ``BrokenExecutor``
    for every in-flight future.  Finished results are kept, the pool is
    replaced (``pool_factory()`` when given — the owner's hook to also
    retire its broken persistent pool — else a fresh owned pool), and only
    the unfinished items are resubmitted, at most ``max_respawns`` times
    before the breakage propagates.  Items must therefore tolerate
    at-most-one re-execution (detector runs are pure, so they do).

    Thread safety: ``parallel_map`` itself is safe to call concurrently from
    several threads (each call owns its pool, or shares an externally-owned
    ``pool`` whose methods are thread-safe); it is ``fn`` that must tolerate
    concurrent invocation when ``jobs``/``workers`` exceed one.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        return _process_map(
            fn,
            items,
            workers=workers,
            pool=pool,
            pool_factory=pool_factory,
            max_respawns=max_respawns,
        )
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as thread_pool:
            return list(thread_pool.map(fn, items))
    return [fn(item) for item in items]


def _submit_round(
    pool: Executor,
    fn: Callable[[_Item], Any],
    items: list[_Item],
    pending: list[int],
    results: list[Any],
) -> list[int]:
    """One submit/collect pass; returns indices lost to a broken pool.

    Task exceptions (``fn`` raising) propagate to the caller exactly as the
    plain ``pool.map`` path used to — only *pool* failures are absorbed.
    """
    futures: list[tuple[int, Any]] = []
    unfinished: list[int] = []
    try:
        for index in pending:
            futures.append((index, pool.submit(fn, items[index])))
    except (BrokenExecutor, RuntimeError):
        submitted = {index for index, _ in futures}
        unfinished.extend(index for index in pending if index not in submitted)
    for index, future in futures:
        try:
            results[index] = future.result()
        except BrokenExecutor:
            unfinished.append(index)
    return sorted(unfinished)


def _process_map(
    fn: Callable[[_Item], Any],
    items: list[_Item],
    *,
    workers: int,
    pool: Executor | None,
    pool_factory: Callable[[], Executor] | None,
    max_respawns: int,
) -> list[Any]:
    results: list[Any] = [None] * len(items)
    owned: list[Executor] = []
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        owned.append(pool)
    respawns = 0
    try:
        pending = list(range(len(items)))
        while pending:
            pending = _submit_round(pool, fn, items, pending, results)
            if not pending:
                break
            if respawns >= max_respawns:
                raise BrokenExecutor(
                    f"process pool still broken after {respawns} respawns; "
                    f"{len(pending)} of {len(items)} items unfinished"
                )
            respawns += 1
            _bump_fault_epoch()
            pool.shutdown(wait=False)
            if pool_factory is not None:
                pool = pool_factory()
            else:
                pool = ProcessPoolExecutor(max_workers=max(2, workers))
                owned.append(pool)
        return results
    finally:
        for executor in owned:
            executor.shutdown(wait=False)


#: Queue sentinel telling a :class:`ShardedWorkerPool` shard thread to exit.
_STOP = object()


class WorkerDied(ConnectionError):
    """A shard's worker process exited before answering a call.

    A ``ConnectionError``, so the default :class:`~repro.resilience.policy.
    RetryPolicy` retries it — the retry runs on the replacement process."""


def _worker_main(conn: Any) -> None:
    """A worker process: answer pickled ``(fn, args)`` requests until EOF.

    A request is one flag byte then the pickle; each reply is ``(ok, value
    or exception, raw decodes)``.  With the flag set an empty message goes
    out first, once the request is unpickled, so the parent starts a call's
    time budget when the call starts — not while a fresh process imports
    the modules the request refers to.  The loop ends when the parent
    closes the pipe, or goes away.
    """
    # SIGINT is the parent's drain signal; a worker finishes its call and
    # exits when the parent closes the pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            request = conn.recv_bytes()
            try:
                fn, args = pickle.loads(memoryview(request)[1:])
                reply = None
            except Exception as error:  # noqa: BLE001 - e.g. an unimportable class
                reply = (False, error, 0)
            if request[0]:
                conn.send_bytes(b"")
            if reply is None:
                try:
                    value, decodes = counting_decodes(fn, *args)
                    reply = (True, value, decodes)
                except Exception as error:  # noqa: BLE001 - re-raised in the parent
                    reply = (False, error, 0)
            try:
                payload = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
            except Exception as error:  # noqa: BLE001 - the reply does not pickle
                payload = pickle.dumps(
                    (False, RuntimeError(f"unpicklable reply: {error}"), reply[2])
                )
            conn.send_bytes(payload)
    except (EOFError, OSError):
        return


class _WorkerProcess:
    """One shard's worker process and the parent's end of its pipe.

    Started from a ``forkserver`` context: the parent is multithreaded,
    and ``fork`` from a multithreaded process may copy a lock held by
    another thread into the child.
    """

    #: seconds an idle worker gets to exit after its pipe closes
    STOP_GRACE = 5.0

    def __init__(self, name: str):
        context = multiprocessing.get_context("forkserver")
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child_conn,), name=name, daemon=True
        )
        self.process.start()
        child_conn.close()
        #: a request was sent and its reply not yet read (the pipe is not
        #: reusable until it is, so a call abandoned mid-way retires us)
        self.busy = False

    def call(self, fn: Callable[..., Any], args: tuple, timeout: float, label: str) -> Any:
        # pickle up front: a request that does not pickle fails here, with
        # nothing written, and the worker stays usable
        request = bytes([timeout > 0]) + pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
        self.busy = True
        self._exchange(self.conn.send_bytes, request)
        if timeout > 0:
            self._exchange(self.conn.recv_bytes)  # the call is starting
            if not self.conn.poll(timeout):
                raise DetectorTimeout(f"{label} exceeded {timeout:g}s budget")
        reply = self._exchange(self.conn.recv_bytes)
        self.busy = False
        ok, value, decodes = pickle.loads(reply)
        fold_decodes(decodes)
        if not ok:
            raise value
        return value

    def _exchange(self, operation: Callable[..., Any], *args: Any) -> Any:
        try:
            return operation(*args)
        except (EOFError, OSError):
            raise WorkerDied(f"worker process {self.process.name} died mid-call") from None

    def stop(self, *, kill: bool) -> None:
        """Close the pipe (an idle worker exits on EOF) and reap the process;
        ``kill`` — or a worker still running after :attr:`STOP_GRACE` —
        is SIGKILLed first."""
        if kill:
            self.process.kill()
        self.conn.close()
        self.process.join(self.STOP_GRACE)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        self.process.close()


class _ShardQueue:
    """Unbounded FIFO with a front-of-queue lane for requeued tasks.

    ``queue.SimpleQueue`` has no way to put an item back *ahead* of later
    submissions, which worker supervision needs: a task requeued after its
    worker died must run before tasks submitted after it, or the per-key
    ordering contract breaks.
    """

    def __init__(self) -> None:
        self._items: deque = deque()
        self._cond = threading.Condition()

    def put(self, item: Any) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify()

    def put_front(self, item: Any) -> None:
        with self._cond:
            self._items.appendleft(item)
            self._cond.notify()

    def get(self) -> Any:
        with self._cond:
            while not self._items:
                self._cond.wait()
            return self._items.popleft()


class ShardedWorkerPool:
    """Long-lived, supervised shards: a thread draining its own queue, and
    a worker process for the thread's CPU-bound calls.

    :func:`parallel_map` spins its pool up and down per call, which is right
    for one-shot batch evaluation but wrong for a process that stays up: a
    persistent service wants warm workers.  Tasks are submitted with a
    shard key (any hashable, such as a content digest) and *placed by
    load*: while the key has an unfinished (queued or running) task, a new
    task follows it onto that shard, so every in-flight task sharing a key
    executes on one shard thread in submission order; otherwise it goes to
    the shard with the fewest unfinished tasks, ties to the lowest index.
    A task stops counting once it returns, raises or its shard thread dies
    mid-task; one requeued before it started still counts.  The detection
    service keys by binary content digest, which serialises duplicate
    binaries behind each other — by the time the second copy runs, the
    first has already populated the cache — while distinct binaries never
    wait behind each other for a busy shard when another one is idle.

    Tasks are bare callables that run on the shard thread, where admission,
    caching and bookkeeping stay in the parent process; a task moves its
    CPU-bound part into the shard's worker process with :meth:`call`.  The
    worker process is started lazily on the shard's first call, from a
    ``forkserver`` context, so a pool costs no process until it has work,
    and ``workers`` shards use up to ``workers`` cores.

    Tasks own their error handling: a task that raises an ``Exception`` is
    recorded in :attr:`task_errors` (most recent last, bounded) and the
    shard moves on.  A ``BaseException`` — notably an injected
    :class:`~repro.resilience.faults.WorkerKilled` — unwinds the shard
    thread instead, and the supervisor takes over: the thread is restarted
    in place (:attr:`worker_restarts`) and, when the death struck *before*
    the dequeued task started, that task is requeued at the front of its
    shard (:attr:`requeued_tasks`) so it is never lost and never run twice.
    A death mid-task does **not** requeue — the task may have had side
    effects, and the service layer's retry policy owns that case.  A worker
    process that dies mid-call (:class:`WorkerDied`) or overruns the call's
    ``timeout`` (:class:`~repro.resilience.policy.DetectorTimeout`, after
    which it is killed) is reaped, counted in :attr:`worker_restarts`, and
    replaced by a fresh process on the shard's next call.

    Thread safety: :meth:`submit` may be called from any thread, including
    from tasks already running on the pool; :meth:`close` stops the shard
    threads and their worker processes, after which further submissions
    raise ``RuntimeError``.
    """

    #: how many unexpected task exceptions to keep for diagnosis
    MAX_TASK_ERRORS = 32

    def __init__(self, workers: int, *, name: str = "shard-worker"):
        self.workers = max(1, int(workers))
        self.name = name
        self.task_errors: list[BaseException] = []
        #: dead shard threads restarted, plus worker processes replaced
        self.worker_restarts = 0
        #: in-flight tasks requeued after their worker died pre-start
        self.requeued_tasks = 0
        self._closed = False
        self._lock = threading.Lock()
        self._queues: list[_ShardQueue] = [_ShardQueue() for _ in range(self.workers)]
        #: per-shard ``(key, task)`` dequeued but not yet started (requeue on death)
        self._current: list[Any] = [None] * self.workers
        #: per-shard count of unfinished (queued or running) tasks
        self._load = [0] * self.workers
        #: key -> ``[shard, unfinished tasks]`` while the key has any
        self._placed: dict[Hashable, list[int]] = {}
        #: per-shard worker process (``None`` until the shard's first call)
        self._processes: list[_WorkerProcess | None] = [None] * self.workers
        self._process_locks = [threading.Lock() for _ in range(self.workers)]
        self._threads: list[threading.Thread] = [
            self._spawn(index, generation=0) for index in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    def _spawn(self, shard: int, *, generation: int) -> threading.Thread:
        suffix = f"-{shard}" if generation == 0 else f"-{shard}r{generation}"
        return threading.Thread(
            target=self._run, args=(shard,), name=f"{self.name}{suffix}", daemon=True
        )

    def submit(self, shard_key: Hashable, task: Callable[[], Any]) -> int:
        """Queue ``task`` on the shard ``shard_key``'s unfinished tasks run
        on, or else on the least-loaded shard; returns the shard."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed ShardedWorkerPool")
            placed = self._placed.get(shard_key)
            if placed is None:
                shard = min(range(self.workers), key=self._load.__getitem__)
                placed = self._placed[shard_key] = [shard, 0]
            shard = placed[0]
            placed[1] += 1
            self._load[shard] += 1
            self._queues[shard].put((shard_key, task))
        return shard

    def _finish(self, shard_key: Hashable) -> None:
        """One of ``shard_key``'s tasks returned, raised or died mid-task."""
        with self._lock:
            placed = self._placed[shard_key]
            self._load[placed[0]] -= 1
            placed[1] -= 1
            if not placed[1]:
                del self._placed[shard_key]

    def call(
        self,
        shard_key: Hashable,
        fn: Callable[..., Any],
        *args: Any,
        timeout: float = 0.0,
        label: str = "call",
    ) -> Any:
        """Run ``fn(*args)`` in the worker process of ``shard_key``'s shard.

        Meant for the shard's own tasks (a task's own key resolves to the
        shard it runs on), which makes calls on one process sequential (a
        lock keeps any other caller in line).  ``fn``, the
        arguments and the return value cross a pipe, so they must pickle;
        an exception ``fn`` raises is re-raised here.  ``timeout > 0``
        bounds the call's run time: on expiry the process is killed and
        :class:`~repro.resilience.policy.DetectorTimeout` raised.  A process
        that dies mid-call raises :class:`WorkerDied`.  Either way the
        shard's next call starts a fresh process.
        """
        with self._lock:
            placed = self._placed.get(shard_key)
        # a key with no unfinished task (a direct call) hashes, stably for
        # the pool's life
        shard = hash(shard_key) % self.workers if placed is None else placed[0]
        with self._process_locks[shard]:
            process = self._processes[shard]
            if process is None:
                process = _WorkerProcess(f"{self.name}-{shard}")
                self._processes[shard] = process
            try:
                return process.call(fn, args, timeout, label)
            finally:
                if process.busy:  # died, timed out, or abandoned mid-call
                    self._processes[shard] = None
                    process.stop(kill=True)
                    with self._lock:
                        self.worker_restarts += 1

    # -- shard loop + supervision ---------------------------------------
    def _run(self, shard: int) -> None:
        try:
            self._drain(shard)
        except BaseException:  # noqa: BLE001 - thread death, supervised below
            self._revive(shard)
            return
        with self._process_locks[shard]:
            process, self._processes[shard] = self._processes[shard], None
        if process is not None:
            process.stop(kill=False)

    def _drain(self, shard: int) -> None:
        task_queue = self._queues[shard]
        while True:
            item = task_queue.get()
            if item is _STOP:
                return
            # Window where a worker death must requeue: the task is ours
            # but has not started.  The ``worker`` fault site fires inside
            # this window, so an injected kill exercises exactly the
            # requeue path and can never double-execute the task.  It is
            # keyed by the task's key, not the shard it was placed on, so
            # a plan's kill schedule does not depend on placement timing.
            self._current[shard] = item
            shard_key, task = item
            faults.fire("worker", str(shard_key))
            try:
                self._current[shard] = None
                task()
            except Exception as error:  # tasks own their errors
                self.task_errors.append(error)
                del self.task_errors[: -self.MAX_TASK_ERRORS]
            finally:
                self._finish(shard_key)

    def _revive(self, shard: int) -> None:
        with self._lock:
            self.worker_restarts += 1
            item = self._current[shard]
            self._current[shard] = None
            if item is not None:
                self._queues[shard].put_front(item)
                self.requeued_tasks += 1
            thread = self._spawn(shard, generation=self.worker_restarts)
            # start before publishing: close() joins whatever _threads holds,
            # and joining a never-started thread raises
            thread.start()
            self._threads[shard] = thread

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting work; with ``wait``, drain the queues and join the
        shard threads, which stop their worker processes as they exit.

        The join tolerates supervision: if a shard thread dies (and is
        replaced) while draining its remaining queue, the replacement is
        joined too — ``_STOP`` is re-consumed by whichever incarnation
        reaches it.  A later ``close(wait=True)`` after ``close(wait=False)``
        still joins.
        """
        with self._lock:
            if not self._closed:
                self._closed = True
                for task_queue in self._queues:
                    task_queue.put(_STOP)
        if wait:
            for shard in range(self.workers):
                while True:
                    with self._lock:
                        thread = self._threads[shard]
                    thread.join()
                    with self._lock:
                        if self._threads[shard] is thread:
                            break

    def __enter__(self) -> "ShardedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
