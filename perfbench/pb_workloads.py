"""The two workloads, driven from outside the program.

Each workload prepares a *rig* (inputs written, server started, clients
connected), then runs a timed window with
:meth:`run` and tears down with :meth:`close`.  Preparing a rig is the
set-up that ``setup_s`` measures; a rig prepared only to time set-up is
dropped with :meth:`discard`.

Every blocking wait has a deadline: the server's ``listening`` line, every
result, client close, the SIGINT drain and every subprocess exit.  A wait
that runs out fails the operation or the run; nothing succeeds by timing
out.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import pb_inputs
import pb_trace

HERE = Path(__file__).resolve().parent

#: deadlines (seconds) for the waits a run makes
OP_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
CLOSE_TIMEOUT_S = 15.0

#: the eight Table III baselines, in the paper's column order
TABLE3_TOOLS = ("dyninst", "bap", "radare2", "nucleus", "ida", "ninja", "ghidra", "angr")

#: Table III "Avg." FETCH row the evaluation must reproduce at these seeds
TABLE3_PINNED = {2021: {"false_positives": 24, "false_negatives": 88, "functions": 22153}}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class RunFailure(RuntimeError):
    """Set-up or teardown could not complete; the run has no result."""


@dataclass
class Env:
    """Where a run works and how it starts the program."""

    root: Path
    work: Path
    seed: int

    def child_env(self) -> dict[str, str]:
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def program(self, args: list[str], spans_out: Path | None = None) -> list[str]:
        """The command running ``fetch-detect args`` (traced with ``spans_out``)."""
        if spans_out is None:
            return [sys.executable, "-m", "repro.cli", *args]
        return [sys.executable, str(HERE / "pb_launch.py"), str(spans_out), *args]


@dataclass
class Window:
    """What one timed window observed."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    #: perf_counter_ns at a serve window's edges, for filtering server spans
    edges: tuple[int, int] = (0, 0)
    tally: pb_inputs.Tally = field(default_factory=pb_inputs.Tally)
    #: submit → ``accepted`` and ``accepted`` → result, per serve operation
    submit_rtts: list[float] = field(default_factory=list)
    result_waits: list[float] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0


@contextlib.contextmanager
def _generator_gc_paused() -> Iterator[None]:
    """Keep the load generator's own garbage collector out of the timings.

    Only for windows whose program runs in other processes: a collection
    in this process would otherwise stall its client threads and show up
    as program latency.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass
class LayerData:
    """What a traced window left behind, gathered from wherever it ran."""

    #: :func:`pb_trace.layer_totals` over every span of the window
    totals: dict[str, dict[str, int]]
    #: instructions the decoder decoded during the window
    raw_decodes: int
    counters: dict[str, int] = field(default_factory=dict)
    #: decode-cache lookups of the Table III contexts
    decode_hits: int = 0
    decode_misses: int = 0


def _peak_rss_mb(include_self: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024.0


# ----------------------------------------------------------------------
# serve-cold
# ----------------------------------------------------------------------

def read_line(stream: Any, timeout: float) -> str:
    """One line from a pipe, or ``TimeoutError`` after ``timeout`` seconds."""
    fd = stream.fileno()
    buffer = b""
    deadline = time.monotonic() + timeout
    while b"\n" not in buffer:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no line within {timeout}s")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise EOFError(f"stream closed after {buffer!r}")
            buffer += chunk
    return buffer.split(b"\n", 1)[0].decode("utf-8", errors="replace")


class ServerProcess:
    """``fetch-detect serve --tcp`` as a subprocess, stopped by SIGINT drain."""

    def __init__(self, env: Env, directory: Path, spans_out: Path | None = None):
        directory.mkdir(parents=True, exist_ok=True)
        command = env.program(
            ["serve", "--tcp", "127.0.0.1:0", "--workers", str(nproc()),
             "--store", str(directory / "store")],
            spans_out,
        )
        self.spans_out = spans_out
        self.stderr_path = directory / "server.stderr"
        began = time.perf_counter()
        # faulthandler: a server aborted for missing a deadline dumps every
        # thread's stack into its stderr file, which the failure reports
        server_env = {**env.child_env(), "PYTHONFAULTHANDLER": "1"}
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, env=server_env, cwd=env.root,
            )
        try:
            line = read_line(self.proc.stdout, READY_TIMEOUT_S)
        except (TimeoutError, EOFError) as error:
            self.kill()
            raise RunFailure(f"server never listened: {error}: {self._stderr_tail()}") from None
        self.ready_s = time.perf_counter() - began
        if not line.startswith("listening on "):
            self.kill()
            raise RunFailure(f"unexpected server greeting {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        self.address = (host, int(port))

    def _stderr_tail(self, size: int = 500) -> str:
        return self.stderr_path.read_text(errors="replace")[-size:]

    def stop(self) -> None:
        """SIGINT drain; the server must exit 0 before the deadline."""
        self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill(signal.SIGABRT)
            raise RunFailure(f"server did not drain within {DRAIN_TIMEOUT_S}s; its threads: "
                             f"{self._stderr_tail(6000)}") from None
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise RunFailure(f"server exited {code} after drain: {self._stderr_tail()}")

    def kill(self, signum: int = signal.SIGKILL) -> None:
        self.proc.send_signal(signum)
        try:
            self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        self.proc.stdout.close()


class ServeRig:
    """One ``serve --tcp`` server and ``nproc`` persistent client connections,
    submitting binaries this server has never seen."""

    name = "serve-cold"

    def __init__(self, env: Env, slot: str, spans_out: Path | None = None):
        from repro.service import ServiceClient

        self.env = env
        cells = pb_inputs.draw_cells(env.seed, self.name, per_project=2)
        binaries = pb_inputs.build_cells(env.seed, cells)
        self.inputs = pb_inputs.write_inputs(binaries, env.work / slot / "elf")
        self.ops = pb_inputs.cold_passes(env.seed, len(self.inputs))
        self.server = ServerProcess(env, env.work / slot / "server", spans_out)
        self.stats: dict[str, Any] = {}
        self.clients: list[Any] = []
        try:
            for _ in range(nproc()):
                self.clients.append(
                    ServiceClient.connect(*self.server.address, timeout=OP_TIMEOUT_S)
                )
        except BaseException:
            self.discard()
            raise

    def _submit(self, client: Any, item: pb_inputs.Input, path: Path,
                window: Window) -> str | None:
        """One operation: submit one binary and check its single result.

        Returns why the operation failed, or ``None``.  A lost connection or
        a result that misses its deadline raises instead: the client's
        stream can no longer be trusted, so the window stops.
        """
        from repro.service import ServerError

        began = time.perf_counter()
        try:
            job = client.submit([str(path)])
        except ServerError as error:
            return f"{item.name}: refused: {error}"
        accepted = time.perf_counter()
        events = list(client.results(job, timeout=OP_TIMEOUT_S))
        done = time.perf_counter()
        summary = client.summary(job) or {}
        if len(events) != 1:
            return f"{item.name}: {len(events)} results for a one-binary job"
        event = events[0]
        if event.get("name") != str(path) or event.get("detector") != "fetch":
            return f"{item.name}: cross-delivered result for {event.get('name')!r}"
        if "error" in event or summary.get("ok") != 1 or summary.get("errors") != 0:
            return f"{item.name}: error result {event.get('error')!r}, job-done {summary}"
        if event.get("cached") is not False:
            return f"{item.name}: cached={event.get('cached')} for a binary never seen"
        starts = event.get("function_starts")
        if not isinstance(starts, list) or event.get("count") != len(starts):
            return f"{item.name}: malformed result event"
        with window.lock:
            error = window.tally.check(item.name, starts, item.truth)
            if error is None:
                window.latencies.append(done - began)
                window.submit_rtts.append(accepted - began)
                window.result_waits.append(done - accepted)
        return error

    def run(self, seconds: float) -> Window:
        with _generator_gc_paused():
            return self._run(seconds)

    def _run(self, seconds: float) -> Window:
        window = Window()
        lock = threading.Lock()
        start = time.perf_counter()
        aborted: list[str] = []

        def next_op() -> tuple[int, int] | None:
            with lock:
                if aborted or time.perf_counter() - start >= seconds:
                    return None
                window.attempted += 1
                return next(self.ops)

        def loop(client: Any) -> None:
            while (op := next_op()) is not None:
                index, variant = op
                item = self.inputs[index]
                try:
                    error = self._submit(client, item, item.variant(variant), window)
                except (TimeoutError, ConnectionError) as lost:
                    error = f"{item.name}: {type(lost).__name__}: {lost}"
                    aborted.append(error)
                if error is not None:
                    with window.lock:
                        window.fail(error)

        threads = [threading.Thread(target=loop, args=(client,), daemon=True)
                   for client in self.clients]
        window.edges = (time.perf_counter_ns(), 0)
        if self.server.spans_out:
            self.server.proc.send_signal(signal.SIGUSR1)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + OP_TIMEOUT_S + 5)
            if thread.is_alive():
                raise RunFailure("a client thread outlived every operation deadline")
        window.elapsed = time.perf_counter() - start
        window.edges = (window.edges[0], time.perf_counter_ns())
        if self.server.spans_out:
            self.server.proc.send_signal(signal.SIGUSR1)
        if not aborted:
            self.stats = self.clients[0].stats()
        return window

    def _close_clients(self) -> list[float]:
        """Close every client with the ordinary ``ServiceClient.close()``."""
        durations: list[float] = [0.0] * len(self.clients)

        def close(index: int) -> None:
            began = time.perf_counter()
            self.clients[index].close()
            durations[index] = time.perf_counter() - began

        threads = [threading.Thread(target=close, args=(index,), daemon=True)
                   for index in range(len(self.clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=CLOSE_TIMEOUT_S)
            if thread.is_alive():
                raise RunFailure(f"ServiceClient.close() still blocked after {CLOSE_TIMEOUT_S}s")
        return durations

    def layer_data(self, tracer: pb_trace.Tracer, window: Window) -> LayerData:
        """The server's spans that ended inside the window (after its drain)."""
        dump = pb_trace.load_dump(str(self.server.spans_out))
        signals = [decodes for label, _, decodes in dump["marks"] if label == "signal"]
        return LayerData(pb_trace.layer_totals(dump["spans"], window.edges),
                         signals[1] - signals[0], dump["counters"])

    def probe_args(self) -> list[str]:
        """The server's imports: ``serve`` imports the service, then argparse exits."""
        return ["serve", "--help"]

    def close(self) -> dict[str, Any]:
        """Close the clients first, then drain the server with SIGINT."""
        durations = self._close_clients()
        self.server.stop()
        return {"client_close_s": durations, "peak_rss_mb": _peak_rss_mb(include_self=False)}

    def discard(self) -> None:
        """Drain the server first, so closing the clients does not wait."""
        self.server.stop()
        self._close_clients()

    def abort(self) -> None:
        """Kill the server, after a failure, if it still runs."""
        if self.server.proc.poll() is None:
            self.server.kill()
        self._close_clients()


# ----------------------------------------------------------------------
# eval-table3
# ----------------------------------------------------------------------

class EvalRig:
    """Table III: whole ``run_tool_comparison`` passes over the full corpus.

    One operation is one binary evaluated by all nine tools.  A pass gets a
    fresh ``CorpusEvaluator(workers=nproc)``, so every pass does the same
    work.  The window runs whole passes, so the Table III totals stay
    exact: it starts another pass only while the slowest pass so far would
    still end within ``seconds`` (the first pass always runs).  The
    user-visible latency of this workload is the pass: ``latency_*`` are
    taken over passes.
    """

    name = "eval-table3"

    def __init__(self, env: Env, slot: str, tracer: pb_trace.Tracer | None = None):
        self.env = env
        self.corpus = pb_inputs.build_full_corpus(env.seed)
        self.functions = sum(len(b.ground_truth.function_starts) for b in self.corpus)
        self.tracer = tracer
        self.child_dir = env.work / slot / "children"
        self.first_table: dict[str, dict[str, tuple[int, int, int]]] | None = None
        self.baseline_counts = [0, 0, 0]  # tp, fp, fn over the eight baselines
        self.context_stats: dict[str, Any] = {}

    def _check(self, table: dict[str, dict[str, Any]]) -> str | None:
        cells = {
            level: {tool: (cell.false_positives, cell.false_negatives, cell.functions)
                    for tool, cell in row.items()}
            for level, row in table.items()
        }
        if self.first_table is None:
            self.first_table = cells
        elif cells != self.first_table:
            return "Table III differs from the first pass"
        average = cells.get("Avg.", {})
        if set(average) != set(TABLE3_TOOLS) | {"fetch"}:
            return f"unexpected tool set {sorted(average)}"
        for tool, (_fp, _fn, functions) in average.items():
            if functions != self.functions:
                return f"{tool}: {functions} functions, ground truth has {self.functions}"
        fp, fn, functions = average["fetch"]
        pinned = TABLE3_PINNED.get(self.env.seed)
        if pinned is not None and (fp, fn, functions) != (
            pinned["false_positives"], pinned["false_negatives"], pinned["functions"]
        ):
            return f"FETCH FP {fp} / FN {fn} of {functions}, Table III pins {pinned}"
        return None

    def run(self, seconds: float) -> Window:
        from repro.eval import runner

        window = Window()
        start = time.perf_counter()
        if self.tracer is not None:
            self.child_dir.mkdir(parents=True, exist_ok=True)
            self.tracer.child_dir = str(self.child_dir)
        while True:
            began = time.perf_counter()
            window.attempted += len(self.corpus)
            try:
                with runner.CorpusEvaluator(self.corpus, workers=nproc()) as evaluator:
                    table = runner.run_tool_comparison(self.corpus, evaluator=evaluator)
                    self.context_stats = evaluator.context_stats()
            except Exception as error:  # noqa: BLE001 - a failed pass fails its operations
                window.fail(f"pass raised {type(error).__name__}: {error}", len(self.corpus))
                break
            latency = time.perf_counter() - began
            error = self._check(table)
            if error is not None:
                window.fail(error, len(self.corpus))
                break
            window.latencies.append(latency)
            fp, fn, functions = (table["Avg."]["fetch"].false_positives,
                                 table["Avg."]["fetch"].false_negatives,
                                 table["Avg."]["fetch"].functions)
            window.tally.true_positives += functions - fn
            window.tally.false_positives += fp
            window.tally.false_negatives += fn
            for tool in TABLE3_TOOLS:
                cell = table["Avg."][tool]
                self.baseline_counts[0] += cell.functions - cell.false_negatives
                self.baseline_counts[1] += cell.false_positives
                self.baseline_counts[2] += cell.false_negatives
            if time.perf_counter() - start + max(window.latencies) > seconds:
                break
        window.elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.child_dir = None
        return window

    def baseline_precision_recall(self) -> tuple[float, float]:
        tp, fp, fn = self.baseline_counts
        return (tp / (tp + fp) if tp + fp else 0.0, tp / (tp + fn) if tp + fn else 0.0)

    def close(self) -> dict[str, Any]:
        return {"peak_rss_mb": _peak_rss_mb(include_self=True)}

    def layer_data(self, tracer: pb_trace.Tracer, window: Window) -> LayerData:
        """This process's spans plus the pool children's per-binary rows.

        The window is bracketed by the tracer's last two marks; decoder work
        in the children is folded into this process's counter by the program.
        """
        data = LayerData(pb_trace.layer_totals(tracer.spans),
                         tracer.marks[-1][2] - tracer.marks[-2][2], dict(tracer.counters))
        data.decode_hits = self.context_stats.get("decode_hits", 0)
        data.decode_misses = self.context_stats.get("decode_misses", 0)
        for row in pb_trace.read_child_rows(str(self.child_dir)):
            pb_trace.merge_totals(data.totals, row["layers"])
            data.decode_hits += row["decode_hits"]
            data.decode_misses += row["decode_misses"]
        return data

    def probe_args(self) -> list[str]:
        """A one-shot CLI run on one corpus binary, written out for it."""
        probe = pb_inputs.write_inputs(self.corpus[:1], self.child_dir.parent / "probe")[0]
        return [str(probe.path), "--no-store"]

    def discard(self) -> None:
        self.corpus = []

    abort = discard


def prepare(name: str, env: Env, slot: str, *, tracer: pb_trace.Tracer | None = None,
            spans_out: Path | None = None) -> Any:
    """Set up one rig of workload ``name`` (traced when given a dump path)."""
    if name == "serve-cold":
        return ServeRig(env, slot, spans_out=spans_out)
    if name == "eval-table3":
        return EvalRig(env, slot, tracer)
    raise ValueError(f"unknown workload {name!r}")
