"""Tests for the multi-client TCP front-end of the detection service.

Four concerns, mirroring the server checklist:

* **protocol conformance** — golden request scripts are replayed against
  both the stdio :class:`ServeSession` and a live socket server, and the
  two event streams must be identical (modulo timings and the stats
  event's counters): the transports share one dispatch core and can
  never drift;
* **concurrency** — clients see only their own session-local jobs and
  events, a client disconnecting mid-stream neither kills the server nor
  loses anyone else's events, and a ``REPRO_FAULTS``-style storm against
  the server loses zero entries;
* **framing and guards** — oversized lines, truncated frames, invalid
  JSON/UTF-8, unknown ops, wrong auth tokens and exhausted submit quotas
  each answer a structured ``error`` event (or close that one session
  cleanly) without tearing down other sessions;
* **wait determinism** — ``wait`` answers from the session's own job
  table (immune to the service's bounded job-history eviction) and only
  after every ``result``/``job-done`` event of the job is on the wire.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import select
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from process_gate import ProcessGate

from repro.core.registry import register_detector
from repro.core.results import DetectionResult
from repro.resilience import faults
from repro.resilience.policy import ResilienceConfig
from repro.service import (
    DetectionServer,
    DetectionService,
    ServeSession,
    ServerError,
    ServiceClient,
)
from repro.store import ArtifactStore

#: open by default; a test that wants an in-flight job clears it
_GATE = ProcessGate(Path(tempfile.gettempdir()) / f"repro-test-gate-{os.getpid()}")


@register_detector(
    "test-gate",
    matrix=False,
    comparison=False,
    description="test-only detector that blocks until the module gate opens",
)
class GatedStubDetector:
    def __init__(self):
        # created in the test process; the gate travels with the instance
        # into the worker process (whose own module-level gate is unused)
        self.gate = _GATE

    def detect(self, image, context=None):
        self.gate.wait()
        return DetectionResult(binary_name=image.name)


@pytest.fixture(scope="module")
def elf_dir(tmp_path_factory, small_corpus):
    """The small corpus written out as ELF files, service-submission style."""
    from repro.elf.writer import write_elf

    directory = tmp_path_factory.mktemp("server-elves")
    paths = []
    for binary in small_corpus[:4]:
        path = directory / f"{binary.name.replace(':', '_')}.elf"
        path.write_bytes(write_elf(binary.image.elf))
        paths.append(str(path))
    return paths


# ----------------------------------------------------------------------
# Script runners: one for each transport, same requests in
# ----------------------------------------------------------------------

def _payload(requests: list[dict | str]) -> str:
    return "\n".join(
        request if isinstance(request, str) else json.dumps(request)
        for request in requests
    ) + "\n"


def run_stdio(
    requests: list[dict | str],
    *,
    service_kwargs: dict | None = None,
    **session_kwargs,
) -> list[dict]:
    output = io.StringIO()
    with DetectionService(**(service_kwargs or {"workers": 1})) as service:
        session = ServeSession(
            service, io.StringIO(_payload(requests)), output, **session_kwargs
        )
        assert session.run() == 0
    return [json.loads(line) for line in output.getvalue().splitlines()]


def run_tcp(
    requests: list[dict | str],
    *,
    service_kwargs: dict | None = None,
    **server_kwargs,
) -> list[dict]:
    with DetectionService(**(service_kwargs or {"workers": 1})) as service:
        with DetectionServer(service, **server_kwargs) as server:
            with socket.create_connection(server.address, timeout=60) as sock:
                sock.settimeout(60)
                sock.sendall(_payload(requests).encode("utf-8"))
                sock.shutdown(socket.SHUT_WR)
                buffer = b""
                while True:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        break
                    buffer += chunk
    return [json.loads(line) for line in buffer.decode("utf-8").splitlines()]


def normalize(events: list[dict]) -> list[dict]:
    """Strip what may legitimately differ between transports: timings and
    the stats event's live counters (the TCP server adds its own block)."""
    normalized = []
    for event in events:
        event = dict(event)
        event.pop("seconds", None)
        if event.get("event") == "stats":
            normalized.append({"event": "stats"})
            continue
        normalized.append(event)
    return normalized


# ----------------------------------------------------------------------
# Protocol conformance: stdio and socket can never drift
# ----------------------------------------------------------------------

class TestConformance:
    def _scripts(self, elf_dir) -> dict[str, tuple[list, dict]]:
        """name -> (requests, guard kwargs shared by session and server)."""
        return {
            "submit-wait-status-stats": (
                [
                    {"op": "submit", "paths": elf_dir[:2], "detectors": ["fetch"]},
                    {"op": "wait", "job": 1},
                    {"op": "status", "job": 1},
                    {"op": "stats"},
                    {"op": "shutdown"},
                ],
                {},
            ),
            "errors-never-fatal": (
                [
                    "this is not json",
                    "[1, 2, 3]",
                    {"op": "frobnicate"},
                    {"op": "submit", "paths": []},
                    {"op": "submit", "paths": ["a.elf"], "detectors": [7]},
                    {"op": "status", "job": 99},
                    {"op": "wait", "job": "x"},
                    {"op": "shutdown"},
                ],
                {},
            ),
            "two-jobs-warm-dedupe": (
                [
                    {"op": "submit", "paths": elf_dir[:1]},
                    {"op": "wait", "job": 1},
                    {"op": "submit", "paths": elf_dir[:2]},
                    {"op": "wait", "job": 2},
                    {"op": "status", "job": 1},
                    {"op": "shutdown"},
                ],
                {},
            ),
            "auth-handshake": (
                [
                    {"op": "stats"},
                    {"op": "auth", "token": "sesame"},
                    {"op": "submit", "paths": elf_dir[:1]},
                    {"op": "wait", "job": 1},
                    {"op": "shutdown"},
                ],
                {"auth_token": "sesame"},
            ),
            "submit-quota": (
                [
                    {"op": "submit", "paths": elf_dir[:1]},
                    {"op": "wait", "job": 1},
                    {"op": "submit", "paths": elf_dir[:1]},
                    {"op": "shutdown"},
                ],
                {"submit_quota": 1},
            ),
        }

    @pytest.mark.parametrize(
        "name",
        [
            "submit-wait-status-stats",
            "errors-never-fatal",
            "two-jobs-warm-dedupe",
            "auth-handshake",
            "submit-quota",
        ],
    )
    def test_stdio_and_socket_streams_are_identical(self, elf_dir, name):
        requests, guards = self._scripts(elf_dir)[name]
        stdio_events = run_stdio(requests, **guards)
        tcp_events = run_tcp(requests, **guards)
        assert normalize(stdio_events) == normalize(tcp_events)

    def test_golden_event_shape(self, elf_dir):
        """Pin the expected stream so a both-transports regression is caught."""
        requests, _ = self._scripts(elf_dir)["submit-wait-status-stats"]
        events = run_tcp(requests)
        kinds = [event["event"] for event in events]
        assert kinds == [
            "accepted", "result", "result", "job-done", "status", "status",
            "stats", "bye",
        ]
        assert events[0] == {
            "event": "accepted", "job": 1, "entries": 2, "units": 2,
        }
        assert all(event["job"] == 1 for event in events[1:3])
        assert events[3] == {"event": "job-done", "job": 1, "ok": 2, "errors": 0}
        assert events[4]["state"] == "done"

    def test_golden_error_shape(self, elf_dir):
        requests, _ = self._scripts(elf_dir)["errors-never-fatal"]
        events = run_tcp(requests)
        kinds = [event["event"] for event in events]
        assert kinds == ["error"] * 7 + ["bye"]

    def test_warm_dedupe_is_visible_on_the_wire(self, elf_dir):
        requests, _ = self._scripts(elf_dir)["two-jobs-warm-dedupe"]
        events = run_tcp(requests)
        results = [event for event in events if event["event"] == "result"]
        assert [event["cached"] for event in results] == [False, True, False]
        assert results[0]["function_starts"] == results[1]["function_starts"]

    def test_stats_events_carry_per_client_and_server_blocks(self, elf_dir):
        script = [
            {"op": "submit", "paths": elf_dir[:1]},
            {"op": "wait", "job": 1},
            {"op": "stats"},
            {"op": "shutdown"},
        ]
        stdio_stats = next(
            e for e in run_stdio(script) if e["event"] == "stats"
        )
        tcp_stats = next(e for e in run_tcp(script) if e["event"] == "stats")
        for stats in (stdio_stats, tcp_stats):
            assert stats["client"]["submits"] == 1
            assert stats["client"]["results_sent"] == 1
            # the resilience counters ride along on every transport
            assert "detector_retries" in stats["resilience"]
            assert "breaker_trips" in stats["resilience"]
        assert "server" not in stdio_stats
        assert tcp_stats["server"]["total_connections"] == 1
        assert tcp_stats["server"]["draining"] is False


# ----------------------------------------------------------------------
# Concurrency: isolation, mid-stream disconnects, fault storms
# ----------------------------------------------------------------------

class TestConcurrency:
    def test_clients_see_only_their_own_jobs_and_events(self, elf_dir):
        rounds = 3
        with DetectionService(workers=2) as service:
            with DetectionServer(service) as server:
                host, port = server.address

                def drive(paths: list[str], collected: list):
                    with ServiceClient.connect(host, port, timeout=60) as client:
                        for _ in range(rounds):
                            job = client.submit(paths)
                            events = list(client.results(job))
                            collected.append((job, events))

                mine: list = []
                theirs: list = []
                threads = [
                    threading.Thread(target=drive, args=(elf_dir[:2], mine)),
                    threading.Thread(target=drive, args=(elf_dir[2:4], theirs)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()

                for collected, paths in ((mine, elf_dir[:2]), (theirs, elf_dir[2:4])):
                    # job ids are session-local: both clients count 1..rounds
                    assert [job for job, _ in collected] == list(range(1, rounds + 1))
                    for job, events in collected:
                        assert sorted(e["name"] for e in events) == sorted(paths)
                        assert {e["job"] for e in events} == {job}
                        assert all(e.get("error") is None for e in events)
                # the service is genuinely shared: each unique binary ran once,
                # every later delivery was a cache hit
                assert service.detector_runs == 4

    def test_disconnect_mid_stream_hurts_nobody(self, elf_dir):
        _GATE.clear()
        try:
            with DetectionService(workers=2) as service:
                with DetectionServer(service) as server:
                    host, port = server.address
                    # the victim: submit a gated job, then vanish mid-stream
                    victim = socket.create_connection((host, port), timeout=30)
                    victim.sendall(
                        (json.dumps({
                            "op": "submit",
                            "paths": elf_dir[:1],
                            "detectors": ["test-gate"],
                        }) + "\n").encode()
                    )
                    reader = victim.makefile("r")
                    accepted = json.loads(reader.readline())
                    assert accepted["event"] == "accepted"
                    victim.close()  # abrupt: no shutdown op, job still running

                    with ServiceClient.connect(host, port, timeout=60) as client:
                        job = client.submit(elf_dir[1:3])
                        _GATE.set()  # let the orphaned job finish too
                        events = list(client.results(job))
                        # the healthy client lost nothing
                        assert sorted(e["name"] for e in events) == sorted(elf_dir[1:3])
                        assert client.summary(job)["ok"] == 2
                        # and the server is still accepting fresh connections
                        with ServiceClient.connect(host, port, timeout=60) as probe:
                            assert probe.stats()["event"] == "stats"
                    # the orphaned job ran to completion inside the service
                    assert service.job(1).wait(timeout=30)
        finally:
            _GATE.set()

    def test_fault_storm_against_server_loses_zero_entries(self, elf_dir, tmp_path):
        # the same spec string REPRO_FAULTS would carry; raise budget (3)
        # strictly below the retry budget (4) makes survival a guarantee
        plan = (
            "seed=11;"
            "detect:raise:rate=0.45,max=3;"
            "worker:kill:rate=0.25;"
            "store.write:torn:rate=0.5"
        )
        clients = 3
        with faults.injected(plan) as injector:
            with DetectionService(
                workers=3,
                store=ArtifactStore(tmp_path / "store"),
                resilience=ResilienceConfig(detect_attempts=4),
            ) as service:
                with DetectionServer(service) as server:
                    host, port = server.address
                    outcomes: list[list[dict]] = [[] for _ in range(clients)]

                    def drive(slot: int):
                        with ServiceClient.connect(host, port, timeout=120) as c:
                            job = c.submit(elf_dir)
                            outcomes[slot].extend(c.results(job))

                    threads = [
                        threading.Thread(target=drive, args=(slot,))
                        for slot in range(clients)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=180)
                        assert not thread.is_alive()
                    with ServiceClient.connect(host, port, timeout=60) as c:
                        resilience = c.stats()["resilience"]

        for events in outcomes:
            assert len(events) == len(elf_dir), "an entry was lost in the storm"
            assert all(e.get("error") is None for e in events)
        # the storm actually happened, and the counters made it to the wire
        assert sum(injector.injections.values()) > 0
        if injector.injections.get(("detect", "raise"), 0):
            assert resilience["detector_retries"] > 0
        if injector.injections.get(("worker", "kill"), 0):
            assert resilience["worker_restarts"] > 0

    def test_env_storm_through_cli_server(self, elf_dir):
        """The full stack: a --tcp server subprocess under REPRO_FAULTS."""
        source_root = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source_root), env.get("PYTHONPATH", "")])
        )
        env["REPRO_FAULTS"] = "seed=5;detect:raise:rate=0.9,max=2"
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--tcp", "127.0.0.1:0", "--workers", "2", "--no-store"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = server.stdout.readline().strip()
            assert banner.startswith("listening on "), banner
            host, port = banner.rsplit(" ", 1)[1].rsplit(":", 1)
            with ServiceClient.connect(host, int(port), timeout=120) as client:
                job = client.submit(elf_dir)
                events = list(client.results(job))
                stats = client.stats()
            assert len(events) == len(elf_dir)
            assert all(e.get("error") is None for e in events)
            # the plan injected (deterministically) and the service retried
            assert stats["resilience"]["detector_retries"] > 0
        finally:
            server.terminate()
            server.wait(timeout=30)


# ----------------------------------------------------------------------
# Framing and guard hooks
# ----------------------------------------------------------------------

def _lines(sock: socket.socket):
    """Read newline-framed JSON events until the server closes the stream."""
    buffer = b""
    sock.settimeout(30)
    while True:
        try:
            chunk = sock.recv(1 << 16)
        except OSError:
            break
        if not chunk:
            break
        buffer += chunk
    return [json.loads(line) for line in buffer.decode().splitlines()]


class TestFramingAndGuards:
    @pytest.fixture()
    def server(self, elf_dir):
        with DetectionService(workers=1) as service:
            with DetectionServer(service, max_line_bytes=2048) as srv:
                yield srv

    def test_oversized_line_closes_only_that_session(self, server, elf_dir):
        bystander = ServiceClient.connect(*server.address, timeout=60)
        with socket.create_connection(server.address, timeout=30) as sock:
            sock.sendall(b'{"op": "stats", "padding": "' + b"x" * 4096 + b'"}\n')
            events = _lines(sock)
        assert len(events) == 1
        assert events[0]["event"] == "error"
        assert "oversized" in events[0]["error"]
        # the bystander session survived the hostile one
        job = bystander.submit(elf_dir[:1])
        assert len(list(bystander.results(job))) == 1
        bystander.close()

    def test_truncated_frame_is_an_error_then_clean_close(self, server):
        with socket.create_connection(server.address, timeout=30) as sock:
            sock.sendall(b'{"op": "sta')  # no newline, then EOF
            sock.shutdown(socket.SHUT_WR)
            events = _lines(sock)
        assert [e["event"] for e in events] == ["error"]
        assert "truncated" in events[0]["error"]

    def test_invalid_json_and_unknown_op_keep_the_session(self, server):
        with socket.create_connection(server.address, timeout=30) as sock:
            reader = sock.makefile("r")
            for bad in (b"this is garbage\n", b'{"op": "frobnicate"}\n', b"\xff\xfe\n"):
                sock.sendall(bad)
                event = json.loads(reader.readline())
                assert event["event"] == "error"
            sock.sendall(b'{"op": "stats"}\n')
            event = json.loads(reader.readline())
            assert event["event"] == "stats"
            assert event["client"]["errors_sent"] == 3

    def test_wrong_token_closes_correct_token_serves(self, elf_dir):
        with DetectionService(workers=1) as service:
            with DetectionServer(service, auth_token="sesame") as server:
                with pytest.raises(ServerError, match="bad auth token"):
                    ServiceClient.connect(*server.address, token="wrong", timeout=30)
                with socket.create_connection(server.address, timeout=30) as sock:
                    sock.sendall(b'{"op": "auth", "token": "nope"}\n')
                    events = _lines(sock)
                # error, then clean close: no bye, no further events
                assert [e["event"] for e in events] == ["error"]

                with ServiceClient.connect(
                    *server.address, token="sesame", timeout=60
                ) as client:
                    job = client.submit(elf_dir[:1])
                    assert len(list(client.results(job))) == 1

    def test_unauthenticated_ops_are_refused_not_fatal(self):
        with DetectionService(workers=1) as service:
            with DetectionServer(service, auth_token="sesame") as server:
                with socket.create_connection(server.address, timeout=30) as sock:
                    reader = sock.makefile("r")
                    sock.sendall(b'{"op": "stats"}\n')
                    refusal = json.loads(reader.readline())
                    assert refusal["event"] == "error"
                    assert "authentication required" in refusal["error"]
                    sock.sendall(b'{"op": "auth", "token": "sesame"}\n')
                    assert json.loads(reader.readline())["event"] == "auth-ok"
                    sock.sendall(b'{"op": "stats"}\n')
                    assert json.loads(reader.readline())["event"] == "stats"

    def test_submit_quota_is_per_session(self, elf_dir):
        with DetectionService(workers=1) as service:
            with DetectionServer(service, submit_quota=1) as server:
                with ServiceClient.connect(*server.address, timeout=60) as client:
                    job = client.submit(elf_dir[:1])
                    list(client.results(job))
                    with pytest.raises(ServerError, match="quota"):
                        client.submit(elf_dir[:1])
                # a fresh session gets a fresh quota
                with ServiceClient.connect(*server.address, timeout=60) as client:
                    assert client.submit(elf_dir[:1]) == 1

    def test_idle_timeout_reaps_silent_connections(self):
        with DetectionService(workers=1) as service:
            with DetectionServer(service, idle_timeout=0.2) as server:
                with socket.create_connection(server.address, timeout=30) as sock:
                    events = _lines(sock)  # send nothing, just listen
        assert [e["event"] for e in events] == ["error"]
        assert "idle timeout" in events[0]["error"]


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------

class TestDrain:
    def test_drain_finishes_in_flight_refuses_new_closes_clean(self, elf_dir):
        _GATE.clear()
        try:
            service = DetectionService(workers=2)
            server = DetectionServer(service)
            server.start()
            host, port = server.address
            client = ServiceClient.connect(host, port, timeout=60)
            job = client.submit(elf_dir[:1], detectors=["test-gate"])

            shutdown_thread = threading.Thread(
                target=server.shutdown, kwargs={"drain": True, "timeout": 60}
            )
            shutdown_thread.start()
            deadline = time.monotonic() + 10
            while not server.draining and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.draining

            # new submissions on a live session answer a refusal event
            with pytest.raises(ServerError, match="draining"):
                client.submit(elf_dir[1:2])

            _GATE.set()  # let the in-flight job finish
            shutdown_thread.join(timeout=60)
            assert not shutdown_thread.is_alive()

            # the in-flight job's events all arrived before the close
            events = list(client.results(job, timeout=10))
            assert len(events) == 1 and events[0]["name"] == elf_dir[0]
            assert client.summary(job)["ok"] == 1
            client.close()
            service.close()

            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=5)
        finally:
            _GATE.set()

    def test_client_close_returns_while_server_holds_the_connection(self):
        """Regression: ``close()`` used to wait out the reader join's 5 s
        timeout, because closing a socket does not wake a thread blocked
        reading it; the client now shuts the socket down first."""
        with DetectionService(workers=1) as service:
            with DetectionServer(service) as server:
                client = ServiceClient.connect(*server.address, timeout=30)
                assert client.stats()["event"] == "stats"  # session is live
                began = time.monotonic()
                client.close()
                elapsed = time.monotonic() - began
                assert not client._reader.is_alive()
        assert elapsed < 1.0

    def test_shutdown_and_close_return_promptly_and_reap_workers(self, elf_dir):
        before = set(multiprocessing.active_children())
        service = DetectionService(workers=2)
        server = DetectionServer(service)
        server.start()
        with ServiceClient.connect(*server.address, timeout=60) as client:
            job = client.submit(elf_dir)
            assert len(list(client.results(job, timeout=60))) == len(elf_dir)
        workers = set(multiprocessing.active_children()) - before
        assert workers, "the detections must have run in worker processes"
        began = time.monotonic()
        server.shutdown(drain=True, timeout=30)
        service.close()
        assert time.monotonic() - began < 5.0
        assert set(multiprocessing.active_children()) - before == set()

    def test_cli_server_sigint_leaves_no_descendant_processes(self, elf_dir):
        """``serve --tcp --workers 2``: after SIGINT the server exits 0 and
        every process it started — worker processes, the fork server, the
        resource tracker — exits too.  pidfds make the wait event-driven."""
        source_root = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source_root), env.get("PYTHONPATH", "")])
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--tcp", "127.0.0.1:0", "--workers", "2", "--no-store"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        pidfds: list[int] = []
        try:
            banner = server.stdout.readline().strip()
            assert banner.startswith("listening on "), banner
            host, port = banner.rsplit(" ", 1)[1].rsplit(":", 1)
            with ServiceClient.connect(host, int(port), timeout=60) as client:
                job = client.submit(elf_dir)
                assert len(list(client.results(job, timeout=60))) == len(elf_dir)
            descendants = _descendants(server.pid)
            # the resource tracker and the fork server, and its workers
            assert len(descendants) >= 3, descendants
            pidfds = [os.pidfd_open(pid) for pid in descendants]
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=30) == 0
            pending = set(pidfds)
            deadline = time.monotonic() + 10
            while pending and time.monotonic() < deadline:
                ready, _, _ = select.select(list(pending), [], [], deadline - time.monotonic())
                pending.difference_update(ready)
            assert not pending, "a process the server started outlived it"
        finally:
            for fd in pidfds:
                os.close(fd)
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)

    def test_cli_server_drains_on_sigint_even_if_started_ignoring_it(self):
        """A background job of a non-interactive shell starts with SIGINT
        ignored; ``serve --tcp`` must still drain and exit 0 on SIGINT."""
        source_root = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source_root), env.get("PYTHONPATH", "")])
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--tcp", "127.0.0.1:0", "--workers", "1", "--no-store"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            banner = server.stdout.readline().strip()
            assert banner.startswith("listening on "), banner
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)


def _descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (children, grandchildren, ...)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        children.setdefault(parent, []).append(int(entry))
    found: list[int] = []
    frontier = [pid]
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(below)
    return found


# ----------------------------------------------------------------------
# Wait determinism (the status/wait race, fixed)
# ----------------------------------------------------------------------

class TestWaitDeterminism:
    def test_wait_answers_after_service_evicts_the_job(self, elf_dir):
        """Regression: ``wait``/``status`` used to look jobs up in the
        *service's* bounded history table, so a job finishing (and being
        evicted) between a client's ``status`` and ``wait`` answered
        "unknown job" — nondeterministically.  The session now keeps its
        own reference for its whole lifetime."""
        output = io.StringIO()
        with DetectionService(workers=1, job_history=1) as service:
            session = ServeSession(service, io.StringIO(), output)
            for job_id in range(1, 5):
                assert session._handle({"op": "submit", "paths": elf_dir[:1]})
                assert session._jobs[job_id].wait(timeout=30)
            # the service has forgotten job 1 ...
            with pytest.raises(KeyError):
                service.job(1)
            # ... but the session answers for it, deterministically
            assert session._handle({"op": "wait", "job": 1})
            assert session._handle({"op": "status", "job": 1})
            session.drain(timeout=30)
        events = [json.loads(line) for line in output.getvalue().splitlines()]
        answers = [e for e in events if e["event"] == "status"][-2:]
        for answer in answers:
            assert answer == {
                "event": "status", "job": 1, "state": "done", "done": 1, "total": 1,
            }

    def test_wait_status_lands_after_every_result_event(self, elf_dir):
        """``wait`` joins the job's drainer: its ``status`` answer must
        follow the job's last ``result`` and its ``job-done`` on the wire
        (no sleeps: the ordering is structural, so one pass per round)."""
        for _ in range(5):
            output = io.StringIO()
            with DetectionService(workers=2) as service:
                session = ServeSession(service, io.StringIO(), output)
                assert session._handle({"op": "submit", "paths": elf_dir})
                assert session._handle({"op": "wait", "job": 1})
                session.drain(timeout=30)
            events = [json.loads(line) for line in output.getvalue().splitlines()]
            kinds = [event["event"] for event in events]
            status_at = kinds.index("status")
            assert kinds.count("result") == len(elf_dir)
            assert all(
                index < status_at
                for index, kind in enumerate(kinds)
                if kind in ("result", "job-done")
            )
            assert events[status_at]["state"] == "done"
