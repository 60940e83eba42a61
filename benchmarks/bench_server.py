"""Socket-server load — many concurrent clients over one shared service.

Drives ``REPRO_BENCH_CLIENTS`` (default 100) concurrent
:class:`~repro.service.ServiceClient` connections through a single
:class:`~repro.service.DetectionServer`, every client submitting the same
mixed cold/warm batch (half the corpus is pre-warmed through the service
before the storm, the other half is cold when the clients arrive).  All
clients connect first and release together off a barrier, so the load is
genuinely simultaneous.

Recorded into the ``server`` block of ``BENCH_service.json``:

* **throughput** — result events delivered per second across the storm;
* **per-request latency** (p50/p90/p99) — submit sent to ``accepted``
  received, per client;
* **per-result latency** (p50/p90/p99) — submit sent to each ``result``
  event's arrival.

The run is also a correctness gate: every client must receive exactly its
own job's events (session-local job ids, no cross-delivery) and exactly
one result per submitted entry (zero lost).  The shared service must
dedupe across the whole storm — total detector invocations equal the
number of unique binaries, not clients × binaries.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from benchstats import percentile
from repro.elf.writer import write_elf
from repro.service import DetectionServer, DetectionService, ServiceClient
from repro.store import ArtifactStore

BENCH_DIRECTORY = Path(__file__).resolve().parent.parent

_WORKERS = 4
_CLIENTS = max(2, int(os.environ.get("REPRO_BENCH_CLIENTS", "100")))
_CLIENT_TIMEOUT = 600.0


def _percentiles(values: list[float]) -> dict[str, float]:
    return {
        "p50": round(percentile(values, 0.50), 6),
        "p90": round(percentile(values, 0.90), 6),
        "p99": round(percentile(values, 0.99), 6),
    }


class _ClientRun:
    """One client's view of the storm: latencies plus delivery bookkeeping."""

    def __init__(self) -> None:
        self.job_id: int | None = None
        self.request_latency: float | None = None
        self.result_latencies: list[float] = []
        self.names: list[str] = []
        self.jobs_seen: set[int] = set()
        self.errors: list[str] = []
        self.failure: str | None = None


def _drive(
    address: tuple[str, int],
    paths: list[str],
    barrier: threading.Barrier,
    run: _ClientRun,
) -> None:
    try:
        with ServiceClient.connect(*address, timeout=_CLIENT_TIMEOUT) as client:
            barrier.wait(timeout=120)
            submitted = time.perf_counter()
            run.job_id = client.submit(paths)
            run.request_latency = time.perf_counter() - submitted
            for event in client.results(run.job_id, timeout=_CLIENT_TIMEOUT):
                run.result_latencies.append(time.perf_counter() - submitted)
                run.names.append(event["name"])
                run.jobs_seen.add(event["job"])
                if event.get("error") is not None:
                    run.errors.append(event["error"])
    except Exception as error:  # recorded, asserted on the main thread
        run.failure = f"{type(error).__name__}: {error}"


def test_server_load_many_concurrent_clients(
    selfbuilt_corpus_small, tmp_path_factory, report_writer
):
    directory = tmp_path_factory.mktemp("server-bench")
    paths = []
    for binary in selfbuilt_corpus_small:
        path = directory / f"{binary.name.replace(':', '_')}.elf"
        path.write_bytes(write_elf(binary.image.elf))
        paths.append(str(path))
    warm_half = paths[: len(paths) // 2]

    store = ArtifactStore(directory / "store")
    with DetectionService(workers=_WORKERS, queue_limit=0, store=store) as service:
        # pre-warm half the corpus: the storm is deliberately mixed
        list(service.submit(warm_half).results())
        prewarmed_runs = service.detector_runs

        with DetectionServer(service) as server:
            runs = [_ClientRun() for _ in range(_CLIENTS)]
            barrier = threading.Barrier(_CLIENTS + 1)
            threads = [
                threading.Thread(
                    target=_drive, args=(server.address, paths, barrier, run)
                )
                for run in runs
            ]
            for thread in threads:
                thread.start()
            barrier.wait(timeout=120)  # every client connected: release the storm
            storm_start = time.perf_counter()
            for thread in threads:
                thread.join(timeout=_CLIENT_TIMEOUT)
                assert not thread.is_alive(), "a client never finished"
            storm_seconds = time.perf_counter() - storm_start

        detector_runs = service.detector_runs
        stats = service.stats()

    # -- correctness gates: zero lost, zero cross-delivered ---------------
    failures = [run.failure for run in runs if run.failure]
    assert not failures, failures
    for run in runs:
        assert len(run.names) == len(paths), "a result event was lost"
        assert sorted(run.names) == sorted(paths), "a foreign entry was delivered"
        assert run.jobs_seen == {run.job_id}, "an event crossed sessions"
        assert not run.errors, run.errors
    # shared-service dedupe: unique binaries ran once, everything else warm
    assert detector_runs == len(paths)

    # -- the record -------------------------------------------------------
    request_latencies = [run.request_latency for run in runs]
    result_latencies = [
        latency for run in runs for latency in run.result_latencies
    ]
    total_results = len(result_latencies)
    server_block = {
        "clients": _CLIENTS,
        "workers": _WORKERS,
        "binaries_per_client": len(paths),
        "prewarmed_binaries": len(warm_half),
        "detector_runs": detector_runs - prewarmed_runs,
        "total_results_delivered": total_results,
        "lost_results": 0,
        "cross_delivered_results": 0,
        "storm_seconds": round(storm_seconds, 6),
        "throughput_results_per_second": round(total_results / storm_seconds, 3),
        "request_latency_seconds": _percentiles(request_latencies),
        "result_latency_seconds": _percentiles(result_latencies),
        "resilience": stats["resilience"],
    }

    bench_path = BENCH_DIRECTORY / "BENCH_service.json"
    record: dict = {}
    if bench_path.exists():
        record = json.loads(bench_path.read_text())
    record["server"] = server_block
    record.setdefault("bench", "service")
    record["created_unix"] = round(time.time(), 3)
    bench_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    request_p = server_block["request_latency_seconds"]
    result_p = server_block["result_latency_seconds"]
    report_writer(
        "server",
        "\n".join(
            [
                "Detection server — concurrent-client load",
                f"  clients               : {_CLIENTS}"
                f" ({len(paths)} binaries each, {len(warm_half)} pre-warmed)",
                f"  results delivered     : {total_results}"
                " (0 lost, 0 cross-delivered)",
                f"  storm wall time       : {storm_seconds:.3f}s"
                f" ({total_results / storm_seconds:.1f} results/s)",
                f"  request latency       : p50 {request_p['p50'] * 1e3:.1f}ms"
                f"  p90 {request_p['p90'] * 1e3:.1f}ms"
                f"  p99 {request_p['p99'] * 1e3:.1f}ms",
                f"  result latency        : p50 {result_p['p50'] * 1e3:.1f}ms"
                f"  p90 {result_p['p90'] * 1e3:.1f}ms"
                f"  p99 {result_p['p99'] * 1e3:.1f}ms",
                f"  detector runs (storm) : {detector_runs - prewarmed_runs}"
                f" of {_CLIENTS * len(paths)} submitted units",
            ]
        ),
    )
