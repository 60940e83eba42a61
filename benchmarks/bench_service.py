"""Detection-service throughput — cold vs. warm batch submission.

Submits the self-built corpus through a persistent
:class:`~repro.service.DetectionService` three ways and records batch
throughput in ``BENCH_service.json``:

* **cold** — a fresh artifact store: every entry runs the detector;
* **warm, same service** — the identical batch resubmitted to the still-
  running service: served from the store/memo, zero detector invocations;
* **warm, restarted service** — a brand-new service over the same store
  (the "process restarted" case): still zero detector invocations, proving
  the dedupe lives in the content-addressed store, not in process memory.

The ``scaling`` block sweeps cold throughput over ``workers`` = 1 … nproc
on the recording machine, plus one oversubscribed point (nproc + 1), so
the record shows where adding worker processes stops paying.  Each point
is a fresh service with no store; a no-op detector batch first starts
every worker process (start-up and imports are not what the sweep
measures, and the no-op warms no cache), then the timed FETCH batch runs.
The best of :data:`_SCALING_ROUNDS` rounds is kept.

The store for this benchmark is deliberately private and temporary (not the
shared ``benchmarks/.store``) so the cold leg is cold on every run and the
cold/warm ratio stays comparable run-to-run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.results import DetectionResult
from repro.elf.writer import write_elf
from repro.service import DetectionService
from repro.store import ArtifactStore

BENCH_DIRECTORY = Path(__file__).resolve().parent.parent

_WORKERS = 2
_SCALING_ROUNDS = 3
#: a sweep point within this share of the best throughput counts as saturated
_SATURATION_SHARE = 0.9


class _StartWorkers:
    """A no-op detector: one batch of it starts every worker process
    without warming the FETCH memo or store."""

    name = "start-workers"

    def detect(self, image, context=None):
        return DetectionResult(binary_name=image.name)


def _timed_batch(service: DetectionService, paths: list[str]) -> tuple[float, list]:
    start = time.perf_counter()
    results = list(service.submit(paths).results())
    return time.perf_counter() - start, results


def _scaling_sweep(paths: list[str]) -> dict:
    """Cold FETCH throughput at workers = 1 … nproc, then nproc + 1."""
    nproc = len(os.sched_getaffinity(0))
    points = []
    for workers in range(1, nproc + 2):
        best = None
        for _ in range(_SCALING_ROUNDS):
            with DetectionService(workers=workers, queue_limit=0) as service:
                started = list(service.submit(paths, detectors=[_StartWorkers()]).results())
                assert all(result.ok for result in started)
                seconds, results = _timed_batch(service, paths)
                assert all(result.ok and not result.cached for result in results)
                assert service.detector_runs == 2 * len(paths)
            best = seconds if best is None else min(best, seconds)
        points.append({"workers": workers, "cold_seconds": round(best, 6)})
    base = points[0]["cold_seconds"]
    for point in points:
        point["throughput_binaries_per_second"] = round(len(paths) / point["cold_seconds"], 3)
        point["speedup"] = round(base / point["cold_seconds"], 3)
        point["efficiency"] = round(base / point["cold_seconds"] / point["workers"], 3)
    best_throughput = max(point["throughput_binaries_per_second"] for point in points)
    saturates_at = next(
        point["workers"]
        for point in points
        if point["throughput_binaries_per_second"] >= _SATURATION_SHARE * best_throughput
    )
    return {
        "nproc": nproc,
        "binaries": len(paths),
        "rounds_best_of": _SCALING_ROUNDS,
        "points": points,
        "saturates_at_workers": saturates_at,
    }


def test_service_cold_vs_warm_throughput(
    benchmark, selfbuilt_corpus_small, tmp_path_factory, report_writer
):
    directory = tmp_path_factory.mktemp("service-bench")
    paths = []
    for binary in selfbuilt_corpus_small:
        path = directory / f"{binary.name.replace(':', '_')}.elf"
        path.write_bytes(write_elf(binary.image.elf))
        paths.append(str(path))

    store_root = directory / "store"

    def cold_batch():
        with DetectionService(workers=_WORKERS, store=ArtifactStore(store_root)) as service:
            seconds, results = _timed_batch(service, paths)
            return seconds, results, service.detector_runs, service.stats()

    cold_seconds, cold_results, cold_runs, cold_stats = benchmark.pedantic(
        cold_batch, rounds=1, iterations=1
    )
    assert cold_runs == len(paths), "cold batch must run every detector"
    assert all(result.ok for result in cold_results)

    # warm, same store, restarted service: the store alone must dedupe
    with DetectionService(workers=_WORKERS, store=ArtifactStore(store_root)) as warm_service:
        warm_seconds, warm_results, = _timed_batch(warm_service, paths)[:2]
        rerun_seconds, _ = _timed_batch(warm_service, paths)
        warm_runs = warm_service.detector_runs
        warm_stats = warm_service.stats()

    assert warm_runs == 0, "warm batch re-ran detectors"
    assert all(result.cached for result in warm_results)
    assert warm_stats["store"]["detection_hits"] >= len(paths)
    assert {result.name: result.function_starts for result in warm_results} == {
        result.name: result.function_starts for result in cold_results
    }, "warm results drifted from cold"
    assert warm_seconds < cold_seconds, "a zero-work batch must beat a full one"

    scaling = _scaling_sweep(paths)

    record = {
        "bench": "service",
        "created_unix": round(time.time(), 3),
        "workers": _WORKERS,
        "binaries": len(paths),
        "timings_seconds": {
            "cold_batch": round(cold_seconds, 6),
            "warm_batch_restarted_service": round(warm_seconds, 6),
            "warm_batch_same_service": round(rerun_seconds, 6),
        },
        "throughput_binaries_per_second": {
            "cold": round(len(paths) / cold_seconds, 3),
            "warm": round(len(paths) / warm_seconds, 3),
        },
        "detector_runs": {"cold": cold_runs, "warm": warm_runs},
        "store": {
            "cold": {
                key: cold_stats["store"][key]
                for key in ("detection_hits", "detection_misses")
            },
            "warm": {
                key: warm_stats["store"][key]
                for key in ("detection_hits", "detection_misses")
            },
        },
        "extra": {"warm_speedup": round(cold_seconds / warm_seconds, 3)},
        "scaling": scaling,
    }
    path = BENCH_DIRECTORY / "BENCH_service.json"
    if path.exists():
        # the socket-server load benchmark (bench_server.py) contributes a
        # "server" block to the same record: carry it across rewrites
        previous = json.loads(path.read_text())
        if "server" in previous:
            record["server"] = previous["server"]
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    report_writer(
        "service",
        "\n".join(
            [
                "Detection service — cold vs. warm batch throughput",
                f"  binaries              : {len(paths)}",
                f"  cold batch            : {cold_seconds:.3f}s "
                f"({len(paths) / cold_seconds:.1f} bin/s, {cold_runs} detector runs)",
                f"  warm batch (restarted): {warm_seconds:.3f}s "
                f"({len(paths) / warm_seconds:.1f} bin/s, {warm_runs} detector runs)",
                f"  warm batch (same svc) : {rerun_seconds:.3f}s",
                f"  warm speedup          : {cold_seconds / warm_seconds:.1f}x",
                f"  cold scaling (nproc {scaling['nproc']}, saturates at "
                f"{scaling['saturates_at_workers']} workers):",
                *(
                    f"    workers {point['workers']:>2}          : "
                    f"{point['throughput_binaries_per_second']:.1f} bin/s "
                    f"(x{point['speedup']:.2f})"
                    for point in scaling["points"]
                ),
            ]
        ),
    )
